// Shared harness of the perfbench binary: options, seeded inputs, sample
// statistics, operation accounting, PRAGMA *_stats snapshots and the
// span tracer. Every layer is measured from outside the engine, by timing
// calls into its public functions; nothing here reaches into src/.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "mallard/common/status.h"
#include "mallard/main/connection.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point start) {
  return MsBetween(start, Clock::now());
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;    // tiny sizes: every workload in seconds
  std::string scratch;   // writable directory inside the checkout
};

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// reproduces every input on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  /// Uniform double in [0, 1).
  double Unit() { return (Next() >> 11) * (1.0 / 9007199254740992.0); }

 private:
  uint64_t state_;
};

/// Latency (or any timing) samples of one kind of operation.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Sum() const;
  double Mean() const { return values_.empty() ? 0 : Sum() / size(); }

 private:
  std::vector<double> values_;
};

double GeoMean(const std::vector<double>& values);

/// Every attempted operation ends in exactly one of these buckets. Only
/// kOk operations contribute latency samples.
enum class Outcome { kOk, kFailed, kShed, kTimedOut };

Outcome Classify(const mallard::Status& status);

/// Thread-safe operation accounting for one run.
struct OpCounts {
  std::atomic<long long> attempted{0};
  std::atomic<long long> failed{0};
  std::atomic<long long> shed{0};
  std::atomic<long long> timed_out{0};
  void Count(Outcome outcome);
  long long NotOk() const { return failed + shed + timed_out; }
};

/// Correctness verdict of a run: the first mismatch wins and is kept
/// for the report. Thread-safe.
class Verdict {
 public:
  void Fail(const std::string& why);
  bool ok() const { return ok_.load(); }
  std::string reason() const;

 private:
  std::atomic<bool> ok_{true};
  mutable std::mutex mu_;
  std::string reason_;
};

/// One row of a `PRAGMA <name>` counters result, by column name.
using StatRow = std::map<std::string, double>;

/// The engine's counter rows at one instant. Deltas between two
/// snapshots scope every counter to the phase between them.
struct Snapshot {
  StatRow buffer, storage, scheduler, admission, plan_cache, resilience, wal;
};
Snapshot TakeSnapshot(mallard::Connection* con);
/// after[row][key] - before[row][key]; 0 for a missing key.
double Delta(const StatRow& before, const StatRow& after,
             const std::string& key);

/// Adds, key by key, the deltas between `before` and `after` to `sum`:
/// counters summed over phases on different database instances.
void Accumulate(const Snapshot& before, const Snapshot& after, Snapshot* sum);

/// Layers a span can belong to. kRequest is the benchmark's own root
/// span around one client operation; the rest are engine modules.
enum class Layer {
  kRequest,
  kParser,
  kPlanner,
  kExecution,
  kTransaction,
  kMain,
  kStorage,
  kCount
};
const char* LayerName(Layer layer);

class Tracer;

/// The spans one thread records. Spans nest strictly per thread, so the
/// open ones form a stack and a span's parent is the stack's top.
class SpanLog {
 public:
  struct Record {
    const char* name;
    Layer layer;
    int32_t parent;  // index in this log, -1 for a root span
    uint64_t request;
    Clock::time_point start, end;
  };

  /// Starts a new request id for the next root span.
  void BeginRequest() { request_++; }

 private:
  friend class Span;
  friend class Tracer;
  std::vector<Record> records_;
  std::vector<int32_t> open_;
  uint64_t request_ = 0;
  int thread_ = 0;
};

/// Times one call into the engine. Always measures; also records a span
/// when given a log (the traced run), so untraced runs pay one clock
/// read per boundary and nothing else.
class Span {
 public:
  Span(SpanLog* log, Layer layer, const char* name);
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  /// Closes the span (idempotent) and returns its duration in ms.
  double End();

 private:
  SpanLog* log_;
  int32_t index_ = -1;
  Clock::time_point start_;
  double ms_ = -1;
};

/// Owns the span logs of every thread of a traced phase and reduces them
/// to per-layer self time.
class Tracer {
 public:
  /// A log for one client thread; stable until the tracer is destroyed.
  SpanLog* NewLog();
  /// Adds `ms` of wall time a client thread spent in the traced phase.
  void AddThreadWall(double ms);

  /// Self time per layer (span minus the part its children cover),
  /// summed over threads, in ms.
  std::vector<double> SelfMs() const;
  size_t SpanCount() const;
  double ThreadWallMs() const { return thread_wall_ms_; }
  /// Writes every span as CSV. Returns false if the file can't be
  /// written.
  bool Write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
  double thread_wall_ms_ = 0;
};

/// Metrics of one run in emission order, each with its unit.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// What a workload hands back to main().
struct RunResult {
  Verdict verdict;
  OpCounts ops;
  Metrics end_to_end;  // the contract's end-to-end metrics (trace 0)
  Metrics per_layer;   // the contract's per-layer metrics (trace 1)
  Metrics report;      // workload-specific numbers, printed for humans
  std::vector<std::pair<std::string, std::string>> env;  // stamp entries
};

/// Sets the tracing-overhead and self-time metrics of a traced run.
void ReportTrace(const Tracer& tracer, double untraced_ops_per_s,
                 double traced_ops_per_s, const Options& options,
                 RunResult* result);

/// Runs one read statement and returns its status. Untraced (`log` null)
/// it goes through Connection::Query and its plan cache; traced, through
/// Parser::Parse -> Connection::Prepare -> PreparedStatement::Execute,
/// adding the parse time and the planning time (Prepare minus Parse) to
/// `parse` and `prepare`. `exec_ms` is the time of Query or Execute.
mallard::Status RunRead(mallard::Connection* con, const std::string& sql,
                        SpanLog* log, const char* request_name,
                        std::unique_ptr<mallard::MaterializedQueryResult>* rows,
                        double* exec_ms, Samples* parse, Samples* prepare);

/// Sets the per-layer metrics read from counter deltas between two
/// snapshots: plan cache, scheduler (per `parallel_queries`), admission,
/// buffer (peak against `memory_limit` bytes), WAL, compression and
/// resilience.
void ReportCounters(const Snapshot& before, const Snapshot& after,
                    double memory_limit, double parallel_queries,
                    RunResult* result);

/// Reads a single-value PRAGMA as text ("" on failure).
std::string PragmaText(mallard::Connection* con, const std::string& pragma);

/// Peak resident set size of this process in MB (getrusage).
double PeakRssMb();
/// User plus system CPU time of this process so far, in seconds.
double CpuSeconds();

void RunTpch(const Options& options, bool spill, RunResult* result);
void RunServing(const Options& options, RunResult* result);
void RunEtl(const Options& options, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
