#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "mallard/main/prepared_statement.h"
#include "mallard/parser/parser.h"

namespace perfbench {

using mallard::Connection;
using mallard::Status;

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo);
}

double Samples::Sum() const {
  double sum = 0;
  for (double v : values_) sum += v;
  return sum;
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

Outcome Classify(const Status& status) {
  if (status.ok()) return Outcome::kOk;
  // Admission shedding and admission-queue timeouts both surface as
  // kResourceExhausted; a statement timeout surfaces as kInterrupted.
  if (status.IsResourceExhausted()) return Outcome::kShed;
  if (status.IsInterrupted()) return Outcome::kTimedOut;
  return Outcome::kFailed;
}

void OpCounts::Count(Outcome outcome) {
  attempted++;
  switch (outcome) {
    case Outcome::kOk:
      break;
    case Outcome::kFailed:
      failed++;
      break;
    case Outcome::kShed:
      shed++;
      break;
    case Outcome::kTimedOut:
      timed_out++;
      break;
  }
}

void Verdict::Fail(const std::string& why) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ok_.exchange(false)) reason_ = why;
}

std::string Verdict::reason() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reason_;
}

namespace {

StatRow ReadStats(Connection* con, const std::string& pragma) {
  StatRow row;
  auto result = con->Query("PRAGMA " + pragma);
  if (!result.ok() || (*result)->RowCount() == 0) return row;
  const auto& names = (*result)->names();
  for (size_t c = 0; c < names.size(); c++) {
    row[names[c]] = (*result)->GetValue(c, 0).GetAsDouble();
  }
  return row;
}

}  // namespace

Snapshot TakeSnapshot(Connection* con) {
  Snapshot s;
  s.buffer = ReadStats(con, "buffer_stats");
  s.storage = ReadStats(con, "storage_stats");
  s.scheduler = ReadStats(con, "scheduler_stats");
  s.admission = ReadStats(con, "admission_stats");
  s.plan_cache = ReadStats(con, "plan_cache_stats");
  s.resilience = ReadStats(con, "resilience_stats");
  // wal_stats is an error on in-memory databases: the row stays empty.
  s.wal = ReadStats(con, "wal_stats");
  return s;
}

double Delta(const StatRow& before, const StatRow& after,
             const std::string& key) {
  auto a = after.find(key);
  if (a == after.end()) return 0;
  auto b = before.find(key);
  return a->second - (b == before.end() ? 0 : b->second);
}

void Accumulate(const Snapshot& before, const Snapshot& after, Snapshot* sum) {
  auto add = [](const StatRow& b, const StatRow& a, StatRow* s) {
    for (const auto& entry : a) (*s)[entry.first] += Delta(b, a, entry.first);
  };
  add(before.buffer, after.buffer, &sum->buffer);
  add(before.storage, after.storage, &sum->storage);
  add(before.scheduler, after.scheduler, &sum->scheduler);
  add(before.admission, after.admission, &sum->admission);
  add(before.plan_cache, after.plan_cache, &sum->plan_cache);
  add(before.resilience, after.resilience, &sum->resilience);
  add(before.wal, after.wal, &sum->wal);
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kRequest:
      return "request";
    case Layer::kParser:
      return "parser";
    case Layer::kPlanner:
      return "planner";
    case Layer::kExecution:
      return "execution";
    case Layer::kTransaction:
      return "transaction";
    case Layer::kMain:
      return "main";
    case Layer::kStorage:
      return "storage";
    case Layer::kCount:
      break;
  }
  return "?";
}

Span::Span(SpanLog* log, Layer layer, const char* name) : log_(log) {
  start_ = Clock::now();
  if (log_ == nullptr) return;
  int32_t parent = log_->open_.empty() ? -1 : log_->open_.back();
  index_ = static_cast<int32_t>(log_->records_.size());
  log_->records_.push_back(
      SpanLog::Record{name, layer, parent, log_->request_, start_, start_});
  log_->open_.push_back(index_);
}

double Span::End() {
  if (ms_ >= 0) return ms_;
  Clock::time_point end = Clock::now();
  ms_ = MsBetween(start_, end);
  if (log_ != nullptr) {
    log_->records_[index_].end = end;
    log_->open_.pop_back();
  }
  return ms_;
}

SpanLog* Tracer::NewLog() {
  std::lock_guard<std::mutex> lock(mu_);
  logs_.push_back(std::make_unique<SpanLog>());
  logs_.back()->thread_ = static_cast<int>(logs_.size() - 1);
  logs_.back()->records_.reserve(1 << 16);
  return logs_.back().get();
}

void Tracer::AddThreadWall(double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  thread_wall_ms_ += ms;
}

std::vector<double> Tracer::SelfMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> self(static_cast<size_t>(Layer::kCount), 0.0);
  for (const auto& log : logs_) {
    const auto& records = log->records_;
    std::vector<double> child_ms(records.size(), 0.0);
    for (size_t i = 0; i < records.size(); i++) {
      if (records[i].parent >= 0) {
        child_ms[records[i].parent] +=
            MsBetween(records[i].start, records[i].end);
      }
    }
    for (size_t i = 0; i < records.size(); i++) {
      self[static_cast<size_t>(records[i].layer)] +=
          MsBetween(records[i].start, records[i].end) - child_ms[i];
    }
  }
  return self;
}

size_t Tracer::SpanCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& log : logs_) n += log->records_.size();
  return n;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread,span,parent,request,layer,name,start_us,end_us\n");
  Clock::time_point origin = Clock::time_point::max();
  for (const auto& log : logs_) {
    for (const auto& r : log->records_) origin = std::min(origin, r.start);
  }
  for (const auto& log : logs_) {
    const auto& records = log->records_;
    for (size_t i = 0; i < records.size(); i++) {
      const auto& r = records[i];
      std::fprintf(f, "%d,%zu,%d,%llu,%s,%s,%.1f,%.1f\n", log->thread_, i,
                   r.parent, static_cast<unsigned long long>(r.request),
                   LayerName(r.layer), r.name,
                   MsBetween(origin, r.start) * 1000,
                   MsBetween(origin, r.end) * 1000);
    }
  }
  return std::fclose(f) == 0;
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& item : items_) {
    if (item.first == name) {
      item.second = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

void ReportTrace(const Tracer& tracer, double untraced_ops_per_s,
                 double traced_ops_per_s, const Options& options,
                 RunResult* result) {
  std::vector<double> self = tracer.SelfMs();
  double engine_ms = 0;
  for (Layer layer : {Layer::kParser, Layer::kPlanner, Layer::kExecution,
                      Layer::kTransaction, Layer::kMain, Layer::kStorage}) {
    double ms = self[static_cast<size_t>(layer)];
    engine_ms += ms;
    result->per_layer.Set(std::string("self.") + LayerName(layer) + "_ms", ms,
                          "ms");
  }
  // The remainder of the client threads' wall time: the benchmark's own
  // work between engine calls (result checks, input generation).
  result->per_layer.Set("self.unaccounted_ms",
                        tracer.ThreadWallMs() - engine_ms, "ms");
  result->per_layer.Set("trace.spans", static_cast<double>(tracer.SpanCount()),
                        "count");
  double overhead = traced_ops_per_s > 0
                        ? (untraced_ops_per_s / traced_ops_per_s - 1) * 100
                        : 0;
  result->per_layer.Set("trace.overhead_pct", overhead, "%");
  std::string path = options.scratch + "/trace-" + options.workload + ".csv";
  if (tracer.Write(path)) {
    result->env.push_back({"trace_file", path});
  } else {
    result->verdict.Fail("cannot write trace file " + path);
  }
}

Status RunRead(Connection* con, const std::string& sql, SpanLog* log,
               const char* request_name,
               std::unique_ptr<mallard::MaterializedQueryResult>* rows,
               double* exec_ms, Samples* parse, Samples* prepare) {
  if (log == nullptr) {
    Span span(nullptr, Layer::kMain, "Connection::Query");
    auto r = con->Query(sql);
    *exec_ms = span.End();
    if (!r.ok()) return r.status();
    *rows = std::move(*r);
    return Status::OK();
  }
  log->BeginRequest();
  Span request(log, Layer::kRequest, request_name);
  Span parse_span(log, Layer::kParser, "Parser::Parse");
  auto parsed = mallard::Parser::Parse(sql);
  double parse_ms = parse_span.End();
  if (!parsed.ok()) return parsed.status();
  Span prepare_span(log, Layer::kPlanner, "Connection::Prepare");
  auto stmt = con->Prepare(sql);
  double prepare_ms = prepare_span.End();
  if (!stmt.ok()) return stmt.status();
  Span execute(log, Layer::kExecution, "PreparedStatement::Execute");
  auto r = (*stmt)->Execute();
  *exec_ms = execute.End();
  if (!r.ok()) return r.status();
  parse->Add(parse_ms);
  prepare->Add(std::max(0.0, prepare_ms - parse_ms));
  *rows = std::move(*r);
  return Status::OK();
}


void ReportCounters(const Snapshot& before, const Snapshot& after,
                    double memory_limit, double parallel_queries,
                    RunResult* result) {
  Metrics& layer = result->per_layer;
  auto delta = [](const StatRow& b, const StatRow& a, const char* key) {
    return Delta(b, a, key);
  };
  double hits = delta(before.plan_cache, after.plan_cache, "hits");
  double busy = delta(before.plan_cache, after.plan_cache, "busy_skips");
  double lookups =
      hits + busy + delta(before.plan_cache, after.plan_cache, "misses");
  layer.Set("main.plan_cache.hit_ratio", lookups > 0 ? hits / lookups : 0,
            "ratio");
  layer.Set("main.plan_cache.busy_skips", busy, "count");
  if (parallel_queries > 0) {
    layer.Set("parallel.tasks",
              delta(before.scheduler, after.scheduler, "tasks_executed") /
                  parallel_queries,
              "count");
    layer.Set("parallel.runs",
              delta(before.scheduler, after.scheduler, "runs") /
                  parallel_queries,
              "count");
  }
  layer.Set("governor.admission.queued",
            delta(before.admission, after.admission, "queued"), "count");
  layer.Set("governor.admission.shed",
            delta(before.admission, after.admission, "shed"), "count");
  layer.Set("governor.admission.timeouts",
            delta(before.admission, after.admission, "timeouts"), "count");
  // peak_memory is a high-water mark, not a counter: the caller resets
  // it when the measured phase starts.
  auto peak = after.buffer.find("peak_memory");
  double peak_mb = peak == after.buffer.end() ? 0 : peak->second / (1 << 20);
  layer.Set("storage.buffer.peak_mb", peak_mb, "MB");
  layer.Set("storage.buffer.peak_over_cap",
            memory_limit > 0 ? peak_mb / (memory_limit / (1 << 20)) : 0,
            "ratio");
  layer.Set("storage.buffer.spilled_mb",
            delta(before.buffer, after.buffer, "spilled_bytes") / (1 << 20),
            "MB");
  layer.Set("storage.buffer.spill_count",
            delta(before.buffer, after.buffer, "spill_count"), "count");
  layer.Set("storage.buffer.unspill_count",
            delta(before.buffer, after.buffer, "unspill_count"), "count");
  layer.Set("storage.buffer.evictions",
            delta(before.buffer, after.buffer, "eviction_count"), "count");
  double commits = delta(before.wal, after.wal, "commits");
  double fsyncs = delta(before.wal, after.wal, "fsyncs");
  layer.Set("storage.wal.fsyncs", fsyncs, "count");
  layer.Set("storage.wal.commits_per_fsync", fsyncs > 0 ? commits / fsyncs : 0,
            "ratio");
  layer.Set("storage.wal.bytes_per_commit",
            commits > 0
                ? delta(before.wal, after.wal, "bytes_written") / commits
                : 0,
            "bytes");
  auto logical = after.storage.find("logical_bytes");
  auto encoded = after.storage.find("encoded_bytes");
  if (logical != after.storage.end() && encoded != after.storage.end() &&
      logical->second > 0) {
    layer.Set("compression.encoded_ratio", encoded->second / logical->second,
              "ratio");
  }
  layer.Set("compression.decode_count",
            delta(before.storage, after.storage, "decode_count"), "count");
  layer.Set("compression.code_filter_windows",
            delta(before.storage, after.storage, "code_filter_windows"),
            "count");
  layer.Set("compression.encode_count",
            delta(before.storage, after.storage, "encode_count"), "count");
  layer.Set("resilience.io_retries",
            delta(before.resilience, after.resilience, "io_retries"),
            "count");
  layer.Set("resilience.checksum_failures",
            delta(before.resilience, after.resilience,
                  "block_checksum_failures") +
                delta(before.resilience, after.resilience,
                      "spill_checksum_failures"),
            "count");
}

std::string PragmaText(Connection* con, const std::string& pragma) {
  auto result = con->Query("PRAGMA " + pragma);
  if (!result.ok() || (*result)->RowCount() == 0) return "";
  return (*result)->GetValue(0, 0).ToString();
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double CpuSeconds() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

}  // namespace perfbench
