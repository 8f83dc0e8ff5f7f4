// serving_mix: four connections share one in-memory database, each a
// closed loop. Client 0 loops analytic queries; clients 1 and 2 send
// point lookups through Connection::Query with skewed keys; client 3
// sends single-row UPDATE transactions on the same keyed table, drawing
// its keys from the same skew, so reads and writes share hot keys.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "mallard/main/appender.h"
#include "mallard/main/database.h"

namespace perfbench {
namespace {

using mallard::Connection;
using mallard::Database;
using mallard::MaterializedQueryResult;

// Both prime, so SkewedKey()'s scatter is a bijection on the key range.
constexpr int64_t kAccounts = 100003;
constexpr int64_t kSmokeAccounts = 1009;
constexpr int64_t kFacts = 1000000;
constexpr int64_t kSmokeFacts = 20000;
constexpr int kFactGroups = 64;
constexpr int kRegions = 8;
// Every balance is congruent to its id modulo kModulus (> any id), so a
// lookup can check it got its own row, whatever the writer did to it.
constexpr int64_t kModulus = 1000003;
// Set-ups per run; each is followed by its share of the measured time.
constexpr int kEpochs = 5;
constexpr int kVariants = 4;  // seed-drawn parameters per analytic shape

struct Sizes {
  int64_t accounts, facts;
};

int64_t FactValue(int64_t i, int64_t facts) { return (i * 7919) % facts; }

// Skewed key: the cube of a uniform draw favours small ranks (the top
// 0.1% of ranks take 10% of the draws); the ranks are then scattered
// over the table so hot keys do not share a row group.
int64_t SkewedKey(Rng* rng, int64_t accounts) {
  double u = rng->Unit();
  int64_t rank = static_cast<int64_t>(u * u * u * static_cast<double>(accounts));
  return (rank * 48271) % accounts;
}

// An analytic statement with its host-computed answer (row-major).
struct Analytic {
  std::string sql;
  std::vector<std::vector<double>> expected;
};

std::vector<Analytic> DrawAnalytics(Rng* rng, const Sizes& sizes) {
  std::vector<Analytic> out;
  for (int v = 0; v < kVariants; v++) {
    int64_t threshold = rng->Uniform(0, sizes.facts - 1);
    Analytic a;
    a.sql = "SELECT grp, count(*), sum(v), min(v), max(v) FROM facts WHERE "
            "v >= " + std::to_string(threshold) + " GROUP BY grp ORDER BY grp";
    std::vector<std::vector<double>> groups(kFactGroups);
    for (int64_t i = 0; i < sizes.facts; i++) {
      int64_t value = FactValue(i, sizes.facts);
      if (value < threshold) continue;
      auto& g = groups[i % kFactGroups];
      if (g.empty()) {
        g = {static_cast<double>(i % kFactGroups), 0, 0,
             static_cast<double>(value), static_cast<double>(value)};
      }
      g[1] += 1;
      g[2] += static_cast<double>(value);
      g[3] = std::min(g[3], static_cast<double>(value));
      g[4] = std::max(g[4], static_cast<double>(value));
    }
    for (auto& g : groups) {
      if (!g.empty()) a.expected.push_back(g);
    }
    out.push_back(a);

    int64_t grp = rng->Uniform(0, kFactGroups - 1);
    Analytic b;
    b.sql = "SELECT count(*), sum(v) FROM facts WHERE grp = " +
            std::to_string(grp);
    double count = 0, sum = 0;
    for (int64_t i = grp; i < sizes.facts; i += kFactGroups) {
      count += 1;
      sum += static_cast<double>(FactValue(i, sizes.facts));
    }
    b.expected = {{count, sum}};
    out.push_back(b);
  }
  Analytic c;
  c.sql = "SELECT region, count(*) FROM accounts GROUP BY region ORDER BY "
          "region";
  for (int r = 0; r < kRegions; r++) {
    c.expected.push_back(
        {static_cast<double>(r),
         static_cast<double>((sizes.accounts - r + kRegions - 1) / kRegions)});
  }
  out.push_back(c);
  return out;
}

bool CheckAnalytic(const Analytic& a, const MaterializedQueryResult& r,
                   std::string* why) {
  if (r.RowCount() != a.expected.size()) {
    *why = std::to_string(r.RowCount()) + " rows, expected " +
           std::to_string(a.expected.size());
    return false;
  }
  for (size_t row = 0; row < a.expected.size(); row++) {
    for (size_t col = 0; col < a.expected[row].size(); col++) {
      double got = r.GetValue(col, row).GetAsDouble();
      if (got != a.expected[row][col]) {
        *why = "row " + std::to_string(row) + " column " +
               std::to_string(col) + ": " + std::to_string(got) +
               ", expected " + std::to_string(a.expected[row][col]);
        return false;
      }
    }
  }
  return true;
}

std::string PointSql(int64_t key) {
  return "SELECT id, balance, region, name FROM accounts WHERE id = " +
         std::to_string(key);
}

bool CheckPoint(int64_t key, const MaterializedQueryResult& r,
                std::string* why) {
  if (r.RowCount() != 1) {
    *why = std::to_string(r.RowCount()) + " rows";
    return false;
  }
  int64_t balance = r.GetValue(1, 0).GetAsBigInt();
  if (r.GetValue(0, 0).GetAsBigInt() != key || balance < 0 ||
      balance % kModulus != key ||
      r.GetValue(2, 0).GetAsBigInt() != key % kRegions ||
      r.GetValue(3, 0).GetString() != "acct-" + std::to_string(key)) {
    *why = "wrong row (" + r.GetValue(0, 0).ToString() + ", " +
           r.GetValue(1, 0).ToString() + ", " + r.GetValue(2, 0).ToString() +
           ", " + r.GetValue(3, 0).ToString() + ")";
    return false;
  }
  return true;
}

// What the four clients measured in one phase.
struct Phase {
  Samples point, analytic, write;       // whole-operation latency, ms
  Samples point_exec, analytic_exec;    // traced: Execute alone, ms
  Samples statement, commit;            // traced: write halves, ms
  Samples parse, prepare;               // traced, ms
  double wall_ms = 0;
  double point_qps() const { return point.size() / (wall_ms / 1000); }
  void Append(const Phase& other) {
    point.Append(other.point);
    analytic.Append(other.analytic);
    write.Append(other.write);
    point_exec.Append(other.point_exec);
    analytic_exec.Append(other.analytic_exec);
    statement.Append(other.statement);
    commit.Append(other.commit);
    parse.Append(other.parse);
    prepare.Append(other.prepare);
    wall_ms += other.wall_ms;
  }
};

Phase RunClients(Database* db, const Sizes& sizes,
                 const std::vector<Analytic>& analytics, uint64_t seed,
                 double seconds, Tracer* tracer, RunResult* result) {
  constexpr int kClients = 4;
  std::vector<Phase> per_client(kClients);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  Clock::time_point start = Clock::now();
  for (int c = 0; c < kClients; c++) {
    SpanLog* log = tracer ? tracer->NewLog() : nullptr;
    threads.emplace_back([&, c, log] {
      Phase& mine = per_client[c];
      Rng rng(seed * 7919 + static_cast<uint64_t>(c) + 1);
      Connection con(db);
      size_t next_analytic = static_cast<size_t>(c);
      while (!stop.load(std::memory_order_relaxed) && result->verdict.ok()) {
        std::unique_ptr<MaterializedQueryResult> rows;
        std::string why;
        Clock::time_point op_start = Clock::now();
        if (c == 0) {
          const Analytic& a = analytics[next_analytic++ % analytics.size()];
          double exec_ms = 0;
          Outcome outcome = Classify(RunRead(&con, a.sql, log, "analytic",
                                             &rows, &exec_ms, &mine.parse,
                                             &mine.prepare));
          result->ops.Count(outcome);
          if (outcome != Outcome::kOk) continue;
          if (!CheckAnalytic(a, *rows, &why)) {
            result->verdict.Fail("analytic '" + a.sql + "': " + why);
            break;
          }
          mine.analytic.Add(MsSince(op_start));
          if (log) mine.analytic_exec.Add(exec_ms);
        } else if (c < 3) {
          int64_t key = SkewedKey(&rng, sizes.accounts);
          double exec_ms = 0;
          Outcome outcome = Classify(RunRead(&con, PointSql(key), log,
                                             "point", &rows, &exec_ms,
                                             &mine.parse, &mine.prepare));
          result->ops.Count(outcome);
          if (outcome != Outcome::kOk) continue;
          double ms = MsSince(op_start);
          if (!CheckPoint(key, *rows, &why)) {
            result->verdict.Fail("point lookup of id " + std::to_string(key) +
                                 ": " + why);
            break;
          }
          mine.point.Add(ms);
          if (log) mine.point_exec.Add(exec_ms);
        } else {
          int64_t key = SkewedKey(&rng, sizes.accounts);
          int64_t balance = key + rng.Uniform(0, 1000) * kModulus;
          std::string sql = "UPDATE accounts SET balance = " +
                            std::to_string(balance) +
                            " WHERE id = " + std::to_string(key);
          if (log) log->BeginRequest();
          Span request(log, Layer::kRequest, "write");
          mallard::Status status = con.BeginTransaction();
          double statement_ms = 0, commit_ms = 0;
          if (status.ok()) {
            Span statement(log, Layer::kTransaction, "Connection::Query");
            auto r = con.Query(sql);
            statement_ms = statement.End();
            if (!r.ok()) status = r.status();
          }
          if (status.ok()) {
            Span commit(log, Layer::kTransaction, "Connection::Commit");
            status = con.Commit();
            commit_ms = commit.End();
          } else if (con.InTransaction()) {
            (void)con.Rollback();
          }
          double ms = request.End();
          Outcome outcome = Classify(status);
          result->ops.Count(outcome);
          if (outcome != Outcome::kOk) continue;
          mine.write.Add(ms);
          if (log) {
            mine.statement.Add(statement_ms);
            mine.commit.Add(commit_ms);
          }
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& t : threads) t.join();
  Phase total;
  for (const Phase& p : per_client) total.Append(p);
  total.wall_ms = MsSince(start);
  if (tracer) {
    for (int c = 0; c < kClients; c++) tracer->AddThreadWall(total.wall_ms);
  }
  return total;
}

mallard::Status Load(Database* db, const Sizes& sizes) {
  Connection con(db);
  for (const char* ddl :
       {"CREATE TABLE accounts (id BIGINT, balance BIGINT, region INTEGER, "
        "name VARCHAR)",
        "CREATE TABLE facts (grp INTEGER, v BIGINT)"}) {
    auto r = con.Query(ddl);
    if (!r.ok()) return r.status();
  }
  {
    auto app = mallard::Appender::Create(db, "accounts");
    if (!app.ok()) return app.status();
    for (int64_t id = 0; id < sizes.accounts; id++) {
      (*app)->Append(id).Append(id).Append(static_cast<int32_t>(id % kRegions))
          .Append("acct-" + std::to_string(id));
      MALLARD_RETURN_NOT_OK((*app)->EndRow());
    }
    MALLARD_RETURN_NOT_OK((*app)->Close());
  }
  auto app = mallard::Appender::Create(db, "facts");
  if (!app.ok()) return app.status();
  for (int64_t i = 0; i < sizes.facts; i++) {
    (*app)->Append(static_cast<int32_t>(i % kFactGroups))
        .Append(FactValue(i, sizes.facts));
    MALLARD_RETURN_NOT_OK((*app)->EndRow());
  }
  return (*app)->Close();
}

}  // namespace

void RunServing(const Options& options, RunResult* result) {
  const Sizes sizes = options.smoke ? Sizes{kSmokeAccounts, kSmokeFacts}
                                    : Sizes{kAccounts, kFacts};
  Rng rng(options.seed);
  const std::vector<Analytic> analytics = DrawAnalytics(&rng, sizes);

  result->env.push_back(
      {"data", "accounts " + std::to_string(sizes.accounts) + " rows, facts " +
                   std::to_string(sizes.facts) + " rows, generated from the "
                   "seed"});
  result->env.push_back({"wal_commit_mode", "none (in-memory database)"});
  result->env.push_back({"clients",
                         "4 connections, closed loops: 1 analytic, 2 point, "
                         "1 writer"});

  // Each epoch sets up a fresh database (open, load, and a short warm-up
  // of all four clients that spawns the worker pool and fills the plan
  // cache) and measures its share of the run on it. The end-to-end
  // numbers are medians over epochs, which damps the difference between
  // set-ups on a shared host.
  const double epoch_s = options.seconds / kEpochs;
  const double warmup_s = options.smoke ? 0.05 : 0.2;
  Samples setup_s, epoch_qps, epoch_latency;
  Phase untraced, traced;  // pooled over epochs
  Snapshot counters;
  double peak_memory = 0, threads = 0, cpu_s = 0;
  std::string memory_limit;
  Tracer tracer;
  for (int epoch = 0; epoch < kEpochs; epoch++) {
    Clock::time_point start = Clock::now();
    auto opened = Database::Open(":memory:");
    if (!opened.ok()) {
      result->verdict.Fail("open: " + opened.status().ToString());
      return;
    }
    std::unique_ptr<Database> db = std::move(*opened);
    mallard::Status loaded = Load(db.get(), sizes);
    if (!loaded.ok()) {
      result->verdict.Fail("load: " + loaded.ToString());
      return;
    }
    RunResult warmup;
    RunClients(db.get(), sizes, analytics, options.seed + 1000 + epoch,
               warmup_s, nullptr, &warmup);
    if (!warmup.verdict.ok()) {
      result->verdict.Fail("warm-up: " + warmup.verdict.reason());
      return;
    }
    setup_s.Add(MsSince(start) / 1000);

    Connection con(db.get());
    if (epoch == 0) {
      memory_limit = PragmaText(&con, "memory_limit");
      result->env.push_back({"memory_limit", memory_limit});
      result->env.push_back({"threads", PragmaText(&con, "threads")});
      threads = std::strtod(PragmaText(&con, "threads").c_str(), nullptr);
    }
    db->buffers().ResetPeak();
    Snapshot before = TakeSnapshot(&con);
    double cpu_before = CpuSeconds();
    Phase u = RunClients(db.get(), sizes, analytics, options.seed + epoch,
                         options.trace ? epoch_s / 2 : epoch_s, nullptr,
                         result);
    cpu_s += CpuSeconds() - cpu_before;
    if (options.trace) {
      traced.Append(RunClients(db.get(), sizes, analytics,
                               options.seed + 100 + epoch, epoch_s / 2,
                               &tracer, result));
    }
    Snapshot after = TakeSnapshot(&con);
    if (!result->verdict.ok()) return;
    if (u.point.size() == 0) {
      result->verdict.Fail("no point lookup completed in the measured phase");
      return;
    }
    Accumulate(before, after, &counters);
    peak_memory = std::max(peak_memory, after.buffer["peak_memory"]);
    epoch_qps.Add(u.point_qps());
    // p95, not p50: a lookup that overlaps the analytic client's parallel
    // phase takes about a millisecond longer, so the median jumps between
    // the two modes from run to run.
    epoch_latency.Add(u.point.Quantile(0.95));
    untraced.Append(u);
  }

  Metrics& e2e = result->end_to_end;
  e2e.Set("setup_s", setup_s.Median(), "s");
  e2e.Set("peak_rss_mb", PeakRssMb(), "MB");
  e2e.Set("ops_per_s", epoch_qps.Median(), "1/s");
  e2e.Set("latency_ms", epoch_latency.Median(), "ms");

  Metrics& report = result->report;
  double wall_s = untraced.wall_ms / 1000;
  report.Set("point_qps", epoch_qps.Median(), "1/s");
  report.Set("point_p50_ms", untraced.point.Median(), "ms");
  report.Set("point_p95_ms", epoch_latency.Median(), "ms");
  report.Set("point_p99_ms", untraced.point.Quantile(0.99), "ms");
  report.Set("point_samples", static_cast<double>(untraced.point.size()),
             "count");
  report.Set("analytic_qps", untraced.analytic.size() / wall_s, "1/s");
  report.Set("analytic_p50_ms", untraced.analytic.Median(), "ms");
  report.Set("write_qps", untraced.write.size() / wall_s, "1/s");
  report.Set("write_p50_ms", untraced.write.Median(), "ms");
  report.Set("write_p99_ms", untraced.write.Quantile(0.99), "ms");
  report.Set("write_samples", static_cast<double>(untraced.write.size()),
             "count");

  Metrics& layer = result->per_layer;
  layer.Set("parser.parse_ms", traced.parse.Mean(), "ms");
  layer.Set("planner.prepare_ms", traced.prepare.Mean(), "ms");
  layer.Set("execution.point_ms", traced.point_exec.Median(), "ms");
  layer.Set("execution.analytic_ms", traced.analytic_exec.Median(), "ms");
  layer.Set("transaction.statement_ms", traced.statement.Median(), "ms");
  layer.Set("transaction.commit_ms", traced.commit.Median(), "ms");
  counters.buffer["peak_memory"] = peak_memory;
  ReportCounters(Snapshot{}, counters,
                 std::strtod(memory_limit.c_str(), nullptr),
                 static_cast<double>(untraced.analytic.size() +
                                     traced.analytic.size()),
                 result);
  layer.Set("parallel.cpu_util",
            threads > 0 ? cpu_s / (wall_s * threads) : 0, "ratio");
  if (options.trace) {
    ReportTrace(tracer, untraced.point_qps(), traced.point_qps(), options,
                result);
  }
}

}  // namespace perfbench
