// tpch_mem / tpch_spill: repeated passes over the TPC-H subset on one
// connection. The tables come from the engine's own fixed-seed dbgen
// substitute (tpch::Generate); the benchmark seed draws the substitution
// parameters and the order of the queries in each pass. tpch_spill sets a
// memory_limit well below the join working set after loading.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "mallard/main/database.h"
#include "mallard/tpch/tpch.h"

namespace perfbench {
namespace {

using mallard::Connection;
using mallard::Database;
using mallard::MaterializedQueryResult;
using mallard::TypeId;
using mallard::Value;

constexpr double kScaleFactor = 0.2;
constexpr double kSmokeScaleFactor = 0.01;
// Below the ~100 MB working set of the joins of Q3/Q5/Q10 at SF 0.2, so
// they spill every pass; Q1/6/12/14 still run in memory.
constexpr uint64_t kSpillLimit = 16ull << 20;
constexpr uint64_t kSmokeSpillLimit = 1ull << 20;
constexpr uint64_t kDefaultLimit = 1ull << 30;
// Set-ups per run; each is followed by its share of the measured time.
constexpr int kEpochs = 3;

std::string Date(int year, int month, int day) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", year, month, day);
  return buf;
}

struct Query {
  int number;
  std::string sql;
};

// Draws one set of substitution parameters per query from the ranges of
// the TPC-H specification (clause 2.4), restricted to the value domains
// tpch::Generate produces.
std::vector<Query> DrawQueries(Rng* rng) {
  static const char* kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                    "MACHINERY", "HOUSEHOLD"};
  static const char* kRegions[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                                   "MIDDLE EAST"};
  static const char* kShipModes[] = {"REG AIR", "AIR",  "RAIL", "SHIP",
                                     "TRUCK",   "MAIL", "FOB"};
  auto brand = [rng]() {
    return "Brand#" + std::to_string(rng->Uniform(1, 5)) +
           std::to_string(rng->Uniform(1, 5));
  };
  std::vector<Query> queries;
  char buf[2048];

  std::snprintf(buf, sizeof(buf), R"(
SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty,
       sum(l_extendedprice) AS sum_base_price,
       sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
       sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
       avg(l_quantity) AS avg_qty, avg(l_extendedprice) AS avg_price,
       avg(l_discount) AS avg_disc, count(*) AS count_order
FROM lineitem
WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL '%d' DAY
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus)",
                static_cast<int>(rng->Uniform(60, 120)));
  queries.push_back({1, buf});

  std::string q3_date = Date(1995, 3, static_cast<int>(rng->Uniform(1, 31)));
  std::snprintf(buf, sizeof(buf), R"(
SELECT l_orderkey, sum(l_extendedprice * (1 - l_discount)) AS revenue,
       o_orderdate, o_shippriority
FROM customer, orders, lineitem
WHERE c_mktsegment = '%s' AND c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND o_orderdate < DATE '%s' AND l_shipdate > DATE '%s'
GROUP BY l_orderkey, o_orderdate, o_shippriority
ORDER BY revenue DESC, o_orderdate
LIMIT 10)",
                kSegments[rng->Uniform(0, 4)], q3_date.c_str(),
                q3_date.c_str());
  queries.push_back({3, buf});

  std::string q5_date = Date(static_cast<int>(rng->Uniform(1993, 1997)), 1, 1);
  std::snprintf(buf, sizeof(buf), R"(
SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = '%s'
  AND o_orderdate >= DATE '%s'
  AND o_orderdate < DATE '%s' + INTERVAL '1' YEAR
GROUP BY n_name
ORDER BY revenue DESC)",
                kRegions[rng->Uniform(0, 4)], q5_date.c_str(),
                q5_date.c_str());
  queries.push_back({5, buf});

  std::string q6_date = Date(static_cast<int>(rng->Uniform(1993, 1997)), 1, 1);
  int discount = static_cast<int>(rng->Uniform(2, 9));
  std::snprintf(buf, sizeof(buf), R"(
SELECT sum(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= DATE '%s'
  AND l_shipdate < DATE '%s' + INTERVAL '1' YEAR
  AND l_discount BETWEEN %.2f AND %.2f
  AND l_quantity < %d)",
                q6_date.c_str(), q6_date.c_str(), (discount - 1) / 100.0,
                (discount + 1) / 100.0, static_cast<int>(rng->Uniform(24, 25)));
  queries.push_back({6, buf});

  int q10_month = static_cast<int>(rng->Uniform(0, 23));  // 1993-02..1995-01
  std::string q10_date = Date(1993 + (q10_month + 1) / 12,
                              (q10_month + 1) % 12 + 1, 1);
  std::snprintf(buf, sizeof(buf), R"(
SELECT c_custkey, c_name, sum(l_extendedprice * (1 - l_discount)) AS revenue,
       c_acctbal, n_name, c_address, c_phone, c_comment
FROM customer, orders, lineitem, nation
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND o_orderdate >= DATE '%s'
  AND o_orderdate < DATE '%s' + INTERVAL '3' MONTH
  AND l_returnflag = 'R' AND c_nationkey = n_nationkey
GROUP BY c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment
ORDER BY revenue DESC
LIMIT 20)",
                q10_date.c_str(), q10_date.c_str());
  queries.push_back({10, buf});

  int mode1 = static_cast<int>(rng->Uniform(0, 6));
  int mode2 = static_cast<int>((mode1 + rng->Uniform(1, 6)) % 7);
  std::string q12_date = Date(static_cast<int>(rng->Uniform(1993, 1997)), 1, 1);
  std::snprintf(buf, sizeof(buf), R"(
SELECT l_shipmode,
       sum(CASE WHEN o_orderpriority = '1-URGENT' OR o_orderpriority = '2-HIGH'
                THEN 1 ELSE 0 END) AS high_line_count,
       sum(CASE WHEN o_orderpriority <> '1-URGENT'
                 AND o_orderpriority <> '2-HIGH'
                THEN 1 ELSE 0 END) AS low_line_count
FROM orders, lineitem
WHERE o_orderkey = l_orderkey
  AND l_shipmode IN ('%s', '%s')
  AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate
  AND l_receiptdate >= DATE '%s'
  AND l_receiptdate < DATE '%s' + INTERVAL '1' YEAR
GROUP BY l_shipmode
ORDER BY l_shipmode)",
                kShipModes[mode1], kShipModes[mode2], q12_date.c_str(),
                q12_date.c_str());
  queries.push_back({12, buf});

  std::string q14_date = Date(static_cast<int>(rng->Uniform(1993, 1997)),
                              static_cast<int>(rng->Uniform(1, 12)), 1);
  std::snprintf(buf, sizeof(buf), R"(
SELECT 100.00 * sum(CASE WHEN p_type LIKE 'PROMO%%'
                         THEN l_extendedprice * (1 - l_discount)
                         ELSE 0 END)
       / sum(l_extendedprice * (1 - l_discount)) AS promo_revenue
FROM lineitem, part
WHERE l_partkey = p_partkey
  AND l_shipdate >= DATE '%s'
  AND l_shipdate < DATE '%s' + INTERVAL '1' MONTH)",
                q14_date.c_str(), q14_date.c_str());
  queries.push_back({14, buf});

  int q1 = static_cast<int>(rng->Uniform(1, 10));
  int q2 = static_cast<int>(rng->Uniform(10, 20));
  int q3 = static_cast<int>(rng->Uniform(20, 30));
  std::string b1 = brand(), b2 = brand(), b3 = brand();
  // The join predicate is hoisted out of the OR branches, as in the
  // engine's own Q19 text, so the planner forms an equi-join.
  std::snprintf(buf, sizeof(buf), R"(
SELECT sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM lineitem, part
WHERE p_partkey = l_partkey
  AND l_shipmode IN ('AIR', 'REG AIR')
  AND l_shipinstruct = 'DELIVER IN PERSON'
  AND ((p_brand = '%s'
  AND p_container IN ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG')
  AND l_quantity >= %d AND l_quantity <= %d AND p_size BETWEEN 1 AND 5)
  OR (p_brand = '%s'
  AND p_container IN ('MED BAG', 'MED BOX', 'MED PKG', 'MED PACK')
  AND l_quantity >= %d AND l_quantity <= %d AND p_size BETWEEN 1 AND 10)
  OR (p_brand = '%s'
  AND p_container IN ('LG CASE', 'LG BOX', 'LG PACK', 'LG PKG')
  AND l_quantity >= %d AND l_quantity <= %d AND p_size BETWEEN 1 AND 15)))",
                b1.c_str(), q1, q1 + 10, b2.c_str(), q2, q2 + 10, b3.c_str(),
                q3, q3 + 10);
  queries.push_back({19, buf});
  return queries;
}

using Rows = std::vector<std::vector<Value>>;

Rows Collect(const MaterializedQueryResult& result) {
  Rows rows(result.RowCount());
  for (size_t r = 0; r < rows.size(); r++) {
    for (size_t c = 0; c < result.ColumnCount(); c++) {
      rows[r].push_back(result.GetValue(c, r));
    }
  }
  return rows;
}

// Doubles are compared at a relative 1e-8: parallel and serial plans sum
// in different orders, and nothing else may differ.
bool SameRows(const Rows& expected, const Rows& actual, std::string* why) {
  if (expected.size() != actual.size()) {
    *why = std::to_string(actual.size()) + " rows, expected " +
           std::to_string(expected.size());
    return false;
  }
  for (size_t r = 0; r < expected.size(); r++) {
    if (expected[r].size() != actual[r].size()) {
      *why = "column count differs";
      return false;
    }
    for (size_t c = 0; c < expected[r].size(); c++) {
      const Value& e = expected[r][c];
      const Value& a = actual[r][c];
      bool same;
      if (e.type() == TypeId::kDouble && a.type() == TypeId::kDouble) {
        double scale = std::max({1.0, std::fabs(e.GetDouble()),
                                 std::fabs(a.GetDouble())});
        same = std::fabs(e.GetDouble() - a.GetDouble()) <= 1e-8 * scale;
      } else {
        same = e.type() == a.type() && e.ToString() == a.ToString();
      }
      if (!same) {
        *why = "row " + std::to_string(r) + " column " + std::to_string(c) +
               ": " + a.ToString() + ", expected " + e.ToString();
        return false;
      }
    }
  }
  return true;
}

struct Phase {
  std::map<int, Samples> per_query;  // latency of each query, ms
  Samples all;                       // every query latency, ms
  Samples parse, prepare;            // traced: Parse and Prepare-Parse, ms
  long long completed = 0;
  double wall_ms = 0;
  double ops_per_s() const { return completed / (wall_ms / 1000); }
  void Append(const Phase& other) {
    for (const auto& entry : other.per_query) {
      per_query[entry.first].Append(entry.second);
    }
    all.Append(other.all);
    parse.Append(other.parse);
    prepare.Append(other.prepare);
    completed += other.completed;
    wall_ms += other.wall_ms;
  }
};

// Runs seed-shuffled passes until `seconds` elapse, checking every
// result against the serial reference.
Phase RunPasses(Connection* con, const std::vector<Query>& queries,
                const std::vector<Rows>& reference, Rng* order_rng,
                double seconds, SpanLog* log, RunResult* result) {
  Phase phase;
  std::vector<size_t> order(queries.size());
  for (size_t i = 0; i < order.size(); i++) order[i] = i;
  Clock::time_point start = Clock::now();
  Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  while (Clock::now() < deadline && result->verdict.ok()) {
    for (size_t i = order.size(); i > 1; i--) {
      std::swap(order[i - 1], order[order_rng->Uniform(0, i - 1)]);
    }
    for (size_t i : order) {
      if (Clock::now() >= deadline) break;
      const Query& q = queries[i];
      double ms = 0;
      std::unique_ptr<MaterializedQueryResult> rows;
      mallard::Status status = RunRead(con, q.sql, log, "tpch_query", &rows,
                                       &ms, &phase.parse, &phase.prepare);
      Outcome outcome = Classify(status);
      result->ops.Count(outcome);
      if (outcome != Outcome::kOk) {
        std::fprintf(stderr, "Q%d failed: %s\n", q.number,
                     status.ToString().c_str());
        continue;
      }
      std::string why;
      if (!SameRows(reference[i], Collect(*rows), &why)) {
        result->verdict.Fail("Q" + std::to_string(q.number) +
                             " differs from the serial reference: " + why);
        break;
      }
      phase.per_query[q.number].Add(ms);
      phase.all.Add(ms);
      phase.completed++;
    }
  }
  phase.wall_ms = MsSince(start);
  return phase;
}

double GeoMeanOfMedians(const Phase& phase) {
  std::vector<double> medians;
  for (const auto& entry : phase.per_query) {
    medians.push_back(entry.second.Median());
  }
  return GeoMean(medians);
}

// One set-up: open, load, set the workload's memory_limit, and the first
// pass (it spawns the worker pool and fills the plan cache).
bool SetUp(double sf, const std::string& limit_sql,
           const std::vector<Query>& queries, std::unique_ptr<Database>* db,
           Samples* setup_s, Samples* generate_ms, RunResult* result) {
  Clock::time_point start = Clock::now();
  auto opened = Database::Open(":memory:");
  if (!opened.ok()) {
    result->verdict.Fail("open: " + opened.status().ToString());
    return false;
  }
  *db = std::move(*opened);
  Clock::time_point gen_start = Clock::now();
  mallard::Status generated = mallard::tpch::Generate(db->get(), sf);
  generate_ms->Add(MsSince(gen_start));
  if (!generated.ok()) {
    result->verdict.Fail("tpch::Generate: " + generated.ToString());
    return false;
  }
  Connection con(db->get());
  if (!con.Query("PRAGMA " + limit_sql).ok()) {
    result->verdict.Fail("PRAGMA " + limit_sql + " failed");
    return false;
  }
  for (const Query& q : queries) {
    auto r = con.Query(q.sql);
    if (!r.ok()) {
      result->verdict.Fail("warm-up Q" + std::to_string(q.number) + ": " +
                           r.status().ToString());
      return false;
    }
  }
  setup_s->Add(MsSince(start) / 1000);
  return true;
}

// The reference answers: serial and uncapped, outside the measured time.
bool ComputeReference(Database* db, const std::vector<Query>& queries,
                      const std::string& limit_sql,
                      std::vector<Rows>* reference, RunResult* result) {
  Connection ref(db);
  if (!ref.Query("PRAGMA threads=1").ok() ||
      !ref.Query("PRAGMA memory_limit=" + std::to_string(kDefaultLimit))
           .ok()) {
    result->verdict.Fail("cannot configure the reference connection");
    return false;
  }
  for (const Query& q : queries) {
    auto r = ref.Query(q.sql);
    if (!r.ok()) {
      result->verdict.Fail("reference Q" + std::to_string(q.number) + ": " +
                           r.status().ToString());
      return false;
    }
    reference->push_back(Collect(**r));
  }
  if (!ref.Query("PRAGMA " + limit_sql).ok()) {
    result->verdict.Fail("PRAGMA " + limit_sql + " failed");
    return false;
  }
  return true;
}

}  // namespace

void RunTpch(const Options& options, bool spill, RunResult* result) {
  const double sf = options.smoke ? kSmokeScaleFactor : kScaleFactor;
  const uint64_t limit =
      spill ? (options.smoke ? kSmokeSpillLimit : kSpillLimit) : kDefaultLimit;
  Rng param_rng(options.seed);
  const std::vector<Query> queries = DrawQueries(&param_rng);
  Rng order_rng(options.seed ^ 0x5eedf00dULL);
  const std::string limit_sql = "memory_limit=" + std::to_string(limit);
  result->env.push_back({"data", "tpch::Generate (fixed-seed dbgen "
                                 "substitute), scale factor " +
                                     std::to_string(sf)});
  result->env.push_back({"wal_commit_mode", "none (in-memory database)"});
  result->env.push_back({"clients", "1 connection, closed loop"});

  // Each epoch sets up a fresh database and measures its share of the
  // run on it. The end-to-end numbers are medians over epochs: two
  // set-ups of the same data differ by up to ~10% in speed on a shared
  // host, and the median damps that.
  const double epoch_s = options.seconds / kEpochs;
  Samples setup_s, generate_ms, epoch_qps, epoch_latency;
  std::vector<Rows> reference;
  Phase untraced, traced;  // pooled over epochs
  Snapshot counters;
  double peak_memory = 0, threads = 0, cpu_s = 0;
  Tracer tracer;
  for (int epoch = 0; epoch < kEpochs; epoch++) {
    std::unique_ptr<Database> db;
    if (!SetUp(sf, limit_sql, queries, &db, &setup_s, &generate_ms, result)) {
      return;
    }
    if (epoch == 0 &&
        !ComputeReference(db.get(), queries, limit_sql, &reference, result)) {
      return;
    }
    Connection con(db.get());
    if (epoch == 0) {
      result->env.push_back({"memory_limit", PragmaText(&con, "memory_limit")});
      result->env.push_back({"threads", PragmaText(&con, "threads")});
      threads = std::strtod(PragmaText(&con, "threads").c_str(), nullptr);
    }
    db->buffers().ResetPeak();
    Snapshot before = TakeSnapshot(&con);
    double cpu_before = CpuSeconds();
    Phase u = RunPasses(&con, queries, reference, &order_rng,
                        options.trace ? epoch_s / 2 : epoch_s, nullptr, result);
    cpu_s += CpuSeconds() - cpu_before;
    if (options.trace) {
      Phase t = RunPasses(&con, queries, reference, &order_rng, epoch_s / 2,
                          tracer.NewLog(), result);
      tracer.AddThreadWall(t.wall_ms);
      traced.Append(t);
    }
    Snapshot after = TakeSnapshot(&con);
    if (!result->verdict.ok()) return;
    if (u.completed == 0) {
      result->verdict.Fail("no query completed in the measured phase");
      return;
    }
    Accumulate(before, after, &counters);
    peak_memory = std::max(peak_memory, after.buffer["peak_memory"]);
    epoch_qps.Add(u.ops_per_s());
    epoch_latency.Add(GeoMeanOfMedians(u));
    untraced.Append(u);
  }

  Metrics& e2e = result->end_to_end;
  e2e.Set("setup_s", setup_s.Median(), "s");
  e2e.Set("peak_rss_mb", PeakRssMb(), "MB");
  e2e.Set("ops_per_s", epoch_qps.Median(), "1/s");
  e2e.Set("latency_ms", epoch_latency.Median(), "ms");

  Metrics& report = result->report;
  report.Set("analytic_qps", epoch_qps.Median(), "1/s");
  report.Set("analytic_geomean_ms", epoch_latency.Median(), "ms");
  report.Set("analytic_p90_ms", untraced.all.Quantile(0.9), "ms");
  report.Set("analytic_samples", static_cast<double>(untraced.all.size()),
             "count");
  for (const auto& entry : untraced.per_query) {
    report.Set("q" + std::to_string(entry.first) + "_p50_ms",
               entry.second.Median(), "ms");
  }

  Metrics& layer = result->per_layer;
  layer.Set("tpch.generate_ms", generate_ms.Median(), "ms");
  layer.Set("parser.parse_ms", traced.parse.Mean(), "ms");
  layer.Set("planner.prepare_ms", traced.prepare.Mean(), "ms");
  for (const auto& entry : traced.per_query) {
    layer.Set("execution.q" + std::to_string(entry.first) + "_ms",
              entry.second.Median(), "ms");
  }
  counters.buffer["peak_memory"] = peak_memory;
  ReportCounters(Snapshot{}, counters, static_cast<double>(limit),
                 static_cast<double>(untraced.completed + traced.completed),
                 result);
  layer.Set("parallel.cpu_util",
            threads > 0 ? cpu_s / (untraced.wall_ms / 1000 * threads) : 0,
            "ratio");
  if (options.trace) {
    ReportTrace(tracer, untraced.ops_per_s(), traced.ops_per_s(), options,
                result);
  }
}

}  // namespace perfbench
