// etl_roundtrip: the durable path of one persistent database file. Each
// cycle starts from an empty file: Appender bulk load, three writer
// connections committing single-row INSERT transactions (WAL in its
// default sync mode: a commit returns after its group's fsync), an
// explicit Checkpoint, close, reopen, a full export through
// SendQuery/Fetch that reads every value, and one filter-aggregate. After
// reopening, the row count, the export checksum and the aggregate are
// checked against values computed on the host.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
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
using mallard::Status;

constexpr int64_t kBulkRows = 200000;
constexpr int64_t kSmokeBulkRows = 20000;
constexpr int kWriters = 3;
constexpr int kCommitsPerWriter = 1500;
constexpr int kSmokeCommitsPerWriter = 10;
constexpr int kSetupRepeats = 3;
const char* const kTags[] = {"alpha", "bravo",   "charlie", "delta",
                             "echo",  "foxtrot", "golf",    "hotel",
                             "india", "juliett", "kilo",    "lima"};
constexpr int kTagCount = sizeof(kTags) / sizeof(kTags[0]);

struct Row {
  int64_t id;
  int32_t qty;
  double price;
  int tag;
};

Row RandomRow(Rng* rng, int64_t id) {
  return Row{id, static_cast<int32_t>(rng->Uniform(1, 100)),
             static_cast<double>(rng->Uniform(0, 9999999)) / 100.0,
             static_cast<int>(rng->Uniform(0, kTagCount - 1))};
}

// Order-independent digest of a row set: the sum of per-row hashes.
uint64_t RowHash(int64_t id, int32_t qty, double price, const char* tag,
                 size_t tag_len) {
  uint64_t bits;
  std::memcpy(&bits, &price, sizeof(bits));
  uint64_t h = static_cast<uint64_t>(id) * 0x9e3779b97f4a7c15ULL;
  h ^= (static_cast<uint64_t>(static_cast<uint32_t>(qty)) + 0x632be59bd9b4e019ULL) *
       0xbf58476d1ce4e5b9ULL;
  h ^= bits * 0x94d049bb133111ebULL;
  for (size_t i = 0; i < tag_len; i++) {
    h = (h ^ static_cast<unsigned char>(tag[i])) * 0x100000001b3ULL;
  }
  return h ^ (h >> 29);
}

uint64_t RowHash(const Row& r) {
  return RowHash(r.id, r.qty, r.price, kTags[r.tag], std::strlen(kTags[r.tag]));
}

// The host's copy of what the table must hold.
struct Expected {
  int64_t rows = 0;
  uint64_t digest = 0;
  double logical_bytes = 0;  // 8 + 4 + 8 bytes per row plus the tag
  void Add(const Row& r) {
    rows++;
    digest += RowHash(r);
    logical_bytes += 20 + static_cast<double>(std::strlen(kTags[r.tag]));
  }
};

// Per-tag count, sum(qty) and sum(price) of rows with qty >= min_qty.
std::map<std::string, std::vector<double>> HostAggregate(
    const std::vector<const std::vector<Row>*>& parts, int32_t min_qty) {
  std::map<std::string, std::vector<double>> out;
  for (const auto* rows : parts) {
    for (const Row& r : *rows) {
      if (r.qty < min_qty) continue;
      auto& agg = out[kTags[r.tag]];
      if (agg.empty()) agg = {0, 0, 0};
      agg[0] += 1;
      agg[1] += r.qty;
      agg[2] += r.price;
    }
  }
  return out;
}

struct Cycles {
  Samples cycle_ms, append_ms, checkpoint_ms, reopen_ms, export_ms, fetch_ms;
  Samples fetch_chunks, checkpoint_bytes, space_amp, aggregate_ms;
  Samples write, statement, commit, parse, prepare;
  Samples cycle_rows_per_s;
  double rows = 0;     // rows moved through the measured cycles
  double wall_ms = 0;
  Snapshot counters;            // summed deltas of every instance
  double peak_buffer = 0;       // bytes, highest of every instance
  double encoded_ratio = 0;     // of the table after the last reopen
  double rows_per_s() const { return rows / (wall_ms / 1000); }
};

class EtlRun {
 public:
  EtlRun(const Options& options, RunResult* result)
      : options_(options),
        result_(result),
        dir_(options.scratch + "/etl-" + std::to_string(getpid())),
        path_(dir_ + "/events.db") {}
  ~EtlRun() {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  // Host rows of the bulk load, drawn from the seed.
  void MakeBulk() {
    Rng rng(options_.seed);
    int64_t n = options_.smoke ? kSmokeBulkRows : kBulkRows;
    bulk_.clear();
    bulk_.reserve(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; i++) bulk_.push_back(RandomRow(&rng, i));
  }

  // A fresh, empty database file with the table; closed again.
  bool FreshFile() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    std::filesystem::create_directories(dir_, ec);
    if (ec) return Fail("cannot create " + dir_ + ": " + ec.message());
    auto db = Database::Open(path_);
    if (!db.ok()) return Fail("open: " + db.status().ToString());
    Connection con(db->get());
    auto r = con.Query(
        "CREATE TABLE events (id BIGINT, qty INTEGER, price DOUBLE, "
        "tag VARCHAR)");
    if (!r.ok()) return Fail("create: " + r.status().ToString());
    return true;
  }

  // One full cycle, numbered `cycle` (it seeds the writers and the
  // aggregate's filter). Returns false after a wrong result or a failed
  // step outside the counted operations.
  bool Cycle(int cycle, Tracer* tracer, Cycles* out);

  const std::string& dir() const { return dir_; }

 private:
  bool Fail(const std::string& why) {
    result_->verdict.Fail(why);
    return false;
  }
  bool Check(Connection* con, const Expected& expected,
             const std::vector<const std::vector<Row>*>& parts,
             int32_t min_qty, SpanLog* log, Cycles* out);

  const Options& options_;
  RunResult* result_;
  std::string dir_, path_;
  std::vector<Row> bulk_;
};

bool EtlRun::Cycle(int cycle, Tracer* tracer, Cycles* out) {
  SpanLog* log = tracer ? tracer->NewLog() : nullptr;
  Clock::time_point start = Clock::now();
  if (!FreshFile()) return false;
  Expected expected;
  std::unique_ptr<Database> db;
  {
    Span open(log, Layer::kStorage, "Database::Open");
    auto opened = Database::Open(path_);
    if (!opened.ok()) return Fail("open: " + opened.status().ToString());
    db = std::move(*opened);
  }
  Snapshot first_before, first_after;
  {
    Connection con(db.get());
    first_before = TakeSnapshot(&con);
  }

  // Bulk load.
  {
    Span append(log, Layer::kMain, "Appender");
    auto app = mallard::Appender::Create(db.get(), "events");
    if (!app.ok()) return Fail("appender: " + app.status().ToString());
    for (const Row& r : bulk_) {
      (*app)->Append(r.id).Append(r.qty).Append(r.price).Append(kTags[r.tag]);
      Status s = (*app)->EndRow();
      if (!s.ok()) return Fail("append: " + s.ToString());
    }
    Status closed = (*app)->Close();
    if (!closed.ok()) return Fail("appender close: " + closed.ToString());
    out->append_ms.Add(append.End());
  }
  for (const Row& r : bulk_) expected.Add(r);

  // Writers: single-row INSERT transactions, acknowledged rows only.
  const int commits =
      options_.smoke ? kSmokeCommitsPerWriter : kCommitsPerWriter;
  std::vector<std::vector<Row>> acked(kWriters);
  std::vector<Cycles> per_writer(kWriters);
  std::vector<std::thread> writers;
  Clock::time_point writers_start = Clock::now();
  for (int w = 0; w < kWriters; w++) {
    SpanLog* wlog = tracer ? tracer->NewLog() : nullptr;
    writers.emplace_back([&, w, wlog] {
      Rng rng(options_.seed * 1000003 + static_cast<uint64_t>(cycle) * 31 +
              static_cast<uint64_t>(w));
      Connection con(db.get());
      Clock::time_point writer_start = Clock::now();
      for (int j = 0; j < commits; j++) {
        Row row = RandomRow(
            &rng, static_cast<int64_t>(bulk_.size()) + w * commits + j);
        char sql[160];
        std::snprintf(sql, sizeof(sql),
                      "INSERT INTO events VALUES (%lld, %d, %.2f, '%s')",
                      static_cast<long long>(row.id), row.qty, row.price,
                      kTags[row.tag]);
        if (wlog) wlog->BeginRequest();
        Span request(wlog, Layer::kRequest, "write");
        Status status = con.BeginTransaction();
        double statement_ms = 0, commit_ms = 0;
        if (status.ok()) {
          Span statement(wlog, Layer::kTransaction, "Connection::Query");
          auto r = con.Query(sql);
          statement_ms = statement.End();
          if (!r.ok()) status = r.status();
        }
        if (status.ok()) {
          Span commit(wlog, Layer::kTransaction, "Connection::Commit");
          status = con.Commit();
          commit_ms = commit.End();
        } else if (con.InTransaction()) {
          (void)con.Rollback();
        }
        double ms = request.End();
        Outcome outcome = Classify(status);
        result_->ops.Count(outcome);
        if (outcome != Outcome::kOk) continue;
        acked[w].push_back(row);
        per_writer[w].write.Add(ms);
        if (wlog) {
          per_writer[w].statement.Add(statement_ms);
          per_writer[w].commit.Add(commit_ms);
        }
      }
      if (tracer) tracer->AddThreadWall(MsSince(writer_start));
    });
  }
  for (auto& t : writers) t.join();
  double writers_ms = MsSince(writers_start);
  for (int w = 0; w < kWriters; w++) {
    for (const Row& r : acked[w]) expected.Add(r);
    out->write.Append(per_writer[w].write);
    out->statement.Append(per_writer[w].statement);
    out->commit.Append(per_writer[w].commit);
  }

  // Checkpoint: the file starts empty, so its growth is what the
  // checkpoint wrote.
  std::error_code ec;
  double size_before = static_cast<double>(std::filesystem::file_size(path_, ec));
  {
    Span checkpoint(log, Layer::kStorage, "Database::Checkpoint");
    Status s = db->Checkpoint();
    if (!s.ok()) return Fail("checkpoint: " + s.ToString());
    out->checkpoint_ms.Add(checkpoint.End());
  }
  double file_bytes = static_cast<double>(std::filesystem::file_size(path_, ec));
  double wal_bytes = static_cast<double>(
      std::filesystem::file_size(path_ + ".wal", ec));
  if (ec) wal_bytes = 0;
  out->checkpoint_bytes.Add(file_bytes - size_before);
  out->space_amp.Add((file_bytes + wal_bytes) / expected.logical_bytes);
  {
    Connection con(db.get());
    first_after = TakeSnapshot(&con);
  }
  Accumulate(first_before, first_after, &out->counters);
  out->peak_buffer = std::max(out->peak_buffer, first_after.buffer["peak_memory"]);
  {
    Span close(log, Layer::kStorage, "Database::Close");
    db.reset();
  }

  // Reopen and check everything against the host.
  {
    Span reopen(log, Layer::kStorage, "Database::Open");
    auto opened = Database::Open(path_);
    if (!opened.ok()) return Fail("reopen: " + opened.status().ToString());
    db = std::move(*opened);
    out->reopen_ms.Add(reopen.End());
  }
  {
    Connection con(db.get());
    Snapshot before = TakeSnapshot(&con);
    std::vector<const std::vector<Row>*> parts = {&bulk_};
    for (const auto& a : acked) parts.push_back(&a);
    Rng filter_rng(options_.seed ^ (static_cast<uint64_t>(cycle) << 32));
    int32_t min_qty = static_cast<int32_t>(filter_rng.Uniform(1, 100));
    if (!Check(&con, expected, parts, min_qty, log, out)) return false;
    Snapshot after = TakeSnapshot(&con);
    Accumulate(before, after, &out->counters);
    out->peak_buffer = std::max(out->peak_buffer, after.buffer["peak_memory"]);
    double logical = after.storage["logical_bytes"];
    out->encoded_ratio =
        logical > 0 ? after.storage["encoded_bytes"] / logical : 0;
  }
  {
    Span close(log, Layer::kStorage, "Database::Close");
    db.reset();
  }
  double cycle_ms = MsSince(start);
  out->cycle_ms.Add(cycle_ms);
  out->wall_ms += cycle_ms;
  out->rows += static_cast<double>(expected.rows);
  out->cycle_rows_per_s.Add(static_cast<double>(expected.rows) / (cycle_ms / 1000));
  if (tracer) tracer->AddThreadWall(cycle_ms - writers_ms);
  return true;
}

bool EtlRun::Check(Connection* con, const Expected& expected,
                   const std::vector<const std::vector<Row>*>& parts,
                   int32_t min_qty, SpanLog* log, Cycles* out) {
  // Full export through the streaming API, reading every value.
  Clock::time_point export_start = Clock::now();
  std::unique_ptr<mallard::StreamingQueryResult> stream;
  {
    Span send(log, Layer::kMain, "Connection::SendQuery");
    auto r = con->SendQuery("SELECT id, qty, price, tag FROM events");
    if (!r.ok()) return Fail("export: " + r.status().ToString());
    stream = std::move(*r);
  }
  int64_t rows = 0;
  uint64_t digest = 0;
  double fetch_ms = 0, chunks = 0;
  for (;;) {
    Span fetch(log, Layer::kMain, "StreamingQueryResult::Fetch");
    auto chunk = stream->Fetch();
    fetch_ms += fetch.End();
    if (!chunk.ok()) return Fail("fetch: " + chunk.status().ToString());
    if (*chunk == nullptr) break;
    const mallard::DataChunk& c = **chunk;
    chunks++;
    const int64_t* ids = c.column(0).data<int64_t>();
    const int32_t* qtys = c.column(1).data<int32_t>();
    const double* prices = c.column(2).data<double>();
    for (size_t i = 0; i < c.size(); i++) {
      mallard::StringRef tag = c.column(3).StringAt(i);
      digest += RowHash(ids[i], qtys[i], prices[i], tag.data, tag.size);
    }
    rows += static_cast<int64_t>(c.size());
  }
  Status closed = stream->Close();
  if (!closed.ok()) return Fail("export close: " + closed.ToString());
  out->export_ms.Add(MsSince(export_start));
  out->fetch_ms.Add(fetch_ms);
  out->fetch_chunks.Add(chunks);
  if (rows != expected.rows) {
    return Fail("after reopen the table holds " + std::to_string(rows) +
                " rows, expected " + std::to_string(expected.rows) +
                " (bulk rows plus acknowledged commits)");
  }
  if (digest != expected.digest) {
    return Fail("export checksum differs from the host's");
  }

  // One filter-aggregate, against the host's answer.
  std::string sql =
      "SELECT tag, count(*), sum(qty), sum(price) FROM events WHERE qty >= " +
      std::to_string(min_qty) + " GROUP BY tag";
  std::unique_ptr<MaterializedQueryResult> agg;
  double exec_ms = 0;
  Status status = RunRead(con, sql, log, "aggregate", &agg, &exec_ms,
                          &out->parse, &out->prepare);
  Outcome outcome = Classify(status);
  result_->ops.Count(outcome);
  if (outcome != Outcome::kOk) return true;  // counted as failed, not wrong
  out->aggregate_ms.Add(exec_ms);
  auto host = HostAggregate(parts, min_qty);
  if (agg->RowCount() != host.size()) {
    return Fail("aggregate returned " + std::to_string(agg->RowCount()) +
                " groups, expected " + std::to_string(host.size()));
  }
  for (size_t r = 0; r < agg->RowCount(); r++) {
    auto it = host.find(agg->GetValue(0, r).GetString());
    double price = agg->GetValue(3, r).GetAsDouble();
    if (it == host.end() || agg->GetValue(1, r).GetAsDouble() != it->second[0] ||
        agg->GetValue(2, r).GetAsDouble() != it->second[1] ||
        std::fabs(price - it->second[2]) >
            1e-9 * std::max(1.0, std::fabs(it->second[2]))) {
      return Fail("aggregate group " + agg->GetValue(0, r).ToString() +
                  " differs from the host's");
    }
  }
  return true;
}

}  // namespace

void RunEtl(const Options& options, RunResult* result) {
  EtlRun run(options, result);
  if (!run.FreshFile()) return;
  std::string memory_limit;
  double threads = 0;
  {
    auto db = Database::Open(run.dir() + "/events.db");
    if (!db.ok()) {
      result->verdict.Fail("open: " + db.status().ToString());
      return;
    }
    Connection con(db->get());
    memory_limit = PragmaText(&con, "memory_limit");
    result->env.push_back({"memory_limit", memory_limit});
    result->env.push_back({"threads", PragmaText(&con, "threads")});
    threads = std::strtod(PragmaText(&con, "threads").c_str(), nullptr);
    result->env.push_back(
        {"wal_commit_mode",
         PragmaText(&con, "wal_commit_mode") +
             " (default group commit: a commit is acknowledged after the "
             "fsync of its group)"});
  }
  result->env.push_back({"data", "bulk rows drawn from the seed"});
  result->env.push_back({"clients",
                         "1 loader/reader connection plus 3 writer "
                         "connections, closed loops"});
  result->env.push_back({"db_dir", run.dir()});

  // Set-up: draw the host rows and run one unmeasured warm-up cycle,
  // repeated.
  Samples setup_s;
  for (int rep = 0; rep < kSetupRepeats; rep++) {
    Clock::time_point start = Clock::now();
    run.MakeBulk();
    Cycles warmup;
    if (!run.Cycle(1000 + rep, nullptr, &warmup)) return;
    setup_s.Add(MsSince(start) / 1000);
  }

  auto measure = [&](double seconds, Tracer* tracer, int* cycle) {
    Cycles cycles;
    Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    do {
      if (!run.Cycle(++*cycle, tracer, &cycles)) break;
    } while (Clock::now() < deadline);
    return cycles;
  };
  int cycle = 0;
  double cpu_before = CpuSeconds();
  Cycles untraced =
      measure(options.trace ? options.seconds / 2 : options.seconds, nullptr,
              &cycle);
  double cpu_s = CpuSeconds() - cpu_before;
  Tracer tracer;
  Cycles traced;
  if (options.trace) traced = measure(options.seconds / 2, &tracer, &cycle);
  if (!result->verdict.ok()) return;

  Metrics& e2e = result->end_to_end;
  e2e.Set("setup_s", setup_s.Median(), "s");
  e2e.Set("peak_rss_mb", PeakRssMb(), "MB");
  // The median cycle: one slow checkpoint or fsync burst on a shared disk
  // moves the mean over a handful of cycles much more.
  e2e.Set("ops_per_s", untraced.cycle_rows_per_s.Median(), "1/s");
  e2e.Set("latency_ms", untraced.write.Median(), "ms");

  Metrics& report = result->report;
  report.Set("cycles", static_cast<double>(untraced.cycle_ms.size()), "count");
  report.Set("cycle_s", untraced.cycle_ms.Median() / 1000, "s");
  report.Set("rows_per_s", untraced.cycle_rows_per_s.Median(), "1/s");
  report.Set("ingest_rows_per_s",
             static_cast<double>(options.smoke ? kSmokeBulkRows : kBulkRows) /
                 (untraced.append_ms.Median() / 1000),
             "1/s");
  report.Set("write_p50_ms", untraced.write.Median(), "ms");
  report.Set("write_p99_ms", untraced.write.Quantile(0.99), "ms");
  report.Set("write_samples", static_cast<double>(untraced.write.size()),
             "count");
  report.Set("checkpoint_s", untraced.checkpoint_ms.Median() / 1000, "s");
  report.Set("reopen_s", untraced.reopen_ms.Median() / 1000, "s");
  report.Set("export_rows_per_s",
             untraced.rows / untraced.cycle_ms.size() /
                 (untraced.export_ms.Median() / 1000),
             "1/s");
  report.Set("space_amp", untraced.space_amp.Median(), "ratio");

  // Per-layer numbers come from the traced cycles, counters from all of
  // the measured ones.
  Metrics& layer = result->per_layer;
  const Cycles& t = options.trace ? traced : untraced;
  layer.Set("main.append_ms", t.append_ms.Median(), "ms");
  layer.Set("main.fetch_ms", t.fetch_ms.Median(), "ms");
  layer.Set("main.fetch_chunks", t.fetch_chunks.Median(), "count");
  layer.Set("parser.parse_ms", t.parse.Mean(), "ms");
  layer.Set("planner.prepare_ms", t.prepare.Mean(), "ms");
  layer.Set("execution.analytic_ms", t.aggregate_ms.Median(), "ms");
  layer.Set("storage.checkpoint_ms", t.checkpoint_ms.Median(), "ms");
  layer.Set("storage.reopen_ms", t.reopen_ms.Median(), "ms");
  layer.Set("storage.checkpoint.bytes_written", t.checkpoint_bytes.Median(),
            "bytes");
  layer.Set("storage.space_amp", t.space_amp.Median(), "ratio");
  layer.Set("transaction.statement_ms", t.statement.Median(), "ms");
  layer.Set("transaction.commit_ms", t.commit.Median(), "ms");
  Snapshot counters = untraced.counters;
  Accumulate(Snapshot{}, traced.counters, &counters);
  counters.buffer["peak_memory"] =
      std::max(untraced.peak_buffer, traced.peak_buffer);
  ReportCounters(Snapshot{}, counters,
                 std::strtod(memory_limit.c_str(), nullptr),
                 static_cast<double>(untraced.aggregate_ms.size() +
                                     traced.aggregate_ms.size()),
                 result);
  layer.Set("compression.encoded_ratio", t.encoded_ratio, "ratio");
  layer.Set("parallel.cpu_util",
            threads > 0 ? cpu_s / (untraced.wall_ms / 1000 * threads) : 0,
            "ratio");
  if (options.trace) {
    ReportTrace(tracer, untraced.rows_per_s(), traced.rows_per_s(), options,
                result);
  }
}

}  // namespace perfbench
