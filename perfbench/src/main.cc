// perfbench: runs one named workload from a seed against the embedded
// engine, checks every output, and prints its metrics. The last line of
// standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of
// a traced run (--trace 1). Lines before it, each starting with '#',
// carry the environment stamp, the failure accounting and the
// workload-specific numbers. Exit code 0 only when every output was
// correct. perfbench/README.md explains the workloads and metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --scratch <dir> [--smoke]

#include <sys/vfs.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The contract's metrics. Every run emits every metric of its kind, so
// each workload defines each end-to-end metric for its own operations
// (README.md has the table); per-layer metrics a workload does not
// exercise read 0.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"ops_per_s", "1/s"},
    {"latency_ms", "ms"},
};

const MetricDef kPerLayer[] = {
    {"main.plan_cache.hit_ratio", "ratio"},
    {"main.plan_cache.busy_skips", "count"},
    {"main.append_ms", "ms"},
    {"main.fetch_ms", "ms"},
    {"main.fetch_chunks", "count"},
    {"parser.parse_ms", "ms"},
    {"planner.prepare_ms", "ms"},
    {"execution.q1_ms", "ms"},
    {"execution.q3_ms", "ms"},
    {"execution.q5_ms", "ms"},
    {"execution.q6_ms", "ms"},
    {"execution.q10_ms", "ms"},
    {"execution.q12_ms", "ms"},
    {"execution.q14_ms", "ms"},
    {"execution.q19_ms", "ms"},
    {"execution.point_ms", "ms"},
    {"execution.analytic_ms", "ms"},
    {"parallel.tasks", "count"},
    {"parallel.runs", "count"},
    {"parallel.cpu_util", "ratio"},
    {"governor.admission.queued", "count"},
    {"governor.admission.shed", "count"},
    {"governor.admission.timeouts", "count"},
    {"storage.buffer.peak_mb", "MB"},
    {"storage.buffer.peak_over_cap", "ratio"},
    {"storage.buffer.spilled_mb", "MB"},
    {"storage.buffer.spill_count", "count"},
    {"storage.buffer.unspill_count", "count"},
    {"storage.buffer.evictions", "count"},
    {"storage.wal.fsyncs", "count"},
    {"storage.wal.commits_per_fsync", "ratio"},
    {"storage.wal.bytes_per_commit", "bytes"},
    {"storage.checkpoint.bytes_written", "bytes"},
    {"storage.checkpoint_ms", "ms"},
    {"storage.reopen_ms", "ms"},
    {"storage.space_amp", "ratio"},
    {"transaction.statement_ms", "ms"},
    {"transaction.commit_ms", "ms"},
    {"compression.encoded_ratio", "ratio"},
    {"compression.decode_count", "count"},
    {"compression.code_filter_windows", "count"},
    {"compression.encode_count", "count"},
    {"resilience.io_retries", "count"},
    {"resilience.checksum_failures", "count"},
    {"tpch.generate_ms", "ms"},
    {"self.parser_ms", "ms"},
    {"self.planner_ms", "ms"},
    {"self.execution_ms", "ms"},
    {"self.transaction_ms", "ms"},
    {"self.main_ms", "ms"},
    {"self.storage_ms", "ms"},
    {"self.unaccounted_ms", "ms"},
    {"trace.spans", "count"},
    {"trace.overhead_pct", "%"},
};

std::string FsType(const std::string& dir) {
  struct statfs fs;
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53:
      return "ext2/3/4";
    case 0x01021994:
      return "tmpfs";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x794C7630:
      return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "tpch_mem|tpch_spill|serving_mix|etl_roundtrip --seed N "
               "--seconds S --trace 0|1 --scratch DIR [--smoke]\n");
  return 2;
}

// Emits the metrics of `defs` from `metrics` as a JSON object body.
// Returns false when a metric is missing (end-to-end only), has another
// unit, or is not a finite number.
bool EmitMetrics(const MetricDef* defs, size_t n, const Metrics& metrics,
                 bool missing_is_zero, std::string* json, std::string* error) {
  for (size_t i = 0; i < n; i++) {
    double value = 0;
    bool found = false;
    for (const auto& item : metrics.items()) {
      if (item.first != defs[i].name) continue;
      found = true;
      value = item.second.first;
      if (item.second.second != defs[i].unit) {
        *error = std::string("metric ") + defs[i].name + " has unit " +
                 item.second.second;
        return false;
      }
    }
    if (!found && !missing_is_zero) {
      *error = std::string("metric ") + defs[i].name + " was not measured";
      return false;
    }
    if (!std::isfinite(value)) {
      *error = std::string("metric ") + defs[i].name + " is not finite";
      return false;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", defs[i].name, value, defs[i].unit);
    *json += buf;
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  int trace = -1;
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* value = nullptr;
    if (arg == "--smoke") {
      options.smoke = true;
      continue;
    }
    if ((value = next()) == nullptr) return Usage();
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(value);
    } else if (arg == "--scratch") {
      options.scratch = value;
    } else {
      return Usage();
    }
  }
  if (options.scratch.empty() || options.seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }
  options.trace = trace == 1;

  RunResult result;
  if (options.workload == "tpch_mem") {
    RunTpch(options, /*spill=*/false, &result);
  } else if (options.workload == "tpch_spill") {
    RunTpch(options, /*spill=*/true, &result);
  } else if (options.workload == "serving_mix") {
    RunServing(options, &result);
  } else if (options.workload == "etl_roundtrip") {
    RunEtl(options, &result);
  } else {
    return Usage();
  }

  // Environment stamp: what a reader needs to compare two outputs.
  std::printf("# env workload=%s\n", options.workload.c_str());
  std::printf("# env seed=%llu\n",
              static_cast<unsigned long long>(options.seed));
  std::printf("# env seconds=%g trace=%d smoke=%d\n", options.seconds, trace,
              options.smoke ? 1 : 0);
  std::printf("# env nproc=%ld\n", sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("# env compiler=%s\n", __VERSION__);
  std::printf("# env build_type=%s\n", PERFBENCH_BUILD_TYPE);
  std::printf("# env scratch_fs=%s\n", FsType(options.scratch).c_str());
  for (const auto& entry : result.env) {
    std::printf("# env %s=%s\n", entry.first.c_str(), entry.second.c_str());
  }
  for (const auto& item : result.report.items()) {
    std::printf("# report %s = %.6g %s\n", item.first.c_str(),
                item.second.first, item.second.second.c_str());
  }
  long long attempted = result.ops.attempted;
  long long not_ok = result.ops.NotOk();
  std::printf("# ops attempted=%lld failed=%lld shed=%lld timed_out=%lld "
              "error_rate=%.6g\n",
              attempted, result.ops.failed.load(), result.ops.shed.load(),
              result.ops.timed_out.load(),
              attempted > 0 ? static_cast<double>(not_ok) / attempted : 0.0);

  std::string metrics;
  std::string error;
  bool emitted =
      options.trace
          ? EmitMetrics(kPerLayer, sizeof(kPerLayer) / sizeof(kPerLayer[0]),
                        result.per_layer, true, &metrics, &error)
          : EmitMetrics(kEndToEnd, sizeof(kEndToEnd) / sizeof(kEndToEnd[0]),
                        result.end_to_end, false, &metrics, &error);
  if (!emitted) result.verdict.Fail(error);
  if (attempted < 1) result.verdict.Fail("no operation was attempted");
  bool correct = result.verdict.ok();
  if (!correct) {
    std::printf("# WRONG: %s\n", result.verdict.reason().c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, not_ok,
              emitted ? metrics.c_str() : "");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
