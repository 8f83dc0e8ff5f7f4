#!/usr/bin/env python3
"""Builds the engine and the perfbench binary from source, then runs one
workload and relays its output.

    python3 perfbench/run.py --workload tpch_mem --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run it from the repository root. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); build
output goes to stderr. The last line of stdout is the run's JSON result.
The exit code is 0 only when the build succeeded and every output of the
run was correct.

--smoke runs every workload of BENCHMARK.json at tiny sizes, traced and
untraced, and checks that each run is correct and emits every metric
BENCHMARK.json names, with its unit. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; the child gets a little less.
CHILD_TIMEOUT_S = 170
# Engine knobs read from the environment; unset so every run uses the
# engine's defaults (auto threads, 1 GiB memory_limit, no memtest).
ENGINE_ENV = ("MALLARD_THREADS", "MALLARD_MEMORY_LIMIT", "MALLARD_MEMTEST")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds perfbench; returns its path or None."""
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(out)  # configured for another source tree
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("configure failed")
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        log("build failed")
        return None
    return os.path.join(out, "perfbench")


def run(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (exit code, stdout lines)."""
    scratch = os.path.join(build_dir(), "work")
    os.makedirs(scratch, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", scratch]
    if smoke:
        cmd.append("--smoke")
    env = {k: v for k, v in os.environ.items() if k not in ENGINE_ENV}
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True) as child:
        try:
            out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            log(f"{workload} did not finish within {CHILD_TIMEOUT_S} s")
            return 1, []
    return child.returncode, out.splitlines()


def parse_result(lines):
    """The run's JSON result (last stdout line), or None if malformed."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    if not isinstance(result, dict) or set(result) != keys:
        return None
    return result


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run(binary, workload, 1, 1, trace, smoke=True)
            result = parse_result(lines)
            where = f"{workload} --trace {trace}"
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{where}: exit {code}, last line "
                                f"{lines[-1] if lines else '(none)'}")
                continue
            metrics = result["metrics"]
            for m in spec[kind]:
                got = metrics.get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{where}: {m['name']} missing or not "
                                    f"in {m['unit']}: {got}")
                elif kind == "end_to_end" and not got["value"] > 0:
                    problems.append(f"{where}: {m['name']} = {got['value']}")
            extra = set(metrics) - {m["name"] for m in spec[kind]}
            if extra:
                problems.append(f"{where}: unlisted metrics {sorted(extra)}")
            log(f"smoke {where}: {len(metrics)} metrics, "
                f"{result['attempted']} ops")
    for p in problems:
        log(f"smoke FAILED {p}")
    if not problems:
        log("smoke passed")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    if args.smoke:
        return smoke(binary)
    code, lines = run(binary, args.workload, args.seed, args.seconds,
                      args.trace)
    for line in lines:
        print(line)
    if parse_result(lines) is None:
        log("the run printed no valid result line")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
