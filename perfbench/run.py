#!/usr/bin/env python3
"""Build and run vem's benchmark; print one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the repository root. The first run configures and builds
perfbench/ (and the vem library) into .bench_build/perfbench; later runs
only re-check the build. Build output and progress go to stderr. The last
line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}, holding every end-to-end metric of BENCHMARK.json with
--trace 0 and every per-layer metric with --trace 1 (a per-layer metric
whose layer the workload does not exercise reads 0). Traced runs also
write a Chrome trace to .bench_build/traces/. Exits non-zero, printing no
result, when the build, the run or the result's shape fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "vem_perfbench")
WORKLOADS = ("sort_1disk", "sort_4disk", "btree_wal")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        log("run.py: no vem sources next to perfbench/ (%s)" % ROOT)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "vem_perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not build():
        log("run.py: build failed")
        return 2
    expected = expected_metrics(args.trace)

    work = os.path.join(BUILD_ROOT, "work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s_seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=170)
    except subprocess.TimeoutExpired:
        log("run.py: benchmark timed out")
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("run.py: benchmark exited with %d" % proc.returncode)
        return 4
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    if args.trace:
        for name, unit in expected.items():
            metrics.setdefault(name, {"value": 0, "unit": unit})
    for name, unit in expected.items():
        if name not in metrics or metrics[name]["unit"] != unit:
            log("run.py: metric %s missing or not in %s" % (name, unit))
            return 5
    extra = sorted(set(metrics) - set(expected))
    if extra:
        log("run.py: metrics not in BENCHMARK.json: %s" % ", ".join(extra))
        return 5
    result["metrics"] = {k: metrics[k] for k in expected}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
