#!/usr/bin/env python3
"""Build and run one workload of the layer-split benchmark.

    python3 layerbench/run.py --workload many_shots --seed 7 --seconds 10 --trace 0

Run from the root of a qassert checkout. The first call configures and
builds the library and the qa_layerbench driver (Release) under
.bench_build/ (or $CARGO_TARGET_DIR when set); later calls rebuild
incrementally. The last line of standard output is the driver's JSON
result: with --trace 0 it pools SEGMENTS driver processes (see
run_segments), with --trace 1 it is the one traced process's own. Build
output goes to standard error. Exit codes: 0 ok, 1 a correctness check
failed (or a segment died), 3 no qassert sources here or the build
failed, 4 the run timed out.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
SEGMENTS = 5


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "layerbench")


def build(out):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        print("layerbench: no qassert sources next to %s" % HERE,
              file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "qa_layerbench"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            print("layerbench: build step failed: %s" % " ".join(step),
                  file=sys.stderr)
            return False
    return True


def percentile(values, q):
    """Nearest-rank percentile, the driver's own definition."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    return ordered[min(len(ordered) - 1, max(rank, 1) - 1)]


def run_segments(command, seconds):
    """The untraced run as SEGMENTS processes of seconds/SEGMENTS each.

    Code and heap addresses are randomized per process, and on the host
    this was tuned on one process in two runs the shot loop about 1.5x
    faster than the next for that reason alone; pooling several
    processes per run samples that spread instead of drawing it once.
    Each segment sets up once; the run reports the median set-up, the
    pooled segments' completed jobs and simulated shots over their summed
    window wall time, and percentiles of the pooled job latencies.
    """
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results, samples = [], []
    jobs = shots = window_s = 0
    for segment in range(SEGMENTS):
        done = subprocess.run(
            command + ["--seconds", repr(seconds / SEGMENTS)],
            stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
        lines = done.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print("layerbench: segment %d printed no result (exit %d)" % (
                segment, done.returncode), file=sys.stderr)
            return None
        for line in lines[:-1]:
            if line.startswith("# samples "):
                window = json.loads(line[len("# samples "):])
                samples += window["job_ms"]
                jobs += window["jobs"]
                shots += window["shots"]
                window_s += window["window_s"]
            else:
                print("# seg%d %s" % (segment, line.lstrip("# ")))
        results.append(json.loads(lines[-1]))

    def values(name):
        return [r["metrics"][name]["value"] for r in results]

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {
        "setup_s": statistics.median(values("setup_s")),
        "jobs_per_s": jobs / window_s if window_s else 0.0,
        "shots_per_s": shots / window_s if window_s else 0.0,
        "job_ms_p50": percentile(samples, 0.5) if samples else 0.0,
        "job_ms_p90": percentile(samples, 0.9) if samples else 0.0,
        "ok_frac": 1.0 - failed / attempted if attempted else 0.0,
        "peak_rss_mb": statistics.median(values("peak_rss_mb")),
    }
    units = {name: m["unit"] for name, m in results[0]["metrics"].items()}
    if len(samples) > 10:
        tail = 1.0 - 10.0 / len(samples)
        print("# %d jobs pooled over %d processes; p%.3f = %r ms with 10 "
              "samples beyond" % (len(samples), SEGMENTS, 100 * tail,
                                  percentile(samples, tail)))
    for name, value in metrics.items():
        print("# %s = %r %s" % (name, value, units[name]))
    return {"correct": all(r["correct"] for r in results) and attempted > 0,
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["service_zipf", "many_shots",
                                 "deep_circuits"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        return 3
    command = [os.path.join(out, "qa_layerbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--trace", str(args.trace)]
    sys.stdout.flush()
    try:
        if args.trace == 0:
            result = run_segments(command, args.seconds)
            if result is None:
                return 1
            print(json.dumps(result), flush=True)
            return 0 if result["correct"] else 1
        trace_dir = os.path.join(out, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--seconds", repr(args.seconds), "--trace-out",
                    os.path.join(trace_dir, "%s-seed%d.ndjson" % (
                        args.workload, args.seed))]
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("layerbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
