#!/usr/bin/env python3
"""Record benchmark results and compare two records against BENCHMARK.json.

A record is one JSON object per file:

    {"<workload>": {"end_to_end": [result, ...], "per_layer": [result, ...]}}

where each result is the last line one run of layerbench/run.py printed
(--trace 0 runs under "end_to_end", --trace 1 runs under "per_layer").

    python3 layerbench/compare.py record OUT.json [--runs 3] [--seconds S]
    python3 layerbench/compare.py compare BASE.json NEW.json

`record` runs every workload of BENCHMARK.json (seeds 1..runs, both
trace modes) from the current directory, which must be a checkout root.
`compare` prints one line per flag and exits 1 when there is any:

  * a run whose correctness checks failed;
  * an end-to-end metric whose median is worse than the base median by
    more than the metric's bound (a share of the base median);
  * a per-layer metric whose median moved by LAYER_FACTOR or more in
    either direction (per-layer metrics carry no bound; a layer that
    doubles, or halves, must be explained by the change).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
LAYER_FACTOR = 1.5


def load_benchmark(path=None):
    path = path or os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def medians(results):
    """Metric name -> median value over a list of run results."""
    values = {}
    for result in results:
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return {name: statistics.median(v) for name, v in values.items()}


def compare(base, new, bench):
    """Flags (one string each) raised by `new` against `base`."""
    flags = []
    for workload in sorted(base):
        if workload not in new:
            flags.append("%s: missing from the new record" % workload)
            continue
        for kind in ("end_to_end", "per_layer"):
            for result in new[workload].get(kind, []):
                if not result["correct"] or result["failed"]:
                    flags.append("%s: %s run failed %d of %d checks" % (
                        workload, kind, result["failed"],
                        result["attempted"]))

        b = medians(base[workload].get("end_to_end", []))
        n = medians(new[workload].get("end_to_end", []))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            if name not in b or name not in n:
                flags.append("%s: %s not recorded" % (workload, name))
                continue
            if b[name] == 0:
                continue
            change = (n[name] - b[name]) / abs(b[name])
            worse = change if metric["better"] == "lower" else -change
            if worse > metric["bound"]:
                flags.append("%s: %s worse by %.1f%% (bound %.0f%%): "
                             "%.6g -> %.6g" % (
                                 workload, name, 100 * worse,
                                 100 * metric["bound"], b[name], n[name]))

        b = medians(base[workload].get("per_layer", []))
        n = medians(new[workload].get("per_layer", []))
        for metric in bench["per_layer"]:
            name = metric["name"]
            if name not in b or name not in n:
                continue
            if b[name] == 0 and n[name] == 0:
                continue
            if b[name] == 0 or n[name] == 0 or (b[name] < 0) != (n[name] < 0):
                flags.append("%s: layer %s moved %.6g -> %.6g" % (
                    workload, name, b[name], n[name]))
                continue
            ratio = n[name] / b[name]
            if ratio >= LAYER_FACTOR or ratio <= 1.0 / LAYER_FACTOR:
                flags.append("%s: layer %s moved x%.2f: %.6g -> %.6g" % (
                    workload, name, ratio, b[name], n[name]))
    return flags


def record(out_path, runs, seconds):
    bench = load_benchmark(os.path.join(os.getcwd(), "BENCHMARK.json"))
    seconds = seconds or bench["run_seconds"]
    rec = {}
    for workload in (w["name"] for w in bench["workloads"]):
        rec[workload] = {"end_to_end": [], "per_layer": []}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            for seed in range(1, runs + 1):
                done = subprocess.run(
                    bench["command"] + [
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(trace)],
                    stdout=subprocess.PIPE, text=True)
                lines = done.stdout.strip().splitlines()
                if not lines:
                    print("%s seed %d trace %d: no result (exit %d)" % (
                        workload, seed, trace, done.returncode),
                        file=sys.stderr)
                    return 1
                rec[workload][kind].append(json.loads(lines[-1]))
    with open(out_path, "w") as f:
        json.dump(rec, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("out")
    rec.add_argument("--runs", type=int, default=3)
    rec.add_argument("--seconds", type=float, default=None)
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("base")
    cmp_.add_argument("new")
    args = parser.parse_args()

    if args.cmd == "record":
        return record(args.out, args.runs, args.seconds)
    with open(args.base) as f:
        base = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    flags = compare(base, new, load_benchmark())
    for flag in flags:
        print(flag)
    print("%d flag(s)" % len(flags))
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
