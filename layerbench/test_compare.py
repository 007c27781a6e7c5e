#!/usr/bin/env python3
"""Tests of the compare step against a recorded result.

    python3 layerbench/test_compare.py

The recorded result (recorded.json, made with `compare.py record`) is
edited in memory: a per-layer metric doubled, or an end-to-end metric
moved past its bound, must be flagged; the same record, or one moved
by less than the bound, must not. Nothing here runs the program.
"""

import copy
import json
import os
import unittest

import compare

HERE = os.path.dirname(os.path.abspath(__file__))


def scaled(record, workload, kind, name, factor):
    out = copy.deepcopy(record)
    for result in out[workload][kind]:
        result["metrics"][name]["value"] *= factor
    return out


class CompareTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = compare.load_benchmark()
        with open(os.path.join(HERE, "recorded.json")) as f:
            cls.record = json.load(f)

    def flags(self, new):
        return compare.compare(self.record, new, self.bench)

    def test_record_matches_benchmark(self):
        names = [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(sorted(self.record), sorted(names))
        for workload in names:
            for kind in ("end_to_end", "per_layer"):
                want = {m["name"] for m in self.bench[kind]}
                for result in self.record[workload][kind]:
                    self.assertEqual(set(result["metrics"]), want)
                    self.assertTrue(result["correct"])

    def test_same_record_raises_nothing(self):
        self.assertEqual(self.flags(copy.deepcopy(self.record)), [])

    def test_doubled_layer_is_flagged(self):
        for workload in self.record:
            base = compare.medians(self.record[workload]["per_layer"])
            for metric in self.bench["per_layer"]:
                name = metric["name"]
                if base[name] == 0:
                    continue
                new = scaled(self.record, workload, "per_layer", name, 2.0)
                flags = self.flags(new)
                self.assertTrue(
                    any(" layer %s " % name in f for f in flags),
                    "%s %s doubled not flagged" % (workload, name))

    def test_end_to_end_past_bound_is_flagged(self):
        for workload in self.record:
            for metric in self.bench["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                sign = 1 if metric["better"] == "lower" else -1
                worse = scaled(self.record, workload, "end_to_end", name,
                               1 + sign * 1.5 * bound)
                self.assertTrue(
                    any(" %s worse" % name in f for f in self.flags(worse)),
                    "%s %s past its bound not flagged" % (workload, name))
                within = scaled(self.record, workload, "end_to_end", name,
                                1 + sign * 0.5 * bound)
                self.assertEqual(self.flags(within), [])
                better = scaled(self.record, workload, "end_to_end", name,
                                1 - sign * 1.5 * bound)
                self.assertEqual(self.flags(better), [])

    def test_failed_run_is_flagged(self):
        for workload in self.record:
            new = copy.deepcopy(self.record)
            new[workload]["end_to_end"][0]["correct"] = False
            new[workload]["end_to_end"][0]["failed"] = 1
            self.assertTrue(any("failed" in f for f in self.flags(new)))


if __name__ == "__main__":
    unittest.main()
