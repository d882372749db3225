#!/usr/bin/env python3
"""Toy-scale smoke test of the benchmark: every workload, untraced and
traced, on 2^10-vertex inputs.

    python3 perfbench/test_smoke.py

Checks that each run exits 0, that its last stdout line is the result
object, that every answer was checked and right, and that exactly the
metrics BENCHMARK.json names are printed, each with its unit.
"""
import json
import pathlib
import subprocess
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--toy"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (cmd, proc.returncode,
                                                   proc.stderr[-4000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        result = run(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        got = result["metrics"]
        self.assertEqual(set(got), {m["name"] for m in wanted})
        for m in wanted:
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(got[m["name"]]["value"], (int, float), m["name"])
        if trace:
            self.assertEqual(got["failed_frac"]["value"], 0)
        else:
            for m in wanted:
                self.assertGreater(got[m["name"]]["value"], 0, m["name"])


for _w in SPEC["workloads"]:
    for _t in (0, 1):
        def _test(self, w=_w["name"], t=_t):
            self.check(w, t)
        setattr(Smoke, "test_%s_trace%d" % (_w["name"].replace("-", "_"), _t), _test)


if __name__ == "__main__":
    unittest.main()
