#!/usr/bin/env python3
"""The benchmark's own tests.

Run from anywhere (about a minute and a half; builds on first use):

    python3 perfbench/test_bench.py

- harness, layered and traced passes give identical sim digests on
  every workload, and so do untraced runs;
- the cycle-model rates of each traced fig10 pass agree with the rate
  over all of them;
- the long-frame program matches its C++ reference for several seeds;
- printed metric and workload names match BENCHMARK.json;
- bad arguments exit 2 with a named error.
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]

with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args):
    return subprocess.run(RUN + list(args), cwd=ROOT, capture_output=True,
                          text=True, timeout=600)


def measured(workload, seed, trace):
    """Run once; return (result object, {workload: [digests]}, stdout)."""
    proc = run("--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    digests = {}
    for line in lines:
        if line.startswith("sim_digest "):
            digests[line.split()[1]] = re.findall(r"\b[0-9a-f]{16}\b", line)
    return json.loads(lines[-1]), digests, proc.stdout


class BenchmarkTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        # One untraced run per workload and one traced suite, shared by
        # the tests below.
        cls.plain = {w: measured(w, 7, 0) for w in WORKLOADS}
        cls.traced = measured(WORKLOADS[0], 7, 1)

    def test_untraced_runs_are_correct(self):
        for workload, (result, _, _) in self.plain.items():
            with self.subTest(workload=workload):
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 100)

    def test_tracing_has_no_observer_effect(self):
        result, digests, _ = self.traced
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                harness, layered, traced = digests[workload]
                self.assertEqual(layered, harness)
                self.assertEqual(traced, harness)
                self.assertEqual(self.plain[workload][1][workload],
                                 [harness])

    def test_layer_rates_do_not_depend_on_pass_count(self):
        # uarch.ns_per_uop divides the spans of every traced fig10 pass
        # by their number; each pass alone must give about the same.
        result, _, stdout = self.traced
        line = re.search(r"^uarch\.ns_per_uop per traced fig10_sweep "
                         r"pass:(.*)$", stdout, re.M).group(1)
        per_pass = [float(x) for x in line.split()]
        self.assertGreaterEqual(len(per_pass), 2)
        overall = result["metrics"]["uarch.ns_per_uop"]["value"]
        for value in per_pass:
            self.assertGreater(value, 0)
            self.assertLess(abs(value / overall - 1), 0.3)

    def test_metric_names_match_benchmark_json(self):
        end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload, (result, _, _) in self.plain.items():
            with self.subTest(workload=workload):
                printed = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(printed, end_to_end)
        printed = {k: v["unit"]
                   for k, v in self.traced[0]["metrics"].items()}
        self.assertEqual(printed, per_layer)

    def test_workload_names_match_benchmark_json(self):
        proc = run("--workload", "no_such_workload", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
        self.assertEqual(proc.returncode, 2)
        known = re.search(r"known: ([^)]*)\)", proc.stderr).group(1)
        self.assertEqual(known.split(", "), WORKLOADS)

    def test_chrome_trace_loads(self):
        path = re.search(r"^trace: (.*)$", self.traced[2], re.M).group(1)
        with open(path) as trace_file:
            events = json.load(trace_file)["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        self.assertTrue(spans)
        ids = {e["args"]["id"] for e in spans}
        for span in spans:
            self.assertGreaterEqual(span["dur"], 0)
            if span["args"]["parent"]:
                self.assertIn(span["args"]["parent"], ids)

    def test_long_frame_matches_reference_for_several_seeds(self):
        # The sampled_long check runs the generated program to its exit
        # and compares the checksum with the C++ reference.
        digests = set()
        for seed in (7, 8, 9):
            result, digest, _ = (self.plain["sampled_long"] if seed == 7
                                 else measured("sampled_long", seed, 0))
            with self.subTest(seed=seed):
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
            digests.add(digest["sampled_long"][0])
        self.assertEqual(len(digests), 3, "seeds must change the input")

    def test_bad_arguments_exit_2_with_a_named_error(self):
        good = {"--workload": "fastforward", "--seed": "1",
                "--seconds": "1", "--trace": "0"}
        cases = [
            ("--seed", "x"), ("--seed", "-1"), ("--seconds", "0"),
            ("--seconds", "1.5"), ("--trace", "2"),
            ("--workload", "bogus"),
        ]
        for flag, value in cases:
            with self.subTest(flag=flag, value=value):
                args = dict(good, **{flag: value})
                proc = run(*[x for kv in args.items() for x in kv])
                self.assertEqual(proc.returncode, 2)
                self.assertIn("error", proc.stderr)
                self.assertIn(flag.lstrip("-"), proc.stderr)
                self.assertEqual(proc.stdout, "")
        for args in (["--seed", "1"], ["--bogus", "1"] +
                     [x for kv in good.items() for x in kv]):
            with self.subTest(args=args):
                proc = run(*args)
                self.assertEqual(proc.returncode, 2)
                self.assertIn("error", proc.stderr)


if __name__ == "__main__":
    unittest.main()
