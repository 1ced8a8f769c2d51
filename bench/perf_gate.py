#!/usr/bin/env python3
"""Gate a change's simulator speed on paired benchmark runs against its
parent commit.

Usage:

    python3 bench/perf_gate.py PARENT_CHECKOUT CHANGE_CHECKOUT

Each argument is the root of a checkout. In each, perfbench/run.py
builds its own Release tree the first time it runs. For each workload
below, the gate runs PAIRS pairs of `perfbench/run.py --trace 0`: one
run in each checkout, pair i at seed i on both sides, with the side
that goes first alternating from pair to pair. The two runs of a pair
thus see the same host state, and the host's drift between minutes
cancels. Every run must print "correct": true and "failed": 0.

The end-to-end metrics, their directions and their bounds come from
the parent's BENCHMARK.json, so a change cannot loosen the bounds it
is judged by. The gate fails when the change's median on a metric is
worse than the parent's median by more than that metric's bound.

Exit status: 0 when every workload passes; 1 when a run fails, a check
fails or a median is worse than its bound (each such workload and
metric is named); 2 on a bad argument.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# fig10_sweep times the cycle model; fastforward times Hart::runFast,
# which fig10_sweep does not run.
WORKLOADS = ("fig10_sweep", "fastforward")
# At five pairs, one run in thirteen of one commit against a copy of
# itself failed on fig10_sweep's setup_s, whose single runs spread from
# 16 to 31 ms on a 4-vCPU host.
PAIRS = 9
SECONDS = "3"


def checkout(path):
    root = os.path.abspath(path)
    for name in ("BENCHMARK.json", os.path.join("perfbench", "run.py")):
        if not os.path.isfile(os.path.join(root, name)):
            raise argparse.ArgumentTypeError(
                "not a checkout with %s: %r" % (name, path))
    return root


def run(root, workload, seed, names):
    """One benchmark run: its values of the named metrics, or an error
    string."""
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", SECONDS, "--trace", "0"]
    proc = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        sys.stderr.write(proc.stderr[-4000:])
        return None, "exit status %d, no result" % proc.returncode
    if result.get("correct") is not True or result.get("failed") != 0:
        return None, "correct %s, %s of %s operations failed" % (
            result.get("correct"), result.get("failed"),
            result.get("attempted"))
    printed = result.get("metrics", {})
    missing = [name for name in names if name not in printed]
    if missing:
        return None, "no " + ", ".join(missing)
    return {name: printed[name]["value"] for name in names}, None


def worse_by(metric, parent, change):
    """How much worse the change is, as a fraction of the parent."""
    delta = (change - parent) / parent
    return delta if metric["better"] == "lower" else -delta


def main(argv):
    parser = argparse.ArgumentParser(
        prog="bench/perf_gate.py",
        description="Fail when the change's benchmark medians are worse "
        "than the parent's by more than BENCHMARK.json's bounds.")
    parser.add_argument("parent", type=checkout,
                        help="root of the parent commit's checkout")
    parser.add_argument("change", type=checkout,
                        help="root of the change's checkout")
    args = parser.parse_args(argv)
    with open(os.path.join(args.parent, "BENCHMARK.json")) as file:
        metrics = json.load(file)["end_to_end"]
    sides = (("parent", args.parent), ("change", args.change))

    names = [metric["name"] for metric in metrics]
    regressions = []
    for workload in WORKLOADS:
        runs = {"parent": [], "change": []}
        for seed in range(1, PAIRS + 1):
            order = sides if seed % 2 else sides[::-1]
            for side, root in order:
                result, error = run(root, workload, seed, names)
                if error:
                    print("FAIL %s seed %d on the %s: %s"
                          % (workload, seed, side, error))
                    return 1
                runs[side].append(result)
                print("%s seed %d %s: %s" % (
                    workload, seed, side, ", ".join(
                        "%s %.4g" % (name, result[name])
                        for name in names)), flush=True)

        print("\n%s, median of %d pairs:" % (workload, PAIRS))
        print("  %-18s %12s %12s %9s %6s" % (
            "metric", "parent", "change", "worse by", "bound"))
        for metric in metrics:
            name = metric["name"]
            parent, change = (
                statistics.median(result[name] for result in runs[side])
                for side in ("parent", "change"))
            worse = worse_by(metric, parent, change)
            failed = worse > metric["bound"]
            print("  %-18s %12.4g %12.4g %+8.1f%% %5.0f%%%s" % (
                name, parent, change, 100 * worse, 100 * metric["bound"],
                "  FAIL" if failed else ""))
            if failed:
                regressions.append("%s %s" % (workload, name))
        print(flush=True)

    if regressions:
        print("perf gate: worse than the parent by more than the bound "
              "on " + "; ".join(regressions))
        return 1
    print("perf gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
