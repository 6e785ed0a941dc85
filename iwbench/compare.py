#!/usr/bin/env python3
"""Compare two sets of iwbench runs against the bounds in BENCHMARK.json.

    python3 iwbench/compare.py PARENT.txt CHANGE.txt

Run from the repository root.  Each file holds one run per line: the
workload name, a space, and the JSON line run.py printed.  Runs of one
workload pair up in file order, so record them alternately (parent run,
change run, parent run, ...).  For every workload and end-to-end metric it
prints each side's median and quartiles and one verdict:

  worse       the change's median is worse than the parent's by more than
              the metric's bound
  better      the change wins at least 9 in 10 pairs and the medians differ
              by more than the parent's quartile spread
  unresolved  the parent's quartile spread is wider than the bound, and not
              every change run beats every parent run; or the parent's
              median is 0
  same        none of these

Runs that were not correct are counted and left out of the verdicts.
Exits 1 when any verdict is "worse", or when any run was not correct.
"""

import json
import statistics
import sys


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                workload, result = line.split(" ", 1)
                runs.setdefault(workload, []).append(json.loads(result))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, parent, change):
    lower = metric["better"] == "lower"
    wins = lambda c, p: c < p if lower else c > p  # noqa: E731
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    if pm == 0:
        return "unresolved"
    worse_by = (cm - pm) / pm if lower else (pm - cm) / pm
    if worse_by > metric["bound"]:
        return "worse"
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if wins(c, p))
    if pairs and won >= 0.9 * len(pairs) and abs(cm - pm) > p3 - p1:
        return "better"
    if (p3 - p1) / pm > metric["bound"] and not all(
            wins(c, p) for c in change for p in parent):
        return "unresolved"
    return "same"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    status = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        bad = sum(1 for r in p_runs + c_runs if not r["correct"])
        if bad:
            print("%s: %d runs not correct, left out" % (workload, bad))
            status = 1
        p_runs = [r for r in p_runs if r["correct"]]
        c_runs = [r for r in c_runs if r["correct"]]
        if not p_runs or not c_runs:
            continue
        print("%s (%d parent, %d change runs)" % (workload, len(p_runs), len(c_runs)))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in p_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            v = verdict(metric, p, c)
            status = 1 if v == "worse" else status
            print("  %-18s parent %s  change %s  bound %.2f  %s" % (
                name, "/".join("%.4g" % x for x in quartiles(p)),
                "/".join("%.4g" % x for x in quartiles(c)), metric["bound"], v))
    sys.exit(status)


if __name__ == "__main__":
    main()
