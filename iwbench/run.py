#!/usr/bin/env python3
"""Build iwbench and run one workload, printing one JSON result line.

    python3 iwbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The last line of standard output is
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the metrics
are the end-to-end ones BENCHMARK.json lists, with --trace 1 the
per-layer ones (the span file is left in .iwbench_run/).  The build and
every file a run writes stay inside the repository.  Exits non-zero,
printing no result, when the program cannot be built or run.
"""

import argparse
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "iwbench", "iwbench.exe")
SCRATCH = ".iwbench_run"
# Exit status iwbench uses for a run whose open-loop generator fell behind:
# the measurement, not the system, is at fault, so it is repeated.
INVALID = 3
ATTEMPTS = 3


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def environment():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("IW_") and k != "OCAMLRUNPARAM"}
    tmp = os.path.abspath(os.path.join(SCRATCH, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = tmp
    return env


def parse(stdout):
    """Metric lines are `name value unit [key=value ...]`."""
    metrics, notes = {}, {}
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) < 3 or line.startswith("#"):
            continue
        name, value = fields[0], fields[1]
        try:
            metrics[name] = float(value)
        except ValueError:
            metrics[name] = None
        notes[name] = dict(f.split("=", 1) for f in fields[3:] if "=" in f)
    return metrics, notes


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isfile("BENCHMARK.json")):
        fail("run from the repository root (dune-project and BENCHMARK.json)")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = environment()
    build = subprocess.run(["dune", "build", "--root", ".", "iwbench/iwbench.exe"],
                           env=env, stdout=sys.stderr)
    if build.returncode != 0:
        fail("build failed")

    cmd = [EXE, args.workload, "--seed", str(args.seed),
           "--duration", str(args.seconds)]
    if args.trace:
        cmd += ["--trace", os.path.join(
            SCRATCH, "trace-%s-%d.json" % (args.workload, args.seed))]
    for _ in range(ATTEMPTS):
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=170)
        sys.stderr.write(proc.stdout)
        if proc.returncode != INVALID:
            break
    metrics, notes = parse(proc.stdout)
    if "error_ratio" not in metrics:
        fail("iwbench exited %d without metrics" % proc.returncode)

    attempted = int(notes["error_ratio"]["attempted"])
    failed = int(notes["error_ratio"]["failed"])
    correct = proc.returncode == 0 and failed == 0
    out = {}
    for m in wanted:
        value = metrics.get(m["name"])
        if value is None:
            # A percentile short of ten samples beyond it prints "-".  An
            # end-to-end metric must be measured; a per-layer one reads 0.
            if m in spec["end_to_end"]:
                correct = False
            value = 0.0
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": out}))


if __name__ == "__main__":
    main()
