"""Steadiness self-check of the benchmark.

    python3 bench/selfcheck.py [--workload NAME|all] [--seed N]

For each workload, sets up the seed's inputs twice in fresh directories and
runs one traced pass on each copy.  It passes when both set-ups produce the
same input digest, the next seed produces a different one, and both passes
read the same work counts and per-input outcomes.  Exits 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path

from run import OUT_DIR, run_pass, step
from tracer import derive
from workloads import WORKLOADS

COUNTS = ("ratfun.ops", "ratfun.gcd_calls", "growth.memo_entries", "oracle.ball_elements")


def observe(root: Path, workload: str, seed: int, tag: str, with_pass: bool = True):
    workdir = OUT_DIR / f"selfcheck-{workload}-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup, _ = step(root, ["setup", workload, str(seed), str(workdir)])
        if not with_pass:
            return setup["inputs_digest"], None
        report = run_pass(root, workdir, True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    layers = derive(report["raw"], report["gcd"], report["wall_s"], report["import_s"])
    counts = {name: layers[name] for name in COUNTS}
    return setup["inputs_digest"], (counts, report["statuses"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    root = Path.cwd()
    ok = True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        first = observe(root, workload, args.seed, "a")
        second = observe(root, workload, args.seed, "b")
        other, _ = observe(root, workload, args.seed + 1, "c", with_pass=False)
        same_inputs = first[0] == second[0]
        same_counts = first[1] == second[1]
        seed_matters = other != first[0]
        print(f"{workload}: inputs {first[0]} "
              f"{'repeat' if same_inputs else 'DIFFER'}; next seed "
              f"{'differs' if seed_matters else 'GIVES THE SAME INPUTS'}; counts "
              f"{first[1][0] if same_counts else (first[1][0], second[1][0])} "
              f"{'repeat' if same_counts else 'DIFFER'}")
        ok = ok and same_inputs and same_counts and seed_matters
    print("selfcheck:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
