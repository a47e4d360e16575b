"""Seeded benchmark of dyergrowth: end-to-end metrics, or per-layer ones.

Run from the repository root:

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Workloads (inputs in ``workloads.py``, reasons in ``BENCHMARK.json``):
census4, dense_amalgam, coxeter_complete and spheres.

Every step runs in a fresh single-threaded interpreter with PYTHONHASHSEED=0
(``child.py``), one at a time.  A run first sets up its inputs seven times
and reports the median set-up time.  It then makes passes over the inputs,
each pass in a new interpreter, at least three and until ``--seconds`` have
been measured.  Each input's time is its median over the passes, which
keeps a stall of the machine in one pass out of the result.  Every output is
compared with a reference stored under ``bench/refs``.  An input fails when
it raises, exits non-zero or differs from its reference.  ``correct`` is
false when any input fails, except a CLI input that fails in the way its
reference records as a known defect of the package (see ``make_refs.py``);
such a failure still counts in ``failed``.

With ``--trace 0`` it prints, per workload:

    wall_s        s    time to run the whole input set once
    graph_p50_ms  ms   median time per input graph or CLI call
    graph_p99_ms  ms   99th percentile per input; census4 only (>= 1000 inputs)
    setup_s       s    interpreter start, import, input generation and
                       writing, reference loading
    peak_rss_mib  MiB  ru_maxrss of the pass process
    fail_ratio    1    failed inputs / attempted inputs
    ok_ratio      1    1 - fail_ratio

wall_s is the sum of the per-input times.  graph_p99_ms and fail_ratio are
printed and saved but are not among the metrics of BENCHMARK.json, whose
metrics must be numbers other than zero on every workload: graph_p99_ms
exists only with 1000 inputs or more, and fail_ratio is zero on most
workloads.  ok_ratio stands in for fail_ratio there.

With ``--trace 1`` it makes one plain pass and one traced pass.  The
per-layer metrics come from the traced pass: its layer self times plus
unattributed_s make up its traced_wall_s, and trace_overhead_ratio is
traced_wall_s over the plain pass's wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics
of BENCHMARK.json, or its per-layer ones when tracing).  A full report is
written to ``bench/out/BENCH_<workload>_seed<N>_trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import failure_kind
from tracer import derive
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 7
MIN_PASSES = 3  # per-input medians need three samples
STEP_TIMEOUT_S = 150
P99_MIN_INPUTS = 1000
# Printed and saved with the end-to-end metrics of BENCHMARK.json, not gated.
REPORTED_UNITS = {"graph_p99_ms": "ms", "fail_ratio": "1"}


class BenchError(RuntimeError):
    pass


def step(root: Path, args: list[str]) -> tuple[dict, float]:
    """Run one child step; its JSON report and its wall time."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), *args],
            cwd=root, env=env, capture_output=True, text=True, timeout=STEP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"step {args[0]} did not finish in {STEP_TIMEOUT_S} s") from exc
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"step {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1]), elapsed


def run_pass(root: Path, workdir: Path, traced: bool) -> dict:
    report, _ = step(root, ["pass", str(workdir), "1" if traced else "0"])
    report["wall_s"] = sum(report["times"])
    return report


def metric_units(section: str) -> dict:
    """Metric name -> unit for one section of BENCHMARK.json."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def run_workload(root: Path, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{workload}-{seed}-{os.getpid()}"
    run_start = time.perf_counter()
    try:
        workdir.mkdir()
        setups = [step(root, ["setup", workload, str(seed), str(workdir)])
                  for _ in range(1 if trace else SETUP_REPEATS)]
        if len({report["inputs_digest"] for report, _ in setups}) != 1:
            raise BenchError("set-ups from one seed produced different inputs")
        expected = json.loads((workdir / "inputs.json").read_text(encoding="utf-8"))["records"]
        plain = [run_pass(root, workdir, False)]
        while not trace and (len(plain) < MIN_PASSES or sum(r["wall_s"] for r in plain) < seconds):
            plain.append(run_pass(root, workdir, False))
        traced = run_pass(root, workdir, True) if trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = plain + ([traced] if trace else [])
    known = {r["id"]: r.get("known_failure") for r in expected}
    outcomes = [(i, s) for r in passes for i, s in zip(r["ids"], r["statuses"])]
    failures = sorted({(i, s) for i, s in outcomes if s != "ok"})
    failed = sum(s != "ok" for _, s in outcomes)
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "inputs": len(expected), "passes": len(plain), "traced_passes": int(trace),
        "inputs_digest": setups[0][0]["inputs_digest"],
        "correct": all(failure_kind(s) == known[i] for i, s in failures),
        "attempted": len(outcomes),
        "failed": failed,
        "failures": [{"id": i, "status": s, "known_defect": failure_kind(s) == known[i]}
                     for i, s in failures],
        "gcd_cache": plain[0]["gcd"],
    }
    pass_times = list(zip(*(r["times"] for r in plain)))
    per_input = [statistics.median(ts) for ts in pass_times]
    result["per_input"] = [
        {"id": r["id"], "status": s, "median_s": t, "pass_times_s": list(ts)}
        for r, s, t, ts in zip(expected, plain[0]["statuses"], per_input, pass_times)
    ]
    result["pass_walls_s"] = [r["wall_s"] for r in plain]
    if trace:
        values = derive(traced["raw"], traced["gcd"], traced["wall_s"], traced["import_s"])
        values["trace_overhead_ratio"] = traced["wall_s"] / sum(per_input)
        units = metric_units("per_layer")
        result["spans"] = traced["spans"]
    else:
        fail_ratio = failed / len(outcomes)
        values = {
            "wall_s": sum(per_input),
            "graph_p50_ms": statistics.median(per_input) * 1e3,
            "graph_p99_ms": (statistics.quantiles(per_input, n=100)[98] * 1e3
                             if len(per_input) >= P99_MIN_INPUTS else None),
            "setup_s": statistics.median(elapsed for _, elapsed in setups),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain),
            "fail_ratio": fail_ratio,
            "ok_ratio": 1 - fail_ratio,
        }
        units = {**metric_units("end_to_end"), **REPORTED_UNITS}
        result["setup_walls_s"] = [elapsed for _, elapsed in setups]
    result["metrics"] = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    result["elapsed_s"] = time.perf_counter() - run_start
    return result


def print_report(r: dict):
    mode = "traced" if r["trace"] else "plain"
    print(f"{r['workload']}  seed={r['seed']}  inputs={r['inputs']}  "
          f"passes={r['passes']} plain + {r['traced_passes']} traced  ({mode})")
    for name, m in r["metrics"].items():
        if m["value"] is None:
            print(f"  {name:<30} {'n/a':>14} (fewer than {P99_MIN_INPUTS} inputs)")
        else:
            print(f"  {name:<30} {m['value']:>14.6g} {m['unit']}")
    verdict = ("every input matched its reference or failed as a known defect" if r["correct"]
               else "SOME INPUTS FAILED THAT ARE NOT KNOWN DEFECTS")
    print(f"  failed {r['failed']} of {r['attempted']} attempted; {verdict}")
    for f in r["failures"]:
        print(f"    {f['id']}: {f['status']}{' (known defect)' if f['known_defect'] else ''}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dyergrowth" / "__init__.py").is_file():
        print("error: run from the repository root; src/dyergrowth is missing", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        try:
            result = run_workload(root, workload, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        out = OUT_DIR / f"BENCH_{workload}_seed{args.seed}_trace{args.trace}.json"
        out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        print_report(result)
        gated = metric_units("per_layer" if args.trace else "end_to_end")
        line = {k: result[k] for k in ("correct", "attempted", "failed")}
        line["metrics"] = {k: result["metrics"][k] for k in gated}
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
