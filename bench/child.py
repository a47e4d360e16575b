"""One benchmark step in a fresh interpreter: ``setup`` or ``pass``.

    python3 bench/child.py setup WORKLOAD SEED WORKDIR
    python3 bench/child.py pass WORKDIR TRACE

``setup`` imports the package, generates the run's inputs from the seed,
writes them (and any graph files) to WORKDIR and loads their references.
``pass`` runs every input once, in the generated order, timing each, and
compares each output with its reference; with TRACE 1 the layers are
wrapped by ``tracer.Tracer`` first.  Both print one JSON object on stdout.
``bench/run.py`` starts a new interpreter for every step, so the
process-global gcd cache and ``ru_maxrss`` start empty and no input is ever
timed twice in one process.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from workloads import digest, load_refs, make_inputs


def setup(workload: str, seed: int, workdir: Path) -> dict:
    importlib.import_module("dyergrowth.cli")
    refs = load_refs(workload)
    records = make_inputs(workload, seed, refs, workdir / "graphs")
    text = json.dumps({"workload": workload, "seed": seed, "records": records})
    (workdir / "inputs.json").write_text(text, encoding="utf-8")
    # The digest covers what the program receives, not where a run keeps it.
    h = hashlib.sha256(text.replace(str(workdir), "").encode())
    for path in sorted((workdir / "graphs").glob("*.json")):
        h.update(path.read_bytes())
    return {"inputs_digest": h.hexdigest()[:16]}


class CliExit(Exception):
    """A CLI call that returned a non-zero exit code."""


def run_cli(cli_run, argv: list[str]):
    """One in-process CLI call; a thunk for its output, or CliExit."""
    out, err = io.StringIO(), io.StringIO()
    code = cli_run(argv, out, err)
    if code != 0:
        raise CliExit(f"exit {code}: {err.getvalue().strip()[:100]}")
    return lambda: {"exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def failure_status(exc: Exception) -> str:
    """The status of an input that failed: its kind, a colon, a message."""
    if isinstance(exc, CliExit):
        return str(exc)
    return f"raised {type(exc).__name__}: {str(exc)[:100]}"


def failure_kind(status: str) -> str:
    """'exit 1' or 'raised RecursionError': a failure status without its message."""
    return status.split(":", 1)[0]


def _graph_args(record, infinity):
    vertices, edges = record["graph"]
    orders = [(name, infinity if order == "inf" else order) for name, order in vertices]
    return orders, [((a, b), label) for a, b, label in edges]


def run_pass(workdir: Path, trace: bool) -> dict:
    start = time.perf_counter()
    importlib.import_module("dyergrowth.cli")
    import_s = time.perf_counter() - start
    mods = {name: importlib.import_module(f"dyergrowth.{name}")
            for name in ("dyergraph", "growth", "euler", "cli", "ratfun")}
    infinity = mods["dyergraph"].INFINITY
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    data = json.loads((workdir / "inputs.json").read_text(encoding="utf-8"))
    workload = data["workload"]

    # Library calls go through module attributes at call time, so the traced
    # pass runs the wrapped entry points and the plain pass the originals.
    def census4(args):
        g = mods["dyergraph"].DyerGraph(*args)
        series = mods["growth"].growth(g).series
        taylor = series.taylor_coefficients(10)
        chi = mods["euler"].euler_recursive(g).value
        return lambda: {"growth": series.to_dict(), "taylor10": [str(c) for c in taylor], "euler": str(chi)}

    def dense_amalgam(args):
        series = mods["growth"].growth(mods["dyergraph"].DyerGraph(*args)).series
        return lambda: {"growth": series.to_dict()}

    def coxeter_complete(args):
        g = mods["dyergraph"].DyerGraph(*args)
        series = mods["growth"].growth(g).series
        chi = mods["euler"].euler_recursive(g).value
        return lambda: {"growth": series.to_dict(), "euler": str(chi)}

    def spheres(argv):
        return run_cli(mods["cli"].run, argv)

    work = {"census4": census4, "dense_amalgam": dense_amalgam,
            "coxeter_complete": coxeter_complete, "spheres": spheres}[workload]
    times, statuses, spans = [], [], []
    records = data["records"]
    for record in records:
        args = record["argv"] if "argv" in record else _graph_args(record, infinity)
        before = tracer.snapshot() if tracer else None
        t0 = time.perf_counter()
        try:
            output = work(args)
        except Exception as exc:  # every input runs; a raise is a failure
            elapsed = time.perf_counter() - t0
            status = failure_status(exc)
        else:
            elapsed = time.perf_counter() - t0
            status = "ok" if digest(output()) == record["expect"] else "mismatch"
        times.append(elapsed)
        statuses.append(status)
        if tracer:
            after = tracer.snapshot()
            spans.append({
                "id": record["id"],
                "wall_s": elapsed,
                "self_s": {k: (after[k] - before[k]) / 1e9 for k in after if after[k] != before[k]},
            })

    gcd = mods["ratfun"]._poly_gcd.cache_info()
    report = {
        "ids": [r["id"] for r in records],
        "times": times,
        "statuses": statuses,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "import_s": import_s,
        "gcd": {"hits": gcd.hits, "misses": gcd.misses, "evictions": gcd.misses - gcd.currsize},
    }
    if tracer:
        tracer.uninstall()
        report["raw"] = tracer.raw()
        report["spans"] = spans
    return report


def main(argv):
    if argv[0] == "setup":
        report = setup(argv[1], int(argv[2]), Path(argv[3]))
    elif argv[0] == "pass":
        report = run_pass(Path(argv[1]), argv[2] == "1")
    else:
        raise SystemExit(f"unknown step {argv[0]!r}")
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
