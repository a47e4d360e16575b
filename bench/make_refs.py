"""Generate the stored reference values under ``bench/refs``.

    PYTHONPATH=src python3 bench/make_refs.py [WORKLOAD ...]

Every reference is computed by at least two routes that must agree, or the
script stops:

* the package's production route (``growth(g)``, or ``cross_check`` where
  the 3^n subset route is affordable, i.e. up to 4 vertices);
* a closed-form sum over the spherical subsets that shares no recursion with
  the package: 1/G = sum over cliques T whose order-2 part T2 generates a
  finite Coxeter group of (-1)^|T2| t^N(T2) / W_T2(t) times the product of
  (1/G_v - 1) over the other vertices of T (Steinberg's formula extended
  to Dyer graphs);
* ``euler_recursive(g) == 1/G(1)``;
* sphere sizes from an integer recurrence on the closed form, compared with
  the package's Taylor expansion and, for the corpus, with the BFS census of
  the brute-force oracle.

For the CLI inputs it also records how the package's CLI fails on them, if
it does, at the interpreter's default limits (``known_failure``): those are
the package's known defects, which a run reports as failures but not as
wrong outputs.

Pool members are also timed one by one with a cleared gcd cache; the timing
only sorts a pool into strata of similar cost (see ``workloads.py``).  The
whole script takes about fifteen minutes on a 2-core x86 machine.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
import threading
import time
from pathlib import Path

from child import failure_kind, failure_status, run_cli
from workloads import (
    COX_POOL, CORPUS_RADIUS, DENSE_POOL, PATH_LENGTHS,
    REFS_DIR, SPARSE_POOL, SPHERES_RADIUS, census_graphs, complete_coxeter,
    coxeter_graph, dense_graph, digest, path_graph, sparse_graph,
)

import dyergrowth
from dyergrowth import (
    INFINITY, DyerGraph, RationalFunction, Polynomial, bfs_census, build_oracle, cli,
    classify_finite, cyclic_growth, euler_recursive, growth, sphere_sizes, to_diagram,
)
from dyergrowth.coxclassify import solomon_from_types
from dyergrowth.oracle import Unsupported
from dyergrowth.ratfun import _poly_gcd


def closed_form_series(graph: DyerGraph) -> RationalFunction:
    n = len(graph)
    v2 = graph._partition_masks()[0]
    adj = [graph.adjacency_mask(i) for i in range(n)]
    vertex_term = [
        None if (v2 >> i) & 1 else cyclic_growth(graph.order_at(i)).inverse() - 1
        for i in range(n)
    ]
    coxeter_terms: dict[int, RationalFunction | None] = {}

    def coxeter_term(m2: int):
        """(-1)^|T2| t^N / W_T2(t), or None when the Coxeter group is infinite."""
        if m2 not in coxeter_terms:
            types = () if m2 == 0 else classify_finite(to_diagram(graph.induced(m2)))
            if types is None:
                coxeter_terms[m2] = None
            else:
                length = sum(t.longest_length for t in types)
                sign = -1 if m2.bit_count() % 2 else 1
                coxeter_terms[m2] = RationalFunction(
                    Polynomial.monomial(length, sign), solomon_from_types(types)
                )
        return coxeter_terms[m2]

    total = RationalFunction(0)
    stack = [(0, 0, RationalFunction(1))]  # clique, next vertex, non-order-2 product
    while stack:
        mask, start, product = stack.pop()
        total = total + coxeter_term(mask & v2) * product
        for j in range(start, n):
            if (adj[j] & mask) != mask:
                continue
            grown = mask | (1 << j)
            if (v2 >> j) & 1:
                if coxeter_term(grown & v2) is not None:
                    stack.append((grown, j + 1, product))
            else:
                stack.append((grown, j + 1, product * vertex_term[j]))
    return total.inverse()


def taylor_ints(series: RationalFunction, n: int) -> list[int]:
    """Power-series coefficients 0..n by the denominator recurrence in Z."""
    num, den = series.num.coeffs, series.den.coeffs
    out: list[int] = []
    for k in range(n + 1):
        acc = num[k] if k < len(num) else 0
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        q, r = divmod(acc, den[0])
        if r:
            raise ArithmeticError(f"non-integral coefficient at t^{k}")
        out.append(q)
    return out


DEFAULT_RECURSION_LIMIT = 1000  # CPython's


def check(cond: bool, what: str):
    if not cond:
        raise SystemExit(f"reference routes disagree: {what}")


def build(vertices, edges) -> DyerGraph:
    orders = [(name, INFINITY if order == "inf" else order) for name, order in vertices]
    return DyerGraph(orders, [((a, b), label) for a, b, label in edges])


def verified_series(graph: DyerGraph, what: str, strategy="auto") -> RationalFunction:
    series = growth(graph, strategy).series
    check(series == closed_form_series(graph), f"{what}: growth vs closed form")
    chi = euler_recursive(graph).value
    check(chi == series.inverse().evaluate(1), f"{what}: euler_recursive vs 1/G(1)")
    return series


def timed_pool(make_graph, size: int, value, work=growth):
    """Reference digest and cost of every pool member.

    ``value(graph, what)`` gives the member's reference fields.  The cost is
    the least of three timings of ``work(graph)``, each from a cleared gcd
    cache; ``workloads.stratified_draw`` sorts the pool by it.
    """
    entries = {}
    for i in range(size):
        graph = build(*make_graph(i))
        times = []
        for _ in range(3):
            _poly_gcd.cache_clear()
            start = time.perf_counter()
            work(graph)
            times.append(time.perf_counter() - start)
        entries[str(i)] = {**value(graph, f"pool {i}"), "seconds": round(min(times), 3)}
        print(f"  pool {i}: {min(times):.2f} s", file=sys.stderr, flush=True)
    return entries


def growth_euler_digest(graph, what):
    series = verified_series(graph, what)
    return digest({"growth": series.to_dict(), "euler": str(euler_recursive(graph).value)})


def refs_census4() -> dict:
    table: dict[str, int] = {}
    index = []
    for k, (vertices, edges) in enumerate(census_graphs()):
        graph = build(vertices, edges)
        series = verified_series(graph, f"census graph {k}", "cross_check")
        taylor = series.taylor_coefficients(10)
        check(taylor == taylor_ints(series, 10), f"census graph {k}: Taylor")
        d = digest({
            "growth": series.to_dict(),
            "taylor10": [str(c) for c in taylor],
            "euler": str(euler_recursive(graph).value),
        })
        index.append(table.setdefault(d, len(table)))
    return {"route": "cross_check + closed form + euler", "digests": list(table), "index": index}


def refs_dense_amalgam() -> dict:
    def value(graph, what):
        return {"digest": digest({"growth": verified_series(graph, what).to_dict()})}

    return {"route": "amalgam + closed form + euler",
            "pool": timed_pool(dense_graph, DENSE_POOL, value)}


def refs_coxeter_complete() -> dict:
    fixed = {}
    for key, n in (("K9_label3", 9), ("K10_label3", 10)):
        fixed[key] = growth_euler_digest(build(*complete_coxeter(n, [3] * (n * (n - 1) // 2))), key)
    pool = timed_pool(coxeter_graph, COX_POOL,
                      lambda graph, what: {"digest": growth_euler_digest(graph, what)},
                      lambda graph: (growth(graph), euler_recursive(graph)))
    return {"route": "subset + closed form + euler", "fixed": fixed, "pool": pool}


def spheres_entry(graph: DyerGraph, what: str) -> dict:
    """Digest of ``spheres FILE -n 2000``, the digit count of its largest
    sphere size, and how the CLI fails on the graph, if it does."""
    series = verified_series(graph, what)
    sizes = taylor_ints(series, SPHERES_RADIUS)
    check(sizes == series.taylor_coefficients(SPHERES_RADIUS), f"{what}: Taylor")
    stdout = " ".join(str(c) for c in sizes) + "\n"
    return {
        "digest": digest({"exit": 0, "stdout_sha256": _sha(stdout)}),
        "digits": max(len(str(c)) for c in sizes),
        "known_failure": cli_failure(graph),
    }


def cli_failure(graph: DyerGraph) -> str | None:
    """The failure kind (``child.failure_kind``) of the CLI's spheres call on
    the graph at the interpreter's default limits, or None if it succeeds."""
    limits = sys.get_int_max_str_digits(), sys.getrecursionlimit()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    sys.setrecursionlimit(DEFAULT_RECURSION_LIMIT)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "graph.json"
            path.write_text(json.dumps(graph.to_json_dict()), encoding="utf-8")
            run_cli(cli.run, ["spheres", str(path), "-n", str(SPHERES_RADIUS)])
    except Exception as exc:
        return failure_kind(failure_status(exc))
    finally:
        sys.set_int_max_str_digits(limits[0])
        sys.setrecursionlimit(limits[1])
    return None


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def refs_spheres() -> dict:
    corpus = {}
    for path in dyergrowth.corpus_files():
        graph = DyerGraph.from_file(path)
        model = build_oracle(graph)
        if isinstance(model, Unsupported):
            continue
        series = verified_series(graph, path.stem)
        sizes = taylor_ints(series, CORPUS_RADIUS)
        check(list(bfs_census(model, CORPUS_RADIUS).spheres) == sizes, f"{path.stem}: BFS census")
        stdout = " ".join(str(c) for c in sizes) + "\noracle: MATCH\n"
        corpus[path.stem] = digest({"exit": 0, "stdout_sha256": _sha(stdout)})
    pool = timed_pool(sparse_graph, SPARSE_POOL, spheres_entry,
                      lambda graph: sphere_sizes(graph, SPHERES_RADIUS))
    paths = {str(n): spheres_entry(build(*path_graph(n)), f"path {n}") for n in PATH_LENGTHS}
    return {"route": "amalgam + closed form + euler; BFS oracle for the corpus",
            "corpus": corpus, "pool": pool, "paths": paths}


def main(workloads):
    # The references need what the package cannot do at the seed: long
    # integers printed in full and the deep recursion of long paths.
    sys.set_int_max_str_digits(0)
    sys.setrecursionlimit(100_000)
    makers = {"census4": refs_census4, "dense_amalgam": refs_dense_amalgam,
              "coxeter_complete": refs_coxeter_complete, "spheres": refs_spheres}
    for workload in workloads or list(makers):
        start = time.perf_counter()
        refs = makers[workload]()
        REFS_DIR.mkdir(exist_ok=True)
        with open(REFS_DIR / f"{workload}.json", "w", encoding="utf-8") as fh:
            json.dump(refs, fh, indent=None if workload == "census4" else 1, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {time.perf_counter() - start:.0f} s", file=sys.stderr)


if __name__ == "__main__":
    failure = []

    def guarded():
        try:
            main(sys.argv[1:])
        except BaseException as exc:
            failure.append(exc)

    threading.stack_size(512 * 1024 * 1024)
    worker = threading.Thread(target=guarded)
    worker.start()
    worker.join()
    if failure:
        raise failure[0]
