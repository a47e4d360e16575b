"""Seeded input generation for the benchmark workloads.

Nothing here imports ``dyergrowth``: the inputs are plain data (vertex
orders, edge lists, CLI argument lists) so that the program under test only
ever receives generated graphs or graph files.

Each seeded workload draws from a fixed pool of graphs whose reference
values are stored under ``bench/refs``.  Pool members are generated from
their pool index alone, so the references never depend on the run seed; the
run seed only chooses which pool members a run uses.  Pools are split into
strata of similar cost and a run takes one member from each stratum, so the
work in a run varies little from seed to seed.  The dense pool has a long
tail (its costliest graph takes 18 times the median); its costliest half is
in no stratum, because whether a seed drew one of them would decide the
length of the run.  The sparse pool of the CLI workload is split instead by
whether its largest sphere size has more digits than Python prints by
default: a run takes one graph from each side, so every run meets that
known defect of the CLI equally often.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFS_DIR = BENCH_DIR / "refs"

WORKLOADS = ("census4", "dense_amalgam", "coxeter_complete", "spheres")

INF = "inf"  # vertex order of an infinite cyclic generator, as in graph files
RANDOM_ORDERS = (2, 2, 2, 3, 4, 5, INF)
RANDOM_LABELS = (2, 2, 3, 4, 5)  # only between two order-2 vertices

# -- pool sizes and per-run draws ---------------------------------------------

CENSUS_SAMPLE = 7000  # of the 29 927 graphs with at most 4 vertices
# A seeded pool is drawn by strata: (number of strata, members per stratum).
DENSE_POOL = 48
DENSE_N = (20, 21, 22)
DENSE_P = 0.8
DENSE_STRATA = (12, 2)  # the 24 costliest members are in none
COX_POOL = 24
COX_STRATA = (2, 8)  # the 8 costliest members are in none
SPARSE_POOL = 32
SPARSE_N = (60, 120)
INT_STR_DIGITS = 4300  # Python's default limit on int-to-str conversion
PATH_LENGTHS = (200, 600)
SPHERES_RADIUS = 2000
CORPUS_RADIUS = 8


def digest(obj) -> str:
    """Short hex digest of the canonical JSON form of an output."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- graph generators ------------------------------------------------------------


def census_graphs(max_vertices=4, orders=(2, 3, 4, INF), labels=(2, 3, 4)):
    """Every valid Dyer graph with up to ``max_vertices`` vertices, as
    (orders, edges); the same enumeration order as the acceptance tests."""
    names = "abcdef"
    for n in range(max_vertices + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for order_choice in itertools.product(orders, repeat=n):
            options = []
            for i, j in pairs:
                opts = [None, 2]
                if order_choice[i] == 2 and order_choice[j] == 2:
                    opts.extend(l for l in labels if l != 2)
                options.append(opts)
            for combo in itertools.product(*options):
                edges = [
                    [names[i], names[j], label]
                    for (i, j), label in zip(pairs, combo)
                    if label is not None
                ]
                yield [[names[i], order_choice[i]] for i in range(n)], edges


def random_dyer(rng: random.Random, n: int, p: float):
    """G(n, p) with vertex orders and labels drawn from the benchmark pools."""
    orders = [rng.choice(RANDOM_ORDERS) for _ in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                both2 = orders[i] == 2 and orders[j] == 2
                edges.append([f"v{i}", f"v{j}", rng.choice(RANDOM_LABELS) if both2 else 2])
    return [[f"v{i}", o] for i, o in enumerate(orders)], edges


def dense_graph(index: int):
    rng = random.Random(f"dense_amalgam/{index}")
    return random_dyer(rng, DENSE_N[index % len(DENSE_N)], DENSE_P)


def complete_coxeter(n: int, labels):
    names = [f"s{i}" for i in range(n)]
    pairs = itertools.combinations(range(n), 2)
    edges = [[names[i], names[j], m] for (i, j), m in zip(pairs, labels)]
    return [[name, 2] for name in names], edges


def coxeter_graph(index: int):
    """Pool member: K_9, all order 2, labels drawn from {3, 4, 5}."""
    rng = random.Random(f"coxeter_complete/{index}")
    return complete_coxeter(9, [rng.choice((3, 4, 5)) for _ in range(36)])


def sparse_graph(index: int):
    rng = random.Random(f"spheres/{index}")
    n = rng.randint(*SPARSE_N)
    return random_dyer(rng, n, 3 / n)


def path_graph(n: int):
    """Path on n vertices with orders cycling through 2, 3, inf, 4; label 2."""
    cycle = (2, 3, INF, 4)
    vertices = [[f"p{i}", cycle[i % len(cycle)]] for i in range(n)]
    edges = [[f"p{i}", f"p{i + 1}", 2] for i in range(n - 1)]
    return vertices, edges


def graph_file_dict(vertices, edges) -> dict:
    """The documented graph-file JSON form."""
    return {
        "vertices": [{"name": name, "order": order} for name, order in vertices],
        "edges": [{"ends": [a, b], "label": label} for a, b, label in edges],
    }


# -- references and per-run selection ---------------------------------------------


def load_refs(workload: str) -> dict:
    with open(REFS_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def stratified_draw(rng: random.Random, pool: dict, strata: tuple[int, int]) -> list[str]:
    """Pool keys, one from every stratum, cheapest stratum first.  In order
    of their reference cost the members fill ``strata`` = (count, size)
    strata; the costliest members left over are never drawn."""
    count, size = strata
    ranked = sorted(pool, key=lambda key: (pool[key]["seconds"], int(key)))
    return [rng.choice(ranked[s * size:(s + 1) * size]) for s in range(count)]


def make_inputs(workload: str, seed: int, refs: dict, files_dir: Path) -> list[dict]:
    """The run's input records, each with its expected output digest.

    A record is {"id", "graph": [vertices, edges]} for the library workloads
    and {"id", "argv", "known_failure"} for the CLI workload, plus "expect".
    ``known_failure`` is the kind of failure (``child.failure_kind``) with
    which the CLI met the input when the references were made, or None.
    CLI graph files are written under ``files_dir``.  The order is fixed
    (fixed inputs, then one draw per stratum from cheapest to costliest),
    because in one process an input's time depends on what ran before it:
    the gcd cache, the heap.
    """
    rng = random.Random(f"{workload}/{seed}")
    if workload == "census4":
        table, index = refs["digests"], refs["index"]
        graphs = list(census_graphs())
        if len(graphs) != len(index):
            raise RuntimeError("census enumeration does not match its references")
        chosen = sorted(rng.sample(range(len(graphs)), CENSUS_SAMPLE))
        return [
            {"id": f"census/{i}", "graph": graphs[i], "expect": table[index[i]]}
            for i in chosen
        ]
    if workload == "dense_amalgam":
        return [
            {"id": f"dense/{k}", "graph": dense_graph(int(k)), "expect": refs["pool"][k]["digest"]}
            for k in stratified_draw(rng, refs["pool"], DENSE_STRATA)
        ]
    if workload == "coxeter_complete":
        fixed = refs["fixed"]
        records = [
            {"id": key, "graph": complete_coxeter(n, [3] * (n * (n - 1) // 2)), "expect": fixed[key]}
            for key, n in (("K9_label3", 9), ("K10_label3", 10))
        ]
        for k in stratified_draw(rng, refs["pool"], COX_STRATA):
            records.append(
                {"id": f"cox/{k}", "graph": coxeter_graph(int(k)), "expect": refs["pool"][k]["digest"]}
            )
        return records
    if workload == "spheres":
        files_dir.mkdir(parents=True, exist_ok=True)
        records = []
        for name, expect in sorted(refs["corpus"].items()):
            path = Path("src/dyergrowth/corpus") / f"{name}.json"
            argv = ["spheres", str(path), "-n", str(CORPUS_RADIUS), "--verify-oracle"]
            records.append({"id": f"corpus/{name}", "argv": argv, "expect": expect,
                            "known_failure": None})
        pool = refs["pool"]
        long_output = [sorted((k for k in pool if (pool[k]["digits"] > INT_STR_DIGITS) == side), key=int)
                       for side in (False, True)]
        generated = [(f"sparse/{k}", sparse_graph(int(k)), pool[k])
                     for k in (rng.choice(keys) for keys in long_output)]
        generated += [(f"path/{n}", path_graph(n), refs["paths"][str(n)]) for n in PATH_LENGTHS]
        for key, (vertices, edges), ref in generated:
            path = files_dir / (key.replace("/", "_") + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(graph_file_dict(vertices, edges), fh)
            argv = ["spheres", str(path), "-n", str(SPHERES_RADIUS)]
            records.append({"id": key, "argv": argv, "expect": ref["digest"],
                            "known_failure": ref["known_failure"]})
        return records
    raise ValueError(f"unknown workload {workload!r}")
