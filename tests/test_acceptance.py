"""Acceptance suite.

Every criterion is exact (integer/rational equality, no tolerances) and the
timed ones assert their budget.  Run with -s to see one PASS/FAIL line per
criterion.

The exhaustive corpus holds every valid graph with up to 4 vertices, vertex
orders in {2, 3, 4, inf} and edge labels in {2, 3, 4} (29 927 graphs, 1 946
up to isomorphism).  Growth series are isomorphism invariants, so per-graph
assertions read strategy results from a per-isomorphism-class cache; on top
of that, every graph with up to 3 vertices and a fixed random sample of the
4-vertex graphs are recomputed directly from scratch so that vertex-order
dependent code paths (amalgam vertex choice, declaration-order tie breaks)
are exercised across relabelings as well.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import iso_signature, iter_dyer_graphs
from dyergrowth import DyerGraph, INFINITY
from dyergrowth.coxclassify import IrreducibleCoxeterType, solomon_from_types
from dyergrowth.euler import euler_recursive, euler_via_growth
from dyergrowth.growth import (
    GrowthEngine,
    bx_series,
    cyclic_growth,
    graph_product_check,
    growth,
    pd_series,
    spherical_subset_growth,
)
from dyergrowth.oracle import (
    CyclicGraphProduct,
    DihedralModel,
    DirectProductModel,
    SignedPermutationModel,
    SymmetricGroupModel,
    bfs_census,
    cyclic_model,
)
from dyergrowth.ratfun import Polynomial, RationalFunction


@contextmanager
def criterion(number, name):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS ({time.perf_counter() - start:.2f}s)")


@pytest.fixture(scope="module")
def exhaustive():
    """All valid graphs on <= 4 vertices, orders {2,3,4,inf}, labels {2,3,4}."""
    return [DyerGraph(orders, edges) for orders, edges in iter_dyer_graphs(4)]


class ClassCache:
    """Per-isomorphism-class computation cache over the exhaustive corpus."""

    def __init__(self):
        self.entries = {}

    def entry(self, graph):
        sig = iso_signature(graph)
        found = self.entries.get(sig)
        if found is None:
            engine = GrowthEngine(graph, "amalgam")
            found = {
                "graph": graph,
                "engine": engine,
                "amalgam": engine.series(),
                "subset": GrowthEngine(graph, "subset").series(),
            }
            self.entries[sig] = found
        return found


@pytest.fixture(scope="module")
def cache():
    return ClassCache()


def test_criterion_1_cyclic_series(capsys):
    with criterion(1, "cyclic and basic series"):
        expected = {
            4: RationalFunction(Polynomial([1, 2, 1])),
            5: RationalFunction(Polynomial([1, 2, 2])),
            INFINITY: RationalFunction(Polynomial([1, 1]), Polynomial([1, -1])),
        }
        cyclic_growth(2)  # warm-up outside the timed region
        start = time.perf_counter()
        for order, series in expected.items():
            assert cyclic_growth(order) == series
        elapsed = time.perf_counter() - start
        assert elapsed < 0.001, f"took {elapsed * 1000:.3f} ms"


def test_criterion_2_free_group_spheres():
    with criterion(2, "free group sphere counts"):
        start = time.perf_counter()
        graph = DyerGraph({"x": INFINITY, "y": INFINITY})
        coeffs = growth(graph).series.taylor_coefficients(10)
        for n in range(1, 11):
            assert coeffs[n] == 4 * 3 ** (n - 1)
        census = bfs_census(CyclicGraphProduct(graph), 6)
        assert list(census.spheres) == coeffs[:7]
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_3_strategy_equivalence(exhaustive, cache):
    with criterion(3, "subset vs amalgam strategy equivalence"):
        start = time.perf_counter()
        for graph in exhaustive:
            entry = cache.entry(graph)
            assert entry["subset"] == entry["amalgam"], graph
        # direct recomputation, bypassing the isomorphism-class cache
        rng = random.Random(1234)
        direct = [g for g in exhaustive if len(g) <= 3]
        direct += rng.sample([g for g in exhaustive if len(g) == 4], 1500)
        for graph in direct:
            assert GrowthEngine(graph, "subset").series() == GrowthEngine(
                graph, "amalgam"
            ).series(), graph
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.2f} s"


def test_criterion_4_graph_product_agreement(exhaustive, cache):
    with criterion(4, "spherical-subset sum, clique formula on the all-label-2 sublocus"):
        checked = 0
        for graph in exhaustive:
            entry = cache.entry(graph)
            if "spherical_subset" not in entry:
                entry["spherical_subset"] = spherical_subset_growth(entry["graph"])
            assert entry["spherical_subset"] == entry["subset"], graph
            assert entry["spherical_subset"] == entry["amalgam"], graph
            if any(label != 2 for _, label in graph.edges()):
                continue
            if "graph_product" not in entry:
                entry["graph_product"] = graph_product_check(entry["graph"])
            assert entry["graph_product"] == entry["subset"], graph
            assert entry["graph_product"] == entry["amalgam"], graph
            checked += 1
        assert checked > 10000


def test_criterion_5_alternating_sum_identity(exhaustive, cache):
    with criterion(5, "parabolic alternating-sum identity"):
        for graph in exhaustive:
            entry = cache.entry(graph)
            if "identity_ok" not in entry:
                rep = entry["graph"]
                engine = entry["engine"]
                total = engine._alternating_parabolic_sum(rep.full_mask)
                sign = 1 if len(rep) % 2 else -1
                if rep.classify().is_spherical:
                    lhs = (pd_series(rep) + sign) / entry["amalgam"]
                else:
                    lhs = RationalFunction(sign) / entry["amalgam"]
                    assert bx_series(rep, (), engine).is_zero, rep
                assert lhs == total, rep
                entry["identity_ok"] = True


def test_criterion_6_finite_group_census():
    with criterion(6, "finite family censuses"):
        start = time.perf_counter()
        families = [
            (IrreducibleCoxeterType("A", 1), SymmetricGroupModel(1)),
            (IrreducibleCoxeterType("A", 2), SymmetricGroupModel(2)),
            (IrreducibleCoxeterType("A", 3), SymmetricGroupModel(3)),
            (IrreducibleCoxeterType("A", 4), SymmetricGroupModel(4)),
            (IrreducibleCoxeterType("B", 2), SignedPermutationModel("B", 2)),
            (IrreducibleCoxeterType("B", 3), SignedPermutationModel("B", 3)),
            (IrreducibleCoxeterType("D", 4), SignedPermutationModel("D", 4)),
        ] + [
            (IrreducibleCoxeterType("I2", 2, m), DihedralModel(m))
            for m in range(3, 9)
        ]
        for typ, model in families:
            poly = solomon_from_types([typ])
            census = bfs_census(model, typ.longest_length + 1)
            assert census.order == typ.order == poly.evaluate(1)
            assert census.max_length == typ.longest_length == poly.degree
            assert census.spheres[: poly.degree + 1] == poly.coeffs

        products = [
            (IrreducibleCoxeterType("A", 2), SymmetricGroupModel(2), 2),
            (IrreducibleCoxeterType("A", 3), SymmetricGroupModel(3), 3),
            (IrreducibleCoxeterType("B", 2), SignedPermutationModel("B", 2), 4),
            (IrreducibleCoxeterType("I2", 2, 5), DihedralModel(5), 2),
            (IrreducibleCoxeterType("D", 4), SignedPermutationModel("D", 4), 2),
        ]
        for typ, model, cyclic_order in products:
            series = RationalFunction(solomon_from_types([typ])) * cyclic_growth(
                cyclic_order
            )
            poly = series.as_polynomial()
            product_model = DirectProductModel([model, cyclic_model(cyclic_order, "zz")])
            census = bfs_census(product_model, poly.degree + 1)
            assert census.order == poly.evaluate(1) == typ.order * cyclic_order
            assert census.spheres[: poly.degree + 1] == poly.coeffs
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f} s"


def test_criterion_7_euler_characteristic(exhaustive, cache):
    with criterion(7, "Euler characteristic, two routes"):
        anchors = [
            (DyerGraph({"x": INFINITY}), Fraction(0)),
            (DyerGraph({"x": INFINITY, "y": INFINITY}), Fraction(-1)),
            (
                DyerGraph(
                    {"x": 2, "y": 2, "z": 2},
                    {("x", "y"): 3, ("y", "z"): 3, ("x", "z"): 3},
                ),
                Fraction(0),
            ),
        ]
        for graph, expected in anchors:
            assert euler_via_growth(graph).value == expected
            assert euler_recursive(graph).value == expected

        for graph in exhaustive:
            entry = cache.entry(graph)
            if "euler" not in entry:
                rep = entry["graph"]
                via = euler_via_growth(rep).value
                rec = euler_recursive(rep).value
                assert via == rec, rep
                if rep.classify().is_finite_group:
                    from dyergrowth.oracle import Unsupported, build_oracle

                    model = build_oracle(rep)
                    if not isinstance(model, Unsupported):
                        order = bfs_census(model, 64).order
                        assert via == Fraction(1, order), rep
                entry["euler"] = via


def test_criterion_8_property_suite(exhaustive, cache):
    with criterion(8, "coefficient, palindromicity and normalization properties"):
        start = time.perf_counter()
        for graph in exhaustive:
            entry = cache.entry(graph)
            if "sanity_ok" in entry:
                continue
            rep = entry["graph"]
            series = entry["amalgam"]
            coeffs = series.taylor_coefficients(20)
            assert coeffs[0] == 1, rep
            assert all(c >= 0 for c in coeffs), rep
            report = rep.classify()
            if report.is_finite_group:
                poly = series.as_polynomial()
                from dyergrowth.coxclassify import longest_length, to_diagram

                total_longest = longest_length(
                    to_diagram(rep.induced(rep.v2_subset()))
                ) + sum(rep.order(v) // 2 for v in rep.vp_subset())
                assert poly.degree == total_longest, rep
                # palindromic exactly when every torsion order is even; an
                # odd order contributes a non-palindromic cyclic factor
                if all(rep.order(v) % 2 == 0 for v in rep.vp_subset()):
                    assert poly.is_palindromic(), rep
                else:
                    assert not poly.is_palindromic(), rep
            entry["sanity_ok"] = True

        rng = random.Random(987654321)
        for _ in range(10_000):
            num = Polynomial(rng.randint(-30, 30) for _ in range(rng.randint(0, 5)))
            den = Polynomial()
            while den.is_zero:
                den = Polynomial(rng.randint(-30, 30) for _ in range(rng.randint(1, 5)))
            a = RationalFunction(num, den)
            again = RationalFunction(a.num, a.den)
            assert (again.num.coeffs, again.den.coeffs) == (a.num.coeffs, a.den.coeffs)
            assert a.den.coeffs[-1] > 0
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f} s"
