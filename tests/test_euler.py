"""Rational Euler characteristic: anchors, agreement, multiplicativity."""

import importlib
from fractions import Fraction

from dyergrowth import DyerGraph, INFINITY
from dyergrowth.euler import euler_recursive, euler_via_growth
from dyergrowth.oracle import Unsupported, bfs_census, build_oracle


def both(graph):
    a = euler_via_growth(graph)
    b = euler_recursive(graph)
    assert a.method == "via_growth" and b.method == "recursive"
    assert a.value == b.value, graph
    return a.value


def test_trivial_group():
    assert both(DyerGraph({})) == 1


def test_infinite_cyclic_vanishes():
    assert both(DyerGraph({"x": INFINITY})) == 0


def test_free_group_rank_two():
    # 1/G = (1 - 3t)/(1 + t) evaluated at 1
    assert both(DyerGraph({"x": INFINITY, "y": INFINITY})) == -1


def test_dihedral_of_order_six():
    assert both(DyerGraph({"x": 2, "y": 2}, {("x", "y"): 3})) == Fraction(1, 6)


def test_finite_abelian_product():
    g = DyerGraph({"x": 2, "y": 3}, {("x", "y"): 2})
    assert both(g) == Fraction(1, 6)


def test_affine_triangle_vanishes():
    g = DyerGraph(
        {"x": 2, "y": 2, "z": 2}, {("x", "y"): 3, ("y", "z"): 3, ("x", "z"): 3}
    )
    # the recursion at t = 1 reads 1 - 3/2 + 3/6 = 0
    assert both(g) == 0


def test_free_product_of_two_lines():
    # chi = chi(Z) + chi(Z) - chi(trivial) = 0 + 0 - 1
    assert both(DyerGraph({"x": INFINITY, "y": INFINITY})) == -1


def test_methods_agree_on_corpus(corpus):
    for name, g in corpus.items():
        both(g)


def test_finite_groups_match_oracle_order(corpus):
    seen = 0
    for name, g in corpus.items():
        if not g.classify().is_finite_group:
            continue
        model = build_oracle(g)
        if isinstance(model, Unsupported):
            continue
        report = bfs_census(model, 64)
        assert report.order is not None, name
        assert both(g) == Fraction(1, report.order), name
        seen += 1
    assert seen >= 6


def _join(left, right):
    """Join two vertex-disjoint graphs with label-2 edges: the direct product."""
    orders = {}
    edges = []
    for g in (left, right):
        for v in g.vertices:
            orders[v] = g.order(v)
        edges.extend(g.edges())
    for a in left.vertices:
        for b in right.vertices:
            edges.append(((a, b), 2))
    return DyerGraph(orders, edges)


def test_multiplicative_under_direct_products():
    pool = [
        DyerGraph({"x": 2, "y": 2}, {("x", "y"): 3}),
        DyerGraph({"z": INFINITY}),
        DyerGraph({"p": 2, "q": 2}),
        DyerGraph({"w": 5}),
    ]
    for left in pool:
        for right in pool:
            if set(left.vertices) & set(right.vertices):
                continue
            assert both(_join(left, right)) == both(left) * both(right)


def test_values_are_exact_fractions():
    g = DyerGraph(
        {"a": 2, "b": 2, "c": 2, "d": 2},
        {("a", "c"): 3, ("b", "c"): 3, ("d", "c"): 3,
         ("a", "b"): 2, ("a", "d"): 2, ("b", "d"): 2},
    )
    value = both(g)
    assert value == Fraction(1, 192)
    assert isinstance(value, Fraction)


def test_recursive_route_builds_no_growth_series(corpus, monkeypatch):
    names = [f"v{i}" for i in range(10)]
    k10 = DyerGraph(
        {v: 2 for v in names},
        {(a, b): 3 for i, a in enumerate(names) for b in names[i + 1 :]},
    )
    graphs = [k10] + [corpus[name] for name in ("affine_triangle", "affine_c2", "cox_h3")]
    expected = [euler_via_growth(g).value for g in graphs]

    def forbidden(*args, **kwargs):
        raise AssertionError("euler_recursive used the growth engine")

    euler_mod = importlib.import_module("dyergrowth.euler")
    growth_mod = importlib.import_module("dyergrowth.growth")
    monkeypatch.setattr(growth_mod.GrowthEngine, "series", forbidden)
    for module in (euler_mod, growth_mod):
        for name in ("GrowthEngine", "growth"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    assert [euler_recursive(g).value for g in graphs] == expected
