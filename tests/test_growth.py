"""Growth series engine: formulas, strategies, derived series."""

import importlib
import random
import time

import pytest

from dyergrowth import DyerGraph, INFINITY, corpus_files
from dyergrowth.coxclassify import longest_length, to_diagram
from dyergrowth.euler import euler_recursive
from dyergrowth.growth import (
    CrossCheckMismatch,
    GrowthEngine,
    Z_SERIES,
    amalgam_growth,
    bx_series,
    cyclic_growth,
    graph_product_check,
    growth,
    pd_series,
    spherical_growth,
    sphere_sizes,
    spherical_subset_growth,
    spherical_subsets,
    subset_recursion_growth,
)
from dyergrowth.oracle import Unsupported, bfs_census, build_oracle
from dyergrowth.ratfun import Polynomial, RationalFunction


def P(*coeffs):
    return Polynomial(coeffs)


def RF(num, den=(1,)):
    return RationalFunction(Polynomial(num), Polynomial(den))


# -- cyclic factors -----------------------------------------------------------


def test_cyclic_growth_even():
    assert cyclic_growth(4) == RF((1, 2, 1))
    assert cyclic_growth(2) == RF((1, 1))
    assert cyclic_growth(6) == RF((1, 2, 2, 1))


def test_cyclic_growth_odd():
    assert cyclic_growth(5) == RF((1, 2, 2))
    assert cyclic_growth(3) == RF((1, 2))


def test_cyclic_growth_infinite():
    assert cyclic_growth(INFINITY) == RF((1, 1), (1, -1))


def test_cyclic_growth_invalid():
    with pytest.raises(ValueError):
        cyclic_growth(1)


# -- spherical product formula ---------------------------------------------------


def test_spherical_empty_graph():
    assert spherical_growth(DyerGraph({})) == RF((1,))


def test_spherical_involution_times_line():
    g = DyerGraph({"x": 2, "y": INFINITY}, {("x", "y"): 2})
    series = spherical_growth(g)
    assert series == RF((1, 1)) * Z_SERIES
    # cross-checked against the brute-force census of the product model
    census = bfs_census(build_oracle(g), 6)
    assert series.taylor_coefficients(6) == list(census.spheres)


def test_spherical_dihedral_times_cycle():
    g = DyerGraph(
        {"x": 2, "y": 2, "z": 5}, {("x", "y"): 3, ("x", "z"): 2, ("y", "z"): 2}
    )
    series = spherical_growth(g)
    assert series == RF((1, 2, 2, 1)) * RF((1, 2, 2))
    census = bfs_census(build_oracle(g), 8)
    assert series.taylor_coefficients(8) == list(census.spheres)


def test_spherical_growth_rejects_non_spherical():
    with pytest.raises(ValueError):
        spherical_growth(DyerGraph({"x": 2, "y": 2}))


# -- parabolic subset recursion ----------------------------------------------------


def test_subset_recursion_infinite_dihedral():
    g = DyerGraph({"x": 2, "y": 2})
    series = subset_recursion_growth(g)
    assert series == RF((1, 1), (1, -1))
    census = bfs_census(build_oracle(g), 4)
    assert series.taylor_coefficients(4) == list(census.spheres) == [1, 2, 2, 2, 2]


def test_subset_recursion_free_group():
    g = DyerGraph({"x": INFINITY, "y": INFINITY})
    series = subset_recursion_growth(g)
    assert series == RF((1, 1), (1, -3))
    assert series.taylor_coefficients(4) == [1, 4, 12, 36, 108]


def test_subset_recursion_spherical_dispatch():
    assert subset_recursion_growth(DyerGraph({"x": 3})) == RF((1, 2))


# -- amalgam recursion ----------------------------------------------------------------


def test_amalgam_free_group_identity():
    g = DyerGraph({"x": INFINITY, "y": INFINITY})
    series = amalgam_growth(g)
    # 1/G = (1-t)/(1+t) + (1-t)/(1+t) - 1
    lhs = series.inverse()
    rhs = RF((1, -1), (1, 1)) + RF((1, -1), (1, 1)) - 1
    assert lhs == rhs == RF((1, -3), (1, 1))


def test_amalgam_equals_subset_on_mixed_tree():
    g = DyerGraph({"x": 2, "y": 2, "z": 3}, {("x", "y"): 3, ("y", "z"): 2})
    assert amalgam_growth(g) == subset_recursion_growth(g)


def test_amalgam_complete_affine_triangle():
    g = DyerGraph(
        {"x": 2, "y": 2, "z": 2}, {("x", "y"): 3, ("y", "z"): 3, ("x", "z"): 3}
    )
    series = amalgam_growth(g)
    a2 = RationalFunction(P(1, 1) * P(1, 1, 1))
    expected_inverse = 1 - 3 * RF((1,), (1, 1)) + 3 * a2.inverse()
    assert series.inverse() == expected_inverse
    assert series == subset_recursion_growth(g)


# -- spherical-subset sum ---------------------------------------------------------------


def complete_graph(n, label):
    names = [f"v{i}" for i in range(n)]
    return DyerGraph(
        {v: 2 for v in names},
        {(a, b): label for i, a in enumerate(names) for b in names[i + 1 :]},
    )


def test_spherical_subsets_of_label3_complete_graph():
    # every triangle is the affine group of type A~2, so only the empty set,
    # the vertices and the edges (type A2) are spherical
    g = complete_graph(9, 3)
    found = list(spherical_subsets(g, g.full_mask))
    assert sorted(clique.bit_count() for clique, _ in found) == [0] + [1] * 9 + [2] * 36
    assert len({clique for clique, _ in found}) == 46
    for clique, types in found:
        assert types == g.finite_types(clique)


def test_spherical_subsets_skip_non_cliques_and_keep_torsion():
    g = DyerGraph({"x": 2, "y": 3, "z": INFINITY}, {("x", "y"): 2, ("y", "z"): 2})
    found = {clique for clique, _ in spherical_subsets(g, g.full_mask)}
    assert found == {0b000, 0b001, 0b010, 0b100, 0b011, 0b110}


def test_spherical_subset_sum_affine_triangle():
    g = complete_graph(3, 3)
    a2 = RationalFunction(P(1, 1) * P(1, 1, 1))
    # 1 - 3t/(1+t) + 3t^3/W_A2
    expected_inverse = 1 - 3 * RF((0, 1), (1, 1)) + 3 * RF((0, 0, 0, 1)) / a2
    assert spherical_subset_growth(g).inverse() == expected_inverse
    assert spherical_subset_growth(g) == subset_recursion_growth(g)


def random_dense_graph(rng, n):
    """Mixed orders, labels 2-5, edge probability 0.7: dense enough that the
    order-2 part of many complete subgraphs is an infinite Coxeter group."""
    names = [f"v{i}" for i in range(n)]
    orders = {v: rng.choice((2, 2, 2, 2, 3, 4, INFINITY)) for v in names}
    edges = {}
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            if rng.random() < 0.7:
                braid = orders[a] == orders[b] == 2
                edges[(a, b)] = rng.choice((2, 3, 3, 4, 5)) if braid else 2
    return DyerGraph(orders, edges)


def test_spherical_subset_sum_differential():
    rng = random.Random(20231)
    with_infinite_leaf = 0
    for k in range(30):
        n = 5 + k % 8
        g = random_dense_graph(rng, n)
        engine = GrowthEngine(g, "amalgam")
        closed = spherical_subset_growth(g)
        assert closed == engine.series(), g
        if n <= 9:
            assert closed == subset_recursion_growth(g), g
        v2mask = g._partition_masks()[0]
        if any(
            mask and not mask & ~v2mask and g.is_complete_mask(mask)
            and g.finite_types(mask) is None
            for mask in engine.memo
        ):
            with_infinite_leaf += 1
    # the amalgam route reached its infinite complete order-2 leaf often
    assert with_infinite_leaf >= 15


def test_label3_complete_graph_is_fast():
    g = complete_graph(12, 3)
    start = time.perf_counter()
    series = growth(g).series
    chi = euler_recursive(g).value
    elapsed = time.perf_counter() - start
    assert chi == series.inverse().evaluate(1)
    assert elapsed < 2.0, f"took {elapsed:.2f} s"


@pytest.mark.parametrize("name", ["k9_label3", "sph_mixed_full", "affine_c2"])
def test_each_order2_mask_is_classified_once(monkeypatch, name):
    coxclassify_mod = importlib.import_module("dyergrowth.coxclassify")
    if name == "k9_label3":
        g = complete_graph(9, 3)
    else:
        g = DyerGraph.from_file(next(p for p in corpus_files() if p.stem == name))
    classified = []
    original = coxclassify_mod.classify_finite

    def counting(diagram):
        classified.append(frozenset(diagram.vertices))
        return original(diagram)

    monkeypatch.setattr(coxclassify_mod, "classify_finite", counting)
    growth(g)
    euler_recursive(g)
    report = g.classify()
    if report.is_spherical:
        pd_series(g)
        spherical_growth(g)
    else:
        for route in (pd_series, spherical_growth):
            with pytest.raises(ValueError):
                route(g)
    assert classified
    assert len(classified) == len(set(classified)), "a mask was classified twice"
    assert len(classified) == len(g._types)


# -- strategy wrapper -------------------------------------------------------------------


def test_growth_single_infinite_vertex():
    result = growth(DyerGraph({"x": INFINITY}))
    assert result.series == Z_SERIES
    assert result.method == "spherical"


def test_growth_cyclic_four():
    assert growth(DyerGraph({"x": 4})).series == RF((1, 2, 1))


def test_growth_square_raag_cross_check():
    g = DyerGraph(
        {"a": INFINITY, "b": INFINITY, "c": INFINITY, "d": INFINITY},
        {("a", "b"): 2, ("b", "c"): 2, ("c", "d"): 2, ("d", "a"): 2},
    )
    result = growth(g, "cross_check")
    f2 = RF((1, 1), (1, -3))
    assert result.series == f2 * f2
    assert result.subsets_evaluated > 0


def test_cross_check_runs_spherical_subset_sum(monkeypatch):
    growth_mod = importlib.import_module("dyergrowth.growth")
    g = complete_graph(4, 3)
    assert growth(g, "cross_check").series == spherical_subset_growth(g)
    monkeypatch.setattr(growth_mod, "spherical_subset_growth", lambda graph: RF((1, 1)))
    with pytest.raises(CrossCheckMismatch) as info:
        growth(g, "cross_check")
    assert set(info.value.results) == {"subset", "amalgam", "spherical_subset"}


def test_growth_method_names():
    g = DyerGraph({"x": 2, "y": 2})
    assert growth(g).method == growth(g, "amalgam").method == "amalgam"
    assert growth(g, "cross_check").method == "amalgam"
    assert growth(g, "subset").method == "subset"
    assert growth(DyerGraph({"x": 2}), "subset").method == "spherical"


def test_growth_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        growth(DyerGraph({"x": 2}), "magic")


def test_engines_can_share_a_memo_table():
    g = DyerGraph({"x": 2, "y": 2, "z": 3}, {("x", "y"): 3, ("y", "z"): 2})
    memo = {}
    a = subset_recursion_growth(g, memo)
    b = amalgam_growth(g, memo)
    assert a == b
    assert memo[g.full_mask] == a


# -- clique formula for graph products ------------------------------------------------


def test_graph_product_single_vertex():
    assert graph_product_check(DyerGraph({"x": INFINITY})) == Z_SERIES


def test_graph_product_free_and_direct():
    free = DyerGraph({"x": INFINITY, "y": INFINITY})
    assert graph_product_check(free) == RF((1, 1), (1, -3))
    direct = DyerGraph({"x": INFINITY, "y": INFINITY}, {("x", "y"): 2})
    assert graph_product_check(direct) == Z_SERIES * Z_SERIES


def test_graph_product_rejects_braid_labels():
    with pytest.raises(ValueError):
        graph_product_check(DyerGraph({"x": 2, "y": 2}, {("x", "y"): 3}))


# -- series of distinguished element sets ------------------------------------------------


def test_pd_single_involution():
    assert pd_series(DyerGraph({"x": 2})) == RF((0, 1))


def test_pd_involution_times_line():
    g = DyerGraph({"x": 2, "y": INFINITY}, {("x", "y"): 2})
    assert pd_series(g) == RF((0, 0, 2), (1, -1))


def test_pd_single_order_four_vertex():
    assert pd_series(DyerGraph({"x": 4})) == RF((0, 2, 1))


def test_pd_rejects_non_spherical():
    with pytest.raises(ValueError):
        pd_series(DyerGraph({"x": 2, "y": 2}))


def test_bx_empty_subset_matches_pd_on_involution():
    g = DyerGraph({"x": 2})
    assert bx_series(g, ()) == pd_series(g) == RF((0, 1))


def test_bx_empty_subset_vanishes_when_not_spherical(corpus):
    for name in ["f2", "racg_infinite_dihedral", "mixed_amalgam", "affine_triangle"]:
        assert bx_series(corpus[name], ()).is_zero


def test_bx_full_subset_is_one(corpus):
    for g in corpus.values():
        assert bx_series(g, g.full_subset()) == RF((1,))


def test_bx_rejects_foreign_subset():
    g1 = DyerGraph({"x": 2})
    g2 = DyerGraph({"x": 2})
    with pytest.raises(ValueError):
        bx_series(g1, g2.full_subset())


# -- sphere sizes -----------------------------------------------------------------------


def test_sphere_sizes_free_group():
    g = DyerGraph({"x": INFINITY, "y": INFINITY})
    assert sphere_sizes(g, 3) == [1, 4, 12, 36]


def test_sphere_sizes_cyclic_four():
    assert sphere_sizes(DyerGraph({"x": 4}), 3) == [1, 2, 1, 0]


def test_sphere_sizes_infinite_dihedral():
    assert sphere_sizes(DyerGraph({"x": 2, "y": 2}), 4) == [1, 2, 2, 2, 2]


# -- corpus-wide invariants ----------------------------------------------------------------


def test_strategy_equivalence_on_corpus(corpus):
    for name, g in corpus.items():
        sub = subset_recursion_growth(g)
        am = amalgam_growth(g)
        assert sub == am, name
        if all(label == 2 for _, label in g.edges()):
            assert graph_product_check(g) == am, name


def test_alternating_sum_identity_on_corpus(corpus):
    # spherical graphs: (P_D + (-1)^(n+1))/G equals the alternating sum over
    # proper parabolics; otherwise (-1)^(n+1)/G does
    for name, g in corpus.items():
        engine = GrowthEngine(g)
        series = engine.series()
        total = engine._alternating_parabolic_sum(g.full_mask)
        sign = 1 if len(g) % 2 else -1
        if g.classify().is_spherical:
            lhs = (pd_series(g) + sign) / series
        else:
            lhs = RationalFunction(sign) / series
        assert lhs == total, name


def test_minimality_inversion_on_corpus(corpus):
    # summing the exactly-Y-minimal series over all supersets Y of X gives
    # the series of all X-minimal elements, which is G / G_X
    for name, g in corpus.items():
        if len(g) > 4:
            continue
        engine = GrowthEngine(g)
        series = engine.series()
        full = g.full_mask
        for xmask in range(full + 1):
            total = RationalFunction(0)
            rest = full & ~xmask
            sub = rest
            while True:
                total = total + bx_series(g, g.subset_from_mask(xmask | sub), engine)
                if sub == 0:
                    break
                sub = (sub - 1) & rest
            assert total == series / engine.series(xmask), (name, xmask)


def test_coefficient_sanity_on_corpus(corpus):
    for name, g in corpus.items():
        series = growth(g).series
        coeffs = series.taylor_coefficients(20)
        assert coeffs[0] == 1, name
        assert all(c >= 0 for c in coeffs), name
        report = g.classify()
        if report.is_finite_group:
            assert series.is_polynomial, name
            poly = series.as_polynomial()
            # degree is the length of the longest element: the Coxeter part's
            # longest length plus floor(order/2) per torsion vertex
            assert poly.degree == longest_length(
                to_diagram(g.induced(g.v2_subset()))
            ) + sum(
                (g.order(v) // 2) for v in g.vp_subset()
            ), name
            # palindromic whenever every torsion order is even; odd orders
            # genuinely break it (an order-5 vertex contributes 1 + 2t + 2t^2)
            if all(g.order(v) % 2 == 0 for v in g.vp_subset()):
                assert poly.is_palindromic(), name
            else:
                assert not poly.is_palindromic(), name


def test_parabolic_series_monotone_on_corpus(corpus):
    for name, g in corpus.items():
        engine = GrowthEngine(g)
        full_coeffs = engine.series().taylor_coefficients(15)
        for v in g.vertices:
            sub = g.full_subset() - g.subset([v])
            sub_coeffs = engine.series(sub.mask).taylor_coefficients(15)
            assert all(a <= b for a, b in zip(sub_coeffs, full_coeffs)), (name, v)


def test_growth_against_oracle_on_corpus(corpus):
    for name, g in corpus.items():
        model = build_oracle(g)
        if isinstance(model, Unsupported):
            continue
        depth = max(2, 6 - max(0, len(g) - 2))
        assert sphere_sizes(g, depth) == list(bfs_census(model, depth).spheres), name
