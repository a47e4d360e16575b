"""Graph model: validation, induced subgraphs, links, classification."""

import random

import pytest

from dyergrowth import DyerGraph, GraphValidationError, INFINITY


def test_mixed_label_constraint_rejected():
    # an edge labeled 3 needs both endpoints of order 2
    with pytest.raises(GraphValidationError) as exc:
        DyerGraph({"x": 3, "y": 2}, {("x", "y"): 3})
    assert "label 3" in str(exc.value)


def test_single_infinite_vertex_is_valid():
    g = DyerGraph({"x": INFINITY})
    assert g.order("x") == INFINITY
    assert len(g) == 1


def test_braid_edge_between_involutions_is_valid():
    g = DyerGraph({"x": 2, "y": 2}, {("x", "y"): 3})
    assert g.edge_label("x", "y") == 3


def test_all_violations_are_collected():
    with pytest.raises(GraphValidationError) as exc:
        DyerGraph(
            {"x": 1, "y": 2, "": 4},
            {("x", "x"): 2, ("x", "q"): 2, ("x", "y"): 1},
        )
    text = str(exc.value)
    assert len(exc.value.violations) == 5
    for fragment in ["invalid order", "nonempty string", "self-loop", "unknown vertex", "invalid label"]:
        assert fragment in text


def test_duplicate_edge_rejected():
    with pytest.raises(GraphValidationError) as exc:
        DyerGraph({"x": 2, "y": 2}, [(("x", "y"), 2), (("y", "x"), 3)])
    assert "duplicate edge" in str(exc.value)


def test_duplicate_vertex_rejected():
    with pytest.raises(GraphValidationError):
        DyerGraph([("x", 2), ("x", 3)])


def test_order_below_two_rejected():
    with pytest.raises(GraphValidationError):
        DyerGraph({"x": 1})
    with pytest.raises(GraphValidationError):
        DyerGraph({"x": 2.5})


def test_json_parsing():
    g = DyerGraph.from_json_dict(
        {
            "vertices": [{"name": "x", "order": 2}, {"name": "y", "order": "inf"}],
            "edges": [{"ends": ["x", "y"], "label": 2}],
        }
    )
    assert g.order("y") == INFINITY
    assert g.edge_label("x", "y") == 2
    assert g.to_json_dict()["vertices"][1]["order"] == "inf"


def test_json_parsing_rejects_malformed_entries():
    with pytest.raises(GraphValidationError):
        DyerGraph.from_json_dict({"vertices": [{"name": "x"}], "edges": []})
    with pytest.raises(GraphValidationError):
        DyerGraph.from_json_dict({"vertices": []})
    with pytest.raises(GraphValidationError):
        DyerGraph.from_json_dict(
            {"vertices": [{"name": "x", "order": 2}], "edges": [{"ends": ["x"], "label": 2}]}
        )
    with pytest.raises(GraphValidationError):
        DyerGraph.from_json_dict([1, 2])


# -- induced subgraphs ---------------------------------------------------------


def path_graph():
    return DyerGraph({"x": 2, "y": 2, "z": 2}, {("x", "y"): 3, ("y", "z"): 2})


def test_induced_full_is_same_graph():
    g = path_graph()
    assert g.induced(g.full_subset()).to_json_dict() == g.to_json_dict()


def test_induced_empty():
    g = path_graph()
    assert len(g.induced(g.empty_subset())) == 0


def test_induced_drops_edges_with_vertices():
    g = path_graph()
    sub = g.induced(["x", "z"])
    assert sub.vertices == ("x", "z")
    assert sub.edges() == []


def test_induced_composes():
    g = DyerGraph(
        {"a": 2, "b": 3, "c": INFINITY, "d": 2},
        {("a", "b"): 2, ("b", "c"): 2, ("a", "d"): 3},
    )
    rng = random.Random(5)
    names = list(g.vertices)
    for _ in range(30):
        y = rng.sample(names, rng.randint(0, 4))
        x = rng.sample(y, rng.randint(0, len(y)))
        inner = g.induced(y).induced(x)
        direct = g.induced(x)
        assert inner.to_json_dict() == direct.to_json_dict()


def test_induced_always_validates(corpus):
    # the defining constraint is hereditary, so every induced graph rebuilds
    rng = random.Random(11)
    for g in corpus.values():
        for _ in range(8):
            sub = rng.sample(list(g.vertices), rng.randint(0, len(g)))
            DyerGraph.from_json_dict(g.induced(sub).to_json_dict())


# -- link and star ----------------------------------------------------------


def test_link_star_isolated():
    g = DyerGraph({"v": 4})
    lk, st = g.link_star("v")
    assert lk.names == ()
    assert st.names == ("v",)


def test_link_star_triangle():
    g = DyerGraph({"a": 2, "b": 2, "c": 2}, {("a", "b"): 2, ("b", "c"): 2, ("a", "c"): 2})
    for v in "abc":
        lk, st = g.link_star(v)
        assert set(lk.names) == set("abc") - {v}
        assert set(st.names) == set("abc")


def test_link_star_path_center():
    g = path_graph()
    lk, st = g.link_star("y")
    assert lk.names == ("x", "z")
    assert st.names == ("x", "y", "z")


def test_link_star_unknown_vertex():
    with pytest.raises(KeyError):
        path_graph().link_star("q")


# -- subsets ------------------------------------------------------------------


def test_subset_operations():
    g = path_graph()
    a = g.subset(["x", "y"])
    b = g.subset(["y", "z"])
    assert (a & b).names == ("y",)
    assert (a | b).names == ("x", "y", "z")
    assert (a - b).names == ("x",)
    assert a.complement().names == ("z",)
    assert "x" in a and "z" not in a
    assert len(a) == 2


def test_cross_graph_subsets_rejected():
    g1, g2 = path_graph(), path_graph()
    with pytest.raises(ValueError):
        g1.subset(["x"]) | g2.subset(["y"])
    with pytest.raises(ValueError):
        g1.induced(g2.subset(["x"]))


def test_subset_mask_bounds():
    g = path_graph()
    with pytest.raises(ValueError):
        g.subset_from_mask(1 << 5)


# -- classification ------------------------------------------------------------


def test_classify_empty_graph():
    report = DyerGraph({}).classify()
    assert report.is_complete and report.is_spherical and report.is_finite_group
    assert report.coxeter_components == ()


def test_classify_two_infinite_vertices_no_edge():
    report = DyerGraph({"x": INFINITY, "y": INFINITY}).classify()
    assert not report.is_complete
    assert not report.is_spherical
    assert not report.is_finite_group
    assert report.vinf_size == 2


def test_classify_affine_triangle_is_complete_not_spherical():
    g = DyerGraph(
        {"x": 2, "y": 2, "z": 2}, {("x", "y"): 3, ("y", "z"): 3, ("x", "z"): 3}
    )
    report = g.classify()
    assert report.is_complete
    assert not report.is_spherical
    assert report.coxeter_components is None


def test_classify_spherical_with_free_part():
    g = DyerGraph({"x": 2, "y": INFINITY}, {("x", "y"): 2})
    report = g.classify()
    assert report.is_spherical and not report.is_finite_group
    assert (report.v2_size, report.vp_size, report.vinf_size) == (1, 0, 1)
    assert report.coxeter_components == ("A1",)


def test_report_implications_hold_on_corpus(corpus):
    for g in corpus.values():
        report = g.classify()
        if report.is_finite_group:
            assert report.is_spherical
        if report.is_spherical:
            assert report.is_complete


def test_completeness_matches_edge_count(corpus):
    for g in corpus.values():
        n = len(g)
        assert g.classify().is_complete == (len(g.edges()) == n * (n - 1) // 2)


def test_graph_is_immutable():
    g = DyerGraph({"x": 2, "y": 2}, {("x", "y"): 3})
    g.classify()  # fills the classification memo
    for name in DyerGraph.__slots__ + ("extra",):
        with pytest.raises(AttributeError):
            setattr(g, name, {})
        with pytest.raises(AttributeError):
            delattr(g, name)
    assert g.vertices == ("x", "y")
    assert g.classify().coxeter_components == ("A2",)
