"""Command-line interface: subcommands, formats, exit codes."""

import importlib
import io
import json

from dyergrowth import DyerGraph, RationalFunction, corpus_files
from dyergrowth.cli import run
from dyergrowth.growth import growth


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def corpus_path(name):
    for path in corpus_files():
        if path.stem == name:
            return str(path)
    raise KeyError(name)


def test_growth_plain_cyclic_four():
    code, out, err = invoke(["growth", corpus_path("z4")])
    assert code == 0
    assert out.strip() == "1 + 2*t + t^2"


def test_growth_plain_rational():
    code, out, _ = invoke(["growth", corpus_path("f2")])
    assert code == 0
    assert out.strip() == "(1 + t)/(1 - 3*t)"


def test_growth_latex():
    code, out, _ = invoke(["growth", corpus_path("f2"), "--format", "latex"])
    assert code == 0
    assert out.strip() == "\\frac{1 + t}{1 - 3t}"


def test_growth_latex_braces_large_powers():
    code, out, _ = invoke(["growth", corpus_path("cox_d4"), "--format", "latex"])
    assert code == 0
    assert "t^{12}" in out


def test_growth_json_round_trip():
    path = corpus_path("raag_square")
    code, out, _ = invoke(["growth", path, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"numerator", "denominator", "method"}
    series = RationalFunction.from_dict(payload)
    assert series == growth(DyerGraph.from_file(path)).series
    assert payload["method"] == "amalgam"


def test_growth_methods_agree():
    path = corpus_path("mixed_4v")
    outputs = set()
    for method in ["auto", "subset", "amalgam", "cross-check"]:
        code, out, _ = invoke(["growth", path, "--method", method])
        assert code == 0
        outputs.add(out.strip())
    assert len(outputs) == 1


def test_spheres_with_oracle():
    code, out, _ = invoke(["spheres", corpus_path("f2"), "-n", "3", "--verify-oracle"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1 4 12 36"
    assert lines[1] == "oracle: MATCH"


def test_spheres_unsupported_oracle_exits_3():
    code, out, err = invoke(
        ["spheres", corpus_path("mixed_amalgam"), "-n", "3", "--verify-oracle"]
    )
    assert code == 3
    assert "no oracle model" in err


def test_euler_both():
    code, out, _ = invoke(["euler", corpus_path("z"), "--method", "both"])
    assert code == 0
    assert out.strip() == "0 (both methods agree)"


def test_euler_single_methods():
    for method, expected in [("growth", "1/6"), ("recursive", "1/6")]:
        code, out, _ = invoke(["euler", corpus_path("cox_a2"), "--method", method])
        assert code == 0
        assert out.strip() == expected


def test_classify_output():
    code, out, _ = invoke(["classify", corpus_path("sph_mixed_full")])
    assert code == 0
    assert "complete: yes" in out
    assert "spherical: yes" in out
    assert "finite: no" in out
    assert "|V2|=2 |Vp|=1 |Vinf|=1" in out
    assert "coxeter part: A2" in out


def test_classify_infinite_coxeter_part():
    code, out, _ = invoke(["classify", corpus_path("affine_triangle")])
    assert code == 0
    assert "coxeter part: infinite" in out


def test_bxseries_subset():
    code, out, _ = invoke(["bxseries", corpus_path("cox_a2"), "--subset", "x"])
    assert code == 0
    assert out.strip() == "t + t^2"


def test_bxseries_defaults_to_empty_subset():
    code, out, _ = invoke(["bxseries", corpus_path("f2")])
    assert code == 0
    assert out.strip() == "0"


def test_bxseries_unknown_vertex_exits_1():
    code, _, err = invoke(["bxseries", corpus_path("f2"), "--subset", "nope"])
    assert code == 1
    assert "unknown vertex" in err


def test_pd_spherical():
    code, out, _ = invoke(["pd", corpus_path("sph_z2_x_z")])
    assert code == 0
    assert out.strip() == "(2*t^2)/(1 - t)"


def test_pd_non_spherical_exits_1():
    code, _, err = invoke(["pd", corpus_path("f2")])
    assert code == 1
    assert "spherical" in err


def test_missing_file_exits_1():
    code, _, err = invoke(["growth", "no_such_file.json"])
    assert code == 1
    assert "cannot read" in err


def test_invalid_json_exits_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = invoke(["growth", str(bad)])
    assert code == 1
    assert "not valid JSON" in err


def test_invalid_graph_reports_every_violation(tmp_path):
    bad = tmp_path / "graph.json"
    bad.write_text(
        json.dumps(
            {
                "vertices": [{"name": "x", "order": 1}, {"name": "y", "order": 2}],
                "edges": [{"ends": ["x", "x"], "label": 2}],
            }
        )
    )
    code, _, err = invoke(["spheres", str(bad), "-n", "2"])
    assert code == 1
    assert "invalid order" in err
    assert "self-loop" in err


def test_check_passes_on_entire_corpus():
    for path in corpus_files():
        code, out, err = invoke(["check", str(path)])
        assert code == 0, (path.stem, err)
        assert "strategy agreement: OK" in out
        assert "spherical-subset sum: OK" in out
        assert "euler characteristic: OK" in out


def test_check_reports_oracle_result():
    code, out, _ = invoke(["check", corpus_path("raag_square")])
    assert code == 0
    assert "oracle census: MATCH" in out
    code, out, _ = invoke(["check", corpus_path("mixed_amalgam")])
    assert code == 0
    assert "oracle census: unsupported" in out


def test_oracle_mismatch_exits_2(monkeypatch):
    # a census that disagrees with the engine signals an internal bug
    from dyergrowth import cli as cli_mod
    from dyergrowth.oracle import CensusReport

    monkeypatch.setattr(
        cli_mod.oracle, "bfs_census", lambda model, n: CensusReport((1,) * (n + 1))
    )
    code, _, err = invoke(["spheres", corpus_path("f2"), "-n", "3", "--verify-oracle"])
    assert code == 2
    assert "MISMATCH" in err


def test_euler_method_disagreement_exits_2(monkeypatch):
    from fractions import Fraction

    from dyergrowth import cli as cli_mod
    from dyergrowth.euler import EulerResult

    monkeypatch.setattr(
        cli_mod, "euler_recursive", lambda g: EulerResult(Fraction(1, 7), "recursive")
    )
    code, _, err = invoke(["euler", corpus_path("z"), "--method", "both"])
    assert code == 2
    assert "disagree" in err


def test_check_reports_strategy_mismatch(monkeypatch):
    growth_mod = importlib.import_module("dyergrowth.growth")
    monkeypatch.setattr(
        growth_mod, "spherical_subset_growth", lambda graph: RationalFunction(7)
    )
    code, out, err = invoke(["check", corpus_path("raag_square")])
    assert code == 2
    assert "strategy agreement: OK" not in out
    assert "spherical-subset sum: OK" not in out
    for route in ("subset", "amalgam", "spherical_subset"):
        assert f"{route}: " in err
    # the later checks still run on the amalgam series
    assert "euler characteristic: OK" in out


def test_check_builds_one_amalgam_engine(monkeypatch):
    growth_mod = importlib.import_module("dyergrowth.growth")
    original = growth_mod.GrowthEngine.__init__
    built = []

    def counting(self, graph, strategy="amalgam"):
        built.append(strategy)
        original(self, graph, strategy)

    monkeypatch.setattr(growth_mod.GrowthEngine, "__init__", counting)
    code, out, _ = invoke(["check", corpus_path("mixed_4v")])
    assert code == 0
    assert "minimality inversion identity: OK" in out
    # the cross-check, both identities, chi and the census share one
    # amalgam engine; the subset route builds the other
    assert built.count("amalgam") == 1
    assert len(built) <= 3
