"""Command-line front end.

Subcommands: growth, spheres, euler, classify, bxseries, pd, check.
Exit codes: 0 success, 1 invalid input, 2 internal cross-check mismatch
(a bug signal), 3 unsupported request.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import oracle
from .dyergraph import DyerGraph, GraphValidationError
from .euler import euler_recursive, euler_via_growth
from .growth import CrossCheckMismatch, GrowthEngine, bx_series, growth, pd_series, sphere_sizes
from .ratfun import RationalFunction, format_terms

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MISMATCH = 2
EXIT_UNSUPPORTED = 3


def render_latex(rf: RationalFunction) -> str:
    num_coeffs, den_coeffs = rf.display_pair()
    num = _brace_powers(format_terms(num_coeffs, times="", caret="^"))
    if rf.is_polynomial:
        return num
    den = _brace_powers(format_terms(den_coeffs, times="", caret="^"))
    return f"\\frac{{{num}}}{{{den}}}"


def _brace_powers(text: str) -> str:
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c == "^":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append("^{" + text[i + 1 : j] + "}")
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def render_json(rf: RationalFunction, method: str) -> str:
    payload = rf.to_dict()
    payload["method"] = method
    return json.dumps(payload)


def _load_graph(path) -> DyerGraph:
    return DyerGraph.from_file(path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyergrowth",
        description="Exact growth series, sphere counts and Euler characteristics of Dyer groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("growth", help="growth series of the group of a graph file")
    p.add_argument("file")
    p.add_argument("--method", choices=["auto", "subset", "amalgam", "cross-check"], default="auto")
    p.add_argument("--format", choices=["plain", "latex", "json"], default="plain")

    p = sub.add_parser("spheres", help="sphere sizes of the Cayley graph")
    p.add_argument("file")
    p.add_argument("-n", type=int, required=True, help="largest radius")
    p.add_argument("--verify-oracle", action="store_true", help="compare with a BFS census")

    p = sub.add_parser("euler", help="rational Euler characteristic")
    p.add_argument("file")
    p.add_argument("--method", choices=["growth", "recursive", "both"], default="both")

    p = sub.add_parser("classify", help="structural report of a graph")
    p.add_argument("file")

    p = sub.add_parser("bxseries", help="series of the exactly-X-minimal elements")
    p.add_argument("file")
    p.add_argument("--subset", default="", help="comma-separated vertex names (empty set if omitted)")

    p = sub.add_parser("pd", help="series of the everywhere-shortenable elements (spherical type)")
    p.add_argument("file")

    p = sub.add_parser("check", help="run the full cross-validation battery on a graph")
    p.add_argument("file")
    return parser


def _cmd_growth(args, out) -> int:
    graph = _load_graph(args.file)
    strategy = args.method.replace("-", "_")
    result = growth(graph, strategy)
    if args.format == "plain":
        print(result.series, file=out)
    elif args.format == "latex":
        print(render_latex(result.series), file=out)
    else:
        print(render_json(result.series, result.method), file=out)
    return EXIT_OK


def _cmd_spheres(args, out, err) -> int:
    graph = _load_graph(args.file)
    if args.n < 0:
        print("error: -n must be nonnegative", file=err)
        return EXIT_INVALID
    sizes = sphere_sizes(graph, args.n)
    print(" ".join(str(c) for c in sizes), file=out)
    if args.verify_oracle:
        model = oracle.build_oracle(graph)
        if isinstance(model, oracle.Unsupported):
            print(f"error: no oracle model for this graph: {model.reason}", file=err)
            return EXIT_UNSUPPORTED
        census = oracle.bfs_census(model, args.n)
        if list(census.spheres) == sizes:
            print("oracle: MATCH", file=out)
        else:
            print(
                f"oracle: MISMATCH (engine {sizes}, census {list(census.spheres)})",
                file=err,
            )
            return EXIT_MISMATCH
    return EXIT_OK


def _cmd_euler(args, out, err) -> int:
    graph = _load_graph(args.file)
    if args.method == "growth":
        print(euler_via_growth(graph).value, file=out)
    elif args.method == "recursive":
        print(euler_recursive(graph).value, file=out)
    else:
        a = euler_via_growth(graph).value
        b = euler_recursive(graph).value
        if a != b:
            print(f"error: Euler methods disagree: growth {a}, recursive {b}", file=err)
            return EXIT_MISMATCH
        print(f"{a} (both methods agree)", file=out)
    return EXIT_OK


def _cmd_classify(args, out) -> int:
    graph = _load_graph(args.file)
    report = graph.classify()
    print(f"vertices: {len(graph)}", file=out)
    print(f"complete: {'yes' if report.is_complete else 'no'}", file=out)
    print(f"spherical: {'yes' if report.is_spherical else 'no'}", file=out)
    print(f"finite: {'yes' if report.is_finite_group else 'no'}", file=out)
    print(
        f"partition sizes: |V2|={report.v2_size} |Vp|={report.vp_size} |Vinf|={report.vinf_size}",
        file=out,
    )
    if report.coxeter_components is None:
        print("coxeter part: infinite", file=out)
    elif report.coxeter_components:
        print(f"coxeter part: {' x '.join(report.coxeter_components)}", file=out)
    else:
        print("coxeter part: trivial", file=out)
    return EXIT_OK


def _cmd_bxseries(args, out) -> int:
    graph = _load_graph(args.file)
    names = [s for s in (part.strip() for part in args.subset.split(",")) if s]
    print(bx_series(graph, names), file=out)
    return EXIT_OK


def _cmd_pd(args, out) -> int:
    graph = _load_graph(args.file)
    print(pd_series(graph), file=out)
    return EXIT_OK


def _cmd_check(args, out, err) -> int:
    graph = _load_graph(args.file)
    failures = []

    # one amalgam engine serves the cross-check and every identity below
    engine = GrowthEngine(graph)
    try:
        am = growth(graph, "cross_check", engine).series
    except CrossCheckMismatch as exc:
        failures.append(str(exc))
        am = exc.results["amalgam"]
    else:
        print(f"strategy agreement: OK  G = {am}", file=out)
        print("spherical-subset sum: OK", file=out)

    report = graph.classify()
    n = len(graph)
    sign = 1 if n % 2 else -1
    alternating = engine._alternating_parabolic_sum(graph.full_mask)
    if report.is_spherical:
        lhs = (pd_series(graph) + sign) / am
    else:
        lhs = RationalFunction(sign) / am
    if lhs == alternating:
        print("parabolic alternating-sum identity: OK", file=out)
    else:
        failures.append("parabolic alternating-sum identity fails")
    if not report.is_spherical:
        empty_bx = bx_series(graph, (), engine)
        if empty_bx.is_zero:
            print("non-spherical: no everywhere-shortenable elements: OK", file=out)
        else:
            failures.append(f"expected zero series for the empty-set minimals, got {empty_bx}")

    if n <= 8:
        ok = True
        full = graph.full_mask
        for xmask in range(full + 1):
            total = RationalFunction(0)
            rest = full & ~xmask
            s = rest
            while True:
                total = total + bx_series(
                    graph, graph.subset_from_mask(xmask | s), engine
                )
                if s == 0:
                    break
                s = (s - 1) & rest
            if total != am / engine.series(xmask):
                ok = False
                failures.append(f"minimality inversion fails for subset mask {xmask:#x}")
        if ok:
            print("minimality inversion identity: OK", file=out)

    ev, er = am.inverse().evaluate(1), euler_recursive(graph).value
    if ev == er:
        print(f"euler characteristic: OK  chi = {ev}", file=out)
    else:
        failures.append(f"euler methods disagree: growth {ev}, recursive {er}")

    model = oracle.build_oracle(graph)
    if isinstance(model, oracle.Unsupported):
        print(f"oracle census: unsupported ({model.reason})", file=out)
    else:
        depth = max(1, 6 - max(0, n - 2))
        sizes = am.taylor_coefficients(depth)
        census = oracle.bfs_census(model, depth)
        if list(census.spheres) == sizes:
            print(f"oracle census: MATCH up to radius {depth}", file=out)
        else:
            failures.append(
                f"oracle census mismatch: engine {sizes}, census {list(census.spheres)}"
            )

    if failures:
        for f in failures:
            print(f"error: {f}", file=err)
        return EXIT_MISMATCH
    return EXIT_OK


def run(argv, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code else EXIT_OK
    try:
        if args.command == "growth":
            return _cmd_growth(args, out)
        if args.command == "spheres":
            return _cmd_spheres(args, out, err)
        if args.command == "euler":
            return _cmd_euler(args, out, err)
        if args.command == "classify":
            return _cmd_classify(args, out)
        if args.command == "bxseries":
            return _cmd_bxseries(args, out)
        if args.command == "pd":
            return _cmd_pd(args, out)
        if args.command == "check":
            return _cmd_check(args, out, err)
        raise AssertionError(f"unhandled command {args.command!r}")
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: cannot read graph file: {exc}", file=err)
        return EXIT_INVALID
    except json.JSONDecodeError as exc:
        print(f"error: graph file is not valid JSON: {exc}", file=err)
        return EXIT_INVALID
    except GraphValidationError as exc:
        for violation in exc.violations:
            print(f"error: {violation}", file=err)
        return EXIT_INVALID
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_INVALID
    except CrossCheckMismatch as exc:
        print(f"error: {exc}", file=err)
        return EXIT_MISMATCH


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
