"""Per-layer tracing of ``dyergrowth`` from outside the package.

The layers are the package's modules.  ``Tracer.install`` replaces each
layer's public entry points, wherever the package binds them, by wrappers
that count calls and keep a stack of open layer spans: a span's self time is
its duration minus the time of the spans of other layers opened inside it.
A call made from inside a span of the same layer opens no span, so the
millions of nested arithmetic calls cost one attribute check each and their
time stays with the enclosing span.  Totals are aggregated per layer;
``snapshot`` gives them for the coarse per-input spans.
"""

from __future__ import annotations

import functools
import importlib
import time

LAYERS = ("dyergraph", "coxclassify", "growth", "ratfun", "euler", "oracle", "cli")

# RationalFunction methods counted as ratfun.ops: construct, add, sub, mul,
# div, inverse and pow, reflected forms included.
RATFUN_OPS = (
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "inverse",
)
RATFUN_OTHER = ("__neg__", "evaluate", "taylor_coefficients")
POLYNOMIAL_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__pow__",
    "__neg__", "exact_div", "evaluate",
)


class Tracer:
    def __init__(self):
        self.modules = {name: importlib.import_module(f"dyergrowth.{name}") for name in LAYERS}
        self.package = importlib.import_module("dyergrowth")
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.counts = {
            "ratfun.ops": 0, "ratfun.taylor_terms": 0, "ratfun.taylor_ns": 0,
            "growth.series_calls": 0, "growth.memo_hits": 0, "growth.memo_entries": 0,
            "ratfun.result_max_degree": 0, "ratfun.result_max_coeff_bits": 0,
            "oracle.census_ns": 0, "oracle.ball_elements": 0,
        }
        self.stack: list[list] = []  # open spans: [layer, ns spent in nested spans]
        self._undo: list[tuple] = []

    # -- wrappers -----------------------------------------------------------------

    def _span(self, layer, fn, counter=None):
        """Wrapper attributing fn's self time to layer; bumps a count per call."""
        stack, self_ns, counts, calls = self.stack, self.self_ns, self.counts, self.calls
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            else:
                calls[layer] += 1
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_ns[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    def _special(self, layer, fn, before=None, after=None, total=None):
        """Span wrapper for rare entry points that need their arguments or
        result; ``total`` accumulates inclusive time under that count name."""
        inner, counts, clock = self._span(layer, fn), self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            start = clock()
            try:
                result = inner(*args, **kwargs)
            finally:
                if total is not None:
                    counts[total] += clock() - start
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    # -- installation -----------------------------------------------------------

    def _replace(self, owner, name, wrapper):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def _replace_function(self, layer_module, name, make):
        """Replace a module-level function in every package namespace that
        binds it (``from .x import f`` makes copies of the reference)."""
        original = getattr(layer_module, name)
        wrapper = make(original)
        for module in (self.package, *self.modules.values()):
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attr, wrapper)

    def _replace_method(self, cls, name, make):
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            self._replace(cls, name, classmethod(make(raw.__func__)))
        else:
            self._replace(cls, name, make(raw))

    def install(self):
        m = self.modules
        counts = self.counts
        rf_cls, poly_cls = m["ratfun"].RationalFunction, m["ratfun"].Polynomial

        for name in RATFUN_OPS:
            self._replace_method(rf_cls, name, lambda f: self._span("ratfun", f, "ratfun.ops"))
        for name in RATFUN_OTHER:
            self._replace_method(rf_cls, name, lambda f: self._span("ratfun", f))
        for name in POLYNOMIAL_OPS:
            self._replace_method(poly_cls, name, lambda f: self._span("ratfun", f))

        def taylor_before(_self, n):
            counts["ratfun.taylor_terms"] += max(n + 1, 0)

        self._replace_method(
            rf_cls, "taylor_fractions",
            lambda f: self._special("ratfun", f, before=taylor_before, total="ratfun.taylor_ns"),
        )

        graph_cls = m["dyergraph"].DyerGraph
        for name in ("__init__", "induced", "classify", "from_json_dict", "from_file"):
            self._replace_method(graph_cls, name, lambda f: self._span("dyergraph", f))

        for name in ("to_diagram", "classify_finite", "matched_components", "solomon_from_types"):
            self._replace_function(m["coxclassify"], name, lambda f: self._span("coxclassify", f))

        def series_before(engine, mask=None):
            counts["growth.series_calls"] += 1
            if (engine.graph.full_mask if mask is None else mask) in engine.memo:
                counts["growth.memo_hits"] += 1

        self._replace_method(
            m["growth"].GrowthEngine, "series",
            lambda f: self._special("growth", f, before=series_before),
        )

        def growth_after(result, *_args, **_kwargs):
            counts["growth.memo_entries"] += result.subsets_evaluated
            series = result.series
            coeffs = series.num.coeffs + series.den.coeffs
            counts["ratfun.result_max_degree"] = max(
                counts["ratfun.result_max_degree"], len(series.num.coeffs) - 1, len(series.den.coeffs) - 1
            )
            bits = max((abs(c).bit_length() for c in coeffs), default=0)
            counts["ratfun.result_max_coeff_bits"] = max(counts["ratfun.result_max_coeff_bits"], bits)

        self._replace_function(
            m["growth"], "growth", lambda f: self._special("growth", f, after=growth_after)
        )
        self._replace_function(m["growth"], "sphere_sizes", lambda f: self._span("growth", f))

        for name in ("euler_recursive", "euler_via_growth"):
            self._replace_function(m["euler"], name, lambda f: self._span("euler", f))

        def census_after(report, *_args, **_kwargs):
            counts["oracle.ball_elements"] += sum(report.spheres)

        self._replace_function(m["oracle"], "build_oracle", lambda f: self._span("oracle", f))
        self._replace_function(
            m["oracle"], "bfs_census",
            lambda f: self._special("oracle", f, after=census_after, total="oracle.census_ns"),
        )
        self._replace_function(m["cli"], "run", lambda f: self._span("cli", f))

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- results ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Self nanoseconds per layer so far."""
        return dict(self.self_ns)

    def raw(self) -> dict:
        """Totals of this process, for ``derive``."""
        return {
            "self_s": {layer: ns / 1e9 for layer, ns in self.self_ns.items()},
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }


def derive(raw: dict, gcd: dict, traced_wall_s: float, import_s: float) -> dict:
    """Per-layer metrics from a traced pass's totals.  ``gcd`` holds the
    ``_poly_gcd`` hits, misses and evictions; ``traced_wall_s`` is the timed
    region the spans lie in, so the self times plus unattributed_s equal it."""
    s, c, calls = raw["self_s"], raw["counts"], raw["calls"]
    ops = c["ratfun.ops"]
    gcd_calls = gcd["hits"] + gcd["misses"]
    series_calls = c["growth.series_calls"]
    census_s = c["oracle.census_ns"] / 1e9
    return {
        "ratfun.ops": ops,
        "ratfun.self_s": s["ratfun"],
        "ratfun.us_per_op": s["ratfun"] / ops * 1e6 if ops else 0.0,
        "ratfun.gcd_calls": gcd_calls,
        "ratfun.gcd_cache_hit_ratio": gcd["hits"] / gcd_calls if gcd_calls else 0.0,
        "ratfun.gcd_cache_evictions": gcd["evictions"],
        "ratfun.result_max_degree": c["ratfun.result_max_degree"],
        "ratfun.result_max_coeff_bits": c["ratfun.result_max_coeff_bits"],
        "ratfun.taylor_s": c["ratfun.taylor_ns"] / 1e9,
        "ratfun.taylor_terms": c["ratfun.taylor_terms"],
        "growth.series_calls": series_calls,
        "growth.memo_entries": c["growth.memo_entries"],
        "growth.memo_hit_ratio": c["growth.memo_hits"] / series_calls if series_calls else 0.0,
        "growth.self_s": s["growth"],
        "euler.calls": calls["euler"],
        "euler.self_s": s["euler"],
        "dyergraph.calls": calls["dyergraph"],
        "dyergraph.self_s": s["dyergraph"],
        "coxclassify.calls": calls["coxclassify"],
        "coxclassify.self_s": s["coxclassify"],
        "oracle.census_s": census_s,
        "oracle.ball_elements": c["oracle.ball_elements"],
        "oracle.elements_per_s": c["oracle.ball_elements"] / census_s if census_s else 0.0,
        "oracle.self_s": s["oracle"],
        "cli.calls": calls["cli"],
        "cli.self_s": s["cli"],
        "cli.import_s": import_s,
        "traced_wall_s": traced_wall_s,
        "unattributed_s": traced_wall_s - sum(s.values()),
    }
