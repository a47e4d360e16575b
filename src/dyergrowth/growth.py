"""Growth series of Dyer groups.

A vertex subset is *spherical* when it spans a complete graph whose order-2
part generates a finite Coxeter group.  Three independent computation routes
are provided and cross-checkable:

* the spherical-subset sum: Steinberg's formula for Coxeter groups extended
  to Dyer graphs, one sum over the spherical subsets T with order-2 part T2,
  ``1/G = sum of (-1)^|T2| t^N(T2) / W_T2(t) * prod over v in T - T2 of
  (1/G_v - 1)``, where ``N(T2)`` is the length of the longest element of the
  finite Coxeter group ``W_T2``.  With every label 2 it is the clique formula
  for graph products of cyclic groups;
* a recursion expressing 1/G through the series of all proper standard
  parabolic subgroups (3^n terms; kept as the independent oracle);
* a recursion that splits off one vertex as an amalgamated product over its
  link.  On a complete graph it is the direct product of the order-2 part
  with the cyclic factors: the product formula when the order-2 part is a
  finite Coxeter group, the spherical-subset sum of that part otherwise.

All series are exact rational functions; parabolic results are memoized by
vertex-subset bitmask of the ambient graph, which is sound because word
length in a standard parabolic subgroup is intrinsic.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from . import coxclassify
from .dyergraph import INFINITY, DyerGraph, VertexSubset, _bit_indices
from .ratfun import Polynomial, RationalFunction

RF_ONE = RationalFunction(1)

#: Growth series of the infinite cyclic group, (1 + t)/(1 - t).
Z_SERIES = RationalFunction(Polynomial([1, 1]), Polynomial([1, -1]))


class CrossCheckMismatch(Exception):
    """Two computation strategies disagreed; always an implementation bug."""

    def __init__(self, results: dict):
        self.results = dict(results)
        body = "; ".join(f"{k}: {v}" for k, v in self.results.items())
        super().__init__(f"growth strategies disagree: {body}")


@dataclass(frozen=True)
class GrowthResult:
    series: RationalFunction
    method: str
    subsets_evaluated: int


def cyclic_growth(order) -> RationalFunction:
    """Growth series of a cyclic group of the given order (>= 2 or INFINITY)."""
    if order == INFINITY:
        return Z_SERIES
    if not isinstance(order, int) or order < 2:
        raise ValueError(f"invalid cyclic order {order!r}")
    r = order // 2
    if order % 2 == 0:
        coeffs = [1] + [2] * (r - 1) + [1]
    else:
        coeffs = [1] + [2] * r
    return RationalFunction(Polynomial(coeffs))


def finite_types(graph: DyerGraph, v2mask: int, cache: dict):
    """Finite Coxeter types of the order-2 vertices in ``v2mask``, or None when
    they generate an infinite group; ``cache`` keeps them by mask."""
    if v2mask not in cache:
        diagram = coxclassify.to_diagram(graph.induced(v2mask))
        cache[v2mask] = coxclassify.classify_finite(diagram)
    return cache[v2mask]


def spherical_subsets(graph: DyerGraph, mask: int, cache: dict) -> Iterator[tuple[int, tuple]]:
    """Every spherical subset T of ``mask``, the empty one included, with the
    finite Coxeter types of its order-2 part.

    Depth-first over the cliques, each grown by vertices above its largest
    one; a clique whose order-2 part is infinite is pruned with all its
    supersets, since a parabolic subgroup of a finite Coxeter group is finite.
    ``cache`` is passed on to ``finite_types``.
    """
    v2mask = graph._partition_masks()[0]
    stack = [(0, mask, ())]  # clique, vertices that may extend it, types
    while stack:
        clique, candidates, types = stack.pop()
        yield clique, types
        for j in _bit_indices(candidates):
            grown = clique | (1 << j)
            grown_types = types
            if (v2mask >> j) & 1:
                grown_types = finite_types(graph, grown & v2mask, cache)
                if grown_types is None:
                    continue
            above = candidates & graph.adjacency_mask(j) & ~((2 << j) - 1)
            stack.append((grown, above, grown_types))


class GrowthEngine:
    """Memoized growth-series computation for one graph and one strategy.

    ``strategy`` is "subset" or "amalgam".  The memo maps subset bitmasks of
    the ambient graph to the series of the corresponding parabolic subgroup;
    it may be shared between engines because entries depend only on the
    induced subgraph and duplicate writes are idempotent.
    """

    def __init__(self, graph: DyerGraph, strategy: str = "amalgam", memo: dict | None = None):
        if strategy not in ("subset", "amalgam"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.graph = graph
        self.strategy = strategy
        self.memo: dict[int, RationalFunction] = {} if memo is None else memo
        self._v2mask, self._vpmask, self._vinfmask = graph._partition_masks()
        self._types: dict[int, tuple | None] = {}

    # -- structure helpers -------------------------------------------------

    def _spherical_types(self, mask: int):
        """Component types of the order-2 part when the mask is of spherical
        type, else None."""
        if not self.graph.is_complete_mask(mask):
            return None
        return finite_types(self.graph, mask & self._v2mask, self._types)

    # -- public API ----------------------------------------------------------

    def series(self, mask: int | None = None) -> RationalFunction:
        if mask is None:
            mask = self.graph.full_mask
        result = self.memo.get(mask)
        if result is not None:
            return result
        if mask == 0:
            result = RF_ONE
        else:
            types = self._spherical_types(mask)
            if types is not None:
                coxeter = RationalFunction(coxclassify.solomon_from_types(types))
                result = self._product_series(mask, coxeter)
            elif self.strategy == "subset":
                result = self._subset_formula(mask)
            else:
                result = self._amalgam_formula(mask)
        self.memo[mask] = result
        return result

    # -- strategies ------------------------------------------------------------

    def _product_series(self, mask: int, coxeter: RationalFunction) -> RationalFunction:
        """Series of a complete-graph parabolic: the series of its order-2
        part times cyclic factors times one (1+t)/(1-t) per infinite vertex."""
        result = coxeter
        for i in _bit_indices(mask & self._vpmask):
            result = result * cyclic_growth(self.graph.order_at(i))
        l = (mask & self._vinfmask).bit_count()
        if l:
            result = result * Z_SERIES**l
        return result

    def _subset_formula(self, mask: int) -> RationalFunction:
        # (-1)^(|V|+1) / G  =  sum over proper subsets Y of (-1)^|Y| / G_Y
        total = self._alternating_parabolic_sum(mask)
        sign = 1 if mask.bit_count() % 2 else -1
        return RationalFunction(sign) / total

    def _alternating_parabolic_sum(self, mask: int) -> RationalFunction:
        """Sum of (-1)^|Y| / G_Y over the proper subsets Y of the mask."""
        if mask == 0:
            return RationalFunction(0)
        total = RF_ONE  # empty subset: series 1
        sub = (mask - 1) & mask
        while sub:
            term = self.series(sub).inverse()
            total = total + term if sub.bit_count() % 2 == 0 else total - term
            sub = (sub - 1) & mask
        return total

    def _amalgam_formula(self, mask: int) -> RationalFunction:
        graph = self.graph
        for i in _bit_indices(mask):
            star = (graph.adjacency_mask(i) & mask) | (1 << i)
            if star != mask:
                link = star & ~(1 << i)
                inv = (
                    self.series(mask & ~(1 << i)).inverse()
                    + self.series(star).inverse()
                    - self.series(link).inverse()
                )
                return inv.inverse()
        # complete graph, not spherical, so its order-2 part is infinite: the
        # direct product of that part with the torsion and free parts
        v2mask = mask & self._v2mask
        if mask != v2mask:
            return self._product_series(mask, self.series(v2mask))
        return self._spherical_subset_sum(mask).inverse()

    def _spherical_subset_sum(self, mask: int) -> RationalFunction:
        """1/G of the parabolic on ``mask`` as the sum over its spherical
        subsets T of (-1)^|T2| t^N(T2) / W_T2(t) times the product of
        (1/G_v - 1) over the vertices of T outside its order-2 part T2."""
        graph, v2mask = self.graph, self._v2mask
        coxeter_terms: dict[int, RationalFunction] = {}
        vertex_products = {0: RF_ONE}

        def vertex_product(rest: int) -> RationalFunction:
            product = vertex_products.get(rest)
            if product is None:
                top = rest.bit_length() - 1
                term = cyclic_growth(graph.order_at(top)).inverse() - 1
                product = vertex_products[rest] = vertex_product(rest ^ (1 << top)) * term
            return product

        total = RationalFunction(0)
        for clique, types in spherical_subsets(graph, mask, self._types):
            m2 = clique & v2mask
            term = coxeter_terms.get(m2)
            if term is None:
                length = sum(t.longest_length for t in types)
                sign = -1 if m2.bit_count() % 2 else 1
                term = coxeter_terms[m2] = RationalFunction(
                    Polynomial.monomial(length, sign), coxclassify.solomon_from_types(types)
                )
            rest = clique & ~v2mask
            total = total + (term * vertex_product(rest) if rest else term)
        return total


def spherical_growth(graph: DyerGraph) -> RationalFunction:
    """Product-formula series; only defined for graphs of spherical type."""
    engine = GrowthEngine(graph)
    types = engine._spherical_types(graph.full_mask)
    if types is None:
        raise ValueError("graph is not of spherical type")
    coxeter = RationalFunction(coxclassify.solomon_from_types(types))
    return engine._product_series(graph.full_mask, coxeter)


def spherical_subset_growth(graph: DyerGraph) -> RationalFunction:
    """Series of the whole group from one sum over its spherical subsets."""
    return GrowthEngine(graph)._spherical_subset_sum(graph.full_mask).inverse()


def subset_recursion_growth(graph: DyerGraph, memo: dict | None = None) -> RationalFunction:
    return GrowthEngine(graph, "subset", memo).series()


def amalgam_growth(graph: DyerGraph, memo: dict | None = None) -> RationalFunction:
    return GrowthEngine(graph, "amalgam", memo).series()


#: Engines each strategy runs; the last one's series is returned.
_STRATEGY_ENGINES = {
    "auto": ("amalgam",),
    "amalgam": ("amalgam",),
    "subset": ("subset",),
    "cross_check": ("subset", "amalgam"),
}


def growth(graph: DyerGraph, strategy: str = "auto") -> GrowthResult:
    """Growth series of the whole group.

    auto uses the amalgam recursion (its tree only touches link and star
    subsets); cross_check runs the subset and amalgam recursions and the
    spherical-subset sum, and raises CrossCheckMismatch if any two disagree.
    auto stays with the amalgam recursion rather than the spherical-subset
    sum because on dense graphs one long sum of rational functions with
    growing denominators is bound by gcds: over the 24 cost-strata graphs of
    the ``dense_amalgam`` benchmark the sum alone took 2.4 times as long as
    the amalgam recursion, and up to 3.8 times on single graphs.
    """
    names = _STRATEGY_ENGINES.get(strategy)
    if names is None:
        raise ValueError(f"unknown strategy {strategy!r}")
    engines = [GrowthEngine(graph, name) for name in names]
    results = {engine.strategy: engine.series() for engine in engines}
    if strategy == "cross_check":
        results["spherical_subset"] = spherical_subset_growth(graph)
        if len(set(results.values())) != 1:
            raise CrossCheckMismatch(results)
    method = "spherical" if graph.classify().is_spherical else names[-1]
    evaluated = sum(len(engine.memo) for engine in engines)
    return GrowthResult(results[names[-1]], method, evaluated)


def graph_product_check(graph: DyerGraph) -> RationalFunction:
    """Clique-sum formula for graph products of cyclic groups.

    Only valid when every edge label is 2: then 1/G is the sum over all
    complete subgraphs (the empty one included) of the products of
    (1/G_vertex - 1) over the clique's vertices.  This is the spherical-subset
    sum, whose Coxeter term for an order-2 clique of size k is
    (-t/(1+t))^k = (1/G_vertex - 1)^k.
    """
    bad = [(e, m) for e, m in graph.edges() if m != 2]
    if bad:
        raise ValueError(f"graph product formula needs all labels 2, found {bad}")
    return spherical_subset_growth(graph)


def pd_series(graph: DyerGraph) -> RationalFunction:
    """Series of the elements that every generator power can shorten.

    Defined for spherical type only: t^(longest length of the order-2 part)
    times one nontrivial-powers factor per finite-order vertex of order > 2,
    times (2t/(1-t)) per infinite vertex.
    """
    engine = GrowthEngine(graph)
    types = engine._spherical_types(graph.full_mask)
    if types is None:
        raise ValueError("graph is not of spherical type")
    m = sum(t.longest_length for t in types)
    result = RationalFunction(Polynomial.monomial(m))
    for i in _bit_indices(engine._vpmask):
        order = graph.order_at(i)
        r = order // 2
        if order % 2 == 0:
            factor = Polynomial([0] + [2] * (r - 1) + [1])
        else:
            factor = Polynomial([0] + [2] * r)
        result = result * RationalFunction(factor)
    l = engine._vinfmask.bit_count()
    if l:
        result = result * RationalFunction(Polynomial([0, 2]), Polynomial([1, -1])) ** l
    return result


def bx_series(graph: DyerGraph, subset=(), engine: GrowthEngine | None = None) -> RationalFunction:
    """Series of the elements minimal in their coset of the given parabolic
    but not minimal for any strictly larger vertex set.

    Computed by inclusion-exclusion over the supersets Y of the subset:
    sum of (-1)^|Y - subset| G / G_Y.
    """
    if isinstance(subset, VertexSubset):
        if subset.graph is not graph:
            raise ValueError("subset belongs to a different graph")
        xmask = subset.mask
    else:
        xmask = graph.subset(subset).mask
    if engine is None:
        engine = GrowthEngine(graph)
    elif engine.graph is not graph:
        raise ValueError("engine belongs to a different graph")
    g_full = engine.series()
    rest = graph.full_mask & ~xmask
    total = RationalFunction(0)
    sub = rest
    while True:
        term = g_full / engine.series(xmask | sub)
        total = total + term if sub.bit_count() % 2 == 0 else total - term
        if sub == 0:
            break
        sub = (sub - 1) & rest
    return total


def sphere_sizes(graph: DyerGraph, n: int) -> list[int]:
    """Number of group elements of each word length 0..n."""
    return growth(graph).series.taylor_coefficients(n)
