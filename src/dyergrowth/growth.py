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
  link, ``1/G_D = 1/G_(D - v) + 1/G_(star v) - 1/G_(link v)``.  On a complete
  graph it is the direct product of the order-2 part with the cyclic
  factors: the product formula when the order-2 part is a finite Coxeter
  group, the spherical-subset sum of that part otherwise.

All series are exact.  The subset recursion adds canonical rational
functions.  The amalgam recursion and the spherical-subset sum write every
1/G_Y of a graph as an integer numerator over one denominator D fixed per
graph: 1/G_T of a spherical T is (1-t)^l / den_T (l infinite vertices), every
1/G_Y is a sum of terms over such den_T, and D is their exponent-wise max
over a pairwise coprime factor base (the cyclotomic polynomials of the
Solomon degrees and of the even vertex orders, and one polynomial per odd
vertex order).  A split is then coefficient addition with no gcd, and a
series is reduced to canonical form once, when it is asked for.

Parabolic results are memoized by vertex-subset bitmask of the ambient
graph, which is sound because word length in a standard parabolic subgroup
is intrinsic.  Every route reads the finite Coxeter types of an order-2
subset from ``DyerGraph.finite_types``, which classifies each subset once per
graph.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

from . import coxclassify
from .dyergraph import INFINITY, DyerGraph, VertexSubset, _bit_indices
from .ratfun import ONE, Polynomial, RationalFunction, _exact_div

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


def _cyclic_coeffs(order: int) -> list[int]:
    """Coefficients of the growth polynomial of a cyclic group of finite order."""
    r = order // 2
    if order % 2 == 0:
        return [1] + [2] * (r - 1) + [1]
    return [1] + [2] * r


def cyclic_growth(order) -> RationalFunction:
    """Growth series of a cyclic group of the given order (>= 2 or INFINITY)."""
    if order == INFINITY:
        return Z_SERIES
    if not isinstance(order, int) or order < 2:
        raise ValueError(f"invalid cyclic order {order!r}")
    return RationalFunction(Polynomial(_cyclic_coeffs(order)))


def spherical_types(graph: DyerGraph, mask: int):
    """Finite Coxeter types of the order-2 part of ``mask`` when the mask is
    of spherical type, else None."""
    if not graph.is_complete_mask(mask):
        return None
    return graph.finite_types(mask & graph._partition_masks()[0])


def spherical_subsets(graph: DyerGraph, mask: int) -> Iterator[tuple[int, tuple]]:
    """Every spherical subset T of ``mask``, the empty one included, with the
    finite Coxeter types of its order-2 part.

    Depth-first over the cliques, each grown by vertices above its largest
    one; a clique whose order-2 part is infinite is pruned with all its
    supersets, since a parabolic subgroup of a finite Coxeter group is finite.
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
                grown_types = graph.finite_types(grown & v2mask)
                if grown_types is None:
                    continue
            above = candidates & graph.adjacency_mask(j) & ~((2 << j) - 1)
            stack.append((grown, above, grown_types))


# -- one denominator per graph ----------------------------------------------------
#
# An exponent vector is a sorted tuple of (key, exponent) pairs over the factor
# base: a key k >= 2 stands for the cyclotomic polynomial Phi_k, a key -p for
# c_p = 1 + 2t + ... + 2t^((p-1)/2), the growth polynomial of a cyclic group of
# odd order p.  For p < 40 and k < 80 the base is pairwise coprime (no root of
# c_p is a root of unity, two odd orders share no root; tests/test_sympy_oracle.py
# checks it), so there the exponent-wise max of vectors is their lcm.  The max
# is a common multiple in any case, which is all that correctness needs.


@lru_cache(maxsize=None)
def _base_factor(key: int) -> Polynomial:
    """The factor-base polynomial of a key (Phi_k for k >= 1, c_p for -p)."""
    if key < 0:
        return Polynomial(_cyclic_coeffs(-key))
    coeffs = (-1,) + (0,) * (key - 1) + (1,)  # t^k - 1, the product of Phi_d, d | k
    for d in range(1, key):
        if key % d == 0:
            coeffs = _exact_div(coeffs, _base_factor(d).coeffs)
    return Polynomial(coeffs)


@lru_cache(maxsize=None)
def _one_minus_t(l: int) -> Polynomial:
    """(1 - t)^l, the numerator of 1/G of l commuting infinite vertices."""
    return Polynomial([1, -1]) ** l


def _degree_keys(d: int) -> list[int]:
    """Keys of [d]_t = 1 + t + ... + t^(d-1), the product of Phi_k over k | d, k > 1."""
    return [k for k in range(2, d + 1) if d % k == 0]


def _accumulate(acc: list[int], coeffs, shift: int = 0, sign: int = 1) -> None:
    """acc += sign * t^shift * coeffs, growing acc as needed."""
    end = shift + len(coeffs)
    if len(acc) < end:
        acc.extend([0] * (end - len(acc)))
    for i, c in enumerate(coeffs, shift):
        acc[i] += sign * c


def _vector(keys) -> tuple:
    counts: dict[int, int] = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + 1
    return tuple(sorted(counts.items()))


def _add_vectors(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return a or b
    counts = dict(a)
    for key, e in b:
        counts[key] = counts.get(key, 0) + e
    return tuple(sorted(counts.items()))


@lru_cache(maxsize=1 << 12)
def _den(vector: tuple) -> Polynomial:
    """The product of the factor-base powers of a vector."""
    den = ONE
    for key, e in vector:
        den = den * _base_factor(key) ** e
    return den


def _vertex_factors(order) -> tuple[tuple[int, ...], tuple]:
    """For a vertex of order other than 2: the numerator 1 - G_v of
    1/G_v - 1, and the vector of its denominator den_v (1 + t for an infinite
    vertex, G_v = (1+t)[r]_t for order 2r, G_v = c_p for odd order p)."""
    if order == INFINITY:
        return (0, -2), ((2, 1),)
    coeffs = _cyclic_coeffs(order)
    numerator = (0,) + tuple(-c for c in coeffs[1:])
    if order % 2:
        return numerator, ((-order, 1),)
    return numerator, _vector([2, *_degree_keys(order // 2)])


class _CommonDenominator:
    """Numerators of 1/G_Y over one denominator D for the subsets Y of a graph.

    For a spherical T with order-2 part T2, 1/G_T = (1-t)^l / den_T with
    den_T = W_T2(t) * prod over v in T - T2 of den_v, l the number of
    infinite vertices.  By the spherical-subset sum every 1/G_Y is a sum of
    terms over such den_T, so it is P_Y / D with P_Y an integer polynomial
    once every den_T divides D.  ``fix`` builds D from the den_T vectors
    that matter, and then the ``*_numerator`` methods return P_Y as a
    coefficient tuple of length ``deg D + 1`` (deg P_Y <= deg D, because
    every term has degree 0 at infinity).
    """

    def __init__(self, graph: DyerGraph):
        self.graph = graph
        self._v2mask, _, self._vinfmask = graph._partition_masks()
        self._coxeter: dict[int, tuple] = {}  # order-2 mask -> (sign, N, vector)
        self._vertices: dict[int, tuple] = {0: ((1,), ())}  # rest -> (prod of 1 - G_v, vector)
        self.exponents: dict[int, int] = {}
        self.poly: Polynomial | None = None
        self.length = 0
        self._cofactors: dict[tuple, Polynomial] = {}
        self._spheres: dict[tuple, tuple] = {}

    # -- exponent vectors (independent of D) ---------------------------------------

    def coxeter_part(self, m2: int, types) -> tuple:
        """(-1)^|T2|, N(T2) and the vector of W_T2 for a finite order-2 mask."""
        part = self._coxeter.get(m2)
        if part is None:
            keys = [k for typ in types for e in typ.exponents for k in _degree_keys(e + 1)]
            sign = -1 if m2.bit_count() % 2 else 1
            length = sum(typ.longest_length for typ in types)
            part = self._coxeter[m2] = (sign, length, _vector(keys))
        return part

    def vertex_part(self, rest: int) -> tuple:
        """Product of the 1 - G_v numerators and vector of the product of the
        den_v, over the vertices of ``rest`` (none of order 2)."""
        vertices = self._vertices
        missing = []
        while rest not in vertices:
            top = rest.bit_length() - 1
            missing.append(top)
            rest ^= 1 << top
        numerator, vector = vertices[rest]
        for top in reversed(missing):
            rest |= 1 << top
            v_numerator, v_vector = _vertex_factors(self.graph.order_at(top))
            numerator = (Polynomial(numerator) * Polynomial(v_numerator)).coeffs
            vector = _add_vectors(vector, v_vector)
            vertices[rest] = (numerator, vector)
        return numerator, vector

    def sphere_vector(self, mask: int, types) -> tuple:
        """Vector of den_T for a spherical mask with order-2 types ``types``."""
        m2 = mask & self._v2mask
        return _add_vectors(self.coxeter_part(m2, types)[2], self.vertex_part(mask & ~m2)[1])

    def sum_terms(self, mask: int) -> dict[tuple, list[int]]:
        """The spherical-subset sum of ``mask`` grouped by den_T: 1/G is the
        sum of coeffs / den over the items (vector of den, coeffs)."""
        v2mask = self._v2mask
        groups: dict[tuple, list[int]] = {}
        for clique, types in spherical_subsets(self.graph, mask):
            m2 = clique & v2mask
            sign, length, coxeter_vector = self.coxeter_part(m2, types)
            numerator, vertex_vector = self.vertex_part(clique & ~m2)
            _accumulate(groups.setdefault((coxeter_vector, vertex_vector), []), numerator, length, sign)
        terms: dict[tuple, list[int]] = {}
        for (coxeter_vector, vertex_vector), acc in groups.items():
            _accumulate(terms.setdefault(_add_vectors(coxeter_vector, vertex_vector), []), acc)
        return terms

    # -- the denominator and numerators over it ----------------------------------------

    def fix(self, vectors) -> None:
        """Make D the exponent-wise max of the vectors."""
        exponents = self.exponents
        for vector in vectors:
            for key, e in vector:
                if e > exponents.get(key, 0):
                    exponents[key] = e
        self.poly = _den(tuple(sorted(exponents.items())))
        self.length = len(self.poly.coeffs)

    def _over_denominator(self, vector: tuple, numerator: Polynomial) -> tuple[int, ...]:
        """P with numerator / den(vector) = P / D."""
        cofactor = self._cofactors.get(vector)
        if cofactor is None:
            cofactor = self._cofactors[vector] = self.poly.exact_div(_den(vector))
        return self._pad((numerator * cofactor).coeffs)

    def _pad(self, coeffs: tuple[int, ...]) -> tuple[int, ...]:
        return coeffs + (0,) * (self.length - len(coeffs))

    def sphere_numerator(self, vector: tuple, l: int) -> tuple[int, ...]:
        """P_T of a spherical T: (1-t)^l D / den_T."""
        key = (vector, l)
        numerator = self._spheres.get(key)
        if numerator is None:
            numerator = self._spheres[key] = self._over_denominator(vector, _one_minus_t(l))
        return numerator

    def sum_numerator(self, terms: dict[tuple, list[int]]) -> tuple[int, ...]:
        total = [0] * self.length
        for vector, coeffs in terms.items():
            _accumulate(total, self._over_denominator(vector, Polynomial(coeffs)))
        return tuple(total)

    def product_numerator(self, p2: tuple[int, ...], rest: int) -> tuple[int, ...]:
        """P_Y of a complete Y, given P_Y2 of its order-2 part Y2 and the mask
        ``rest`` of its other vertices: G_Y = G_Y2 * prod of G_v, so P_Y is
        P_Y2 (1-t)^l divided exactly by the product of the den_v."""
        l = (rest & self._vinfmask).bit_count()
        numerator = Polynomial(p2) * _one_minus_t(l)
        return self._pad(_exact_div(numerator.coeffs, _den(self.vertex_part(rest)[1]).coeffs))


class GrowthEngine:
    """Memoized growth-series computation for one graph and one strategy.

    ``strategy`` is "subset" or "amalgam".  The memo is keyed by subset
    bitmasks of the ambient graph.  For "subset" it maps a mask to the series
    of the parabolic subgroup; for "amalgam" to the coefficient tuple of the
    numerator P_Y of 1/G_Y = P_Y / D over the graph's common denominator D.
    """

    def __init__(self, graph: DyerGraph, strategy: str = "amalgam"):
        if strategy not in ("subset", "amalgam"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.graph = graph
        self.strategy = strategy
        self.memo: dict = {}
        self._v2mask, self._vpmask, self._vinfmask = graph._partition_masks()
        # amalgam strategy: the common denominator and the decomposition steps
        self._common = _CommonDenominator(graph)
        self._steps: dict[int, tuple] = {}

    # -- public API ----------------------------------------------------------

    def series(self, mask: int | None = None) -> RationalFunction:
        if mask is None:
            mask = self.graph.full_mask
        if self.strategy == "amalgam":
            if self._common.poly is None:
                self._fix_denominator()
            return RationalFunction(self._common.poly, Polynomial(self._numerator(mask)))
        result = self.memo.get(mask)
        if result is not None:
            return result
        if mask == 0:
            result = RF_ONE
        else:
            types = spherical_types(self.graph, mask)
            if types is not None:
                coxeter = RationalFunction(coxclassify.solomon_from_types(types))
                result = self._product_series(mask, coxeter)
            else:
                result = self._subset_formula(mask)
        self.memo[mask] = result
        return result

    # -- subset strategy ---------------------------------------------------------

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

    # -- amalgam strategy ----------------------------------------------------------

    def _step(self, mask: int) -> tuple:
        """How the amalgam route computes a mask, memoized: ("split", Y - v,
        star v, link v), ("sphere", vector of den_Y, l), ("sum", grouped
        spherical-subset terms) or ("product", order-2 part, other vertices)."""
        step = self._steps.get(mask)
        if step is not None:
            return step
        graph = self.graph
        types = spherical_types(graph, mask)
        if types is not None:
            step = ("sphere", self._common.sphere_vector(mask, types), (mask & self._vinfmask).bit_count())
        else:
            for i in _bit_indices(mask):
                star = (graph.adjacency_mask(i) & mask) | (1 << i)
                if star != mask:
                    step = ("split", mask & ~(1 << i), star, star & ~(1 << i))
                    break
            else:
                # complete graph, not spherical, so its order-2 part is infinite:
                # the direct product of that part with the torsion and free parts
                v2mask = mask & self._v2mask
                if mask != v2mask:
                    step = ("product", v2mask, mask & ~v2mask)
                else:
                    step = ("sum", self._common.sum_terms(mask))
        self._steps[mask] = step
        return step

    def _fix_denominator(self) -> None:
        """Fix D from the leaves of the whole graph's decomposition.  Every
        clique of the graph lies in a leaf, and the den_T of each spherical
        subset T of a leaf divides the den of a vector the leaf contributes
        (W_T2 divides W_L2 for a parabolic T2 of L2), so D serves every mask,
        not only the leaves'."""
        vectors = set()
        stack, seen = [self.graph.full_mask], set()
        while stack:
            mask = stack.pop()
            if mask in seen:
                continue
            seen.add(mask)
            step = self._step(mask)
            kind = step[0]
            if kind == "split":
                stack.extend(step[1:])
            elif kind == "sphere":
                vectors.add(step[1])
            elif kind == "sum":
                vectors.update(step[1])
            else:  # a product leaf: its order-2 part is a "sum" leaf
                rest_vector = self._common.vertex_part(step[2])[1]
                vectors.update(_add_vectors(v, rest_vector) for v in self._step(step[1])[1])
        self._common.fix(vectors)

    def _numerator(self, mask: int) -> tuple[int, ...]:
        """Numerator P_Y of 1/G_Y = P_Y / D."""
        result = self.memo.get(mask)
        if result is None:
            result = self.memo[mask] = self._amalgam_formula(mask)
        return result

    def _amalgam_formula(self, mask: int) -> tuple[int, ...]:
        step = self._step(mask)
        kind = step[0]
        if kind == "split":
            return tuple([
                a + b - c
                for a, b, c in zip(
                    self._numerator(step[1]), self._numerator(step[2]), self._numerator(step[3])
                )
            ])
        if kind == "sphere":
            return self._common.sphere_numerator(step[1], step[2])
        if kind == "sum":
            return self._common.sum_numerator(step[1])
        return self._common.product_numerator(self._numerator(step[1]), step[2])


def spherical_growth(graph: DyerGraph) -> RationalFunction:
    """Product-formula series; only defined for graphs of spherical type."""
    if spherical_types(graph, graph.full_mask) is None:
        raise ValueError("graph is not of spherical type")
    return GrowthEngine(graph).series()


def spherical_subset_growth(graph: DyerGraph) -> RationalFunction:
    """Series of the whole group from one sum over its spherical subsets."""
    common = _CommonDenominator(graph)
    terms = common.sum_terms(graph.full_mask)
    common.fix(terms)
    return RationalFunction(common.poly, Polynomial(common.sum_numerator(terms)))


def subset_recursion_growth(graph: DyerGraph) -> RationalFunction:
    return GrowthEngine(graph, "subset").series()


def amalgam_growth(graph: DyerGraph) -> RationalFunction:
    return GrowthEngine(graph, "amalgam").series()


#: Engines each strategy runs; the last one's series is returned.
_STRATEGY_ENGINES = {
    "auto": ("amalgam",),
    "amalgam": ("amalgam",),
    "subset": ("subset",),
    "cross_check": ("subset", "amalgam"),
}


def growth(graph: DyerGraph, strategy: str = "auto", engine: GrowthEngine | None = None) -> GrowthResult:
    """Growth series of the whole group.

    auto uses the amalgam recursion (its tree only touches link and star
    subsets); cross_check runs the subset and amalgam recursions and the
    spherical-subset sum, and raises CrossCheckMismatch if any two disagree.
    ``engine``, an amalgam engine of the graph, serves the amalgam route in
    place of a new one, so that the caller can go on using its memo.

    auto stays with the amalgam recursion.  With both routes summing integer
    numerators over one denominator, the spherical-subset sum took 0.7 times
    as long as the amalgam recursion over the 24 cost-strata graphs of the
    ``dense_amalgam`` benchmark (seeds 5 and 12), but from 0.3 to 1.7-2.5
    times on single graphs; and a clique of k vertices outside V2 gives the
    sum 2^k terms where the recursion has one spherical leaf.
    """
    names = _STRATEGY_ENGINES.get(strategy)
    if names is None:
        raise ValueError(f"unknown strategy {strategy!r}")
    if engine is not None and (engine.graph is not graph or engine.strategy != "amalgam"):
        raise ValueError("engine must be an amalgam engine of the same graph")
    engines = [
        engine if engine is not None and name == "amalgam" else GrowthEngine(graph, name)
        for name in names
    ]
    results = {e.strategy: e.series() for e in engines}
    if strategy == "cross_check":
        results["spherical_subset"] = spherical_subset_growth(graph)
        if len(set(results.values())) != 1:
            raise CrossCheckMismatch(results)
    method = "spherical" if spherical_types(graph, graph.full_mask) is not None else names[-1]
    evaluated = sum(len(e.memo) for e in engines)
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
    times the series of the nontrivial powers, G_v - 1, of every vertex of
    order other than 2 (2t/(1-t) for an infinite one).
    """
    types = spherical_types(graph, graph.full_mask)
    if types is None:
        raise ValueError("graph is not of spherical type")
    result = RationalFunction(Polynomial.monomial(sum(t.longest_length for t in types)))
    for i in _bit_indices(graph.full_mask & ~graph._partition_masks()[0]):
        result = result * (cyclic_growth(graph.order_at(i)) - 1)
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
