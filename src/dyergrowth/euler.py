"""Rational Euler characteristic of Dyer groups, via two independent routes.

The growth route evaluates 1/G at t = 1.  The recursive route builds no
growth series: it applies the amalgamated-product identity
chi(D) = chi(D - v) + chi(star v) - chi(link v) on incomplete graphs and
multiplies characteristics over the direct-product split of complete graphs
(1/order for the finite cyclic parts, 0 as soon as an infinite cyclic factor
appears).  The Coxeter group on a complete order-2 part contributes 1/|W|
when finite and otherwise Chiswell's sum of (-1)^|T| / |W_T| over the
subsets T that generate finite Coxeter groups, the spherical-subset sum at
t = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .dyergraph import DyerGraph, _bit_indices
from .growth import growth, spherical_subsets


@dataclass(frozen=True)
class EulerResult:
    value: Fraction
    method: str


def euler_via_growth(graph: DyerGraph) -> EulerResult:
    """1 / (growth series at t = 1), exactly."""
    series = growth(graph).series
    return EulerResult(series.inverse().evaluate(1), "via_growth")


def euler_recursive(graph: DyerGraph) -> EulerResult:
    v2mask, vpmask, vinfmask = graph._partition_masks()
    memo: dict[int, Fraction] = {}

    def chi(mask: int) -> Fraction:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        value = None
        for i in _bit_indices(mask):
            star = (graph.adjacency_mask(i) & mask) | (1 << i)
            if star != mask:
                link = star & ~(1 << i)
                value = chi(mask & ~(1 << i)) + chi(star) - chi(link)
                break
        if value is None:  # complete graph: product of the three parts
            if mask & vinfmask:
                value = Fraction(0)
            else:
                value = _chi_coxeter(graph, mask & v2mask)
                for i in _bit_indices(mask & vpmask):
                    value /= graph.order_at(i)
        memo[mask] = value
        return value

    return EulerResult(chi(graph.full_mask), "recursive")


def _chi_coxeter(graph: DyerGraph, v2mask: int) -> Fraction:
    """Characteristic of the Coxeter group on a complete order-2 subgraph."""
    types = graph.finite_types(v2mask)
    if types is not None:
        return Fraction(1, prod(t.order for t in types))
    total = Fraction(0)
    for clique, clique_types in spherical_subsets(graph, v2mask):
        sign = -1 if clique.bit_count() % 2 else 1
        total += Fraction(sign, prod(t.order for t in clique_types))
    return total
