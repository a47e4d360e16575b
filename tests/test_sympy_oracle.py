"""sympy as a test-only oracle for the exact arithmetic."""

import importlib
import random

import pytest

from dyergrowth import DyerGraph, INFINITY
from dyergrowth.growth import GrowthEngine
from dyergrowth.ratfun import Polynomial, RationalFunction

sympy = pytest.importorskip("sympy")
growth_mod = importlib.import_module("dyergrowth.growth")
T = sympy.Symbol("t")


def to_sympy(poly: Polynomial):
    return sympy.Poly(list(reversed(poly.coeffs)) or [0], T, domain="ZZ")


def test_cyclotomic_factors_match_sympy():
    for k in range(1, 80):
        assert to_sympy(growth_mod._base_factor(k)) == sympy.Poly(sympy.cyclotomic_poly(k, T), T)


def test_odd_order_factors_are_coprime_to_each_other_and_to_roots_of_unity():
    # Phi_k is irreducible, so c_p is coprime to it unless Phi_k divides c_p
    owner = {}
    for p in range(3, 40, 2):
        c_p = growth_mod._base_factor(-p)
        assert c_p == Polynomial([1] + [2] * (p // 2))
        for factor, _ in to_sympy(c_p).factor_list()[1]:
            assert not factor.is_cyclotomic, (p, factor)
            assert factor not in owner, (p, owner.get(factor))
            owner[factor] = p


def test_engine_factor_base_is_pairwise_coprime():
    orders = [2, 2, 2, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, INFINITY]
    names = [f"v{i}" for i in range(len(orders))]
    rng = random.Random(77)
    edges = {}
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            if rng.random() < 0.8:
                braid = orders[i] == orders[j] == 2
                edges[(names[i], names[j])] = rng.choice((3, 4, 5)) if braid else 2
    g = DyerGraph(dict(zip(names, orders)), edges)
    engine = GrowthEngine(g)
    engine.series()
    keys = sorted(engine._common.exponents)
    assert {-3, -5, -7, -9, 2, 3, 4, 5, 6} <= set(keys)
    base = [to_sympy(growth_mod._base_factor(key)) for key in keys]
    for i, a in enumerate(base):
        for b in base[i + 1 :]:
            assert sympy.gcd(a, b).degree() == 0, (a, b)
    # D is the product of the base powers
    d = sympy.Poly(1, T, domain="ZZ")
    for key, e in engine._common.exponents.items():
        d *= to_sympy(growth_mod._base_factor(key)) ** e
    assert d == to_sympy(engine._common.poly)


def canonical_by_sympy(num: Polynomial, den: Polynomial):
    """Coprime pair over Z with positive leading denominator coefficient."""
    c, p, q = sympy.cancel((to_sympy(num).as_expr(), to_sympy(den).as_expr()))
    c = sympy.Rational(c)
    p = sympy.Poly(p * c.p, T, domain="ZZ")
    q = sympy.Poly(q * c.q, T, domain="ZZ")
    content = sympy.gcd(p.content(), q.content())
    p, q = p.quo_ground(content), q.quo_ground(content)
    if q.LC() < 0:
        p, q = -p, -q
    return [int(x) for x in reversed(p.all_coeffs())], [int(x) for x in reversed(q.all_coeffs())]


def random_poly(rng, degree):
    return Polynomial(rng.randint(-6, 6) for _ in range(degree + 1))


def test_canonical_form_matches_sympy_cancel():
    rng = random.Random(314)
    checked = 0
    while checked < 150:
        common = random_poly(rng, rng.randint(0, 3)) * rng.choice((1, 2, -3, 6))
        num = random_poly(rng, rng.randint(0, 5)) * common
        den = random_poly(rng, rng.randint(0, 5)) * common
        if num.is_zero or den.is_zero:
            continue
        rf = RationalFunction(num, den)
        expected_num, expected_den = canonical_by_sympy(num, den)
        assert list(rf.num.coeffs) == expected_num, (num, den)
        assert list(rf.den.coeffs) == expected_den, (num, den)
        checked += 1
