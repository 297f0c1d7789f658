"""Third, independent oracle, sharing no code with the z-domain kernel or
the series back-end: sympy cancels the fixed-point sum minus the
Atiyah-Hirzebruch constant as a rational function in x, y and z, and
multiplies its own expansions of the weight factors out into the series
of the fixed-point sum, whose coefficients the series back-end must
reproduce."""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from conftest import random_data
from txyrigid.classify import make_l1, make_s3, make_z
from txyrigid.genera import is_rigid
from txyrigid.search import SearchParams, enumerate_data, prune
from txyrigid.series import TODD, TXY, genus_series

sympy = pytest.importorskip("sympy")

X, Y, Z, S = sympy.symbols("x y z s")


def sympy_rigid(data) -> bool:
    total = 0
    for p in data.points:
        term = sympy.Integer(p.sign)
        for w in p.weights:
            term *= (X * Z**w + Y) / (Z**w - 1)
        plus = sum(1 for w in p.weights if w > 0)
        total += term - p.sign * X**plus * (-Y) ** (data.n - plus)
    return sympy.cancel(total) == 0


def corpus():
    data = [make_l1(a) for a in (1, 2, 5)]
    data += [make_s3(a, b) for a, b in ((1, 1), (1, 2), (2, 3))]
    data += [make_z(ws) for ws in ((1,), (2, -1), (1, -2, 3))]
    rng = random.Random(2024)
    for n in (1, 2, 3):
        survivors = [d for d in enumerate_data(SearchParams(n=n, m=2, max_abs_weight=5)) if prune(d)]
        data += survivors if n < 3 else rng.sample(survivors, 20)
    data += [random_data(rng, max_abs=4, n_max=3, m_max=3) for _ in range(20)]
    return data


def test_sympy_cancel_agrees_with_is_rigid():
    data = corpus()
    verdicts = [is_rigid(d).rigid for d in data]
    assert any(verdicts) and not all(verdicts)
    disagreements = [d for d, rigid in zip(data, verdicts) if sympy_rigid(d) != rigid]
    assert disagreements == []


# series oracle: orders up to 8 and n up to 3 need t^0 .. t^10 of t * factor
SERIES_LENGTH = 11


@lru_cache(maxsize=None)
def unit_factor(name):
    """sympy's expansion of s * F(s) for the weight-1 factor F of the genus,
    as coefficient Polys in x and y of s^0 .. s^10.  Every factor of a
    weight w is then t * F(w t) = (w t) * F(w t) / w."""
    if name == "txy":
        expr = S * (X * sympy.exp(S) + Y) / (sympy.exp(S) - 1)
    else:
        expr = S / (1 - sympy.exp(-S))
    series = sympy.expand(sympy.series(expr, S, 0, SERIES_LENGTH).removeO())
    return [sympy.Poly(series.coeff(S, k), X, Y, domain="QQ") for k in range(SERIES_LENGTH)]


def sympy_series(data, name, length):
    """The coefficients of t^-n .. t^(length-n-1) of the fixed-point sum,
    multiplied out by sympy from its per-weight expansions."""
    zero = sympy.Poly(0, X, Y, domain="QQ")
    total = [zero] * length
    for p in data.points:
        product = [sympy.Poly(p.sign, X, Y, domain="QQ")] + [zero] * (length - 1)
        for w in p.weights:
            factor = [c * sympy.Rational(w) ** (k - 1) for k, c in enumerate(unit_factor(name))]
            product = [
                sum((product[i] * factor[k - i] for i in range(k + 1)), zero)
                for k in range(length)
            ]
        total = [a + b for a, b in zip(total, product)]
    return total


def as_fraction_dict(poly):
    return {
        monomial: Fraction(int(c.p), int(c.q)) for monomial, c in poly.as_dict().items() if c
    }


def test_sympy_series_coefficients_match_genus_series():
    rng = random.Random(2025)
    data = [make_l1(2), make_s3(1, 2)]
    data += [random_data(rng, max_abs=4, n_max=3, m_max=3) for _ in range(18)]
    compared = 0
    for d in data:
        order = rng.randint(d.n + 1, 8)
        for genus in (TXY, TODD):
            mine = genus_series(d, genus, order)
            theirs = sympy_series(d, genus.name, order + d.n)
            for k in range(-d.n, order):
                assert mine.coeff(k).terms == as_fraction_dict(theirs[k + d.n])
                compared += 1
    assert compared > 300
