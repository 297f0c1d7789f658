import random
from fractions import Fraction

import pytest

from txyrigid.algebra import (
    LaurentZ,
    PolyXY,
    SeriesU,
    UnsupportedDivisionError,
    poly_div_exact,
    series_exp,
)

X = PolyXY.x()
Y = PolyXY.y()
ONE = PolyXY.one()


def random_poly(rng, max_exp=2, max_terms=3):
    return PolyXY(
        [
            ((rng.randint(0, max_exp), rng.randint(0, max_exp)),
             Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            for _ in range(rng.randint(0, max_terms))
        ]
    )


def random_laurent(rng, max_terms=3):
    return LaurentZ(
        {
            rng.randint(-3, 3): {rng.randint(0, 2): rng.randint(-4, 4) for _ in range(3)}
            for _ in range(rng.randint(0, max_terms))
        }
    )


# -- PolyXY ------------------------------------------------------------------


def test_poly_difference_of_squares():
    assert (X - Y) * (X + Y) == X * X - Y * Y


def test_poly_add_zero_identity():
    rng = random.Random(1)
    for _ in range(20):
        p = random_poly(rng)
        assert p + PolyXY.zero() == p


def test_poly_sign_normalization():
    assert X * (-Y) == PolyXY.const(-1) * X * Y


def test_poly_rejects_negative_exponents():
    with pytest.raises(ValueError):
        PolyXY({(-1, 0): 1})


def test_poly_ring_axioms_randomized():
    rng = random.Random(2)
    for _ in range(40):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_poly_pow_matches_repeated_multiplication():
    p = X + 2 * Y
    expected = ONE
    for k in range(5):
        assert p**k == expected
        expected = expected * p


def test_poly_substitute_and_swap():
    p = X * Y * Y - X * X * Y
    assert p.substitute(2, 3) == Fraction(2 * 9 - 4 * 3)
    assert p.swap_xy() == Y * X * X - Y * Y * X
    assert p.is_homogeneous(3)
    assert not (p + ONE).is_homogeneous(3)


def test_poly_div_exact_monomial():
    p = 6 * X * X * Y
    d = PolyXY.monomial(1, 1, 3)
    assert poly_div_exact(p, d) == 2 * X
    assert poly_div_exact(X, Y) is None


def test_poly_div_exact_general():
    assert poly_div_exact(X * X - Y * Y, X - Y) == X + Y
    assert poly_div_exact(X * X - Y * Y, X + ONE) is None
    assert poly_div_exact(PolyXY.zero(), X) == PolyXY.zero()
    assert poly_div_exact(X, PolyXY.zero()) is None


def test_poly_rendering():
    assert str(PolyXY.zero()) == "0"
    assert str(X * Y * Y - X * X * Y) == "x*y^2 - x^2*y"


# -- LaurentZ: integer polynomials in x as z-coefficients -------------------------

# x z + 1, the y = 1 form of x z + y
XZ_PLUS_ONE = LaurentZ({1: {1: 1}, 0: 1})


def test_laurent_exponent_shift():
    zinv = LaurentZ({-1: 1})
    assert XZ_PLUS_ONE * zinv == LaurentZ({0: {1: 1}, -1: 1})


def test_laurent_shift_of_z_minus_one():
    f = LaurentZ({1: 1, 0: -1})
    zinv = LaurentZ({-1: 1})
    assert f * zinv == LaurentZ({0: 1, -1: -1})


def test_laurent_cancellation_to_zero():
    assert (XZ_PLUS_ONE - XZ_PLUS_ONE).is_zero()
    assert XZ_PLUS_ONE - XZ_PLUS_ONE == LaurentZ()
    assert (XZ_PLUS_ONE * XZ_PLUS_ONE - XZ_PLUS_ONE * XZ_PLUS_ONE).terms == {}


def test_laurent_ring_axioms_randomized():
    rng = random.Random(3)
    for _ in range(25):
        a, b, c = (random_laurent(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert 3 * a == a + a + a and a * -1 == -a


def test_laurent_normal_form():
    # zero coefficients are never stored, so equal values have equal terms
    assert LaurentZ({2: {0: 0}, 1: 0, 0: {3: 5}}).terms == {0: {3: 5}}
    assert LaurentZ({1: 1, 0: {1: 2}}).term_count() == 2
    square = XZ_PLUS_ONE * XZ_PLUS_ONE
    assert square == LaurentZ({2: {2: 1}, 1: {1: 2}, 0: 1})
    with pytest.raises(ValueError):
        LaurentZ({0: {-1: 1}})


# -- SeriesU -----------------------------------------------------------------


def test_series_exp_constant_zero():
    s = series_exp(PolyXY.zero(), 5)
    assert s.coeff(0) == ONE
    assert all(s.coeff(k).is_zero() for k in range(1, 5))


def test_series_exp_definition():
    s = series_exp(X + Y, 3)
    assert s.lowest == 0 and s.order == 3
    assert s.coeff(0) == ONE
    assert s.coeff(1) == X + Y
    assert s.coeff(2) == (X + Y) * (X + Y) * Fraction(1, 2)


def test_series_exp_rejects_bad_order():
    with pytest.raises(ValueError):
        series_exp(X, 0)


def test_series_exp_multiplicativity():
    rng = random.Random(5)
    for _ in range(10):
        a, b = random_poly(rng, max_exp=1, max_terms=2), random_poly(rng, max_exp=1, max_terms=2)
        lhs = series_exp(a, 6) * series_exp(b, 6)
        rhs = series_exp(a + b, 6)
        assert lhs == rhs.truncate(order=lhs.order)


def test_series_division_simple_pole():
    u = SeriesU(1, 3, (ONE, PolyXY.zero()))
    quotient = u / u
    assert quotient.lowest == 0
    assert quotient.coeff(0) == ONE
    assert all(quotient.coeff(k).is_zero() for k in range(1, quotient.order))


def test_series_geometric():
    one = SeriesU.const(ONE, 4)
    g = SeriesU(0, 4, (ONE, -ONE, PolyXY.zero(), PolyXY.zero()))  # 1 - u
    inv = one / g
    assert [inv.coeff(k) for k in range(4)] == [ONE, ONE, ONE, ONE]


def test_series_exponential_minus_one_has_simple_zero():
    s = series_exp(X + Y, 6) - SeriesU.const(ONE, 6)
    assert s.valuation() == 1
    assert s.coeff(1) == X + Y


def test_series_division_tracks_orders():
    f = SeriesU.const(ONE, 5)
    g = series_exp(Fraction(1), 5) - SeriesU.const(ONE, 5)  # valuation 1
    q = f / g
    assert q.lowest == -1
    assert q.order == 3  # one order lost to the pivot, one to the truncation
    # multiply back and compare on the common range
    back = q * g
    for k in range(back.lowest, back.order):
        assert back.coeff(k) == f.coeff(k)


def test_series_unsupported_division():
    f = SeriesU.const(ONE, 4)
    g = SeriesU.const(X + Y, 4)
    with pytest.raises(UnsupportedDivisionError):
        f / g
    with pytest.raises(ZeroDivisionError):
        f / SeriesU.zero(0, 4)


def test_series_truncate_guards():
    s = series_exp(X, 5)
    assert s.truncate(order=3).order == 3
    with pytest.raises(ValueError):
        s.truncate(order=9)
    with pytest.raises(ValueError):
        s.truncate(lowest=1)  # would drop the nonzero constant term
