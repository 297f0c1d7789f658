import random
from fractions import Fraction

import pytest

from txyrigid.algebra import LaurentZ, PolyXY, SeriesU

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


def test_series_product_keeps_common_range():
    rng = random.Random(5)
    for _ in range(10):
        a = SeriesU(-1, 4, tuple(random_poly(rng, max_exp=1) for _ in range(5)))
        b = SeriesU(0, 6, tuple(random_poly(rng, max_exp=1) for _ in range(6)))
        product = a * b
        # b's unknown u^6 meets a's u^-1 at u^5; a's unknown u^4 meets b's u^0
        assert (product.lowest, product.order) == (-1, 4)
        for k in range(-1, 4):
            expected = PolyXY.zero()
            for i in range(-1, k + 1):
                expected = expected + a.coeff(i) * b.coeff(k - i)
            assert product.coeff(k) == expected
        assert b * a == product
        assert (a * 3).coeffs == tuple(3 * c for c in a.coeffs)


def test_series_truncate_guards():
    s = SeriesU(0, 5, (X, ONE, Y, X * Y, ONE))
    assert s.truncate(order=3).order == 3
    with pytest.raises(ValueError):
        s.truncate(order=9)
    with pytest.raises(ValueError):
        s.truncate(lowest=1)  # would drop the nonzero constant term
