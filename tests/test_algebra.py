import random
from fractions import Fraction
from math import comb

import pytest

from txyrigid.algebra import LaurentZ, PolyXY, SeriesU

X = PolyXY({(1, 0): 1})
Y = PolyXY({(0, 1): 1})
ONE = PolyXY({(0, 0): 1})


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


@pytest.mark.parametrize(
    "make",
    [
        lambda: PolyXY.const(0.5),
        lambda: PolyXY({(1, 0): 0.25}),
    ],
    ids=["const", "terms"],
)
def test_poly_refuses_floats(make):
    with pytest.raises(ValueError, match="is a float; only exact rationals are accepted"):
        make()


def test_poly_ring_axioms_randomized():
    rng = random.Random(2)
    for _ in range(40):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_poly_powers_match_binomial_expansion():
    p = X + 2 * Y
    power = ONE
    for k in range(6):
        assert power == PolyXY(((i, k - i), comb(k, i) * 2 ** (k - i)) for i in range(k + 1))
        power = power * p


def test_poly_rendering():
    assert str(PolyXY.zero()) == "0"
    assert str(X * Y * Y - X * X * Y) == "x*y^2 - x^2*y"
    # one case per branch: sign of the leading term, constant, unit and
    # non-unit magnitudes, integer and fractional coefficients
    cases = [
        ({(2, 0): Fraction(-1, 2), (2, 1): 1, (3, 0): Fraction(-2, 3)}, "-1/2*x^2 + x^2*y - 2/3*x^3"),
        ({(0, 0): 1}, "1"),
        ({(0, 0): -1}, "-1"),
        ({(0, 0): Fraction(-3, 4)}, "-3/4"),
        ({(0, 0): 5}, "5"),
        ({(1, 1): -1}, "-x*y"),
        ({(1, 1): 1}, "x*y"),
        ({(0, 1): -1, (3, 0): 1}, "-y + x^3"),
        ({(0, 2): -1, (1, 0): -4}, "-y^2 - 4*x"),
        ({(0, 0): Fraction(5, 3), (1, 2): -3, (2, 1): 7}, "5/3 - 3*x*y^2 + 7*x^2*y"),
        ({(0, 0): -2, (0, 3): Fraction(-7, 5), (2, 0): Fraction(1, 2)}, "-2 - 7/5*y^3 + 1/2*x^2"),
        ({(0, 0): Fraction(-3, 4), (1, 1): -1}, "-3/4 - x*y"),
    ]
    for terms, text in cases:
        assert str(PolyXY(terms)) == text


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
        a = SeriesU(-1, tuple(random_poly(rng, max_exp=1) for _ in range(5)))
        b = SeriesU(0, tuple(random_poly(rng, max_exp=1) for _ in range(6)))
        product = a * b
        # b's unknown u^6 meets a's u^-1 at u^5; a's unknown u^4 meets b's u^0
        assert (a.order, b.order) == (4, 6)
        assert (product.lowest, product.order) == (-1, 4)
        for k in range(-1, 4):
            expected = PolyXY.zero()
            for i in range(-1, k + 1):
                expected = expected + a.coeff(i) * b.coeff(k - i)
            assert product.coeff(k) == expected
        assert b * a == product
        assert (a * 3).coeffs == tuple(3 * c for c in a.coeffs)
    # a factor with no retained coefficient leaves none in the product
    empty = SeriesU(2, ()) * a
    assert (empty.lowest, empty.order, empty.coeffs) == (1, 1, ())

