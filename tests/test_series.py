import random
from fractions import Fraction

import pytest

from conftest import random_data
from txyrigid.algebra import PolyXY, SeriesU, series_exp
from txyrigid.classify import make_l1, make_s3
from txyrigid.genera import FixedPoint, FixedPointData, ah_constant, is_rigid
from txyrigid.series import (
    TODD,
    TXY,
    GenusSeries,
    genus_from_coefficients,
    genus_series,
    series_is_constant,
    txy_factor_series,
)

X = PolyXY.x()
Y = PolyXY.y()
ONE = PolyXY.one()
HALF = Fraction(1, 2)


# -- two-parameter factor ----------------------------------------------------


def test_txy_factor_leading_coefficients():
    f = txy_factor_series(1, 8)
    assert f.lowest == -1
    # in the scaled variable t = (x+y)u the residue coefficient is x+y,
    # i.e. the true u^{-1} coefficient is (x+y)/(x+y) = 1
    assert f.coeff(-1) == X + Y
    assert f.coeff(0) == X - (X + Y) * HALF


def test_txy_factor_multiplies_back():
    # independent check: factor * (e^{wt} - 1) == x e^{wt} + y, coefficientwise
    for w in (1, 2, -3):
        order = 10
        f = txy_factor_series(w, order)
        e = series_exp(Fraction(w), order + 2)
        numerator = e * X + SeriesU.const(Y, order + 2)
        denominator = e - SeriesU.const(ONE, order + 2)
        back = f * denominator
        for k in range(back.lowest, back.order):
            assert back.coeff(k) == numerator.coeff(k)


def test_txy_factor_residue_scaling():
    for w in (2, 3, -5):
        f = txy_factor_series(w, 6)
        assert f.coeff(-1) == (X + Y) * Fraction(1, w)


def test_txy_factor_negative_weight_is_variable_flip():
    plus = txy_factor_series(1, 9)
    minus = txy_factor_series(-1, 9)
    for k in range(-1, 9):
        expected = plus.coeff(k) if k % 2 == 0 else -plus.coeff(k)
        assert minus.coeff(k) == expected


def test_txy_factor_rejects_zero_weight():
    with pytest.raises(ValueError):
        txy_factor_series(0, 8)


def point_fraction(point: FixedPoint) -> tuple[dict, list]:
    """One point's term as a {z-exponent: PolyXY} numerator over the
    multiset of its (z^a - 1) factors, with x and y kept formal."""
    numerator = {0: PolyXY.const(point.sign)}
    for w in point.weights:
        factor = {w: X, 0: Y} if w > 0 else {0: -X, -w: -Y}
        product = {}
        for k1, p1 in numerator.items():
            for k2, p2 in factor.items():
                product[k1 + k2] = product.get(k1 + k2, PolyXY.zero()) + p1 * p2
        numerator = product
    return numerator, [abs(w) for w in point.weights]


def test_txy_factor_agrees_with_z_domain_substitution():
    # substituting z -> e^{wt} into the Laurent fraction and expanding must
    # reproduce the factor series (the bridge between the two back-ends)
    order = 8
    work = order + 4
    for weights, sign in (((2,), 1), ((1, -1), -1), ((1, 2, -3), 1)):
        data = FixedPointData(len(weights), (FixedPoint(weights, sign),))
        terms, entries = point_fraction(data.points[0])
        numerator = SeriesU.zero(0, work)
        for k, coeff in terms.items():
            numerator = numerator + series_exp(Fraction(k), work) * coeff
        denominator = SeriesU.const(ONE, work)
        for a in entries:
            denominator = denominator * (
                series_exp(Fraction(a), work) - SeriesU.const(ONE, work)
            )
        expanded = numerator / denominator
        direct = genus_series(data, TXY, order)
        for k in range(direct.lowest, min(direct.order, expanded.order)):
            assert expanded.coeff(k) == direct.coeff(k)


# -- Todd and custom rational genera -------------------------------------------


def test_todd_expansion_values():
    # 1/(1 - e^{-u}) = u^{-1} + 1/2 + u/12 + 0 u^2 - u^3/720 + ...
    f = TODD.factor_series(1, 6)
    assert f.coeff(-1) == ONE
    assert f.coeff(0) == PolyXY.const(HALF)
    assert f.coeff(1) == PolyXY.const(Fraction(1, 12))
    assert f.coeff(2) == PolyXY.zero()
    assert f.coeff(3) == PolyXY.const(Fraction(-1, 720))
    # multiply back: factor * (1 - e^{-wu}) == 1
    for w in (1, 2, -3):
        order = 10
        f = TODD.factor_series(w, order)
        denominator = SeriesU.const(ONE, order + 2) - series_exp(Fraction(-w), order + 2)
        back = f * denominator
        assert back.coeff(0) == ONE
        assert all(back.coeff(k).is_zero() for k in range(back.lowest, back.order) if k != 0)


def test_custom_genus_matches_builtin_todd():
    coeffs = [TODD.regular_coefficient(k) for k in range(16)]
    custom = genus_from_coefficients("custom-todd", coeffs)
    for w in (1, 2, -3):
        assert custom.factor_series(w, 12) == TODD.factor_series(w, 12)


def test_unknown_genus_has_no_rule():
    with pytest.raises(ValueError):
        GenusSeries("mystery").regular_coefficient(0)


# -- genus_series ---------------------------------------------------------------


def test_genus_series_l1_txy():
    s = genus_series(make_l1(1), TXY, 12)
    assert s.lowest == -1
    assert series_is_constant(s) == X - Y
    assert s.coeff(-1).is_zero()
    assert all(s.coeff(k).is_zero() for k in range(1, 12))


def test_genus_series_l1_todd_is_one():
    s = genus_series(make_l1(1), TODD, 12)
    assert series_is_constant(s) == ONE
    # matches the (x, y) = (1, 0) specialization of the symbolic constant
    assert ah_constant(make_l1(1)).substitute(1, 0) == 1


def test_genus_series_single_point_pole():
    s = genus_series(FixedPointData(1, (FixedPoint((1,), 1),)), TXY, 12)
    assert not s.coeff(-1).is_zero()
    assert series_is_constant(s) is None


def test_genus_series_s3():
    s = genus_series(make_s3(1, 1), TXY, 12)
    assert series_is_constant(s) == X * Y * Y - X * X * Y


def test_genus_series_not_constant():
    data = FixedPointData(2, (FixedPoint((1, 2), 1), FixedPoint((-1, -2), 1)))
    assert series_is_constant(genus_series(data, TXY, 12)) is None


def test_genus_series_order_guard():
    with pytest.raises(ValueError):
        genus_series(make_s3(1, 1), TXY, 3)


def test_series_is_constant_zero_series():
    assert series_is_constant(SeriesU.zero(-2, 5)) == PolyXY.zero()


# -- oracle agreement -----------------------------------------------------------


def test_oracle_agreement_randomized():
    rng = random.Random(16)
    for _ in range(60):
        data = random_data(rng, max_abs=4)
        report = is_rigid(data)
        constant = series_is_constant(genus_series(data, TXY, 12))
        assert (constant is not None) == report.rigid
        if report.rigid:
            assert constant == report.ah_constant


def test_truncation_stability():
    data = FixedPointData(2, (FixedPoint((1, 2), 1), FixedPoint((-1, -2), 1)))
    s12 = genus_series(data, TXY, 12)
    s16 = genus_series(data, TXY, 16)
    assert s16.truncate(order=12) == s12
    witness = next(
        k for k in range(s12.lowest, s12.order) if k != 0 and not s12.coeff(k).is_zero()
    )
    assert s16.coeff(witness) == s12.coeff(witness)


def test_principal_part_exponent_bound():
    rng = random.Random(17)
    for _ in range(20):
        data = random_data(rng, max_abs=4)
        s = genus_series(data, TXY, data.n + 4)
        assert s.lowest == -data.n
