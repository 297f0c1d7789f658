import random
from fractions import Fraction
from math import comb, factorial

import pytest

from conftest import random_data, substitute
from txyrigid.algebra import PolyXY
from txyrigid.classify import make_l1, make_s3, make_z
from txyrigid.genera import FixedPoint, FixedPointData, ah_constant, is_rigid
from txyrigid import series
from txyrigid.series import (
    MAX_SERIES_BITS,
    MAX_SERIES_WORK,
    TODD,
    TXY,
    GenusExpansion,
    GenusSeries,
    bernoulli,
    genus_series,
    series_is_constant,
    txy_factor_series,
)

X = PolyXY({(1, 0): 1})
Y = PolyXY({(0, 1): 1})
ONE = PolyXY({(0, 0): 1})
HALF = Fraction(1, 2)


# -- rational power series, kept independent of the package -----------------


def mul(a, b, length):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(length)]


def exp_minus_one_over_t(a, length):
    """(e^{a t} - 1)/t, coefficients of t^0 .. t^(length-1)."""
    return [Fraction(a ** (k + 1), factorial(k + 1)) for k in range(length)]


def inverse(a, length):
    """1/a for a power series with a[0] != 0."""
    out = [1 / Fraction(a[0])]
    for k in range(1, length):
        out.append(-sum(a[i] * out[k - i] for i in range(1, k + 1)) / a[0])
    return out


def todd_coefficient(k):
    """The u^k coefficient of Todd's 1/(1 - e^{-u}) - 1/u = 1 + g(u) - 1/u."""
    return bernoulli(k + 1) / factorial(k + 1) + (k == 0)


def g_coefficients(w, length):
    """g(w t) = 1/(e^{w t} - 1) at t^-1 .. t^(length-2), from the cached
    numerators over w*D (the first numerator is D)."""
    f = txy_factor_series(w, length)
    return [Fraction(c, w * f[0]) for c in f]


# -- Bernoulli basis ---------------------------------------------------------


def test_bernoulli_known_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert all(bernoulli(k) == 0 for k in range(3, 40, 2))
    assert bernoulli(12) == Fraction(-691, 2730)
    with pytest.raises(ValueError):
        bernoulli(-1)


def reference_bernoulli(count):
    """B_0 .. B_(count-1) from sum_{j <= k} C(k + 1, j) B_j = 0, in
    Fraction sums."""
    numbers = []
    for k in range(count):
        if k == 0:
            numbers.append(Fraction(1))
        elif k % 2 and k > 1:
            numbers.append(Fraction(0))
        else:
            numbers.append(-sum(comb(k + 1, j) * numbers[j] for j in range(k)) / (k + 1))
    return numbers


def test_bernoulli_matches_the_recurrence():
    # up to B_260, past every length that MAX_ORDER admits
    reference = reference_bernoulli(261)
    assert [bernoulli(k) for k in range(261)] == reference
    assert series._bernoulli_numbers(261) == reference
    for count in range(6):
        assert series._bernoulli_numbers(count) == reference[:count]


# -- two-parameter factor ----------------------------------------------------


def test_txy_factor_leading_coefficients():
    g = g_coefficients(1, 8)
    # in the scaled variable t = (x+y)u the factor is x + (x+y) g(t): its
    # residue coefficient is x+y, i.e. the true u^{-1} coefficient is 1
    assert (g[0], g[1], g[2], g[3]) == (1, -HALF, Fraction(1, 12), 0)
    assert X + (X + Y) * g[1] == X - (X + Y) * HALF


def test_txy_factor_multiplies_back():
    # independent check: g(w t) * (e^{w t} - 1) == 1, coefficientwise
    for w in (1, 2, -3):
        length = 10
        back = mul(g_coefficients(w, length), exp_minus_one_over_t(w, length), length)
        assert back == [1] + [0] * (length - 1)


def test_txy_factor_residue_scaling():
    for w in (2, 3, -5):
        assert g_coefficients(w, 6)[0] == Fraction(1, w)


def test_txy_factor_negative_weight_is_variable_flip():
    plus = g_coefficients(1, 10)
    minus = g_coefficients(-1, 10)
    for k in range(-1, 9):
        expected = plus[k + 1] if k % 2 == 0 else -plus[k + 1]
        assert minus[k + 1] == expected


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
    # substituting z -> e^t into the Laurent fraction and expanding must
    # reproduce the series (the bridge between the two back-ends)
    order = 8
    for weights, sign in (((2,), 1), ((1, -1), -1), ((1, 2, -3), 1)):
        n = len(weights)
        length = order + n
        data = FixedPointData(n, (FixedPoint(weights, sign),))
        terms, entries = point_fraction(data.points[0])
        # the fraction is t^-n * numerator(e^t) / prod_a (e^{a t} - 1)/t
        denominator = [1] + [0] * (length - 1)
        for a in entries:
            denominator = mul(denominator, exp_minus_one_over_t(a, length), length)
        scale = inverse(denominator, length)
        direct = genus_series(data, TXY, order)
        for j in range(-n, order):
            expanded = PolyXY.zero()
            for i in range(j + n + 1):
                numerator = PolyXY.zero()
                for k, coeff in terms.items():
                    numerator = numerator + coeff * Fraction(k**i, factorial(i))
                expanded = expanded + numerator * scale[j + n - i]
            assert expanded == direct.coeff(j)


# -- Todd and custom rational genera -------------------------------------------


def test_todd_expansion_values():
    # 1/(1 - e^{-u}) = u^{-1} + 1/2 + u/12 + 0 u^2 - u^3/720 + ...
    r = [todd_coefficient(k) for k in range(4)]
    assert r == [HALF, Fraction(1, 12), 0, Fraction(-1, 720)]
    # multiply back: u * factor(w u) * (1 - e^{-w u})/u == 1
    for w in (1, 2, -3):
        length = 10
        factor = [Fraction(1, w)] + [todd_coefficient(k) * w**k for k in range(length - 1)]
        damped = [-c for c in exp_minus_one_over_t(-w, length)]
        assert mul(factor, damped, length) == [1] + [0] * (length - 1)


def test_custom_genus_matches_builtin_todd():
    coeffs = [todd_coefficient(k) for k in range(16)]
    custom = GenusSeries("custom-todd", coeffs)
    rng = random.Random(18)
    for _ in range(10):
        data = random_data(rng, max_abs=4)
        assert genus_series(data, custom, 10) == genus_series(data, TODD, 10)


@pytest.mark.parametrize("coefficients", [[0.1], [Fraction(1, 2), 0.5], (1, 0.25)])
def test_custom_genus_refuses_floats(coefficients):
    # Fraction(0.1) would be 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(ValueError, match="is a float; only exact rationals are accepted"):
        GenusSeries("floats", coefficients)


def test_genus_series_reads_its_own_coefficients():
    with pytest.raises(ValueError, match="is a float; only exact rationals are accepted"):
        GenusSeries("floats", regular_coeffs=(0.1,))
    genus = GenusSeries("ints", regular_coeffs=[5, 7])
    assert genus.regular_coeffs == (Fraction(5), Fraction(7))
    assert all(type(c) is Fraction for c in genus.regular_coeffs)
    # the list is taken as zero beyond its end
    assert genus_series(make_l1(2), genus, 6) == genus_series(
        make_l1(2), GenusSeries("ints", [Fraction(5), Fraction(7), 0, 0]), 6
    )


def test_unknown_genus_has_no_rule():
    # without a coefficient list only txy and todd are genera; the
    # refusal comes at construction and echoes no part of the name
    for name in ("mystery", "x" * 5000, "TXY", None):
        with pytest.raises(ValueError) as caught:
            GenusSeries(name)
        message = str(caught.value)
        assert len(message) < 200 and "xxx" not in message and "mystery" not in message


def test_todd_is_txy_at_one_zero():
    # TXY's scaled variable t = (x+y)u is u itself at (x, y) = (1, 0)
    rng = random.Random(23)
    for _ in range(10):
        data = random_data(rng, max_abs=4)
        txy = genus_series(data, TXY, 10)
        todd = genus_series(data, TODD, 10)
        assert [substitute(c, 1, 0) for c in txy.coeffs] == [substitute(c, 1, 1) for c in todd.coeffs]


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
    assert substitute(ah_constant(make_l1(1)), 1, 0) == 1


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
    zero = GenusExpansion(-2, 1, (((0, 0), (0,) * 7),))
    assert series_is_constant(zero) == PolyXY.zero()
    # TXY's keys at n = 2, every row zero but the constant's
    rows = (((0, 2), (0, 0, 3, 0, 0)), ((1, 1), (0,) * 5), ((2, 0), (0, 0, -6, 0, 0)))
    assert series_is_constant(GenusExpansion(-2, 4, rows)) == PolyXY({(0, 2): Fraction(3, 4), (2, 0): Fraction(-3, 2)})
    pole = (((0, 2), (1, 0, 3, 0, 0)), ((1, 1), (0,) * 5), ((2, 0), (0,) * 5))
    assert series_is_constant(GenusExpansion(-2, 4, pole)) is None


def test_expansion_reads_reduced_fractions():
    # negative numerators keep the sign on the numerator after reduction
    e = GenusExpansion(-1, 12, (((0, 1), (-6, 4, 0)), ((1, 0), (3, -8, 12))))
    assert e.order == 2
    assert e.coeff(-2) == PolyXY.zero()
    assert e.coeff(-1).terms == {(0, 1): Fraction(-1, 2), (1, 0): Fraction(1, 4)}
    assert e.coeff(0).terms == {(0, 1): Fraction(1, 3), (1, 0): Fraction(-2, 3)}
    assert e.coeff(1).terms == {(1, 0): Fraction(1)}
    assert all(type(c) is Fraction for k in (-1, 0, 1) for c in e.coeff(k).terms.values())
    assert e.coeffs == (e.coeff(-1), e.coeff(0), e.coeff(1))
    with pytest.raises(ValueError, match="beyond the truncation order"):
        e.coeff(2)
    # the printed terms are str(Fraction) of the same values, in key order
    for k in (-1, 0, 1):
        assert e.terms(k) == [(key, str(c)) for key, c in e.coeff(k).sorted_terms()]
    assert e.terms(-1) == [((0, 1), "-1/2"), ((1, 0), "1/4")]
    assert e.terms(1) == [((1, 0), "1")]
    # equality and the hash read the reduced values
    doubled = GenusExpansion(-1, 24, (((0, 1), (-12, 8, 0)), ((1, 0), (6, -16, 24))))
    assert doubled == e and hash(doubled) == hash(e)
    assert doubled != GenusExpansion(-1, 24, (((0, 1), (-12, 8, 0)), ((1, 0), (6, -16, 25))))
    with pytest.raises(ValueError, match="positive"):
        GenusExpansion(-1, -12, e.rows)


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
    assert s16.lowest == s12.lowest
    assert s16.coeffs[: 12 - s12.lowest] == s12.coeffs
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


# -- guards -------------------------------------------------------------------


def test_series_work_guard_admits_n14_refuses_n15():
    # two points with n distinct weights at order n + 1
    for n, admitted in ((14, True), (15, False)):
        weights = tuple(2**i for i in range(n))
        data = FixedPointData(n, (FixedPoint(weights, 1), FixedPoint(tuple(-w for w in weights), 1)))
        estimate = 2 * n * (n + 1) * (3 * n + 7) ** 2
        assert (estimate <= MAX_SERIES_WORK) == admitted
        if admitted:
            assert genus_series(data, TXY, n + 1).lowest == -n
        else:
            with pytest.raises(ValueError, match="exceeds the bound"):
                genus_series(data, TXY, n + 1)


def test_series_guards_see_points_that_pair_off():
    # the guards run on all of the data, before points that cancel are
    # grouped away: Z pairs are refused exactly as at n = 15 and 10^30 above
    weights = tuple(2**i for i in range(15))
    with pytest.raises(ValueError) as refused:
        genus_series(make_z(weights), TXY, 16)
    assert str(refused.value) == (
        "series work estimate 1297920 monomial products exceeds the bound 1048576"
    )
    a = 10**30 + 7
    with pytest.raises(ValueError) as refused:
        genus_series(make_z((a, a + 2)), TXY, 200)
    assert str(refused.value) == (
        "series size estimate 20504 bits per coefficient exceeds the bound 16384"
    )


class Admitted(Exception):
    pass


def test_series_size_guard_admits_1e20_refuses_1e30(monkeypatch):
    # two points at n = 2, order 200, with weights (+-a, a + 2); the size
    # guard runs before the Bernoulli coefficients are computed, so an
    # admitted datum reaches _g_regular and stops there
    def admitted(length):
        raise Admitted

    monkeypatch.setattr(series, "_g_regular", admitted)
    for exponent, ok in ((20, True), (30, False), (300, False)):
        a = 10**exponent + 7
        data = FixedPointData(2, (FixedPoint((a, a + 2), 1), FixedPoint((-a, a + 2), 1)))
        # TXY's assembly weights add 2n = 4 bits
        bits = 201 * a.bit_length() + 2 * (a * (a + 2)).bit_length() + 4
        assert (bits <= MAX_SERIES_BITS) == ok
        with pytest.raises(Admitted if ok else ValueError, match=None if ok else f"{bits} bits"):
            genus_series(data, TXY, 200)


def test_series_size_guard_counts_custom_coefficients():
    # 60 coefficients over distinct 1000-digit denominators, whose lcm
    # alone takes seconds and whose expansion minutes; small ones pass
    data = make_l1(1)
    huge = GenusSeries("huge", [Fraction(1, 10**999 + 2 * k + 1) for k in range(60)])
    with pytest.raises(ValueError, match="series size estimate"):
        genus_series(data, huge, 100)
    small = GenusSeries("small", [Fraction(1, 10**9 + 2 * k + 1) for k in range(60)])
    assert genus_series(data, small, 12).lowest == -1


# -- differential: the package against a reference built from this file ------


def reference_factor(genus, w, length):
    """A weight's factor as Fraction series (A, B) with factor = x*A + y*B:
    t * (x + (x+y) g(w t)) for TXY, and u * F(w u) for a rational genus,
    where F(u) = H(u)/u is Todd's 1/(1 - e^{-u}) from the inverse of
    (1 - e^{-u})/u, or 1/u plus the genus's coefficient list (B unused)."""
    if genus.symbolic:
        g = g_coefficients(w, length)
        return [c + (i == 1) for i, c in enumerate(g)], g
    if genus is TODD:
        base = inverse([-c for c in exp_minus_one_over_t(-1, length)], length)
    else:
        base = [Fraction(1), *genus.regular_coeffs][:length]
        base += [Fraction(0)] * (length - len(base))
    return [c * Fraction(w) ** i / w for i, c in enumerate(base)], None


def reference_series(data, genus, order):
    """The coefficients of t^-n .. t^(order-1) (u for a rational genus) of
    the signed sum over points of the product of their weight factors.
    The product is multiplied out one factor at a time with mul, keeping
    one Fraction series per y-exponent b (only b = 0 for a rational
    genus)."""
    n, length = data.n, order + data.n
    total = {}
    for point in data.points:
        product = {0: [point.sign] + [0] * (length - 1)}
        for w in point.weights:
            a, b = reference_factor(genus, w, length)
            step = {}
            for e, coeffs in product.items():
                for e2, f in ((e, a), (e + 1, b)):
                    if f is not None:
                        term = mul(coeffs, f, length)
                        step[e2] = [p + q for p, q in zip(step.get(e2, [0] * length), term)]
            product = step
        for e, coeffs in product.items():
            total[e] = [p + q for p, q in zip(total.get(e, [0] * length), coeffs)]
    return [
        PolyXY({(n - e, e) if genus.symbolic else (0, 0): coeffs[i] for e, coeffs in total.items()})
        for i in range(length)
    ]


def test_genus_series_matches_reference_product():
    # every n = 1..6 with every m = 1..4; order 24, the costly reference,
    # at one m per n
    rng = random.Random(22)
    custom = GenusSeries(
        "custom", [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]
    )
    for n in range(1, 7):
        for m in range(1, 5):
            data = random_data(rng, n=n, m=m, max_abs=6)
            cases = [(TXY, n + 1), (TXY, 12), (TODD, 12), (custom, 12)]
            if m == n % 4 + 1:
                cases.append((TXY, 24))
            for genus, order in cases:
                got = genus_series(data, genus, order)
                want = reference_series(data, genus, order)
                assert [c.terms for c in got.coeffs] == [c.terms for c in want], (genus.name, order, data)
    # points with equal sorted weights are expanded once per group: data
    # that pairs off completely, S3(1, 2) plus a Z pair, and a point whose
    # group's signs add up to 2
    grouped = [
        make_z((2, 5, -4)),
        FixedPointData(2, tuple(FixedPoint(w, s) for w, s in (((1, -3), 1), ((2, 2), -1), ((-3, 1), -1), ((2, 2), 1)))),
        FixedPointData(3, make_s3(1, 2).points + (FixedPoint((2, 5, -4), 1), FixedPoint((5, -4, 2), -1))),
        FixedPointData(2, tuple(FixedPoint(w, s) for w, s in (((3, -1), 1), ((-1, 3), 1), ((2, 1), -1)))),
    ]
    for data in grouped:
        for genus, order in ((TXY, data.n + 1), (TXY, 12), (TXY, 24), (TODD, 12), (custom, 12)):
            got = genus_series(data, genus, order)
            want = reference_series(data, genus, order)
            assert [c.terms for c in got.coeffs] == [c.terms for c in want], (genus.name, order, data)
