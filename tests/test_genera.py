import json
import os
import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from math import prod
from operator import or_

import pytest

from conftest import is_homogeneous, random_data, substitute, swap_xy
from txyrigid import genera
from txyrigid.algebra import LaurentZ, PolyXY
from txyrigid.classify import make_l1, make_s3, make_z
from txyrigid.cli import document_data
from txyrigid.genera import (
    MAX_DEFECT_WORK,
    FixedPoint,
    FixedPointData,
    ah_constant,
    is_rigid,
    limit_symmetry,
    rigidity_defect,
    weight_gcd,
)
from txyrigid.search import SearchParams, _enumerate_shard

X = PolyXY({(1, 0): 1})
Y = PolyXY({(0, 1): 1})
ONE = PolyXY({(0, 0): 1})


def fraction_value(data: FixedPointData, z0: Fraction, x0: Fraction, y0: Fraction) -> Fraction:
    """Independent oracle: evaluate the fixed-point sum numerically,
    factor by factor, with exact rationals."""
    total = Fraction(0)
    for p in data.points:
        term = Fraction(p.sign)
        for w in p.weights:
            term *= (x0 * z0**w + y0) / (z0**w - 1)
        total += term
    return total


def cleared_value(data: FixedPointData, z0: Fraction, x0: Fraction) -> Fraction:
    """The oracle for the defect at y = 1: (sum - AH) times the product of
    (z^a - 1) over the least common multiset of the points' magnitudes."""
    shared = reduce(or_, (Counter(abs(w) for w in p.weights) for p in data.points))
    den = prod(z0**a - 1 for a in shared.elements())
    ah = substitute(ah_constant(data), x0, 1)
    return (fraction_value(data, z0, x0, Fraction(1)) - ah) * den


def evaluate(defect, z0, x0) -> Fraction:
    z0, x0 = Fraction(z0), Fraction(x0)
    return sum(
        (z0**k * sum(c * x0**i for i, c in coeff.items()) for k, coeff in defect.terms.items()),
        Fraction(0),
    )


# -- one fixed point: its term (x z^w + y)/(z^w - 1) seen through the defect --


def test_point_term_single_positive_weight():
    # (x z^4 + 1) - x (z^4 - 1) = 1 + x
    defect = rigidity_defect(FixedPointData(1, (FixedPoint((4,), 1),)))
    assert defect.terms == LaurentZ({0: {0: 1, 1: 1}}).terms


def test_point_term_single_negative_weight():
    # -(x + z^4) - (-1)(z^4 - 1) = -1 - x
    defect = rigidity_defect(FixedPointData(1, (FixedPoint((-4,), 1),)))
    assert defect.terms == LaurentZ({0: {0: -1, 1: -1}}).terms


def test_point_term_mixed_weights_negative_sign():
    # (1, -1; -1): the two sign flips cancel, leaving (xz + 1)(x + z) over
    # (z-1)^2; the constant is -x*(-y) = x y
    data = FixedPointData(2, (FixedPoint((1, -1), -1),))
    numerator = LaurentZ({1: {1: 1}, 0: 1}) * LaurentZ({0: {1: 1}, 1: 1})
    denominator = LaurentZ({1: 1, 0: -1}) * LaurentZ({1: 1, 0: -1})
    assert rigidity_defect(data).terms == (numerator - LaurentZ({0: {1: 1}}) * denominator).terms
    # numeric oracle at z=2, x=3
    assert evaluate(rigidity_defect(data), 2, 3) == cleared_value(data, Fraction(2), Fraction(3))


def test_point_term_matches_numeric_oracle_randomized():
    rng = random.Random(11)
    for _ in range(25):
        data = random_data(rng, m=1, max_abs=4, n_max=3)
        defect = rigidity_defect(data)
        for z0 in (Fraction(2), Fraction(3, 2), Fraction(-2)):
            assert evaluate(defect, z0, Fraction(3, 5)) == cleared_value(data, z0, Fraction(3, 5))


# -- the fixed-point sum over all points ---------------------------------------


def test_rigidity_sum_l1_is_constant_fraction():
    for a in (1, 3, 7):
        report = is_rigid(make_l1(a))
        assert report.defect.is_zero()
        assert report.constant == X - Y


def test_rigidity_sum_z_family_vanishes():
    data = make_z((1, -2, 3))
    assert rigidity_defect(data).is_zero()
    assert ah_constant(data).is_zero()


def test_rigidity_sum_single_point_not_constant():
    assert not rigidity_defect(FixedPointData(1, (FixedPoint((1,), 1),))).is_zero()


def test_defect_matches_numeric_oracle_randomized():
    # several points over the least common multiset of their denominators
    rng = random.Random(16)
    for _ in range(40):
        data = random_data(rng, max_abs=4, n_max=3)
        defect = rigidity_defect(data)
        for z0 in (Fraction(2), Fraction(-3, 2)):
            for x0 in (Fraction(3), Fraction(-2, 7)):
                assert evaluate(defect, z0, x0) == cleared_value(data, z0, x0)


def test_defect_keeps_unpaired_denominators():
    # (1) and (2) share no factor: the defect is cleared over (z-1)(z^2-1),
    # so it has the z-support of that least common multiset
    data = FixedPointData(1, (FixedPoint((1,), 1), FixedPoint((2,), 1)))
    defect = rigidity_defect(data)
    expected = (
        LaurentZ({1: {1: 1}, 0: 1}) * LaurentZ({2: 1, 0: -1})
        + LaurentZ({2: {1: 1}, 0: 1}) * LaurentZ({1: 1, 0: -1})
        - LaurentZ({0: {1: 2}}) * LaurentZ({1: 1, 0: -1}) * LaurentZ({2: 1, 0: -1})
    )
    assert defect.terms == expected.terms
    assert defect.term_count() == 3


# -- ah_constant -------------------------------------------------------------


def test_ah_constant_families():
    assert ah_constant(make_l1(5)) == X - Y
    assert ah_constant(make_s3(1, 1)) == X * Y * Y - X * X * Y
    assert ah_constant(make_z((2, -7))) == PolyXY.zero()


def test_ah_constant_counts():
    data = FixedPointData(3, (FixedPoint((1, -2, -3), -1),))
    # one point with s+ = 1, s- = 2: -x(-y)^2 = -x y^2
    assert ah_constant(data) == -X * Y * Y


# -- rigidity_defect / is_rigid ----------------------------------------------


def test_defect_zero_for_families():
    assert rigidity_defect(make_s3(1, 1)).is_zero()
    assert rigidity_defect(make_z((1, 1))).is_zero()


def test_defect_nonzero_with_numeric_oracle():
    data = FixedPointData(2, (FixedPoint((1, 2), 1), FixedPoint((-1, -2), 1)))
    defect = rigidity_defect(data)
    assert not defect.is_zero()
    # the fixed-point sum at z=2, x=3, y=1 differs from the constant
    assert fraction_value(data, Fraction(2), Fraction(3), Fraction(1)) != substitute(ah_constant(data), 3, 1)
    assert evaluate(defect, 2, 3) == cleared_value(data, Fraction(2), Fraction(3))


def test_is_rigid_examples():
    report = is_rigid(make_l1(3))
    assert report.rigid and report.constant == X - Y
    report = is_rigid(make_s3(2, 5))
    assert report.rigid and report.constant == X * Y * Y - X * X * Y
    report = is_rigid(FixedPointData(2, (FixedPoint((1, 2), 1), FixedPoint((-1, -2), 1))))
    assert not report.rigid and report.constant is None


def test_report_consistency():
    rng = random.Random(12)
    for _ in range(40):
        report = is_rigid(random_data(rng, max_abs=4))
        assert report.rigid == report.defect.is_zero()
        assert (report.constant is not None) == report.rigid
        if report.rigid:
            assert report.constant == report.ah_constant


def test_one_fixed_point_is_never_rigid():
    # limit symmetry alone only fails when s+ != s-; balanced single points
    # (possible for even n) are still never rigid via the exact check
    rng = random.Random(19)
    for _ in range(30):
        data = random_data(rng, m=1, max_abs=5)
        assert not is_rigid(data).rigid
        point = data.points[0]
        if point.s_plus != point.s_minus:
            assert not limit_symmetry(data)


# -- limit_symmetry ----------------------------------------------------------


def test_limit_symmetry_families():
    assert limit_symmetry(make_l1(2))
    assert limit_symmetry(make_s3(1, 2))
    assert limit_symmetry(make_z((4, -1)))


def test_limit_symmetry_single_point_fails():
    assert not limit_symmetry(FixedPointData(1, (FixedPoint((1,), 1),)))


def test_limit_symmetry_equivalent_formulation():
    # symmetric limits are the same as ah(x, y) == (-1)^n ah(y, x)
    rng = random.Random(13)
    for _ in range(60):
        data = random_data(rng, max_abs=4)
        ah = ah_constant(data)
        swapped = swap_xy(ah) * Fraction((-1) ** data.n)
        assert limit_symmetry(data) == (ah == swapped)


# -- the y = 0 specialization: the x^n part of the y = 1 defect ----------------


def y_zero_part(defect, n: int) -> dict:
    return {k: c[n] for k, c in defect.terms.items() if n in c}


def test_specialize_s3_balance_at_y_zero():
    # equal weight-group sums make the y=0 part collapse entirely
    assert y_zero_part(rigidity_defect(make_s3(1, 1)), 3) == {}


def test_specialize_unbalanced_at_y_zero():
    data = FixedPointData(2, (FixedPoint((3, -2), 1), FixedPoint((-3, 2), 1)))
    assert y_zero_part(rigidity_defect(data), 2) != {}


def test_defect_is_dehomogenized_degree_n():
    # every z-coefficient comes from a form of degree n in x and y
    rng = random.Random(14)
    for _ in range(20):
        data = random_data(rng, max_abs=3)
        for coeff in rigidity_defect(data).terms.values():
            assert all(0 <= i <= data.n for i in coeff)
            assert all(type(c) is int for c in coeff.values())


# -- work guard ------------------------------------------------------------------


def test_work_guard_rejects_many_distinct_weights():
    weights = tuple(2**i for i in range(30))
    data = FixedPointData(30, (FixedPoint(weights, 1), FixedPoint(tuple(-w for w in weights), 1)))
    with pytest.raises(ValueError, match=str(MAX_DEFECT_WORK)):
        rigidity_defect(data)


def test_work_guard_edge_on_power_of_two_weights():
    # two negated points with n distinct power-of-two weights: admitted at
    # n = 16, in the per-z-exponent layout, and refused from n = 17, with
    # estimate (m + 1) F min(2^F, D + 1) (n + 1) = 3 * 17 * 2^17 * 18
    def negated(n):
        weights = tuple(2**i for i in range(n))
        return FixedPointData(n, (FixedPoint(weights, 1), FixedPoint(tuple(-w for w in weights), 1)))

    defect = rigidity_defect(negated(16))
    assert defect.degree is None and not defect.is_zero()
    with pytest.raises(ValueError, match=f"estimate 120324096 .* the bound {MAX_DEFECT_WORK}$"):
        rigidity_defect(negated(17))


def test_work_guard_admits_large_weights():
    for a in (10**6, 10**9 + 7):
        assert is_rigid(make_l1(a)).rigid
        assert is_rigid(make_s3(a, 3 * a + 1)).rigid


# -- Z sub-pair cancellation -------------------------------------------------


PINNED_CHECK = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench", "expected", "check.json",
)


def desk_join_data():
    """Every key the desk search (m = 2, |w| <= 5, n = 1..4) checks."""
    return [
        FixedPointData._from_canonical(n, key)
        for n in range(1, 5)
        for key in _enumerate_shard(SearchParams(n, 2, 5), True)
    ]


def check_catalogue_data():
    """Every document of the benchmark's pinned verify catalogue."""
    with open(PINNED_CHECK, encoding="utf-8") as handle:
        catalogue = json.load(handle)
    return [document_data(entry["doc"]) for entries in catalogue.values() for entry in entries]


@pytest.mark.parametrize("source, count", [(desk_join_data, 532), (check_catalogue_data, 1830)])
def test_is_rigid_agrees_with_rigidity_defect(source, count):
    # on the desk join keys and the check documents: the same verdict, and
    # the same term count for data that is not rigid
    datas = source()
    assert len(datas) == count
    for data in datas:
        report, defect = is_rigid(data), rigidity_defect(data)
        assert report.rigid == defect.is_zero()
        if not report.rigid:
            assert report.defect.term_count() == defect.term_count()


def n2_data(*pairs):
    return FixedPointData(2, tuple(FixedPoint(weights, sign) for weights, sign in pairs))


@pytest.mark.parametrize(
    "data, calls, rigid",
    [
        # the full expansion of the 17-weight Z pair is past the work guard
        (make_z([2**i for i in range(17)]), 0, True),
        (n2_data(((1, 2), 1), ((3, -1), 1), ((2, 1), -1), ((-1, 3), -1)), 0, True),
        # (1, 2)+ and (2, 1)- pair off, (1, 3)+ is left
        (n2_data(((1, 2), 1), ((2, 1), -1), ((1, 3), 1)), 1, False),
        # L1(1) x (3) - L1(2) x (3): AH constant 0, yet no two points pair off
        (n2_data(((1, 3), -1), ((-1, 3), -1), ((2, 3), 1), ((-2, 3), 1)), 1, True),
    ],
    ids=["z-17-weights", "two-z-pairs", "partly-cancelling", "l1-difference"],
)
def test_only_complete_pairing_skips_the_expansion(monkeypatch, data, calls, rigid):
    made = []

    def counted(*args):
        made.append(args)
        return rigidity_defect(*args)

    monkeypatch.setattr(genera, "rigidity_defect", counted)
    report = is_rigid(data)
    assert len(made) == calls and report.rigid is rigid
    if not calls:
        assert report.constant == PolyXY.zero() and report.defect.term_count() == 0


# -- symmetry invariants -----------------------------------------------------


def permuted_copy(rng, data):
    points = list(data.points)
    rng.shuffle(points)
    shuffled = []
    for p in points:
        ws = list(p.weights)
        rng.shuffle(ws)
        shuffled.append(FixedPoint(tuple(ws), p.sign))
    return FixedPointData(data.n, tuple(shuffled))


def negated_copy(data):
    return FixedPointData(
        data.n,
        tuple(FixedPoint(tuple(-w for w in p.weights), p.sign) for p in data.points),
    )


def scaled_copy(data, t):
    return FixedPointData(
        data.n,
        tuple(FixedPoint(tuple(t * w for w in p.weights), p.sign) for p in data.points),
    )


def swapped_monomial_sum(data):
    total = PolyXY.zero()
    for p in data.points:
        coeff = Fraction(p.sign if p.s_plus % 2 == 0 else -p.sign)
        total = total + PolyXY({(p.s_minus, p.s_plus): coeff})
    return total


def test_symmetry_invariants_randomized():
    rng = random.Random(15)
    for _ in range(30):
        data = random_data(rng, max_abs=4)
        base = is_rigid(data)
        perm = is_rigid(permuted_copy(rng, data))
        assert perm.rigid == base.rigid and perm.ah_constant == base.ah_constant
        neg = is_rigid(negated_copy(data))
        assert neg.rigid == base.rigid
        assert neg.ah_constant == swapped_monomial_sum(data)
        for t in (2, 3):
            scaled = is_rigid(scaled_copy(data, t))
            assert scaled.rigid == base.rigid
            assert scaled.ah_constant == base.ah_constant
        assert is_homogeneous(base.ah_constant, data.n)


def test_rigid_families_round_trip_through_constant_extraction():
    for data in (make_l1(4), make_s3(2, 3), make_z((1, -5, 2))):
        assert is_rigid(data).constant == ah_constant(data)


def test_weight_gcd():
    assert weight_gcd(make_l1(6)) == 6
    assert weight_gcd(make_s3(2, 4)) == 2
    assert weight_gcd(make_z((3, -5))) == 1


# -- validation ---------------------------------------------------------------


def test_fixed_point_validation():
    with pytest.raises(ValueError):
        FixedPoint((0,), 1)
    with pytest.raises(ValueError):
        FixedPoint((1,), 2)
    with pytest.raises(ValueError):
        FixedPoint((), 1)


@pytest.mark.parametrize("weights, sign", [
    ((2.7, -1), 1),
    ((Fraction(5, 2),), 1),
    (("3",), 1),
    ((1,), 1.0),
    ((1,), "1"),
])
def test_fixed_point_rejects_non_integers(weights, sign):
    with pytest.raises(ValueError, match="must be integers"):
        FixedPoint(weights, sign)


class Index:
    """An integer-like that is not an int, as numpy's integers are."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_fixed_point_stores_integer_likes_as_ints():
    point = FixedPoint((Index(4), 2), Index(-1))
    assert point.weights == (4, 2) and point.sign == -1
    assert all(type(v) is int for v in (*point.weights, point.sign))
    data = FixedPointData(Index(2), (point,))
    assert data.n == 2 and type(data.n) is int


def test_fixed_point_data_validation():
    with pytest.raises(ValueError):
        FixedPointData(2, (FixedPoint((1,), 1),))
    with pytest.raises(ValueError):
        FixedPointData(0, (FixedPoint((1,), 1),))
    with pytest.raises(ValueError):
        FixedPointData(1, ())
    with pytest.raises(ValueError, match="must be an integer"):
        FixedPointData(1.0, (FixedPoint((1,), 1),))
