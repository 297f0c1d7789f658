"""Differential tests of the packed defect against the term-by-term
``LaurentZ`` chain it replaced."""

import random

import pytest

from conftest import assert_matches_reference
from txyrigid.algebra import _balanced_digits
from txyrigid.classify import make_l1, make_s3, make_z
from txyrigid.genera import FixedPoint, FixedPointData, rigidity_defect


# -- seeded sweep over the shapes of the benchmark's check catalogue ----------


def signed(rng, magnitudes):
    return tuple(a * rng.choice((1, -1)) for a in magnitudes)


def paired(rng, n, max_abs, distinct=False):
    """Two points with the same weight magnitudes and random signs: mostly
    near misses that only the exact check rejects."""
    if distinct:
        magnitudes = rng.sample(range(1, max_abs + 1), n)
    else:
        magnitudes = [rng.randint(1, max_abs) for _ in range(n)]
    other = magnitudes[:]
    rng.shuffle(other)
    return FixedPointData(n, (
        FixedPoint(signed(rng, magnitudes), rng.choice((1, -1))),
        FixedPoint(signed(rng, other), rng.choice((1, -1))),
    ))


def three(rng, n, max_abs):
    return FixedPointData(n, tuple(
        FixedPoint(signed(rng, [rng.randint(1, max_abs) for _ in range(n)]), rng.choice((1, -1)))
        for _ in range(3)
    ))


@pytest.mark.parametrize("n", range(2, 7))
def test_packed_matches_reference_on_near_misses(n):
    rng = random.Random(900 + n)
    for _ in range(40):
        assert_matches_reference(paired(rng, n, 8))


def test_packed_matches_reference_on_three_points():
    rng = random.Random(907)
    for _ in range(60):
        assert_matches_reference(three(rng, rng.randint(1, 4), 6))


@pytest.mark.parametrize("n", range(8, 13))
def test_packed_matches_reference_on_distinct_weights(n):
    rng = random.Random(908 + n)
    for _ in range(2):
        assert_matches_reference(paired(rng, n, 30, distinct=True))


def test_packed_matches_reference_on_families():
    for data in (make_l1(3), make_s3(2, 5), make_z((1, -4, 2)), make_l1(10**9 + 7)):
        assert_matches_reference(data)
        assert rigidity_defect(data).is_zero()


# -- the coefficient bound that sets the packing width -------------------------


def test_packed_digits_near_the_coefficient_bound():
    # m equal points with equal signs and equal weights: the defect is m
    # times one point's, whose x-coefficients are the largest binomial
    # coefficients C(n, k); these reach 2^(B - 4) for the packing width B
    for n, m in ((2, 2), (2, 6), (3, 6), (4, 14), (5, 14)):
        data = FixedPointData(n, (FixedPoint((1,) * n, 1),) * m)
        assert_matches_reference(data)


def test_balanced_digits_round_trip():
    rng = random.Random(5)
    for bits in (3, 8, 40):
        for _ in range(50):
            digits = {i: rng.randrange(-(1 << bits - 1), 1 << bits - 1) for i in range(6)}
            value = sum(d << (bits * i) for i, d in digits.items())
            assert _balanced_digits(value, bits) == {i: d for i, d in digits.items() if d}
