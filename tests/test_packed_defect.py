"""Differential tests of the packed defect against the term-by-term
``LaurentZ`` chain it replaced, on both of its layouts."""

import random

import pytest

from conftest import assert_matches_reference
from txyrigid import genera
from txyrigid.classify import make_l1, make_s3, make_z
from txyrigid.genera import FixedPoint, FixedPointData, _split_slots, rigidity_defect
from txyrigid.search import SearchParams, _enumerate_shard


def assert_kernels_match_reference(data, monkeypatch):
    """Both layouts against the reference: with the cap huge every datum
    gets the one-int defect, with the cap 0 the per-z-exponent dict loop."""
    for cap, sparse in ((1 << 62, False), (0, True)):
        with monkeypatch.context() as patch:
            patch.setattr(genera, "MAX_DENSE_BITS", cap)
            assert_matches_reference(data)
            assert (rigidity_defect(data).degree is None) == sparse


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
def test_packed_matches_reference_on_near_misses(n, monkeypatch):
    rng = random.Random(900 + n)
    for _ in range(40):
        assert_kernels_match_reference(paired(rng, n, 8), monkeypatch)


def test_packed_matches_reference_on_three_points(monkeypatch):
    rng = random.Random(907)
    for _ in range(60):
        assert_kernels_match_reference(three(rng, rng.randint(1, 4), 6), monkeypatch)


@pytest.mark.parametrize("n", range(8, 13))
def test_packed_matches_reference_on_distinct_weights(n, monkeypatch):
    rng = random.Random(908 + n)
    for _ in range(2):
        assert_kernels_match_reference(paired(rng, n, 30, distinct=True), monkeypatch)


def test_packed_matches_reference_on_desk_join_keys(monkeypatch):
    # every key the desk search checks, n = 1..4, |w| <= 5
    for n in range(1, 5):
        for key in _enumerate_shard(SearchParams(n, 2, 5), True):
            assert_kernels_match_reference(FixedPointData._from_canonical(n, key), monkeypatch)


def test_packed_matches_reference_on_families(monkeypatch):
    for data in (make_l1(3), make_s3(2, 5), make_z((1, -4, 2)), make_s3(40, 7)):
        assert_kernels_match_reference(data, monkeypatch)
        assert rigidity_defect(data).is_zero()
    # the one-int defect of L1 at 10^9 + 7 would have 1.6 * 10^10 bits
    for data in (make_l1(10**9 + 7), make_s3(10**6, 3 * 10**6 + 1)):
        assert_matches_reference(data)
        defect = rigidity_defect(data)
        assert defect.degree is None and defect.is_zero()


def test_layout_switches_at_the_dense_cap():
    # points (a) and (a - 1): n = 1, a shared multiset of F = 2 weights
    # summing to 2a - 1, and B = 6 rounded up to 8, so the one-int defect
    # has 2a slots of (n + 1) * 8 bits, 32a bits in all
    a = genera.MAX_DENSE_BITS // 32
    for weight, dense in ((a, True), (a + 1, False)):
        data = FixedPointData(1, (FixedPoint((weight,), 1), FixedPoint((weight - 1,), 1)))
        defect = rigidity_defect(data)
        assert (defect.degree is not None) == dense
        assert_matches_reference(data)
        # (1 + x) z^a + (1 + x) z^(a - 1) - 2 (1 + x)
        assert sorted(defect.terms) == [0, weight - 1, weight]


# -- the coefficient bound that sets the packing width -------------------------


def test_packed_digits_near_the_coefficient_bound(monkeypatch):
    # m equal points with equal signs and equal weights: the defect is m
    # times one point's, whose x-coefficients are the largest binomial
    # coefficients C(n, k); these reach 2^(B - 4) for B = F +
    # bit_length(m + 1) + 2 before it is rounded up to whole bytes, and at
    # n = 5, m = 14 they pass a digit one byte narrower than the rounded B
    for n, m in ((2, 2), (2, 6), (3, 6), (4, 14), (5, 14)):
        data = FixedPointData(n, (FixedPoint((1,) * n, 1),) * m)
        assert_kernels_match_reference(data, monkeypatch)


def test_split_slots_round_trip():
    # balanced digits at the range edges, zero slots between and at the
    # bottom, and a negative top digit
    rng = random.Random(6)
    for bits in (8, 16, 24):
        half = 1 << bits - 1
        for digits in (1, 2, 5):
            for _ in range(40):
                slots = {}
                for k in range(rng.randint(1, 9)):
                    if rng.random() < 0.4:
                        continue
                    slot = [rng.choice((-half, half - 1, 0, rng.randrange(-half, half)))
                            for _ in range(digits)]
                    slots[k] = sum(d << (bits * i) for i, d in enumerate(slot))
                slots = {k: v for k, v in slots.items() if v}
                value = sum(v << (bits * digits * k) for k, v in slots.items())
                assert _split_slots(value, bits, digits) == slots
