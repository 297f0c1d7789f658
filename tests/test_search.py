import random

import pytest

from conftest import random_data, raw_stream
from txyrigid.classify import make_l1, make_s3, make_z
from txyrigid.genera import FixedPoint, FixedPointData, is_rigid
from txyrigid.search import (
    MAX_SEARCH_CANDIDATES,
    PruneCounts,
    SearchParams,
    _enumerate_shard,
    canonical_key,
    enumerate_data,
    prune,
    search_rigid,
)


def permuted_negated_copy(rng, data):
    points = [
        FixedPoint(tuple(-w for w in p.weights), p.sign) for p in data.points
    ]
    rng.shuffle(points)
    shuffled = []
    for p in points:
        ws = list(p.weights)
        rng.shuffle(ws)
        shuffled.append(FixedPoint(tuple(ws), p.sign))
    return FixedPointData(data.n, tuple(shuffled))


# -- canonical form ------------------------------------------------------------


def test_canonical_key_invariance():
    rng = random.Random(21)
    for _ in range(50):
        data = random_data(rng, max_abs=4)
        other = permuted_negated_copy(rng, data)
        assert canonical_key(data) == canonical_key(other)


# -- enumeration ----------------------------------------------------------------


def test_enumerate_tiny_range_against_brute_force():
    params = SearchParams(n=1, m=2, max_abs_weight=1)
    enumerated = list(enumerate_data(params))
    assert len(enumerated) == 6  # derived by quotienting the 10 raw pairs by negation
    keys = {canonical_key(d) for d in enumerated}
    assert len(keys) == 6
    brute = {canonical_key(d) for d in raw_stream(1, 2, 1)}
    assert keys == brute
    assert canonical_key(make_z((1,))) in keys
    assert canonical_key(make_l1(1)) in keys


def test_enumerate_matches_brute_force_quotient():
    for params in (
        SearchParams(n=1, m=1, max_abs_weight=2),
        SearchParams(n=2, m=2, max_abs_weight=1),
        SearchParams(n=1, m=2, max_abs_weight=2),
        SearchParams(n=2, m=2, max_abs_weight=2, sign_patterns=((1, 1), (1, -1))),
        # one sign multiset written twice
        SearchParams(n=2, m=2, max_abs_weight=2, sign_patterns=((1, -1), (-1, 1))),
        SearchParams(n=2, m=2, max_abs_weight=2, require_effective=True),
        SearchParams(n=1, m=3, max_abs_weight=2),
        SearchParams(
            n=2, m=3, max_abs_weight=1, sign_patterns=((1, 1, -1),), require_effective=True
        ),
    ):
        enumerated = [canonical_key(d) for d in enumerate_data(params)]
        assert len(enumerated) == len(set(enumerated))  # no duplicates
        raw = raw_stream(
            params.n, params.m, params.max_abs_weight,
            params.sign_patterns, params.require_effective,
        )
        assert set(enumerated) == {canonical_key(d) for d in raw}


SIGN_SETS = (None, ((1, 1),), ((1, -1),), ((1, -1), (-1, 1)), ((-1, -1), (1, -1)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("bound", [1, 2, 3])
def test_two_point_candidate_count_matches_enumeration(n, bound):
    for signs in SIGN_SETS:
        for effective in (False, True):
            params = SearchParams(n, 2, bound, signs, effective)
            classes = len(list(enumerate_data(params)))
            assert search_rigid(params).summary.candidates == classes


@pytest.mark.parametrize(
    "params",
    [
        SearchParams(n=1, m=1, max_abs_weight=3),
        SearchParams(n=2, m=1, max_abs_weight=2, require_effective=True),
        SearchParams(n=1, m=3, max_abs_weight=2),
        SearchParams(n=2, m=3, max_abs_weight=2, sign_patterns=((1, 1, -1), (-1, -1, -1))),
    ],
)
def test_candidate_count_matches_enumeration_off_two_points(params):
    outcome = search_rigid(params)
    assert outcome.summary.candidates == len(list(enumerate_data(params)))
    assert outcome.summary.pruned_by.pairing == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_paired_walk_is_the_keys_that_pass_pairing(n):
    for signs in SIGN_SETS:
        for effective in (False, True):
            params = SearchParams(n, 2, 3, signs, effective)
            passing = [
                key
                for key in _enumerate_shard(params, 0, 1)
                if sorted(map(abs, key[0][1])) == sorted(map(abs, key[1][1]))
            ]
            assert list(_enumerate_shard(params, 0, 1, True)) == passing


def test_enumerate_single_point_classes():
    params = SearchParams(n=1, m=1, max_abs_weight=1)
    assert len(list(enumerate_data(params))) == 2


def test_enumerate_empty_for_zero_bound():
    assert list(enumerate_data(SearchParams(n=1, m=2, max_abs_weight=0))) == []


def test_enumerate_effective_only():
    params = SearchParams(n=1, m=2, max_abs_weight=4, require_effective=True)
    for data in enumerate_data(params):
        from txyrigid.genera import weight_gcd

        assert weight_gcd(data) == 1


def test_enumerate_fixed_sign_patterns():
    params = SearchParams(
        n=1, m=2, max_abs_weight=2, sign_patterns=((1, 1),)
    )
    data = list(enumerate_data(params))
    assert data
    for d in data:
        # canonicalization never touches signs, so the pattern survives
        assert all(p.sign == 1 for p in d.points)
    # patterns quotient to canonical representatives without duplicates
    keys = [canonical_key(d) for d in data]
    assert len(keys) == len(set(keys))


def test_search_params_validation():
    with pytest.raises(ValueError):
        SearchParams(n=0, m=1, max_abs_weight=1)
    with pytest.raises(ValueError):
        SearchParams(n=1, m=1, max_abs_weight=-1)
    with pytest.raises(ValueError):
        SearchParams(n=1, m=2, max_abs_weight=1, sign_patterns=((1,),))
    # n = 8, W = 12 has about 1.2e14 raw candidates; n = W = 10^6 must be
    # refused without computing its full binomial counts
    for n, w in ((8, 12), (10**6, 10**6)):
        with pytest.raises(ValueError, match=str(MAX_SEARCH_CANDIDATES)):
            SearchParams(n=n, m=2, max_abs_weight=w)


# -- pruning ---------------------------------------------------------------------


def test_prune_examples():
    bad_pairing = FixedPointData(2, (FixedPoint((1, 2), 1), FixedPoint((-1, -3), 1)))
    assert not prune(bad_pairing)
    single = FixedPointData(1, (FixedPoint((1,), 1),))
    assert not prune(single)
    assert prune(make_s3(1, 1))
    assert prune(make_l1(5))
    assert prune(make_z((2, -3)))


def test_prune_soundness_small_range():
    # exact-check everything the pruning ladder rejects
    for n in (1, 2):
        for data in enumerate_data(SearchParams(n=n, m=2, max_abs_weight=3)):
            if not prune(data):
                assert not is_rigid(data).rigid


# -- search ----------------------------------------------------------------------


def test_search_n1_finds_z_and_l1_only():
    outcome = search_rigid(SearchParams(n=1, m=2, max_abs_weight=4))
    kinds = {r.family.kind for r in outcome.results}
    assert kinds == {"Z", "L1"}
    l1_params = sorted({r.family.params[0] for r in outcome.results if r.family.kind == "L1"})
    assert l1_params == [1, 2, 3, 4]


def test_search_n2_finds_z_only():
    outcome = search_rigid(SearchParams(n=2, m=2, max_abs_weight=3))
    assert {r.family.kind for r in outcome.results} == {"Z"}


def test_search_n3_effective_finds_s3():
    outcome = search_rigid(
        SearchParams(n=3, m=2, max_abs_weight=5, require_effective=True)
    )
    s3 = sorted(
        {r.family.params for r in outcome.results if r.family.kind == "S3"}
    )
    assert s3 == [(1, 1), (1, 2), (1, 3), (1, 4), (2, 3)]
    assert {r.family.kind for r in outcome.results} == {"Z", "S3"}


def test_search_completeness_against_unpruned_brute_force():
    # tiny ranges: every rigid canonical class must be found
    for n in (1, 2):
        params = SearchParams(n=n, m=2, max_abs_weight=3)
        found = {canonical_key(r.data) for r in search_rigid(params).results}
        expected = {
            canonical_key(d) for d in raw_stream(n, 2, 3) if is_rigid(d).rigid
        }
        assert found == expected


def test_search_single_point_has_no_rigid_data():
    outcome = search_rigid(SearchParams(n=1, m=1, max_abs_weight=3))
    assert outcome.results == ()
    assert outcome.summary.checked == 0  # everything pruned by limit symmetry


def test_search_deterministic():
    params = SearchParams(n=2, m=2, max_abs_weight=2)
    first = search_rigid(params)
    second = search_rigid(params)
    assert first == second


def test_search_jobs_match_sequential():
    for params in (
        SearchParams(n=2, m=2, max_abs_weight=3),
        SearchParams(n=2, m=2, max_abs_weight=3, sign_patterns=((1, 1), (1, -1))),
        SearchParams(n=3, m=2, max_abs_weight=3, require_effective=True),
        SearchParams(
            n=3, m=2, max_abs_weight=3, sign_patterns=((1, -1),), require_effective=True
        ),
        SearchParams(n=2, m=3, max_abs_weight=2, sign_patterns=((1, 1, -1),)),
    ):
        sequential = search_rigid(params, jobs=1)
        parallel = search_rigid(params, jobs=3)
        assert sequential == parallel


def test_search_counts_are_consistent():
    params = SearchParams(n=2, m=2, max_abs_weight=2)
    outcome = search_rigid(params)
    s = outcome.summary
    assert s.candidates == s.pruned + s.checked
    assert s.rigid == len(outcome.results)
    assert s.candidates == len(list(enumerate_data(params)))
    assert sum(s.pruned_by) == s.pruned


def test_prune_counts_per_rung():
    # every rung fires at desk n = 4
    s = search_rigid(SearchParams(n=4, m=2, max_abs_weight=5)).summary
    assert (s.candidates, s.pruned, s.checked, s.rigid) == (512165, 511195, 970, 365)
    assert s.pruned_by == PruneCounts(
        pairing=503620, limit_symmetry=6135, principal_part=1440
    )
    # the walk reaches only the 8,545 keys that pass pairing
    assert s.candidates - s.pruned_by.pairing == 8545


def test_prune_counts_match_the_public_rule():
    params = SearchParams(n=2, m=2, max_abs_weight=3)
    s = search_rigid(params).summary
    kept = sum(prune(data) for data in enumerate_data(params))
    assert (s.checked, s.pruned) == (kept, s.candidates - kept)
    unpaired = sum(
        sorted(map(abs, d.points[0].weights)) != sorted(map(abs, d.points[1].weights))
        for d in enumerate_data(params)
    )
    assert s.pruned_by.pairing == unpaired


def test_search_three_points_reports_unclassified():
    # exploration beyond two fixed points: results carry no family tag
    outcome = search_rigid(SearchParams(n=2, m=3, max_abs_weight=2))
    assert outcome.results
    assert all(r.family is None for r in outcome.results)
    # the classic three-point configuration with weights (1,2), (-1,1),
    # (-2,-1) is rigid; its constant is x^2 - x*y + y^2 by the signed
    # monomial sum (hand computation: x^2, -x*y, y^2)
    from txyrigid.algebra import PolyXY

    x, y = PolyXY.x(), PolyXY.y()
    data = FixedPointData(
        2,
        (
            FixedPoint((1, 2), 1),
            FixedPoint((-1, 1), 1),
            FixedPoint((-2, -1), 1),
        ),
    )
    report = is_rigid(data)
    assert report.rigid
    assert report.constant == x * x - x * y + y * y
    assert canonical_key(data) in {canonical_key(r.data) for r in outcome.results}


# -- reach: the classification beyond the desk range ---------------------------


@pytest.mark.reach
@pytest.mark.parametrize(
    "params, counts",
    [
        # candidates agree with a full walk of enumerate_data
        (SearchParams(n=5, m=2, max_abs_weight=5), (4010006, 8503, 1001)),
        (SearchParams(n=6, m=2, max_abs_weight=3), (214006, 749, 236)),
    ],
)
def test_reach_two_point_search_finds_z_only(params, counts):
    # the paper: rigid two-point data lie in Z, L1 or S3; L1 has n = 1 and
    # S3 has n = 3, so here every rigid datum must be Z, none unclassified
    outcome = search_rigid(params)
    s = outcome.summary
    assert (s.candidates, s.checked, s.rigid) == counts
    assert {r.family.kind for r in outcome.results} == {"Z"}
