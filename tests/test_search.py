import random

import pytest

from conftest import random_data, raw_stream
from txyrigid.classify import make_l1, make_s3, make_z
from txyrigid.genera import FixedPoint, FixedPointData, is_rigid
from txyrigid.search import (
    MAX_SEARCH_CANDIDATES,
    SearchParams,
    canonical_form,
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


def test_canonical_form_preserves_rigidity():
    rng = random.Random(22)
    for _ in range(25):
        data = random_data(rng, max_abs=4)
        base, canon = is_rigid(data), is_rigid(canonical_form(data))
        assert base.rigid == canon.rigid


def test_canonical_form_idempotent():
    rng = random.Random(23)
    for _ in range(25):
        data = random_data(rng, max_abs=4)
        canon = canonical_form(data)
        assert canonical_form(canon) == canon


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
