import random
import time
from itertools import combinations_with_replacement

import pytest

from conftest import paired_keys, random_data, raw_stream, residue_sum
from txyrigid.classify import make_l1, make_s3, make_z
from txyrigid.genera import FixedPoint, FixedPointData, is_rigid
from txyrigid.search import (
    MAX_SEARCH_WORK,
    MODULUS,
    ORDER_OF_3,
    SearchParams,
    SearchSummary,
    _count_classes,
    _enumerate_shard,
    _negate_point,
    _residues,
    _table,
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


# -- the point table ------------------------------------------------------------


def sorted_points(n, bound):
    """The point keys built directly: every sign with every descending
    weight tuple, then sorted."""
    values = list(range(bound, 0, -1)) + list(range(-1, -bound - 1, -1))
    return sorted(
        (sign, weights)
        for weights in combinations_with_replacement(values, n)
        for sign in (1, -1)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_point_table_is_the_sorted_construction(n):
    for bound in range(1, 6):
        points, negated = _table(SearchParams(n, 2, bound))
        assert points == sorted_points(n, bound)
        # the negation table is an involution that agrees with _negate_point
        assert all(negated[negated[i]] == i for i in range(len(points)))
        assert [points[j] for j in negated] == [_negate_point(p) for p in points]
        # one residue per weight tuple, negated for sign -1, is each point's own
        residues = _residues(points, bound)
        assert residues == [
            residue_sum(FixedPointData(n, (FixedPoint(w, s),))) for s, w in points
        ]


@pytest.mark.parametrize(
    "params",
    [*(SearchParams(n, 2, 5) for n in (1, 2, 3, 4)), SearchParams(2, 3, 4)],
)
def test_trusted_construction_matches_the_validated_one(params):
    keys = list(_enumerate_shard(params, 0, 1, True))
    assert keys
    for key in keys:
        trusted = FixedPointData._from_canonical(params.n, key)
        validated = FixedPointData(params.n, tuple(FixedPoint(w, s) for s, w in key))
        assert trusted == validated and hash(trusted) == hash(validated)
        assert type(trusted.points) is tuple
        assert all(type(p.weights) is tuple and type(p.sign) is int for p in trusted.points)


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
        SearchParams(n=1, m=4, max_abs_weight=3),
        SearchParams(n=2, m=4, max_abs_weight=2, sign_patterns=((1, 1, -1, -1),)),
        SearchParams(n=2, m=4, max_abs_weight=2, require_effective=True),
    ],
)
def test_candidate_count_matches_enumeration_off_two_points(params):
    outcome = search_rigid(params)
    assert outcome.summary.candidates == len(list(enumerate_data(params)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_paired_walk_is_the_keys_that_pass_pairing(n):
    # the two-point join reaches only keys that pass pairing, and every
    # rigid one of them; here those are exactly its keys
    for signs in SIGN_SETS:
        for effective in (False, True):
            params = SearchParams(n, 2, 3, signs, effective)
            rigid = [
                key
                for key in paired_keys(params)
                if is_rigid(FixedPointData._from_canonical(n, key)).rigid
            ]
            assert list(_enumerate_shard(params, 0, 1, True)) == rigid


# sign sets per point count: all, one pattern, two patterns
SIGN_SETS_BY_M = {
    1: (None, ((1,),), ((1,), (-1,))),
    2: SIGN_SETS,
    3: (None, ((1, 1, -1),), ((1, 1, 1), (-1, -1, 1))),
    4: (None, ((1, 1, -1, -1),), ((1, 1, 1, -1), (-1, -1, -1, -1))),
}


@pytest.mark.parametrize(
    "m, sizes",
    [
        (1, [(n, w) for n in (1, 2, 3) for w in (0, 1, 2, 3)]),
        (2, [(n, w) for n in (1, 2, 3) for w in (0, 1, 2, 3)]),
        (3, [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]),
        (4, [(1, 1), (1, 2), (2, 1)]),
    ],
)
def test_join_is_the_full_walk_filtered_by_residues(m, sizes):
    # in order, and whatever the sharding
    for n, bound in sizes:
        for signs in SIGN_SETS_BY_M[m]:
            for effective in (False, True):
                params = SearchParams(n, m, bound, signs, effective)
                full = list(_enumerate_shard(params, 0, 1))
                assert _count_classes(params) == len(full)
                kept = [
                    key
                    for key in full
                    if residue_sum(FixedPointData._from_canonical(n, key)) == 0
                ]
                assert list(_enumerate_shard(params, 0, 1, True)) == kept
                index = {point: i for i, point in enumerate(_table(params)[0])}
                for count in (2, 3):
                    shards = [list(_enumerate_shard(params, i, count, True)) for i in range(count)]
                    assert sorted(key for shard in shards for key in shard) == sorted(kept)
                    # each shard holds the keys whose next-to-last point it owns
                    for i, shard in enumerate(shards):
                        assert all(index[key[max(m - 2, 0)]] % count == i for key in shard)


def mobius(limit):
    """mu(1..limit) by a linear sieve, mu[0] unused."""
    mu, primes = [1] * (limit + 1), []
    composite = [False] * (limit + 1)
    for i in range(2, limit + 1):
        if not composite[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            if i * p > limit:
                break
            composite[i * p] = True
            if i % p == 0:
                mu[i * p] = 0
                break
            mu[i * p] = -mu[i]
    return mu


@pytest.mark.parametrize(
    "bound, effective", [(5, 78), (2000, 9732702), (131072, 41776845790)]
)
def test_one_weight_pair_count_is_closed_form(bound, effective):
    # two points of one weight: 2W points per sign, none self-negating, so
    # Burnside gives W(4W + 2) classes; the effective ones are its Moebius
    # sum over the common divisor
    def classes(w):
        return w * (4 * w + 2)

    mu = mobius(bound)
    assert sum(mu[d] * classes(bound // d) for d in range(1, bound + 1)) == effective
    for require_effective, want in ((False, classes(bound)), (True, effective)):
        start = time.perf_counter()
        got = _count_classes(SearchParams(1, 2, bound, require_effective=require_effective))
        assert time.perf_counter() - start < 1.0
        assert got == want


def test_enumerate_single_point_classes():
    params = SearchParams(n=1, m=1, max_abs_weight=1)
    assert len(list(enumerate_data(params))) == 2


def test_enumerate_empty_for_zero_bound():
    assert list(enumerate_data(SearchParams(n=1, m=2, max_abs_weight=0))) == []
    # with no points nothing is built, for any n and m
    for n, m in ((1, 10**5), (10**30, 1), (1, 10**24), (2, 10**24)):
        for effective in (False, True):
            params = SearchParams(n=n, m=m, max_abs_weight=0, require_effective=effective)
            assert list(enumerate_data(params)) == []
            assert _count_classes(params) == 0
            assert search_rigid(params).summary == SearchSummary(0, 0, 0)


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
        with pytest.raises(ValueError, match=str(MAX_SEARCH_WORK)):
            SearchParams(n=n, m=2, max_abs_weight=w)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 2.5, "m": 2, "max_abs_weight": 2},
        {"n": 2, "m": 2.0, "max_abs_weight": 2},
        {"n": 2, "m": 2, "max_abs_weight": "2"},
        {"n": 2, "m": 2, "max_abs_weight": 2, "sign_patterns": ((1.5, -1.2),)},
        {"n": 2, "m": 2, "max_abs_weight": 2, "sign_patterns": (("+", "-"),)},
    ],
)
def test_search_params_reject_non_integers(kwargs):
    # no truncation: 2.5 or a sign of 1.5 is refused, not read as 2 or 1
    with pytest.raises(ValueError, match="must be integers"):
        SearchParams(**kwargs)


def test_search_guard_bounds_join_work():
    # two points at n = 8: weight 7 is admitted, weight 8 refused; the
    # reach sizes are admitted although their raw pair counts are large
    SearchParams(n=8, m=2, max_abs_weight=7)
    with pytest.raises(ValueError, match=str(MAX_SEARCH_WORK)):
        SearchParams(n=8, m=2, max_abs_weight=8)
    SearchParams(n=6, m=2, max_abs_weight=6)
    SearchParams(n=2, m=3, max_abs_weight=18)
    with pytest.raises(ValueError, match="1100385 join steps"):
        SearchParams(n=2, m=3, max_abs_weight=19)


# -- the evaluation invariant -----------------------------------------------------


def test_modulus_is_prime_and_order_of_3_is_exact():
    # Lucas-Lehmer for the Mersenne prime 2^61 - 1
    residue = 4
    for _ in range(61 - 2):
        residue = (residue * residue - 2) % MODULUS
    assert MODULUS == 2**61 - 1 and residue == 0
    factors = (2, 5, 5, 7, 11, 13, 31, 41, 61, 151, 331, 1321)
    product = 1
    for q in factors:
        assert all(q % d for d in range(2, q))  # each factor is prime
        product *= q
    assert product == ORDER_OF_3
    assert pow(3, ORDER_OF_3, MODULUS) == 1
    assert all(pow(3, ORDER_OF_3 // q, MODULUS) != 1 for q in set(factors))
    # so 3^a - 1 is a unit mod P for every weight the guard admits
    assert MAX_SEARCH_WORK < ORDER_OF_3


def test_residues_sum_to_zero_on_brute_force_rigid_three_point_data():
    params = SearchParams(n=2, m=3, max_abs_weight=3)
    rigid = [data for data in enumerate_data(params) if is_rigid(data).rigid]
    assert len(rigid) == 14
    assert all(residue_sum(data) == 0 for data in rigid)
    # and the search, which reaches only such data, finds every one
    found = [r.data for r in search_rigid(params).results]
    assert {canonical_key(d) for d in found} == {canonical_key(d) for d in rigid}


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
    assert outcome.summary.checked == 0  # everything pruned by evaluation


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
        SearchParams(n=2, m=3, max_abs_weight=3, require_effective=True),
        SearchParams(n=1, m=4, max_abs_weight=3),
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


def test_prune_counts_per_rung():
    # at desk n = 4 the join reaches exactly the rigid keys
    params = SearchParams(n=4, m=2, max_abs_weight=5)
    s = search_rigid(params).summary
    assert (s.candidates, s.pruned, s.checked, s.rigid) == (512165, 511800, 365, 365)
    # the public prune keeps 970 of the 8,545 keys that pass pairing
    paired = paired_keys(params)
    assert len(paired) == 8545
    assert sum(prune(FixedPointData._from_canonical(4, key)) for key in paired) == 970


def test_prune_counts_match_the_public_rule():
    # the search checks every key with residue sum 0 exactly; the public
    # rule rejects only non-rigid ones among them
    params = SearchParams(n=2, m=2, max_abs_weight=3)
    s = search_rigid(params).summary
    joined = [data for data in enumerate_data(params) if residue_sum(data) == 0]
    assert (s.checked, s.pruned) == (len(joined), s.candidates - len(joined))
    assert not any(is_rigid(data).rigid for data in joined if not prune(data))


def test_search_three_points_reports_unclassified():
    # exploration beyond two fixed points: results carry no family tag
    outcome = search_rigid(SearchParams(n=2, m=3, max_abs_weight=2))
    assert outcome.results
    assert all(r.family is None for r in outcome.results)
    # the classic three-point configuration with weights (1,2), (-1,1),
    # (-2,-1) is rigid; its constant is x^2 - x*y + y^2 by the signed
    # monomial sum (hand computation: x^2, -x*y, y^2)
    from txyrigid.algebra import PolyXY

    x, y = PolyXY({(1, 0): 1}), PolyXY({(0, 1): 1})
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


def test_search_three_points_count():
    s = search_rigid(SearchParams(n=2, m=3, max_abs_weight=4)).summary
    assert (s.candidates, s.rigid) == (32600, 28)


# -- reach: the classification beyond the desk range ---------------------------


@pytest.mark.reach
@pytest.mark.parametrize(
    "params, counts",
    [
        # candidates agree with a full walk of enumerate_data
        (SearchParams(n=5, m=2, max_abs_weight=5), (4010006, 1001, 1001)),
        (SearchParams(n=6, m=2, max_abs_weight=3), (214006, 236, 236)),
        (SearchParams(n=6, m=2, max_abs_weight=6), (153180888, 6216, 6216)),
    ],
)
def test_reach_two_point_search_finds_z_only(params, counts):
    # the paper: rigid two-point data lie in Z, L1 or S3; L1 has n = 1 and
    # S3 has n = 3, so here every rigid datum must be Z, none unclassified
    outcome = search_rigid(params)
    s = outcome.summary
    assert (s.candidates, s.checked, s.rigid) == counts
    assert {r.family.kind for r in outcome.results} == {"Z"}
