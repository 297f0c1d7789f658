"""Canonical enumeration of fixed-point data within bounds, the prune
rule, and the exact-rigidity search.

Candidates are quotiented by the symmetries that leave the rigidity
question unchanged: permuting points, permuting weights inside a point,
and negating every weight.  The canonical key sorts weights descending
inside each point, sorts the points by (sign, weights), and takes the
smaller of the datum and its global weight negation.

One generator yields the canonical keys, sharded by their first point:
sorted point multisets minimal under negation, filtered by sign multiset
(a sign pattern stands for its sorted tuple) and, when asked, by weight
gcd.  ``prune`` is the public filter of proved necessary conditions:
weight-magnitude pairing (two points only), limit symmetry, and the
vanishing of the series coefficient at the lowest exponent, which for
weights w_{ij} and signs e_i is sum_i e_i / prod_j w_{ij} = 0.  The
search does not run it: the exact z-domain check runs on every key the
evaluation join reaches, and those are almost all rigid.

The join reaches only the keys that pass one necessary condition, the
evaluation invariant.  Give each point (e, w) the residue

    f(e, w) = e * prod_j r(w_j) - e * 2^{s+} * (-1)^{s-}   (mod P),

where P = 2^61 - 1 is prime, r(w) = (2 * 3^w + 1) / (3^w - 1) is the
factor (x z^w + y) / (z^w - 1) at (x, y, z) = (2, 1, 3), and the second
term is the point's Atiyah-Hirzebruch monomial there.  A rigid datum
satisfies the rational identity at (2, 1, 3), where no denominator
vanishes, so the residues of its points sum to 0 mod P: reduction mod P
is a ring map on the rationals whose denominators are units mod P, and
each 3^a - 1 is a unit because the order of 3 mod P,
256,204,778,801,521,550, is far above every weight the search guard
admits.  The invariant only rejects; the exact check decides every rigid
verdict.

Because f is additive, the search joins instead of walking: for each
prefix of m - 1 points it takes the last point from the hash bucket of
the residue that makes the sum 0.  The candidate count is still the
number of all classes in range, so
``candidates == len(list(enumerate_data(params)))`` holds and ``pruned``
is the classes the join skipped; it comes in closed form.  Negation
keeps each point's sign, so Burnside's lemma gives (|X_k| + |Fix_k|) / 2
classes with k points of sign +, summed over the allowed k.  Dividing
every weight by g maps the classes of weight gcd g onto the effective
classes at bound floor(W / g), so the effective count is, by
inclusion-exclusion over the common divisor,

    E(W) = C(W) - sum_{g >= 2} E(floor(W / g)).
"""

from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd, prod
from typing import Iterator, Optional

from .classify import FamilyTag, classify_two_points, pairing_check
from .genera import FixedPoint, FixedPointData, GenusReport, is_rigid, limit_symmetry

# Search work guard: SearchParams refuses bounds whose join work, P point
# residues plus comb(P + m - 2, m - 1) prefix lookups for P points in
# range, exceeds this.  Two points at n = 8 are admitted up to weight 7
# (8.1e5 steps) and refused from weight 8 (2.0e6).
MAX_SEARCH_WORK = 1 << 20

# The evaluation invariant's prime, a Mersenne prime, and the order of 3
# modulo it; 3^a - 1 is a unit mod P for every 0 < a < ORDER_OF_3.
MODULUS = (1 << 61) - 1
ORDER_OF_3 = 256204778801521550

PointKey = tuple[int, tuple[int, ...]]
DataKey = tuple[PointKey, ...]


def _capped_comb(total: int, k: int, cap: int) -> int:
    """comb(total, k) when it is at most cap, else a number between cap and
    comb(total, k), found without computing the full value."""
    if not 0 <= k <= total:
        return 0
    k = min(k, total - k)
    value = 1
    for i in range(1, k + 1):
        value = value * (total - k + i) // i  # comb(total - k + i, i), growing
        if value > cap:
            break
    return value


@dataclass(frozen=True)
class SearchParams:
    """Bounds and options for one enumeration run.

    ``sign_patterns`` is None for all sign assignments, or an explicit
    tuple of patterns (each a tuple of m entries +1/-1).  With
    ``require_effective`` only data with overall weight gcd 1 is kept.
    Bounds whose join work exceeds MAX_SEARCH_WORK (see there) raise
    ValueError; the weights they admit stay far below ORDER_OF_3.
    """

    n: int
    m: int
    max_abs_weight: int
    sign_patterns: Optional[tuple[tuple[int, ...], ...]] = None
    require_effective: bool = False

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be positive")
        if self.max_abs_weight < 0:
            raise ValueError("max_abs_weight must be nonnegative")
        if self.sign_patterns is not None:
            patterns = tuple(tuple(int(s) for s in p) for p in self.sign_patterns)
            for p in patterns:
                if len(p) != self.m or any(s not in (1, -1) for s in p):
                    raise ValueError("each sign pattern needs m entries of +1/-1")
            object.__setattr__(self, "sign_patterns", patterns)
        cap = MAX_SEARCH_WORK
        points = 2 * _capped_comb(2 * self.max_abs_weight + self.n - 1, self.n, cap)
        work = points + _capped_comb(points + self.m - 2, self.m - 1, cap)
        if work > cap:
            raise ValueError(
                f"the bounds give at least {work} join steps ({points} point"
                f" residues plus one lookup per {self.m - 1}-point prefix),"
                f" above the bound {cap}"
            )


def _point_key(point: FixedPoint) -> PointKey:
    return (point.sign, tuple(sorted(point.weights, reverse=True)))


def _negate_point(point: PointKey) -> PointKey:
    """Negated weights, reversed so that they stay descending."""
    sign, weights = point
    return (sign, tuple(-w for w in reversed(weights)))


def canonical_key(data: FixedPointData) -> DataKey:
    base = tuple(sorted(_point_key(p) for p in data.points))
    return min(base, tuple(sorted(map(_negate_point, base))))


def _data_from_key(n: int, key: DataKey) -> FixedPointData:
    return FixedPointData(n, tuple(FixedPoint(weights, sign) for sign, weights in key))


def _points(params: SearchParams) -> list[PointKey]:
    """Every point key within the bound, sorted."""
    bound = params.max_abs_weight
    values = list(range(bound, 0, -1)) + list(range(-1, -bound - 1, -1))
    return sorted(
        (sign, weights)
        for weights in combinations_with_replacement(values, params.n)
        for sign in (1, -1)
    )


def _sign_multisets(params: SearchParams) -> Optional[set[tuple[int, ...]]]:
    """The sorted sign tuples the sign patterns allow, or None for all."""
    patterns = params.sign_patterns
    return None if patterns is None else {tuple(sorted(p)) for p in patterns}


def _ratios(bound: int) -> dict[int, int]:
    """r(w) = (2 * 3^w + 1) / (3^w - 1) mod MODULUS for 0 < |w| <= bound,
    with r(-a) = -(2 + 3^a) / (3^a - 1); one inversion per magnitude."""
    ratios = {}
    for a in range(1, bound + 1):
        power = pow(3, a, MODULUS)
        inverse = pow(power - 1, -1, MODULUS)
        ratios[a] = (2 * power + 1) * inverse % MODULUS
        ratios[-a] = -(2 + power) * inverse % MODULUS
    return ratios


def _residue(point: PointKey, ratios: dict[int, int]) -> int:
    """The point's evaluation residue f: its share of the genus sum at
    (x, y, z) = (2, 1, 3) minus its Atiyah-Hirzebruch monomial, mod
    MODULUS."""
    sign, weights = point
    value = sign
    for w in weights:
        value = value * ratios[w] % MODULUS
    plus = sum(1 for w in weights if w > 0)
    return (value - sign * 2**plus * (-1) ** (len(weights) - plus)) % MODULUS


def _negations(points: list[PointKey]) -> list[int]:
    """The index of each point's negation in the sorted point list.  The
    lookup table lives only here, so it is freed before the join builds
    its residues and buckets."""
    index = {point: i for i, point in enumerate(points)}
    return [index[_negate_point(point)] for point in points]


def _enumerate_shard(
    params: SearchParams, shard: int, shards: int, _join: bool = False
) -> Iterator[DataKey]:
    """The canonical keys whose first point has an index congruent to
    ``shard`` modulo ``shards`` in the sorted point list, in order.  With
    ``_join`` just the keys whose point residues sum to 0 mod MODULUS, in
    the same order: the last point comes from the residue's hash bucket
    instead of the rest of the point list."""
    points = _points(params)
    total = len(points)
    negated = _negations(points)
    signs = _sign_multisets(params)
    m = params.m
    if _join:
        ratios = _ratios(params.max_abs_weight)
        residues = [_residue(point, ratios) for point in points]
        buckets: dict[int, list[int]] = {}
        for i, value in enumerate(residues):
            buckets.setdefault(value, []).append(i)
    for first in range(shard, total, shards):
        # combinations_with_replacement copies its pool, which would cost
        # O(P) per first point for the empty middles of m = 2
        middles = combinations_with_replacement(range(first, total), m - 2) if m > 2 else [()]
        for middle in middles:
            prefix = (first, *middle)[: m - 1]  # a one-point key is its own last point
            low, high = (prefix[-1], total) if prefix else (first, first + 1)
            if _join:
                bucket = buckets.get(-sum(map(residues.__getitem__, prefix)) % MODULUS, ())
                lasts = bucket[bisect_left(bucket, low) : bisect_left(bucket, high)]
            else:
                lasts = range(low, high)
            for last in lasts:
                chosen = (*prefix, last)
                # indices order like the keys they stand for
                if tuple(sorted([negated[i] for i in chosen])) < chosen:
                    continue
                key = tuple(points[i] for i in chosen)
                if signs is not None and tuple(sign for sign, _ in key) not in signs:
                    continue
                if params.require_effective and gcd(*(w for _, ws in key for w in ws)) != 1:
                    continue
                yield key


def enumerate_data(params: SearchParams) -> Iterator[FixedPointData]:
    """Deterministic candidate stream, one datum per canonical class."""
    return (_data_from_key(params.n, key) for key in _enumerate_shard(params, 0, 1))


def _multisets(items: int, size: int) -> int:
    return comb(items + size - 1, size) if items else int(size == 0)


def _count_classes(params: SearchParams) -> int:
    """The number of canonical keys in range, the length of the
    ``enumerate_data`` stream, in closed form (see the module docstring).
    Both signs hold the same P points, s self-negating (symmetric weight
    multisets, fixed by their n / 2 positive weights) and t pairs
    {q, -q}: |X_k| = M(P, k) M(P, m - k) for M the multiset count, and a
    fixed multiset takes c points of one sign in [u^c] (1 - u)^-s
    (1 - u^2)^-t ways.  E is evaluated once per distinct quotient."""
    n, m = params.n, params.m
    signs = _sign_multisets(params)
    plus_counts = [k for k in range(m + 1) if signs is None or (-1,) * (m - k) + (1,) * k in signs]

    def classes(bound: int) -> int:
        points = _multisets(2 * bound, n)
        fixed = _multisets(bound, n // 2) if n % 2 == 0 else 0
        pairs = (points - fixed) // 2

        def fixed_multisets(c: int) -> int:
            return sum(
                _multisets(pairs, j) * _multisets(fixed, c - 2 * j) for j in range(c // 2 + 1)
            )

        return sum(
            _multisets(points, k) * _multisets(points, m - k)
            + fixed_multisets(k) * fixed_multisets(m - k)
            for k in plus_counts
        ) // 2

    if not params.require_effective:
        return classes(params.max_abs_weight)
    effective: dict[int, int] = {}

    def effective_classes(bound: int) -> int:
        if bound not in effective:
            total, g = classes(bound), 2
            while g <= bound:
                quotient = bound // g
                last = bound // quotient  # the last g with this quotient
                total -= (last - g + 1) * effective_classes(quotient)
                g = last + 1
            effective[bound] = total
        return effective[bound]

    return effective_classes(params.max_abs_weight)


def prune(data: FixedPointData) -> bool:
    """True = keep.  False only when a proved necessary condition for
    rigidity fails, so pruning never loses rigid data: weight-magnitude
    pairing (two points only), limit symmetry, then the principal part."""
    return (
        (data.m != 2 or pairing_check(data))
        and limit_symmetry(data)
        and sum(Fraction(p.sign, prod(p.weights)) for p in data.points) == 0
    )


@dataclass(frozen=True)
class SearchResult:
    data: FixedPointData
    report: GenusReport
    family: Optional[FamilyTag]


@dataclass(frozen=True)
class SearchSummary:
    candidates: int
    checked: int
    rigid: int

    @property
    def pruned(self) -> int:
        """The classes the evaluation join skipped."""
        return self.candidates - self.checked


@dataclass(frozen=True)
class SearchOutcome:
    results: tuple[SearchResult, ...]
    summary: SearchSummary


def _search_shard(args) -> tuple[list, int]:
    """One shard's rigid results and the number of join keys it checked."""
    params, shard, shards = args
    results, checked = [], 0
    for key in _enumerate_shard(params, shard, shards, True):
        checked += 1
        data = _data_from_key(params.n, key)
        report = is_rigid(data)
        if report.rigid:
            family = classify_two_points(data) if data.m == 2 else None
            results.append(SearchResult(data, report, family))
    return results, checked


def search_rigid(params: SearchParams, jobs: int = 1) -> SearchOutcome:
    """All rigid representatives in range, with reports and (for two-point
    data) family tags.  Results are sorted by the data's point keys, so
    the output is deterministic and independent of the job count.

    ``jobs`` must be at least 1; at most ``os.cpu_count()`` worker
    processes run, however large it is."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    shards = min(jobs, os.cpu_count() or 1)
    tasks = [(params, i, shards) for i in range(shards)]
    if shards == 1:
        outputs = [_search_shard(tasks[0])]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=shards) as pool:
            outputs = list(pool.map(_search_shard, tasks))
    results, checked = [], 0
    for shard_results, shard_checked in outputs:
        results.extend(shard_results)
        checked += shard_checked
    results.sort(key=lambda r: tuple(_point_key(p) for p in r.data.points))
    summary = SearchSummary(_count_classes(params), checked, len(results))
    return SearchOutcome(tuple(results), summary)
