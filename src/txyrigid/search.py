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
gcd.  The prune rule runs on keys, from per-point facts, with the rungs
in order of measured cost: the weight-magnitude pairing check (two points
only), the limit-symmetry check, then the vanishing of the series
coefficient at the lowest exponent, which for weights w_{ij} and signs
e_i is the rational condition

    sum_i e_i / prod_j w_{ij} = 0.

Every rung is a proved necessary condition, so no rigid datum is lost;
only keys that pass become data for the exact z-domain check.

For two points the search walks only the pairs that pass the pairing
rung: the generator takes partners from the first point's group of equal
sorted weight magnitudes, a group that negation maps to itself.  The
candidate count is still the number of all classes in range, found
without walking them by Burnside's lemma over the negation involution,
so ``candidates == len(list(enumerate_data(params)))`` holds and the
pairing rejects are the classes the walk skipped.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, prod
from typing import Iterator, NamedTuple, Optional

from .classify import FamilyTag, classify_two_points
from .genera import FixedPoint, FixedPointData, GenusReport, is_rigid, limit_terms, limits_cancel

# Enumeration guard: SearchParams refuses bounds with more raw candidates
# (multisets of m points, before the negation quotient) than this.  Desk
# n = 4 has 1.0e6 and takes seconds; the bound is about a hundred times
# that.
MAX_SEARCH_CANDIDATES = 10**8

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
    Bounds with more than MAX_SEARCH_CANDIDATES raw candidates raise
    ValueError.
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
        cap = MAX_SEARCH_CANDIDATES
        points = 2 * _capped_comb(2 * self.max_abs_weight + self.n - 1, self.n, cap)
        raw = _capped_comb(points + self.m - 1, self.m, cap)
        if raw > cap:
            raise ValueError(
                f"the bounds give at least {raw} raw candidates (multisets of"
                f" {self.m} points), above the bound {cap}"
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


def _magnitudes(weights: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(abs(w) for w in weights))


def _enumerate_shard(
    params: SearchParams, shard: int, shards: int, _paired: bool = False
) -> Iterator[DataKey]:
    """The canonical keys whose first point has an index congruent to
    ``shard`` modulo ``shards`` in the sorted point list.  With ``_paired``
    (two points only) just the keys whose points have equal sorted weight
    magnitudes, in the same order."""
    points = _points(params)
    index = {point: i for i, point in enumerate(points)}
    negated = [index[_negate_point(point)] for point in points]
    signs = _sign_multisets(params)
    groups: dict[tuple[int, ...], list[int]] = {}
    if _paired:
        for i, (_, weights) in enumerate(points):
            groups.setdefault(_magnitudes(weights), []).append(i)
    for first in range(shard, len(points), shards):
        if _paired:
            group = groups[_magnitudes(points[first][1])]
            rests = ((j,) for j in group[bisect_left(group, first):])
        else:
            rests = combinations_with_replacement(range(first, len(points)), params.m - 1)
        for rest in rests:
            chosen = (first, *rest)
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


def _count_pair_classes(params: SearchParams) -> int:
    """The number of canonical two-point keys in range, which is the length
    of the ``enumerate_data`` stream, without walking them.

    Burnside's lemma over the negation involution gives
    (|X| + |Fix|) / 2 classes, where X holds the point multisets {p, q}
    that pass the filters and Fix those that negation maps to themselves:
    both points self-negating, or q = -p.  Negation keeps a point's sign
    and weight gcd, so the points are counted in bins by (sign, gcd) and
    the filters apply per bin pair."""
    bins: dict[tuple[int, int], list[int]] = {}  # bin -> [points, self-negating]
    for point in _points(params):
        tally = bins.setdefault((point[0], gcd(*point[1])), [0, 0])
        tally[0] += 1
        tally[1] += _negate_point(point) == point
    signs = _sign_multisets(params)
    pairs = fixed = 0
    for a, b in combinations_with_replacement(sorted(bins), 2):
        if signs is not None and tuple(sorted((a[0], b[0]))) not in signs:
            continue
        if params.require_effective and gcd(a[1], b[1]) != 1:
            continue
        (count_a, self_a), (count_b, self_b) = bins[a], bins[b]
        if a == b:
            pairs += count_a * (count_a + 1) // 2
            fixed += self_a * (self_a + 1) // 2 + (count_a - self_a) // 2
        else:
            pairs += count_a * count_b
            fixed += self_a * self_b
    return (pairs + fixed) // 2


class _PointFacts(NamedTuple):
    magnitudes: tuple[int, ...]
    limit: tuple[tuple[int, int, int], ...]
    principal: Fraction


def _point_facts(sign: int, weights: tuple[int, ...]) -> _PointFacts:
    return _PointFacts(
        _magnitudes(weights),
        limit_terms(sign, weights),
        Fraction(sign, prod(weights)),
    )


class PruneCounts(NamedTuple):
    """Candidates rejected by each rung of the prune rule, in rung order."""

    pairing: int
    limit_symmetry: int
    principal_part: int


def _failed_rung(facts: list[_PointFacts]) -> Optional[int]:
    """The index in ``PruneCounts`` of the first rung the facts of a datum's
    points fail, cheapest first, or None when every rung passes."""
    if len(facts) == 2 and facts[0].magnitudes != facts[1].magnitudes:
        return 0
    if not limits_cancel(f.limit for f in facts):
        return 1
    if sum(f.principal for f in facts) != 0:
        return 2
    return None


def prune(data: FixedPointData) -> bool:
    """True = keep.  False only when a proved necessary condition for
    rigidity fails, so pruning never loses rigid data."""
    return _failed_rung([_point_facts(p.sign, p.weights) for p in data.points]) is None


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
    pruned_by: PruneCounts

    @property
    def pruned(self) -> int:
        return sum(self.pruned_by)


@dataclass(frozen=True)
class SearchOutcome:
    results: tuple[SearchResult, ...]
    summary: SearchSummary


def _search_shard(args) -> tuple[list, list[int]]:
    """One shard's rigid results and its walked-key counts: per rung the
    keys that rung rejected, then the keys checked exactly.  Two-point
    shards walk only the keys that pass the pairing rung."""
    params, shard, shards = args
    facts = {point: _point_facts(*point) for point in _points(params)}
    results = []
    counts = [0, 0, 0, 0]  # rejected by each rung, then checked
    for key in _enumerate_shard(params, shard, shards, params.m == 2):
        rung = _failed_rung([facts[point] for point in key])
        if rung is not None:
            counts[rung] += 1
            continue
        counts[3] += 1
        data = _data_from_key(params.n, key)
        report = is_rigid(data)
        if report.rigid:
            family = classify_two_points(data) if data.m == 2 else None
            results.append(SearchResult(data, report, family))
    return results, counts


def search_rigid(params: SearchParams, jobs: int = 1) -> SearchOutcome:
    """All rigid representatives in range, with reports and (for two-point
    data) family tags.  Results are sorted by the data's point keys, so
    the output is deterministic and independent of the job count.

    ``jobs`` must be at least 1; at most ``os.cpu_count()`` worker
    processes run, however large it is."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    shards = min(jobs, os.cpu_count() or 1)
    if shards == 1:
        results, counts = _search_shard((params, 0, 1))
    else:
        from concurrent.futures import ProcessPoolExecutor

        results, counts = [], [0, 0, 0, 0]
        with ProcessPoolExecutor(max_workers=shards) as pool:
            for shard_results, shard_counts in pool.map(
                _search_shard, [(params, i, shards) for i in range(shards)]
            ):
                results.extend(shard_results)
                counts = [a + b for a, b in zip(counts, shard_counts)]
    walked = sum(counts)
    candidates = _count_pair_classes(params) if params.m == 2 else walked
    counts[0] += candidates - walked
    results.sort(key=lambda r: tuple(_point_key(p) for p in r.data.points))
    return SearchOutcome(
        tuple(results),
        SearchSummary(candidates, counts[3], len(results), PruneCounts(*counts[:3])),
    )
