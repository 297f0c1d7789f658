"""Canonical enumeration of fixed-point data within bounds, cheap
necessary-condition pruning, and the exact-rigidity search.

Candidates are quotiented by the symmetries that leave the rigidity
question unchanged: permuting points, permuting weights inside a point,
and negating every weight.  The canonical representative sorts weights
descending inside each point, sorts the points by (sign, weights), and
takes the smaller of the datum and its global weight negation.

The pruning ladder is ordered by cost: the limit-symmetry count check,
the weight-magnitude pairing check (two points only), then the vanishing
of the series coefficient at the lowest exponent, which for weights
w_{ij} and signs e_i is the rational condition

    sum_i e_i / prod_j w_{ij} = 0.

Every prune is a proved necessary condition, so no rigid datum is lost;
survivors are passed to the exact z-domain check.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import gcd
from typing import Iterable, Iterator, Optional

from .classify import FamilyTag, classify_two_points
from .genera import FixedPoint, FixedPointData, GenusReport, is_rigid, limit_symmetry

PointKey = tuple[int, tuple[int, ...]]
DataKey = tuple[PointKey, ...]


@dataclass(frozen=True)
class SearchParams:
    """Bounds and options for one enumeration run.

    ``sign_patterns`` is None for all sign assignments, or an explicit
    tuple of patterns (each a tuple of m entries +1/-1).  With
    ``require_effective`` only data with overall weight gcd 1 is kept.
    ``dedupe`` yields one representative per canonical class; switching it
    off gives the raw ordered stream (used by brute-force cross-checks).
    """

    n: int
    m: int
    max_abs_weight: int
    sign_patterns: Optional[tuple[tuple[int, ...], ...]] = None
    require_effective: bool = False
    dedupe: bool = True

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


def _point_key(point: FixedPoint) -> PointKey:
    return (point.sign, tuple(sorted(point.weights, reverse=True)))


def _normalize(points: Iterable[PointKey]) -> DataKey:
    return tuple(sorted(points))


def _negate(key: DataKey) -> DataKey:
    return _normalize(
        (sign, tuple(sorted((-w for w in weights), reverse=True)))
        for sign, weights in key
    )


def canonical_key(data: FixedPointData) -> DataKey:
    base = _normalize(_point_key(p) for p in data.points)
    return min(base, _negate(base))


def canonical_form(data: FixedPointData) -> FixedPointData:
    """The canonical representative of the datum's symmetry class."""
    return _data_from_key(data.n, canonical_key(data))


def _data_from_key(n: int, key: DataKey) -> FixedPointData:
    return FixedPointData(n, tuple(FixedPoint(weights, sign) for sign, weights in key))


def _effective_key(key: DataKey) -> bool:
    g = 0
    for _, weights in key:
        for w in weights:
            g = gcd(g, abs(w))
    return g == 1


def _weight_tuples(n: int, max_abs: int) -> list[tuple[int, ...]]:
    values = list(range(max_abs, 0, -1)) + list(range(-1, -max_abs - 1, -1))
    return list(combinations_with_replacement(values, n))


def _enumerate_shard(params: SearchParams, shard: int, shards: int) -> Iterator[FixedPointData]:
    n, m = params.n, params.m
    if params.sign_patterns is None and params.dedupe:
        # direct canonical generation: sorted point multisets, keep the
        # representative that is minimal under global weight negation
        points = sorted(
            (sign, weights)
            for weights in _weight_tuples(n, params.max_abs_weight)
            for sign in (1, -1)
        )
        for first, head in enumerate(points):
            if first % shards != shard:
                continue
            for rest in combinations_with_replacement(points[first:], m - 1):
                key = (head, *rest)
                if _negate(key) < key:
                    continue
                if params.require_effective and not _effective_key(key):
                    continue
                yield _data_from_key(n, key)
    elif params.sign_patterns is None:
        # raw stream: ordered weight tuples, ordered points, all signs
        values = [w for w in range(-params.max_abs_weight, params.max_abs_weight + 1) if w]
        raw_points = [
            (sign, weights)
            for weights in product(values, repeat=n)
            for sign in (1, -1)
        ]
        for first, head in enumerate(raw_points):
            if first % shards != shard:
                continue
            for rest in product(raw_points, repeat=m - 1):
                key = (head, *rest)
                if params.require_effective and not _effective_key(key):
                    continue
                yield _data_from_key(n, key)
    else:
        seen: set[DataKey] = set()
        tuples = _weight_tuples(n, params.max_abs_weight)
        for first, head in enumerate(tuples):
            if first % shards != shard:
                continue
            for rest in product(tuples, repeat=m - 1):
                weight_lists = (head, *rest)
                for pattern in params.sign_patterns:
                    key = tuple(zip(pattern, weight_lists))
                    if params.dedupe:
                        base = _normalize(key)
                        canon = min(base, _negate(base))
                        if canon in seen:
                            continue
                        seen.add(canon)
                        key = canon
                    if params.require_effective and not _effective_key(key):
                        continue
                    yield _data_from_key(n, key)


def enumerate_data(params: SearchParams) -> Iterator[FixedPointData]:
    """Deterministic candidate stream; with dedupe one representative per
    canonical class, otherwise the raw ordered stream."""
    return _enumerate_shard(params, 0, 1)


def prune(data: FixedPointData) -> bool:
    """True = keep.  False only when a proved necessary condition for
    rigidity fails, so pruning never loses rigid data."""
    if not limit_symmetry(data):
        return False
    if data.m == 2:
        first, second = data.points
        if sorted(abs(w) for w in first.weights) != sorted(abs(w) for w in second.weights):
            return False
    principal = Fraction(0)
    for point in data.points:
        denom = 1
        for w in point.weights:
            denom *= w
        principal += Fraction(point.sign, denom)
    return principal == 0


@dataclass(frozen=True)
class SearchResult:
    data: FixedPointData
    report: GenusReport
    family: Optional[FamilyTag]


@dataclass(frozen=True)
class SearchSummary:
    candidates: int
    pruned: int
    checked: int
    rigid: int


@dataclass(frozen=True)
class SearchOutcome:
    results: tuple[SearchResult, ...]
    summary: SearchSummary


def _search_shard(args) -> tuple[list, int, int, int]:
    params, shard, shards = args
    results = []
    candidates = pruned = checked = 0
    for data in _enumerate_shard(params, shard, shards):
        candidates += 1
        if not prune(data):
            pruned += 1
            continue
        checked += 1
        report = is_rigid(data)
        if report.rigid:
            family = classify_two_points(data) if data.m == 2 else None
            results.append(SearchResult(data, report, family))
    return results, candidates, pruned, checked


def search_rigid(params: SearchParams, jobs: int = 1) -> SearchOutcome:
    """All rigid representatives in range, with reports and (for two-point
    data) family tags.  Results are sorted by the data's point keys, so
    the output is deterministic and independent of the job count.

    ``jobs`` must be at least 1; at most ``os.cpu_count()`` worker
    processes run, however large it is."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    shards = 1
    if params.sign_patterns is None:
        # fixed sign patterns keep a shared dedupe set; leave them unsharded
        shards = min(jobs, os.cpu_count() or 1)
    if shards == 1:
        results, candidates, pruned_count, checked = _search_shard((params, 0, 1))
    else:
        from concurrent.futures import ProcessPoolExecutor

        results = []
        candidates = pruned_count = checked = 0
        with ProcessPoolExecutor(max_workers=shards) as pool:
            for shard_results, c, p, x in pool.map(
                _search_shard, [(params, i, shards) for i in range(shards)]
            ):
                results.extend(shard_results)
                candidates += c
                pruned_count += p
                checked += x
    results.sort(key=lambda r: tuple(_point_key(p) for p in r.data.points))
    return SearchOutcome(
        tuple(results),
        SearchSummary(candidates, pruned_count, checked, len(results)),
    )
