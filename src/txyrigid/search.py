"""Canonical enumeration of fixed-point data within bounds, the prune
rule, and the exact-rigidity search.

Candidates are quotiented by the symmetries that leave the rigidity
question unchanged: permuting points, permuting weights inside a point,
and negating every weight.  The canonical key sorts weights descending
inside each point, sorts the points by (sign, weights), and takes the
smaller of the datum and its global weight negation.

One generator yields the canonical keys in order:
sorted point multisets minimal under negation, filtered by sign multiset
(a sign pattern stands for its sorted tuple) and, when asked, by weight
gcd.  ``prune`` is the public filter of proved necessary conditions:
weight-magnitude pairing (two points only), limit symmetry, and the
vanishing of the series coefficient at the lowest exponent,
sum_i e_i / prod_j w_{ij} = 0.  The search does not run it: the exact
z-domain check runs on every key the evaluation join reaches.

The point table needs no sort.  combinations_with_replacement over the
pool W, .., 1, -1, .., -W yields nonincreasing weight tuples, as keys
hold them, in lexicographic order of pool positions; positions descend
in value, so where two tuples first differ the earlier is larger, and the
reversed stream ascends.  Points order by (sign, weights): the table is
the sign -1 block, then the sign +1 block, over that one list.  Negation
keeps the sign and maps w to -reversed(w), so one negation index over the
tuples serves both blocks.

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
verdict.  f(-1, w) = -f(1, w), so one residue per weight tuple serves
both signs.

Because f is additive, the search joins instead of walking: for each
prefix of m - 1 points it takes the last point from the hash bucket of
the residue that makes the sum 0; the walk, ``enumerate_data``, is the
same join over all-zero residues.  ``candidates`` counts every class in
range, ``len(list(enumerate_data(params)))``, in closed form, and
``pruned`` the classes the join skipped.  Negation keeps each point's
sign, so Burnside's lemma gives (|X_k| + |Fix_k|) / 2 classes with k
points of sign +, summed over the allowed k.  Dividing every weight by g
maps the classes of weight gcd g onto the effective classes at bound
floor(W / g), so by inclusion-exclusion over the common divisor

    E(W) = C(W) - sum_{g >= 2} E(floor(W / g)).
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations_with_replacement, compress
from math import comb, gcd, prod
from operator import index, neg
from typing import Iterator, Optional

from .algebra import Record, _set
from .classify import FamilyTag, classify_two_points, pairing_check
from .genera import FixedPointData, GenusReport, is_rigid, limit_symmetry

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


def _shown(value, quote: bool = True) -> str:
    """An input string (quoted unless ``quote`` is False) or integer as
    every diagnostic echoes it: whole up to 40 characters, past that its
    first 40 and its length."""
    text = str(value)
    head = repr(text[:40]) if quote and isinstance(value, str) else text[:40]
    return head if len(text) <= 40 else f"{head}... ({len(text)} characters)"


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


class SearchParams(Record):
    """Bounds and options for one enumeration run.

    ``sign_patterns`` is None for all sign assignments, or an explicit
    tuple of patterns (each a tuple of m entries +1/-1).  With
    ``require_effective`` only data with overall weight gcd 1 is kept.
    Bounds whose join work exceeds MAX_SEARCH_WORK (see there) raise
    ValueError; the weights they admit stay far below ORDER_OF_3.
    """

    def __init__(
        self, n: int, m: int, max_abs_weight: int,
        sign_patterns: Optional[tuple[tuple[int, ...], ...]] = None,
        require_effective: bool = False,
    ):
        try:
            n, m, max_abs_weight = map(index, (n, m, max_abs_weight))
            if sign_patterns is not None:
                sign_patterns = tuple(tuple(map(index, p)) for p in sign_patterns)
        except TypeError:
            raise ValueError("the bounds and sign entries must be integers") from None
        if n < 1 or m < 1:
            raise ValueError("n and m must be positive")
        if max_abs_weight < 0:
            raise ValueError("max_abs_weight must be nonnegative")
        for p in sign_patterns or ():
            if len(p) != m or any(s not in (1, -1) for s in p):
                raise ValueError(f"each sign pattern needs m = {_shown(m)} entries of +1/-1")
        cap = MAX_SEARCH_WORK
        points = 2 * _capped_comb(2 * max_abs_weight + n - 1, n, cap)
        work = points + _capped_comb(points + m - 2, m - 1, cap)
        if work > cap:
            raise ValueError(
                f"the bounds give at least {_shown(work)} join steps ({_shown(points)} point"
                f" residues plus one lookup per {_shown(m - 1)}-point prefix),"
                f" above the bound {cap}"
            )
        _set(self, "n", n)
        _set(self, "m", m)
        _set(self, "max_abs_weight", max_abs_weight)
        _set(self, "sign_patterns", sign_patterns)
        _set(self, "require_effective", require_effective)


def _negate_point(point: PointKey) -> PointKey:
    """Negated weights, reversed so that they stay descending."""
    sign, weights = point
    return (sign, tuple(-w for w in reversed(weights)))


def canonical_key(data: FixedPointData) -> DataKey:
    base = tuple(sorted((p.sign, tuple(sorted(p.weights, reverse=True))) for p in data.points))
    return min(base, tuple(sorted(map(_negate_point, base))))


def _table(params: SearchParams) -> tuple[list[PointKey], list[int]]:
    """The sorted point keys and each one's negation index (module docstring)."""
    bound = params.max_abs_weight
    values = [*range(bound, 0, -1), *range(-1, -bound - 1, -1)]
    tuples = list(combinations_with_replacement(values, params.n))
    tuples.reverse()
    half = len(tuples)
    position = {weights: i for i, weights in enumerate(tuples)}
    negated = [position[tuple(map(neg, reversed(weights)))] for weights in tuples]
    points = [(-1, weights) for weights in tuples] + [(1, weights) for weights in tuples]
    return points, negated + [i + half for i in negated]


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


def _residues(points: list[PointKey], bound: int) -> list[int]:
    """Each point's residue f: prod r(w) - prod (2 if w > 0 else -1) for the
    sign +1 block, negated for the sign -1 block."""
    ratios = _ratios(bound)
    r, a = ratios.__getitem__, {w: 2 if w > 0 else -1 for w in ratios}.__getitem__
    plus = [(prod(map(r, w)) - prod(map(a, w))) % MODULUS for _, w in points[len(points) // 2 :]]
    return [-value % MODULUS for value in plus] + plus


def _indices(total: int, m: int, residues: list[int]) -> Iterator[tuple[int, ...]]:
    """The nondecreasing m-tuples of point indices whose residues sum to 0 mod
    MODULUS, in lexicographic order: a stem, a pen and a last index from the
    bucket of the residue that completes the sum.  A test made in C for all the
    pens of a stem skips pens with none; at m = 2 every pen has one, its sign flip."""
    if m == 1:
        yield from ((i,) for i in range(total) if residues[i] == 0)
        return
    buckets: dict[int, list[int]] = {}
    for i, value in enumerate(residues):
        buckets.setdefault(value, []).append(i)
    for stem in combinations_with_replacement(range(total), m - 2):
        low = stem[-1] if stem else 0
        pens = range(low, total)
        base = -sum(map(residues.__getitem__, stem))
        wanted = [(base - residues[pen]) % MODULUS for pen in pens]
        hits = compress(zip(pens, map(buckets.get, wanted)), map(buckets.__contains__, wanted))
        for pen, lasts in hits:
            yield from ((*stem, pen, last) for last in lasts[bisect_left(lasts, pen) :])


def _enumerate_shard(params: SearchParams, _join: bool = False) -> Iterator[DataKey]:
    """The canonical keys in order; with ``_join`` just those whose point
    residues sum to 0 mod MODULUS.  With no weights nothing is built, for any
    n and m.  The name stays: perfbench/tracer.py patches it (positional calls)."""
    if not params.max_abs_weight:
        return
    points, negated = _table(params)
    signs = _sign_multisets(params)
    residues = _residues(points, params.max_abs_weight) if _join else [0] * len(points)
    for chosen in _indices(len(points), params.m, residues):
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
    return (FixedPointData._from_canonical(params.n, key) for key in _enumerate_shard(params))


def _multisets(items: int, size: int) -> int:
    return comb(items + size - 1, size) if items else int(size == 0)


def _count_classes(params: SearchParams) -> int:
    """The number of canonical keys in range, the length of the
    ``enumerate_data`` stream, in closed form (see the module docstring).
    Both signs hold the same P points, s self-negating (symmetric weight
    multisets, fixed by their n / 2 positive weights) and t pairs
    {q, -q}: |X_k| = M(P, k) M(P, m - k) for M the multiset count, and a
    fixed multiset takes c points of one sign in [u^c] (1 - u)^-s
    (1 - u^2)^-t ways.  E is evaluated once per distinct quotient.  With
    no weights there are no points, so no classes for any n and m."""
    if not params.max_abs_weight:
        return 0
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


class SearchResult(Record):
    def __init__(self, data: FixedPointData, report: GenusReport, family: Optional[FamilyTag]):
        _set(self, "data", data)
        _set(self, "report", report)
        _set(self, "family", family)


class SearchSummary(Record):
    def __init__(self, candidates: int, checked: int, rigid: int):
        _set(self, "candidates", candidates)
        _set(self, "checked", checked)
        _set(self, "rigid", rigid)

    @property
    def pruned(self) -> int:
        """The classes the evaluation join skipped."""
        return self.candidates - self.checked


class SearchOutcome(Record):
    def __init__(self, results: tuple[SearchResult, ...], summary: SearchSummary):
        _set(self, "results", results)
        _set(self, "summary", summary)


def _search_shard(params: SearchParams) -> tuple[list[SearchResult], int]:
    """The rigid results in key order and the number of join keys checked.
    The name stays: perfbench/tracer.py patches it (one positional argument)."""
    results, checked = [], 0
    for key in _enumerate_shard(params, True):
        checked += 1
        data = FixedPointData._from_canonical(params.n, key)
        report = is_rigid(data)
        if report.rigid:
            family = classify_two_points(data) if data.m == 2 else None
            results.append(SearchResult(data, report, family))
    return results, checked


def search_rigid(params: SearchParams) -> SearchOutcome:
    """All rigid representatives in range, with reports and (for two-point
    data) family tags, in the key order the join yields them in."""
    results, checked = _search_shard(params)
    summary = SearchSummary(_count_classes(params), checked, len(results))
    return SearchOutcome(tuple(results), summary)
