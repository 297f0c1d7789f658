"""Fixed-point data and the exact z-domain rigidity check.

A candidate manifold is known here only through its fixed-point data: for
each isolated fixed point a list of nonzero integer rotation weights and a
sign.  The two-parameter genus of such data is rigid exactly when the
signed sum over fixed points of

    prod_j (x z^w + y) / (z^w - 1),    z-exponents w running over weights,

is the constant given by the signed monomial sum over fixed points
(the Atiyah-Hirzebruch expression).  Clearing denominators turns that
into an exact Laurent-polynomial identity, which is what this module
decides.  Negative weights are rewritten with positive denominator
exponents: (x z^-a + y)/(z^-a - 1) = -(x + y z^a)/(z^a - 1).

Every z-coefficient of the cleared identity is an integer polynomial
homogeneous of degree n in x and y, so the identity is decided at y = 1
over Z[x][z, 1/z]: a homogeneous p(x, y) of degree n is y^n p(x/y, 1), and
its y = 0 value is its x^n coefficient.

``rigidity_defect`` returns the defect packed into ints by Kronecker
substitution, as a ``PackedDefect``; its docstring gives the layout and
the width that makes the packing exact.  ``is_rigid`` expands nothing
for data that pairs off completely into Z pairs, points with the same
weights and opposite signs; its docstring gives the proof.
``algebra.LaurentZ``, which multiplies term by term, is kept as the
tests' reference kernel.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import index
from typing import Iterable, Optional, Union

from .algebra import _ZERO_POLY, PolyXY, Record, _set

# Work guard: rigidity_defect refuses data when its upper bound on the
# coefficient products of the expansion exceeds this.  Two negated points
# with n distinct power-of-two weights first exceed it at n = 17; at
# n = 16 the defect, kept per z-exponent, takes 0.15-0.19 s and decoding
# its 65,534 terms another 0.4-0.58 s (Python 3.11.7, 2 vCPU).
MAX_DEFECT_WORK = 1 << 26

# rigidity_defect packs the whole defect into one int when that int has
# at most this many bits, and one int per z-exponent otherwise.  Measured
# crossover of the zero test (Python 3.11, 2 vCPU): on the densest data
# the work guard admits, two negated points with n power-of-two weights,
# the dict loop is 10-13x slower than the one int up to 2^19 bits and
# 4-9x slower above; on the sparsest, L1, S3 and the points (a) and
# (a - 1), the one int is 1.2-1.4x slower at 2^15 bits, 4-6x at 2^18
# and 9-10x at 2^19.  The cap sits where the two losses meet.
MAX_DENSE_BITS = 1 << 19


class FixedPoint(Record):
    """One isolated fixed point: its integer rotation weights and its sign."""

    def __init__(self, weights: tuple[int, ...], sign: int):
        try:
            weights, sign = tuple(map(index, weights)), index(sign)
        except TypeError:
            raise ValueError("weights and sign must be integers") from None
        if not weights:
            raise ValueError("a fixed point needs at least one weight")
        if 0 in weights:
            raise ValueError("weights must be nonzero integers")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        _set(self, "weights", weights)
        _set(self, "sign", sign)

    @property
    def s_plus(self) -> int:
        return sum(1 for w in self.weights if w > 0)

    @property
    def s_minus(self) -> int:
        return sum(1 for w in self.weights if w < 0)


class FixedPointData(Record):
    """Candidate data: n weights per point (half the real dimension) and a
    nonempty list of fixed points."""

    def __init__(self, n: int, points: tuple[FixedPoint, ...]):
        try:
            n = index(n)
        except TypeError:
            raise ValueError("n must be an integer") from None
        points = tuple(points)
        if n < 1:
            raise ValueError("n must be a positive integer")
        if not points:
            raise ValueError("at least one fixed point is required")
        for p in points:
            if len(p.weights) != n:
                raise ValueError(f"every point needs exactly {n} weights, got {len(p.weights)}")
        _set(self, "n", n)
        _set(self, "points", points)

    @classmethod
    def _from_canonical(cls, n: int, key) -> "FixedPointData":
        """Data from (sign, weights) pairs already known valid, as the search's
        keys are; skips the checks of both public constructors."""
        put = _set  # reading __dict__ would build one per object
        points = []
        for sign, weights in key:
            point = object.__new__(FixedPoint)
            put(point, "weights", weights)
            put(point, "sign", sign)
            points.append(point)
        data = object.__new__(cls)
        put(data, "n", n)
        put(data, "points", tuple(points))
        return data

    @property
    def m(self) -> int:
        return len(self.points)


class GenusReport(Record):
    """Outcome of the exact rigidity check on one candidate.

    ``rigid`` holds exactly when the defect is the zero Laurent
    polynomial, and ``constant`` is then ``ah_constant`` (None otherwise);
    both are read from the stored fields.  The weight gcd is reported (not
    enforced) so callers can filter ineffective data, and
    ``limits_symmetric`` records the z -> 0 / z -> infinity necessary
    condition.
    """

    def __init__(
        self, defect: PackedDefect, ah_constant: PolyXY, limits_symmetric: bool, weight_gcd: int
    ):
        _set(self, "defect", defect)
        _set(self, "ah_constant", ah_constant)
        _set(self, "limits_symmetric", limits_symmetric)
        _set(self, "weight_gcd", weight_gcd)

    @property
    def rigid(self) -> bool:
        return self.defect.is_zero()

    @property
    def constant(self) -> Optional[PolyXY]:
        return self.ah_constant if self.rigid else None


def _ah_coefficients(data: FixedPointData) -> list[int]:
    """The Atiyah-Hirzebruch value sum of sign * x^{s+} * (-y)^{s-} as its
    integer coefficients of x^i y^(n-i), i = 0..n: a point with s+ = i adds
    its sign times (-1)^(n-i)."""
    n = data.n
    coeffs = [0] * (n + 1)
    for p in data.points:
        plus = sum(map((0).__lt__, p.weights))  # w > 0, counted in C
        coeffs[plus] += p.sign if (n - plus) % 2 == 0 else -p.sign
    return coeffs


def _ah_poly(n: int, coeffs: list[int]) -> PolyXY:
    return PolyXY._raw({(i, n - i): Fraction(c) for i, c in enumerate(coeffs) if c})


def _limits_cancel(n: int, coeffs: list[int]) -> bool:
    # swapping s+ and s- sends sign * x^i (-y)^(n-i) to
    # sign * x^(n-i) (-y)^i, so the swapped sum has coefficient
    # (-1)^n * coeffs[n - i] at x^i y^(n-i)
    flip = -1 if n % 2 else 1
    return coeffs == [flip * c for c in reversed(coeffs)]


def ah_constant(data: FixedPointData) -> PolyXY:
    """The Atiyah-Hirzebruch value: sum of sign * x^{s+} * (-y)^{s-} over
    the fixed points."""
    return _ah_poly(data.n, _ah_coefficients(data))


def limit_symmetry(data: FixedPointData) -> bool:
    """Necessary condition for rigidity from the z -> infinity and z -> 0
    limits of the fixed-point sum: the signed monomial sum must be
    invariant under swapping each point's positive and negative counts."""
    return _limits_cancel(data.n, _ah_coefficients(data))


def weight_gcd(data: FixedPointData) -> int:
    """gcd of all weight magnitudes; 1 means the data is effective."""
    return gcd(*[gcd(*p.weights) for p in data.points])


def _shared_factors(magnitudes: list[list[int]]) -> tuple[list[int], Iterable[list[int]]]:
    """The least common multiset of the points' sorted weight magnitudes,
    and what each point lacks of it, built as it is read; paired data lack
    nothing."""
    first = magnitudes[0]
    if magnitudes.count(first) == len(magnitudes):
        return first, [[]] * len(magnitudes)
    most: dict[int, int] = {}
    for mine in magnitudes:
        for a in mine:
            most[a] = max(most.get(a, 0), mine.count(a))
    shared = [a for a, k in most.items() for _ in range(k)]
    return shared, (
        [a for a, k in most.items() for _ in range(k - mine.count(a))] for mine in magnitudes
    )


def _split_slots(value: int, bits: int, digits: int) -> dict[int, int]:
    """{k: slot k} for the nonzero slots of value, slot k being its
    balanced base-2^bits digits k * digits .. k * digits + digits - 1
    read as one int; bits is a multiple of 8.

    Adding 2^(bits-1) to every digit makes each one an unsigned digit in
    [0, 2^bits), so the slots are plain byte ranges of the sum."""
    if not value:
        return {}
    size = bits // 8
    width = size * digits
    # the top balanced digit sits at or below position bit_length // bits
    count = value.bit_length() // (bits * digits) + 1
    half = (bytes(size - 1) + b"\x80") * digits
    raw = (value + int.from_bytes(half * count, "little")).to_bytes(width * count, "little")
    base = int.from_bytes(half, "little")
    slots = {}
    for start in range(0, width * count, width):
        chunk = raw[start:start + width]
        if chunk != half:
            slots[start // width] = int.from_bytes(chunk, "little") - base
    return slots


class PackedDefect:
    """The defect of ``rigidity_defect``, a Laurent polynomial in z over
    Z[x], with x packed at 2^``bits``.

    With ``degree`` given, ``value`` is one int, z^k's coefficient being
    slot k of ``degree + 1`` digits; with ``degree`` None it maps each
    z-exponent to its nonzero coefficient.  Either way ``value`` is falsy
    exactly when the defect is zero; ``packed``, ``term_count`` and
    ``terms`` decode it on each read.
    """

    __slots__ = ("value", "bits", "degree")

    def __init__(self, value: Union[int, dict[int, int]], bits: int, degree: Optional[int] = None):
        self.value = value
        self.bits = bits
        self.degree = degree

    @property
    def packed(self) -> dict[int, int]:
        """{z-exponent: nonzero int}, the x-polynomial at x = 2^bits."""
        if self.degree is None:
            return self.value
        return _split_slots(self.value, self.bits, self.degree + 1)

    def is_zero(self) -> bool:
        return not self.value

    def term_count(self) -> int:
        """Number of nonzero z-coefficients."""
        return len(self.packed)

    @property
    def terms(self) -> dict[int, dict[int, int]]:
        """{z-exponent: {x-exponent: int}}, the shape of ``LaurentZ.terms``."""
        return {k: _split_slots(v, self.bits, 1) for k, v in self.packed.items()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, PackedDefect):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        return f"PackedDefect({self.terms!r})"


def _times_binomial(poly: dict, a: int, low: int, high: int) -> dict:
    """poly * (low + high z^a), low and high packed ints."""
    out = {k: low * c for k, c in poly.items()}
    for k, c in poly.items():
        out[k + a] = out.get(k + a, 0) + high * c
    return out


def rigidity_defect(data: FixedPointData, coeffs: Optional[list[int]] = None) -> PackedDefect:
    """Numerator minus constant times expanded denominator, at y = 1; the
    data is rigid exactly when this Laurent polynomial is zero.  ``coeffs``
    is ``_ah_coefficients(data)`` when the caller already has it.

    The points are put over the least common multiset of their (z^a - 1)
    factors, F of them with exponents summing to D.  The defect is then the
    sum of m + 1 chains of binomials in z.  Chain p, for each of the m
    points, starts at the point's sign and multiplies in x z^w + 1 for each
    weight w > 0, -(x + z^a) for each weight -a < 0, and then the (z^a - 1)
    factors the point lacks of the shared multiset.  Chain m + 1 starts at
    minus the Atiyah-Hirzebruch constant, -sum_i c_i x^i, and multiplies in
    every shared (z^a - 1).  Before expanding anything, the work of those
    chains is bounded from the weights alone; a bound above
    MAX_DEFECT_WORK raises ValueError.  The bound counts distinct weight
    sums, so large weights alone do not trip it.

    Every chain multiplies F binomials with coefficients +-1, so its
    x-coefficients are at most its start's L1 norm times 2^F: 2^F for a
    point and m 2^F for the constant.  The defect's coefficients are then
    at most 2m * 2^F < 2^(B - 1) for B = F + bit_length(m + 1) + 2,
    rounded up to whole bytes.  Each x-coefficient is one balanced
    base-2^B digit, so packing x at 2^B is injective and the digits are
    byte ranges.

    The two layouts run the same chains and differ only in how they
    multiply by a binomial and how they add.  Every z-coefficient has
    x-degree at most n and every z-exponent lies in 0 .. D.  So with
    S = (n + 1) B, the whole defect is one int with x at 2^B and z at 2^S:
    the x^i coefficient of z^k is digit k (n + 1) + i, no digit spills
    into the next, and the int is 0 exactly when the defect is.  A
    binomial is then one shift and one add on that int.  Its size,
    (D + 1) S bits, grows with the weights themselves, so past
    MAX_DENSE_BITS (large weights with few factors, such as L1 and S3 at
    10^9 + 7) the defect is kept as {z-exponent: int} instead, whose size
    grows only with the distinct weight sums, and every binomial
    low + high z^a, with low and high packed ints, is one pass over the
    z-coefficients (``_times_binomial``).  The sum of the chains is
    returned as ``PackedDefect(value, bits, degree)``: the one int with
    ``degree`` n, or the map, with every z-coefficient that cancels
    dropped, with ``degree`` None.
    """
    n = data.n
    # extra is lazy: no point's extras are listed before the guard
    shared, extra = _shared_factors([sorted(map(abs, p.weights)) for p in data.points])
    degree = sum(shared)
    # every point's own factors plus its extras are the shared multiset,
    # so each of the m + 1 chains multiplies F binomials whose exponents
    # sum to D; its running products have z-exponents among their subset
    # sums, at most 2^F and at most D + 1 of them, of n + 1 x-terms each
    estimate = (data.m + 1) * len(shared) * min(1 << len(shared), degree + 1) * (n + 1)
    if estimate > MAX_DEFECT_WORK:
        raise ValueError(
            f"defect work estimate {estimate} coefficient products exceeds"
            f" the bound {MAX_DEFECT_WORK}"
        )
    coeffs = _ah_coefficients(data) if coeffs is None else coeffs
    bits = -(-(len(shared) + (data.m + 1).bit_length() + 2) // 8) * 8
    slot = (n + 1) * bits
    dense = (degree + 1) * slot <= MAX_DENSE_BITS
    constant = 0  # sum_i c_i x^i, x at 2^bits
    for c in reversed(coeffs):
        constant = (constant << bits) + c
    # (start, weights, (z^a - 1) factors): the m points, then the constant
    chains = [(p.sign, p.weights, more) for p, more in zip(data.points, extra)]
    chains.append((-constant, (), shared))
    total = 0 if dense else {}
    x = 1 << bits
    for first, weights, more in chains:
        # on the one int, times x is a shift by bits and times z^a a shift
        # by a * slot; on the map, a chain starts at z^0
        t = first if dense else {0: first}
        for w in weights:
            if dense and w > 0:
                t += t << (bits + slot * w)
            elif dense:
                t = -((t << bits) + (t << slot * -w))
            else:  # 1 + x z^w, or -x - z^a for w = -a
                t = _times_binomial(t, w, 1, x) if w > 0 else _times_binomial(t, -w, -x, -1)
        for a in more:
            t = (t << slot * a) - t if dense else _times_binomial(t, a, -1, 1)
        if dense:
            total += t
        else:
            for k, c in t.items():  # a coefficient that cancels is dropped
                c += total.pop(k, 0)
                if c:
                    total[k] = c
    return PackedDefect(total, bits, n if dense else None)


def pairs_off(points: tuple[FixedPoint, ...]) -> bool:
    """Whether the points split into Z pairs: two points with the same
    weights, in any order, and opposite signs."""
    net: dict[tuple[int, ...], int] = {}
    for p in points:
        key = tuple(sorted(p.weights))
        net[key] = net.get(key, 0) + p.sign
    return not any(net.values())


def is_rigid(data: FixedPointData) -> GenusReport:
    """The exact rigidity check of ``data``, with its AH constant.

    Data that pairs off completely is rigid with constant 0 and is not
    expanded.  Two points with the same weights, in any order, and
    opposite signs add +T and -T to the fixed-point sum,
    T = prod_j (x z^w + y) / (z^w - 1), and +M and -M to the
    Atiyah-Hirzebruch sum, M = x^{s+} (-y)^{s-}; both T and M depend on
    the weights alone.  So when every point has such a partner, both sums
    are 0 and the defect is the zero polynomial.  Every AH coefficient is
    then 0 too, and that cheaper test runs first.  All other data, partly
    cancelling data included, goes through ``rigidity_defect``.
    """
    coeffs = _ah_coefficients(data)
    if not any(coeffs) and pairs_off(data.points):
        # the zero int, in one-byte digits; a zero constant is symmetric
        return GenusReport(PackedDefect(0, 8, data.n), _ZERO_POLY, True, weight_gcd(data))
    defect = rigidity_defect(data, coeffs)
    return GenusReport(
        defect, _ah_poly(data.n, coeffs), _limits_cancel(data.n, coeffs), weight_gcd(data)
    )
