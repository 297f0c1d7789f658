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

The defect is computed packed (see ``algebra.PackedDefect``): each
running product is a dict {z-exponent: int}, where the int is that
z-coefficient's x-polynomial at x = 2^B.  Every factor is a binomial with
coefficients +-1, so each multiplication is a shift and two adds per
z-coefficient, with no polynomial product.  ``algebra.LaurentZ``, which
multiplies term by term, is kept as the tests' reference kernel.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from math import gcd
from operator import or_
from typing import Optional

from .algebra import PackedDefect, PolyXY

# Work guard: rigidity_defect refuses data when its upper bound on the
# coefficient products of the expansion exceeds this.  Two negated points
# with n distinct power-of-two weights first exceed it at n = 17; at
# n = 16 the packed defect takes about 0.2 s and decoding its 65,534
# terms another 0.4 s (Python 3.11, 2 vCPU).
MAX_DEFECT_WORK = 1 << 26


@dataclass(frozen=True)
class FixedPoint:
    """One isolated fixed point: its integer rotation weights and its sign."""

    weights: tuple[int, ...]
    sign: int

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        if not self.weights:
            raise ValueError("a fixed point needs at least one weight")
        if any(w == 0 for w in self.weights):
            raise ValueError("weights must be nonzero integers")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    @property
    def s_plus(self) -> int:
        return sum(1 for w in self.weights if w > 0)

    @property
    def s_minus(self) -> int:
        return sum(1 for w in self.weights if w < 0)


@dataclass(frozen=True)
class FixedPointData:
    """Candidate data: n weights per point (half the real dimension) and a
    nonempty list of fixed points."""

    n: int
    points: tuple[FixedPoint, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if not self.points:
            raise ValueError("at least one fixed point is required")
        for p in self.points:
            if len(p.weights) != self.n:
                raise ValueError(
                    f"every point needs exactly {self.n} weights, got {len(p.weights)}"
                )

    @property
    def m(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class GenusReport:
    """Outcome of the exact rigidity check on one candidate.

    rigid holds exactly when the defect is the zero Laurent polynomial, in
    which case ``constant`` is present and equals ``ah_constant``.  The
    weight gcd is reported (not enforced) so callers can filter ineffective
    data, and ``limits_symmetric`` records the z -> 0 / z -> infinity
    necessary condition.
    """

    rigid: bool
    constant: Optional[PolyXY]
    defect: PackedDefect
    ah_constant: PolyXY
    limits_symmetric: bool
    weight_gcd: int


def _signed_monomial(sign: int, weights, swapped: bool = False) -> tuple[int, int, int]:
    """(x-exponent, y-exponent, integer coefficient) of the point term
    sign * x^{s+} * (-y)^{s-}, with s+ and s- exchanged when swapped."""
    plus = sum(1 for w in weights if w > 0)
    minus = len(weights) - plus
    if swapped:
        plus, minus = minus, plus
    return plus, minus, sign if minus % 2 == 0 else -sign


def _signed_monomials(data: FixedPointData) -> list[tuple[int, int, int]]:
    return [_signed_monomial(p.sign, p.weights) for p in data.points]


def ah_constant(data: FixedPointData) -> PolyXY:
    """The Atiyah-Hirzebruch value: sum of sign * x^{s+} * (-y)^{s-} over
    the fixed points."""
    return PolyXY(((i, j), c) for i, j, c in _signed_monomials(data))


def limit_symmetry(data: FixedPointData) -> bool:
    """Necessary condition for rigidity from the z -> infinity and z -> 0
    limits of the fixed-point sum: the signed monomial sum must be
    invariant under swapping each point's positive and negative counts."""
    total: Counter = Counter()
    for p in data.points:
        i, j, c = _signed_monomial(p.sign, p.weights)
        k, h, d = _signed_monomial(p.sign, p.weights, swapped=True)
        total[i, j] += c
        total[k, h] -= d
    return not any(total.values())


def weight_gcd(data: FixedPointData) -> int:
    """gcd of all weight magnitudes; 1 means the data is effective."""
    return reduce(gcd, (abs(w) for p in data.points for w in p.weights))


def _chain_cost(exponents: list[int], width: int) -> int:
    """Upper bound on the coefficient products of multiplying binomials
    c + d z^e into a running product, one at a time, over the given
    exponents e > 0 and with at most ``width`` x-terms per coefficient.
    Every running product has z-exponents among the subset sums of the
    exponents, of which there are at most 2^count and at most total + 1."""
    terms = min(1 << len(exponents), sum(exponents) + 1)
    return len(exponents) * terms * width


def _times_x_z_plus_one(poly: dict, w: int, bits: int) -> dict:
    """poly * (x z^w + 1), x packed at 2^bits."""
    out = dict(poly)
    for k, c in poly.items():
        out[k + w] = out.get(k + w, 0) + (c << bits)
    return out


def _times_minus_x_plus_z(poly: dict, a: int, bits: int) -> dict:
    """poly * -(x + z^a), x packed at 2^bits."""
    out = {k: -(c << bits) for k, c in poly.items()}
    for k, c in poly.items():
        out[k + a] = out.get(k + a, 0) - c
    return out


def _times_z_minus_one(poly: dict, a: int) -> dict:
    """poly * (z^a - 1)."""
    out = {k: -c for k, c in poly.items()}
    for k, c in poly.items():
        out[k + a] = out.get(k + a, 0) + c
    return out


def rigidity_defect(data: FixedPointData) -> PackedDefect:
    """Numerator minus constant times expanded denominator, at y = 1; the
    data is rigid exactly when this Laurent polynomial is zero.

    The points are put over the least common multiset of their (z^a - 1)
    factors, so every product is a chain of binomials in z.  Before
    expanding anything, the work of those chains is bounded from the
    weights alone; a bound above MAX_DEFECT_WORK raises ValueError.  The
    bound counts distinct weight sums, so large weights alone do not
    trip it.

    Each point's product, and each Atiyah-Hirzebruch monomial times the
    shared product, multiplies F binomials with coefficients +-1, F the
    size of the shared multiset, so its x-coefficients are bounded by
    its L1 norm 2^F.  The defect sums m of the first and m of the second,
    so its coefficients are at most 2m * 2^F < 2^(B - 1) for
    B = F + bit_length(m + 1) + 2, and packing x at 2^B is injective.
    """
    own = [Counter(abs(w) for w in p.weights) for p in data.points]
    shared = reduce(or_, own)
    extra = [list((shared - mine).elements()) for mine in own]
    width = data.n + 1
    estimate = _chain_cost(list(shared.elements()), width) + sum(
        _chain_cost([abs(w) for w in p.weights] + more, width)
        for p, more in zip(data.points, extra)
    )
    if estimate > MAX_DEFECT_WORK:
        raise ValueError(
            f"defect work estimate {estimate} coefficient products exceeds"
            f" the bound {MAX_DEFECT_WORK}"
        )
    # n weights plus the extras make every point's product as long as
    # the shared one
    bits = sum(shared.values()) + (data.m + 1).bit_length() + 2
    total: dict[int, int] = {}
    for point, more in zip(data.points, extra):
        term = {0: point.sign}
        for w in point.weights:
            if w > 0:
                term = _times_x_z_plus_one(term, w, bits)
            else:
                term = _times_minus_x_plus_z(term, -w, bits)
        for a in more:
            term = _times_z_minus_one(term, a)
        for k, c in term.items():
            total[k] = total.get(k, 0) + c
    expected = {0: sum(c << (bits * i) for i, _, c in _signed_monomials(data))}
    for a in shared.elements():
        expected = _times_z_minus_one(expected, a)
    for k, c in expected.items():
        total[k] = total.get(k, 0) - c
    return PackedDefect(total, bits)


def is_rigid(data: FixedPointData) -> GenusReport:
    defect = rigidity_defect(data)
    rigid = defect.is_zero()
    constant = ah_constant(data)
    return GenusReport(
        rigid=rigid,
        constant=constant if rigid else None,
        defect=defect,
        ah_constant=constant,
        limits_symmetric=limit_symmetry(data),
        weight_gcd=weight_gcd(data),
    )
