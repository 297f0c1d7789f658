"""Truncated-series back-end: evaluates the equivariant genus of
fixed-point data as a Laurent series and checks constancy.

This is the package's second, independent route to the rigidity verdict.
For a genus with characteristic series H, the contribution of a weight w
is the expansion of H(w*u)/(w*u) about u = 0, which has a simple pole
with residue 1/w; a fixed point contributes the signed product of its
weight factors, and the candidate's series is the sum over points.

For the two-parameter genus

    H(u)/u = (x*e^{(x+y)u} + y) / (e^{(x+y)u} - 1)

all expansions are carried out in the scaled variable t = (x+y)*u, which
keeps every coefficient polynomial: the stored coefficient of t^k is the
true u^k coefficient divided by (x+y)^k.  Constancy is unaffected by the
scaling (the coefficient ring has no zero divisors) and the constant term
itself carries no scaling unit, so verdict and constant can be compared
directly with the exact z-domain checker.

Rational-coefficient genera (Todd built in, others supplied as explicit
coefficient lists) are expanded in u itself; the weight enters by the
substitution u -> w*u, i.e. by scaling the k-th coefficient with w^k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .algebra import PolyXY, SeriesU, series_exp
from .genera import FixedPointData

_X = PolyXY.x()
_Y = PolyXY.y()
_ONE = PolyXY.one()

# Work guard: genus_series refuses data when its bound on the monomial
# products of the expansion exceeds this.  Two points with n distinct
# weights at order n + 1 first exceed it at n = 15; admitted data takes at
# most a few seconds.
MAX_SERIES_WORK = 1 << 20


@lru_cache(maxsize=4096)
def txy_factor_series(w: int, order: int) -> SeriesU:
    """Weight factor of the two-parameter genus, expanded in t = (x+y)*u.

    The result has lowest exponent -1 with coefficient (x+y)/w; read in u,
    that is the simple pole 1/(w*u).
    """
    if w == 0:
        raise ValueError("weights must be nonzero")
    if order < 1:
        raise ValueError("order must be at least 1")
    work = order + 2
    exp_wt = series_exp(Fraction(w), work)
    numerator = exp_wt * _X + SeriesU.const(_Y, work)
    denominator = exp_wt - SeriesU.const(_ONE, work)
    return (numerator / denominator).truncate(order=order)


@lru_cache(maxsize=None)
def _todd_regular(order: int) -> tuple[Fraction, ...]:
    # coefficients of 1/(1 - e^{-u}) - 1/u at exponents 0 .. order-1
    work = order + 2
    denominator = SeriesU.const(_ONE, work) - series_exp(Fraction(-1), work)
    inverse = SeriesU.const(_ONE, work) / denominator
    out = []
    for k in range(order):
        value = inverse.coeff(k).as_constant()
        assert value is not None
        out.append(value)
    return tuple(out)


@dataclass(frozen=True)
class GenusSeries:
    """A genus presented through the expansion of H(u)/u about u = 0.

    The expansion always starts u^{-1} with residue 1.  ``symbolic`` marks
    the two-parameter genus (coefficients polynomial in x, y; scaled
    variable as described in the module docstring).  Other genera have
    rational coefficients: ``regular_coeffs`` lists the coefficients of
    H(u)/u - 1/u starting at u^0, taken as zero beyond the list; the name
    "todd" computes them exactly instead.
    """

    name: str
    symbolic: bool = False
    regular_coeffs: Optional[tuple[Fraction, ...]] = None

    def regular_coefficient(self, k: int) -> Fraction:
        if k < 0:
            raise ValueError("regular coefficients start at exponent 0")
        if self.regular_coeffs is not None:
            return self.regular_coeffs[k] if k < len(self.regular_coeffs) else Fraction(0)
        if self.name == "todd":
            return _todd_regular(k + 1)[k]
        raise ValueError(f"genus {self.name!r} has no coefficient rule")

    def factor_series(self, w: int, order: int) -> SeriesU:
        """The weight-w factor H(w*u)/(w*u) truncated at ``order``."""
        if w == 0:
            raise ValueError("weights must be nonzero")
        if order < 1:
            raise ValueError("order must be at least 1")
        if self.symbolic:
            return txy_factor_series(w, order)
        if self.regular_coeffs is None and self.name == "todd":
            base = _todd_regular(order)
        else:
            base = tuple(self.regular_coefficient(k) for k in range(order))
        coeffs = [PolyXY.const(Fraction(1, w))]
        scale = Fraction(1)
        for k in range(order):
            coeffs.append(PolyXY.const(base[k] * scale))
            scale *= w
        return SeriesU(-1, order, tuple(coeffs))


TXY = GenusSeries("txy", symbolic=True)
TODD = GenusSeries("todd")


def genus_from_coefficients(name: str, coefficients) -> GenusSeries:
    """A rational-coefficient genus from the Taylor coefficients of
    H(u)/u - 1/u (zero beyond the given list)."""
    return GenusSeries(name, regular_coeffs=tuple(Fraction(c) for c in coefficients))


def genus_series(data: FixedPointData, genus: GenusSeries, order: int) -> SeriesU:
    """The candidate's equivariant genus as a truncated series: the signed
    sum over fixed points of the product of weight factors.  Retains
    exponents from -n up to order - 1.

    Before any product, the work is bounded from m, n and the working
    length: the j-th of a point's n factor products multiplies at most
    work^2 coefficient pairs of at most j and 2 monomials (TXY; other
    genera have one each), so m * n(n + 1) * work^2 bounds the monomial
    products.  A bound above MAX_SERIES_WORK raises ValueError."""
    if order < data.n + 1:
        raise ValueError("order must be at least n + 1")
    work = order + 2 * data.n + 6
    estimate = data.m * data.n * (data.n + 1) * work * work
    if estimate > MAX_SERIES_WORK:
        raise ValueError(
            f"series work estimate {estimate} monomial products exceeds"
            f" the bound {MAX_SERIES_WORK}"
        )
    total = SeriesU.zero(-data.n, order)
    for point in data.points:
        product = SeriesU.const(_ONE, work)
        for w in point.weights:
            product = product * genus.factor_series(w, work)
        total = total + (product * point.sign).truncate(lowest=-data.n, order=order)
    return total


def series_is_constant(series: SeriesU) -> Optional[PolyXY]:
    """The constant term if every other retained coefficient vanishes,
    None otherwise.  A claim of constancy is only about the retained
    range; the exact z-domain checker owns the all-orders statement."""
    constant = PolyXY.zero()
    for k in range(series.lowest, series.order):
        c = series.coeff(k)
        if k == 0:
            constant = c
        elif not c.is_zero():
            return None
    return constant
