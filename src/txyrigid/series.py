"""Truncated-series back-end: evaluates the equivariant genus of
fixed-point data as a Laurent series and checks constancy.

This is the package's second, independent route to the rigidity verdict.
For a genus with characteristic series H, the contribution of a weight w
is the expansion of H(w*u)/(w*u) about u = 0, which has a simple pole
with residue 1/w; a fixed point contributes the signed product of its
weight factors, and the candidate's series is the sum over points.

Every expansion rests on one rational series, the Bernoulli expansion

    g(s) = 1/(e^s - 1) = sum_k B_k s^(k-1) / k!     (B_1 = -1/2),

whose Bernoulli numbers come from the integer tangent numbers, one table
per length.

For the two-parameter genus

    H(u)/u = (x*e^{(x+y)u} + y) / (e^{(x+y)u} - 1)

all expansions are carried out in the scaled variable t = (x+y)*u, where
a weight factor is x + (x+y)*g(w*t).  With h = g + 1/2 = coth(s/2)/2
it is (x-y)/2 + (x+y)*h(w*t), the symmetric form in Hirzebruch-Berger-
Jung, Manifolds and Modular Forms (1992), and a point with weights
w_1 .. w_n contributes

    sign * sum_k ((x-y)/2)^(n-k) (x+y)^k e_k(h(w_1 t), .., h(w_n t)),

with e_k the elementary symmetric functions.  h is odd, so t*h(w*t) is
even in t: its table is g's with the B_1 entry at t^1 dropped, the only
nonzero odd one, and every t^k e_k is a series in t^2, kept at half the
length.  The n + 1 series e_k have rational coefficients, kept as
integer numerators over one common denominator; each is built by the
recursion e_k += e_(k-1) * factor, one multiply-accumulate per update,
and summed over the points.  x and y enter only at assembly: the
x^(n-b) y^b part of every retained coefficient comes from one integer
row over all exponents, to which each summed e_k contributes
2^k K(n, k, b) times itself at every other index from n - k, with
K(n, k, b) the x^(n-b) y^b coefficient of (x-y)^(n-k) (x+y)^k, over
2^n times the common denominator.  Only the rows b <= n/2 are built:
swapping x and y turns each factor into minus itself at -t, so row n - b
is row b with its odd indices negated.  The rows stay integers, returned
as a ``GenusExpansion``: constancy is a test for zero entries, and an
entry becomes a reduced fraction, by one gcd, only when it is printed or
a ``PolyXY`` coefficient is asked for.  Nothing here is shared with the
exact z-domain check in ``genera``.
The stored coefficient of t^k is the true u^k coefficient divided by
(x+y)^k.  Constancy is unaffected by the scaling (the coefficient ring
has no zero divisors) and the constant term itself carries no scaling
unit, so verdict and constant can be compared directly with the exact
z-domain checker.

Rational-coefficient genera (Todd built in, others supplied as explicit
coefficient lists) are expanded in u itself and need only the product
e_n of their factors, the one row of the same assembly, at every index;
the weight enters by the substitution u -> w*u, i.e. by scaling the k-th
coefficient with w^k.  Todd is the two-parameter genus at
(x, y) = (1, 0), 1/(1 - e^{-u}) = 1 + g(u), so it reads the one table of
g's coefficients and adds 1 to the first.  It stays on g: its factor
1 + g = 1/2 + h would need every e_k of h, not one product, and that
measured slower at every n from 2 to 5.

Points with the same sorted weights contribute the same series, since
each e_k is symmetric in the weights; so their signs are added before
anything is expanded, and a group whose signs add up to 0 is skipped.

No series is ever divided: every factor is a Laurent series with a
simple pole and known coefficients, so each product is exact up to the
retained order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm
from typing import Optional

from .algebra import PolyXY, Record, _fraction, _set
from .genera import FixedPointData

# Work guard: genus_series refuses data when its bound on the coefficient
# products of the expansion exceeds this.  Two points with n distinct
# weights at order n + 1 first exceed it at n = 15; admitted data takes at
# most a few seconds.
MAX_SERIES_WORK = 1 << 20

# Size guard: genus_series refuses data when its bound on the bits the
# weights, and a custom genus's coefficients, put into one integer of the
# expansion (_size_estimate) exceeds this.  Two points at n = 2, order 200,
# with weights (+-a, a + 2): a = 10^20 (13,737 bits) is admitted and takes
# 0.7 s; a = 10^30 (20,504 bits), 10^300 and 10^3000 are refused in
# milliseconds, where the expansion takes 1 s, 25 s and over 5 minutes.
# The CLI's max_digits (the int-to-str limit) refuses a = 10^20 there too.
MAX_SERIES_BITS = 1 << 14


def _bernoulli_numbers(count: int) -> list[Fraction]:
    """B_0 .. B_(count-1), from the tangent numbers T_1, T_2, .. (tan s =
    sum_k T_k s^(2k-1) / (2k-1)!), which Brent and Harvey's recurrence
    (Fast computation of Bernoulli, Tangent and Secant numbers, 2011)
    builds in O(count^2) integer operations; then
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))."""
    half = (count - 1) // 2
    tangent = [0, 1] + [0] * (half - 1)
    for k in range(2, half + 1):
        tangent[k] = (k - 1) * tangent[k - 1]
    for k in range(2, half + 1):
        for j in range(k, half + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    out = [Fraction(1), Fraction(-1, 2)][:count] + [Fraction(0)] * (count - 2)
    for k in range(1, half + 1):
        power = 4**k
        out[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * tangent[k], power * (power - 1))
    return out


@lru_cache(maxsize=None)
def bernoulli(k: int) -> Fraction:
    """The Bernoulli number B_k, in the convention s/(e^s - 1) =
    sum_k B_k s^k / k! (so B_1 = -1/2)."""
    if k < 0:
        raise ValueError("Bernoulli numbers start at index 0")
    return _bernoulli_numbers(k + 1)[k]


def _over_common_denominator(values) -> tuple[tuple[int, ...], int]:
    denominator = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (denominator // v.denominator) for v in values), denominator


@lru_cache(maxsize=None)
def _g_regular(length: int) -> tuple[tuple[int, ...], int]:
    # coefficients of s^0 .. s^(length-2) in g(s) - 1/s, as integer
    # numerators over one common denominator
    numbers = _bernoulli_numbers(length)
    return _over_common_denominator([numbers[k] / factorial(k) for k in range(1, length)])


def _factor(w: int, numerators: tuple[int, ...], denominator: int) -> tuple[int, ...]:
    # u * F(w u) for F(u) = 1/u + sum_k (numerators[k] / denominator) u^k,
    # as the numerators of u^0 .. u^(length-1) over w * denominator
    out = [denominator]
    power = w
    for c in numerators:
        out.append(c * power)
        power *= w
    return tuple(out)


@lru_cache(maxsize=4096)
def txy_factor_series(w: int, length: int) -> tuple[int, ...]:
    """The rational part g(w*t) = 1/(e^{w t} - 1) of the two-parameter
    weight factor x + (x+y)*g(w*t), as the integer numerators of its
    coefficients of t^-1 .. t^(length-2) over the common denominator w*D,
    with D the least common denominator of the Bernoulli coefficients
    B_k / k! for k < length.

    The first numerator is D: the residue 1/w, which read in u is the
    factor's pole (x+y)/w * t^-1 = 1/(w*u).
    """
    if w == 0:
        raise ValueError("weights must be nonzero")
    if length < 1:
        raise ValueError("length must be at least 1")
    return _factor(w, *_g_regular(length))


@lru_cache(maxsize=None)
def _txy_rows(n: int) -> tuple:
    """For each y-exponent b <= n/2: the monomial key (n - b, b), its
    mirror (b, n - b) or None for b = n/2, and the pairs
    (k, 2^k K(n, k, b)) whose K(n, k, b), the x^(n-b) y^b coefficient of
    (x - y)^(n-k) (x + y)^k, is nonzero."""
    rows = []
    for b in range(n // 2 + 1):
        parts = []
        for k in range(n + 1):
            c = sum((-1) ** j * comb(n - k, j) * comb(k, b - j) for j in range(b + 1))
            if c:
                parts.append((k, c << k))
        rows.append(((n - b, b), (b, n - b) if 2 * b < n else None, tuple(parts)))
    return tuple(rows)


def _mul_add(acc: list[int], a, b) -> list[int]:
    # acc plus the product of the power series a and b, truncated to the
    # length of acc; b is given as its nonzero (exponent, coefficient) pairs
    out = list(acc)
    length = len(out)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in b:
            if i + j >= length:
                break
            out[i + j] += ai * bj
    return out


class GenusSeries(Record):
    """A genus presented through the expansion of H(u)/u about u = 0.

    The expansion always starts u^{-1} with residue 1.  ``regular_coeffs``
    lists the coefficients of H(u)/u - 1/u starting at u^0, taken as zero
    beyond the list, stored as Fractions; a float raises ValueError.
    The built-in genera take no list: "txy", the two-parameter genus, which
    ``symbolic`` marks (coefficients polynomial in x, y; scaled variable as
    described in the module docstring), and "todd", whose coefficients come
    from the Bernoulli numbers.  Every other name needs a list.  A list
    under a built-in name, or none under another name, raises ValueError.
    """

    def __init__(self, name: str, regular_coeffs: Optional[tuple[Fraction, ...]] = None):
        if (regular_coeffs is None) != (name in ("txy", "todd")):
            raise ValueError("txy and todd take no coefficient list, and every other genus needs one")
        if regular_coeffs is not None:
            regular_coeffs = tuple(map(_fraction, regular_coeffs))
        _set(self, "name", name)
        _set(self, "regular_coeffs", regular_coeffs)

    @property
    def symbolic(self) -> bool:
        return self.name == "txy"


TXY = GenusSeries("txy")
TODD = GenusSeries("todd")


class GenusExpansion(Record):
    """A truncated Laurent series with coefficients in Q[x, y], as integer
    rows over one positive denominator: ``rows`` holds, sorted by key, one
    pair ``((i, j), numerators)`` per monomial x^i y^j, whose numerators
    are those of its coefficients of u^lowest .. u^(order - 1).  Equality
    and the hash read the values, reduced: two expansions of one series
    with the same keys are equal whatever their denominators.
    """

    def __init__(self, lowest: int, denominator: int, rows: tuple):
        if denominator <= 0:
            raise ValueError("the denominator must be positive")
        _set(self, "lowest", lowest)
        _set(self, "denominator", denominator)
        _set(self, "rows", rows)

    def _values(self) -> tuple:
        common = gcd(self.denominator, *(gcd(*row) for _, row in self.rows))
        rows = tuple((key, tuple(c // common for c in row)) for key, row in self.rows)
        return self.lowest, self.denominator // common, rows

    @property
    def order(self) -> int:
        return self.lowest + (len(self.rows[0][1]) if self.rows else 0)

    def coeff(self, k: int) -> PolyXY:
        """The u^k coefficient as a PolyXY of reduced Fractions: zero below
        ``lowest``, unknown (ValueError) from ``order`` on."""
        if k < self.lowest:
            return PolyXY.zero()
        if k >= self.order:
            raise ValueError(f"exponent {k} is beyond the truncation order {self.order}")
        i, d = k - self.lowest, self.denominator
        return PolyXY._raw({key: Fraction(row[i], d) for key, row in self.rows if row[i]})

    @property
    def coeffs(self) -> tuple[PolyXY, ...]:
        return tuple(self.coeff(k) for k in range(self.lowest, self.order))

    def terms(self, k: int) -> list[tuple[tuple[int, int], str]]:
        """The nonzero terms of the retained u^k coefficient in key order,
        each coefficient as the string ``str(Fraction)`` makes of its
        reduced value; one gcd per term.  Like str(), this raises
        ValueError for an integer past the interpreter's digit limit."""
        i, d = k - self.lowest, self.denominator
        out = []
        for key, row in self.rows:
            c = row[i]
            if c:
                g = gcd(c, d)
                out.append((key, str(c // g) if g == d else f"{c // g}/{d // g}"))
        return out


def _size_estimate(n: int, length: int, weights, common: int, genus: GenusSeries) -> int:
    """A bound on the bits the data and the genus put into one integer of
    the expansion, from the weights and the listed coefficients alone.

    The t^i entry of a factor carries w^i times common / w, with common
    the lcm of the weights, so an entry of a product of n factors, or of
    a row lifted to the common denominator, carries at most
    (length - 1) * bits(max |w|) + n * bits(common) bits of them.  A custom
    genus's coefficients enter a factor as numerators over D, the lcm of
    their denominators, and add n * (bits(D) + bits of the largest
    numerator).  D is built only until n * bits(D) alone is over
    MAX_SERIES_BITS, because the lcm of many large denominators is itself
    slow; an estimate over the bound may therefore stop short.  TXY's
    rows take each summed e_k times 2^k K(n, k, b), at most 2^(2n) in
    size, and its denominator gains 2^n, so TXY adds 2n bits.  The
    Bernoulli coefficients of TXY and Todd add a size fixed by the order
    (about 1,300 bits at order 200), left to genus_series's allowance."""
    bits = (length - 1) * max(abs(w) for w in weights).bit_length() + n * common.bit_length()
    if genus.symbolic:
        bits += 2 * n
    elif genus.regular_coeffs is not None:
        denominator, numerator_bits = 1, 0
        for c in genus.regular_coeffs[: length - 1]:
            denominator = lcm(denominator, c.denominator)
            numerator_bits = max(numerator_bits, abs(c.numerator).bit_length())
            if n * denominator.bit_length() > MAX_SERIES_BITS:
                break
        bits += n * (denominator.bit_length() + numerator_bits)
    return bits


def genus_series(
    data: FixedPointData, genus: GenusSeries, order: int, max_digits: int = 0
) -> GenusExpansion:
    """The candidate's equivariant genus as a truncated series: the signed
    sum over fixed points of the product of weight factors.  Retains
    exponents from -n up to order - 1.

    Every factor is t^-1 times a power series, so each e_k of a point's
    factors is exact to order - 1 when its power series are kept to length
    order + n: for TXY that is the (order + n + 1) // 2 coefficients of
    t^0, t^2, .. of each t^k e_k of h, and for a rational genus every
    coefficient of e_n.  The points are first grouped by sorted weights
    and each group with a nonzero sum of signs is expanded once, with that
    sum as its sign.  A group's e_k come from the elementary-symmetric
    recursion e_k += e_(k-1) * factor, one multiply-accumulate per update.
    The summed e_k are then assembled into one integer row per y-exponent
    over every retained exponent, TXY's e_k weighted by 2^k K(n, k, b) at
    every other index; TXY builds the rows b <= n/2 and reads row n - b
    off row b, and a rational genus has the one row e_n.  The rows are
    returned as they are, over one denominator, as a GenusExpansion: no
    entry is reduced here, only where it is printed or read as a
    PolyXY.

    Two guards run before any product, and before the grouping, on all of
    the data; each raises ValueError.  The work is bounded from m, n and
    work = order + 2n + 6, a length above order + n: the recursion makes
    at most n(n + 1)/2 products of series of that length per point, at
    most work^2 / 2 coefficient products each, and the assembly is
    smaller still, so m * n(n + 1) * work^2 bounds the
    coefficient products; it may not exceed MAX_SERIES_WORK.  The bits
    those products carry, as _size_estimate bounds them, may not exceed
    MAX_SERIES_BITS.  A nonzero ``max_digits`` adds a third: the estimate plus
    bits((length - 1)!) for the Bernoulli coefficients may not pass that many digits."""
    n = data.n
    if order < n + 1:
        raise ValueError("order must be at least n + 1")
    work = order + 2 * n + 6
    estimate = data.m * n * (n + 1) * work * work
    if estimate > MAX_SERIES_WORK:
        raise ValueError(
            f"series work estimate {estimate} monomial products exceeds"
            f" the bound {MAX_SERIES_WORK}"
        )
    length = order + n
    weights = {w for point in data.points for w in point.weights}
    bits = _size_estimate(n, length, weights, lcm(*weights), genus)
    if bits > MAX_SERIES_BITS:
        raise ValueError(
            f"series size estimate {bits} bits per coefficient exceeds"
            f" the bound {MAX_SERIES_BITS}"
        )
    allowance = 0 if genus.regular_coeffs is not None else factorial(length - 1).bit_length()
    limit = (max_digits - 1) * 100000 // 30103  # b bits: < b * 0.30103 + 1 digits
    if max_digits and bits + allowance > limit:
        raise ValueError(
            f"series size estimate {bits} bits plus {allowance} for the Bernoulli coefficients"
            f" exceeds {limit} bits, the interpreter's limit of {max_digits} digits for"
            " integer strings"
        )
    # points with the same sorted weights contribute the same series: their
    # signs are added first, and a group whose signs cancel is skipped
    signs = {}
    for point in data.points:
        group = tuple(sorted(point.weights))
        signs[group] = signs.get(group, 0) + point.sign
    groups = [(group, sign) for group, sign in signs.items() if sign]
    weights = {w for group, _ in groups for w in group}
    common = lcm(*weights)
    symbolic = genus.symbolic
    if genus.regular_coeffs is None:
        numerators, denominator = _g_regular(length)
        if not symbolic:
            # Todd: 1/(1 - e^{-u}) = 1 + g(u), with the same lcm (-1/2 + 1 = 1/2)
            numerators = (numerators[0] + denominator, *numerators[1:])
    else:
        listed = genus.regular_coeffs[: length - 1]
        numerators, denominator = _over_common_denominator(
            listed + (Fraction(0),) * (length - 1 - len(listed))
        )
    # every factor as the nonzero (exponent, numerator) pairs of its
    # coefficients over one denominator, scale: its own denominator is
    # w * denominator, lifted by common / w.  A TXY factor
    # t * h(w t) = t * g(w t) + t/2 is even in t, so its table is g's at
    # t^0, t^2, .. (the B_1 entry at t^1 is the only odd one), and every
    # series below is one in t^2
    scale = common * denominator
    if symbolic:
        size, stride, rows, full = (length + 1) // 2, 2, _txy_rows(n), (2 * scale) ** n
    else:
        size, stride, rows, full = length, 1, (((0, 0), None, ((n, 1),)),), scale**n
    factors = {}
    for w in weights:
        base = txy_factor_series(w, length)[::2] if symbolic else _factor(w, numerators, denominator)
        factors[w] = [(i, c * (common // w)) for i, c in enumerate(base) if c]
    # a rational genus needs only the product of the factors, e_n
    low = 0 if symbolic else n
    # sums[k]: scale^k times the sum over groups of sign * t^k e_k
    sums = [[0] * size for _ in range(n + 1)]
    for group, sign in groups:
        elementary = [[sign] + [0] * (size - 1)]
        for w in group:
            a = factors[w]
            elementary.append(_mul_add([0] * size, elementary[-1], a))
            for k in range(len(elementary) - 2, low, -1):
                elementary[k] = _mul_add(elementary[k], elementary[k - 1], a)
        for k in range(low, n + 1):
            sums[k] = [p + q for p, q in zip(sums[k], elementary[k])]
    # the t^j coefficient of ((x-y)/2)^(n-k) (x+y)^k t^-k e_k has the y^b
    # term K(n, k, b) 2^(k-n) sums[k][(j + k) / 2] / scale^k; over
    # full = (2 scale)^n, row b holds the numerators of every retained j at
    # index j + n, so sums[k] enters it times 2^k K(n, k, b), lifted by
    # scale^(n-k), at the indices n - k, n - k + 2, ..  Swapping x and y
    # turns each factor into minus itself at -t (h is odd), so the
    # x^b y^(n-b) coefficient of t^j is (-1)^(j+n) times the x^(n-b) y^b
    # one: row n - b is row b with its odd indices negated.  A rational
    # genus has the one row e_n over scale^n, every index, keyed (0, 0)
    out = []
    for key, mirror, parts in rows:
        row = [0] * length
        for k, f in parts:
            shift, f = n - k, f * scale ** (n - k)
            row[shift::stride] = [r + f * c for r, c in zip(row[shift::stride], sums[k])]
        out.append((key, tuple(row)))
        if mirror:
            row[1::2] = [-c for c in row[1::2]]
            out.append((mirror, tuple(row)))
    out.sort()
    return GenusExpansion(-n, full, tuple(out))


def series_is_constant(expansion: GenusExpansion) -> Optional[PolyXY]:
    """The constant term if every other retained coefficient vanishes,
    None otherwise, for an expansion that retains u^0, as genus_series's
    do; only the u^0 coefficient becomes a PolyXY.  A claim of constancy
    is only about the retained range; the exact z-domain checker owns the
    all-orders statement."""
    at = -expansion.lowest
    for _, row in expansion.rows:
        if any(row[:at]) or any(row[at + 1 :]):
            return None
    return expansion.coeff(0)
