"""Exact arithmetic kernel: sparse polynomials in x and y over the
rationals, Laurent polynomials in z over the integer polynomials in x,
and truncated Laurent series.

Conventions shared by the whole package:

* coefficients are ``fractions.Fraction`` values, always reduced, except
  in ``LaurentZ``, whose coefficients are plain ``int`` values; no
  floating point appears anywhere,
* sparse maps never store a zero coefficient, so structural equality
  is semantic equality,
* every value is immutable once constructed and safe to share between
  threads or worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

Scalar = Union[int, Fraction]


def _fraction(value) -> Fraction:
    return value if type(value) is Fraction else Fraction(value)


class PolyXY:
    """Sparse polynomial in the formal variables x and y.

    ``terms`` maps exponent pairs ``(i, j)`` (both nonnegative) to nonzero
    rational coefficients.  The map is the canonical form: two polynomials
    are equal exactly when their term maps are equal.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Union[Mapping, Iterable] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in items:
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent ({i}, {j}) in PolyXY")
            c = _fraction(c)
            if not c:
                continue
            key = (i, j)
            prev = clean.get(key)
            if prev is None:
                clean[key] = c
            elif prev + c:
                clean[key] = prev + c
            else:
                del clean[key]
        self.terms = clean

    @classmethod
    def _raw(cls, terms: dict) -> "PolyXY":
        # internal fast path; caller guarantees no zero coefficients
        poly = object.__new__(cls)
        poly.terms = terms
        return poly

    @classmethod
    def zero(cls) -> "PolyXY":
        return cls._raw({})

    @classmethod
    def one(cls) -> "PolyXY":
        return cls._raw({(0, 0): Fraction(1)})

    @classmethod
    def x(cls) -> "PolyXY":
        return cls._raw({(1, 0): Fraction(1)})

    @classmethod
    def y(cls) -> "PolyXY":
        return cls._raw({(0, 1): Fraction(1)})

    @classmethod
    def const(cls, c: Scalar) -> "PolyXY":
        c = _fraction(c)
        return cls._raw({(0, 0): c} if c else {})

    @classmethod
    def monomial(cls, i: int, j: int, c: Scalar = 1) -> "PolyXY":
        c = _fraction(c)
        if i < 0 or j < 0:
            raise ValueError("monomial exponents must be nonnegative")
        return cls._raw({(i, j): c} if c else {})

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coeff(self, i: int, j: int) -> Fraction:
        return self.terms.get((i, j), Fraction(0))

    def sorted_terms(self) -> list[tuple[tuple[int, int], Fraction]]:
        """Terms in the canonical (x-exponent, y-exponent) order."""
        return sorted(self.terms.items())

    def is_homogeneous(self, degree: int) -> bool:
        return all(i + j == degree for i, j in self.terms)

    # -- arithmetic ------------------------------------------------------

    @staticmethod
    def _coerce(other) -> Optional["PolyXY"]:
        if isinstance(other, PolyXY):
            return other
        if isinstance(other, (int, Fraction)):
            return PolyXY.const(other)
        return None

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other) -> "PolyXY":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            prev = out.get(key)
            if prev is None:
                out[key] = c
            elif prev + c:
                out[key] = prev + c
            else:
                del out[key]
        return PolyXY._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "PolyXY":
        return PolyXY._raw({key: -c for key, c in self.terms.items()})

    def __sub__(self, other) -> "PolyXY":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "PolyXY":
        return -(self - other)

    def __mul__(self, other) -> "PolyXY":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                c = c1 * c2
                prev = out.get(key)
                if prev is None:
                    out[key] = c
                elif prev + c:
                    out[key] = prev + c
                else:
                    del out[key]
        return PolyXY._raw(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "PolyXY":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = PolyXY.one()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # -- substitutions ---------------------------------------------------

    def substitute(self, x0: Scalar, y0: Scalar) -> Fraction:
        """Evaluate at rational x0, y0."""
        x0, y0 = _fraction(x0), _fraction(y0)
        total = Fraction(0)
        for (i, j), c in self.terms.items():
            total += c * x0**i * y0**j
        return total

    def swap_xy(self) -> "PolyXY":
        """Exchange the roles of x and y."""
        return PolyXY._raw({(j, i): c for (i, j), c in self.terms.items()})

    # -- rendering -------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (i, j), c in self.sorted_terms():
            body = []
            if i:
                body.append("x" if i == 1 else f"x^{i}")
            if j:
                body.append("y" if j == 1 else f"y^{j}")
            mono = "*".join(body)
            mag = abs(c)
            if not mono:
                piece = str(mag)
            elif mag == 1:
                piece = mono
            else:
                piece = f"{mag}*{mono}"
            parts.append(("- " if c < 0 else "+ ") + piece)
        text = " ".join(parts)
        return "-" + text[2:] if text.startswith("- ") else text[2:]

    def __repr__(self) -> str:
        return f"PolyXY({self})"


class LaurentZ:
    """Laurent polynomial in the formal variable z whose coefficients are
    integer polynomials in x.

    ``terms`` maps a z-exponent (negative allowed) to a nonzero coefficient,
    itself a dict from x-exponent to nonzero ``int``.  This is the ring the
    z-domain defect lives in with y set to 1: every z-coefficient of the
    cleared identity is an integer polynomial homogeneous of degree n in x
    and y, so dehomogenizing loses nothing.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping] = None):
        # a coefficient is an {x-exponent: int} map or a plain int (x^0)
        clean: dict[int, dict[int, int]] = {}
        for k, c in (terms or {}).items():
            poly = {0: c} if isinstance(c, int) else c
            if any(i < 0 for i in poly):
                raise ValueError("negative x-exponent in LaurentZ")
            poly = {int(i): int(v) for i, v in poly.items() if v}
            if poly:
                clean[int(k)] = poly
        self.terms = clean

    @classmethod
    def _raw(cls, terms: dict) -> "LaurentZ":
        # internal: callers store no zero int; drop emptied coefficients
        value = object.__new__(cls)
        value.terms = {k: c for k, c in terms.items() if c}
        return value

    def is_zero(self) -> bool:
        return not self.terms

    def term_count(self) -> int:
        """Number of nonzero z-coefficients."""
        return len(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentZ):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other) -> "LaurentZ":
        if not isinstance(other, LaurentZ):
            return NotImplemented
        out = {k: dict(c) for k, c in self.terms.items()}
        for k, c in other.terms.items():
            acc = out.setdefault(k, {})
            for i, v in c.items():
                s = acc.get(i, 0) + v
                if s:
                    acc[i] = s
                else:
                    del acc[i]
        return LaurentZ._raw(out)

    def __neg__(self) -> "LaurentZ":
        return LaurentZ._raw(
            {k: {i: -v for i, v in c.items()} for k, c in self.terms.items()}
        )

    def __sub__(self, other) -> "LaurentZ":
        if not isinstance(other, LaurentZ):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "LaurentZ":
        if isinstance(other, int):
            other = LaurentZ({0: other})
        elif not isinstance(other, LaurentZ):
            return NotImplemented
        out: dict[int, dict[int, int]] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                acc = out.setdefault(k1 + k2, {})
                for i1, v1 in c1.items():
                    for i2, v2 in c2.items():
                        i = i1 + i2
                        s = acc.get(i, 0) + v1 * v2
                        if s:
                            acc[i] = s
                        else:
                            del acc[i]
        return LaurentZ._raw(out)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"LaurentZ({self.terms!r})"


_ZERO_POLY = PolyXY.zero()


@dataclass(frozen=True)
class SeriesU:
    """Truncated Laurent series: PolyXY coefficients for the exponents
    ``lowest`` .. ``order - 1``.

    Coefficients below ``lowest`` are exactly zero; coefficients at
    ``order`` and above are unknown.  A product keeps only the exponents
    both factors determine.
    """

    lowest: int
    order: int
    coeffs: tuple[PolyXY, ...]

    def __post_init__(self):
        if self.order < self.lowest:
            raise ValueError("order must be at least lowest")
        if len(self.coeffs) != self.order - self.lowest:
            raise ValueError("coefficient count does not match the exponent range")

    @classmethod
    def zero(cls, lowest: int = 0, order: int = 1) -> "SeriesU":
        return cls(lowest, order, (_ZERO_POLY,) * (order - lowest))

    def coeff(self, k: int) -> PolyXY:
        if k < self.lowest:
            return _ZERO_POLY
        if k >= self.order:
            raise ValueError(f"exponent {k} is beyond the truncation order {self.order}")
        return self.coeffs[k - self.lowest]

    # -- arithmetic ------------------------------------------------------

    def __mul__(self, other) -> "SeriesU":
        if isinstance(other, (int, Fraction, PolyXY)):
            p = other if isinstance(other, PolyXY) else PolyXY.const(other)
            return SeriesU(self.lowest, self.order, tuple(c * p for c in self.coeffs))
        if not isinstance(other, SeriesU):
            return NotImplemented
        lowest = self.lowest + other.lowest
        order = min(self.order + other.lowest, other.order + self.lowest)
        if order < lowest:
            raise ValueError("multiplied series have no common retained range")
        out = [_ZERO_POLY] * (order - lowest)
        for ia, ca in enumerate(self.coeffs):
            if ca.is_zero():
                continue
            for jb, cb in enumerate(other.coeffs):
                target = ia + jb
                if target >= len(out):
                    break
                if cb.is_zero():
                    continue
                out[target] = out[target] + ca * cb
        return SeriesU(lowest, order, tuple(out))

    __rmul__ = __mul__

    def truncate(self, lowest: Optional[int] = None, order: Optional[int] = None) -> "SeriesU":
        new_lowest = self.lowest if lowest is None else lowest
        new_order = self.order if order is None else order
        if new_order > self.order:
            raise ValueError("cannot extend a truncated series")
        if new_order < new_lowest:
            raise ValueError("order must be at least lowest")
        if new_lowest > self.lowest:
            dropped = self.coeffs[: new_lowest - self.lowest]
            if any(not c.is_zero() for c in dropped):
                raise ValueError("cannot drop nonzero low-order coefficients")
        return SeriesU(
            new_lowest, new_order,
            tuple(self.coeff(k) for k in range(new_lowest, new_order)),
        )

