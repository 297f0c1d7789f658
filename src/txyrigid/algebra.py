"""Exact arithmetic kernel: sparse polynomials in x and y over the
rationals, Laurent polynomials in z over Z[x], and truncated Laurent
series.

Conventions shared by the whole package:

* coefficients are ``fractions.Fraction`` values, always reduced, except
  in ``LaurentZ``, whose coefficients are plain ``int`` values; no
  floating point appears anywhere,
* sparse maps never store a zero coefficient, so structural equality
  is semantic equality,
* every value is immutable once constructed and safe to share between
  threads or worker processes: a ``Record`` raises AttributeError on any
  assignment or deletion, and no method changes the ``terms`` of a
  ``PolyXY`` or ``LaurentZ``.

``PolyXY`` holds the constants that reports carry and is the ring the
tests compute reference series with.  ``LaurentZ``, one ``{x-exponent:
int}`` map per z-coefficient multiplied term by term, and ``SeriesU``
run nowhere in the package (the series back-end keeps integer rows,
``series.GenusExpansion``): they are the tests' reference kernels, and
the benchmark's kernel counters patch their products.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Optional, Union

Scalar = Union[int, Fraction]

_set = object.__setattr__


class Record:
    """An immutable value whose ``_fields`` are the parameters of its class's
    ``__init__``, in order, each set once there through ``_set``.  Assigning
    or deleting an attribute raises AttributeError, equality compares the
    fields of two instances of one class, the hash is that of the field
    values, and the repr reads like a dataclass's."""

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


def _fraction(value) -> Fraction:
    if isinstance(value, float):
        raise ValueError(f"{value!r} is a float; only exact rationals are accepted")
    return value if type(value) is Fraction else Fraction(value)


@lru_cache(maxsize=4096)
def _monomial(key: tuple[int, int]) -> str:
    i, j = key
    x = "x" if i == 1 else f"x^{i}" if i else ""
    y = "y" if j == 1 else f"y^{j}" if j else ""
    return f"{x}*{y}" if x and y else x or y


def format_terms(terms: Iterable[tuple[tuple[int, int], str]]) -> str:
    """The text of ``str(PolyXY)`` from its sorted terms, each coefficient
    given as the string ``str(Fraction)`` makes of it, so a caller that
    holds those strings converts no integer to decimal again."""
    parts = []
    for key, coeff in terms:
        mono = _monomial(key)
        sign, mag = ("- ", coeff[1:]) if coeff[0] == "-" else ("+ ", coeff)
        parts.append(sign + (mag if not mono else mono if mag == "1" else f"{mag}*{mono}"))
    text = " ".join(parts) or "+ 0"
    return "-" + text[2:] if text[0] == "-" else text[2:]


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
    def const(cls, c: Scalar) -> "PolyXY":
        c = _fraction(c)
        return cls._raw({(0, 0): c} if c else {})

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def sorted_terms(self) -> list[tuple[tuple[int, int], Fraction]]:
        """Terms in the canonical (x-exponent, y-exponent) order."""
        return sorted(self.terms.items())

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

    def __neg__(self) -> "PolyXY":
        return PolyXY._raw({key: -c for key, c in self.terms.items()})

    def __sub__(self, other) -> "PolyXY":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

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

    # -- rendering -------------------------------------------------------

    def __str__(self) -> str:
        return format_terms((key, str(c)) for key, c in self.sorted_terms())

    def __repr__(self) -> str:
        return f"PolyXY({self})"


class LaurentZ:
    """Laurent polynomial in the formal variable z whose coefficients are
    integer polynomials in x; the tests' reference kernel for the defect.

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


class SeriesU(Record):
    """The tests' reference type for truncated Laurent series: PolyXY
    coefficients for the exponents
    ``lowest`` .. ``order - 1``, with ``order`` = ``lowest`` plus the
    number of ``coeffs``.

    Coefficients below ``lowest`` are exactly zero; coefficients at
    ``order`` and above are unknown.  A product keeps only the exponents
    both factors determine.
    """

    def __init__(self, lowest: int, coeffs: tuple[PolyXY, ...]):
        _set(self, "lowest", lowest)
        _set(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return self.lowest + len(self.coeffs)

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
            return SeriesU(self.lowest, tuple(c * p for c in self.coeffs))
        if not isinstance(other, SeriesU):
            return NotImplemented
        # the product is known up to min(a.order + b.lowest, b.order + a.lowest),
        # so it keeps as many coefficients as the shorter factor
        out = [_ZERO_POLY] * min(len(self.coeffs), len(other.coeffs))
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
        return SeriesU(self.lowest + other.lowest, tuple(out))

    __rmul__ = __mul__
