"""Exact coefficient arithmetic for motivic classes.

Two rings are used throughout the package:

* :class:`LaurentPoly` -- the ring Z[L, L^{-1}] of integer Laurent
  polynomials in the Lefschetz class L (the class of the affine line).
  Every variety class manipulated here (affine and projective spaces,
  their products, all series coefficients) lives in this subring of the
  Grothendieck ring, which keeps arithmetic exact and equality decidable.
  Coefficients are ints only: division by an integer either divides
  exactly or raises :class:`ExactnessError`, so no rational number is
  ever stored in a class.
* :class:`QSeries` -- Laurent series in a symbol q with int coefficients,
  known modulo q^N for a precision N that the arithmetic tracks.  Quiver
  partition sums and the Heine identity run in this ring; their results
  are Laurent polynomials of bounded degree, so a large enough N gives
  them exactly (the bounds are in :mod:`quotmotives.quiver`).

Values of both classes are immutable after construction and all
operations are pure, so they are safe to share between threads.
"""

from __future__ import annotations

import math
from fractions import Fraction


class ExactnessError(ArithmeticError):
    """An exact conversion failed (non-integral coefficient, inexact division)."""


# ---------------------------------------------------------------------------
# Laurent polynomials in the Lefschetz class
# ---------------------------------------------------------------------------

class LaurentPoly:
    """Laurent polynomial in the Lefschetz class L.

    Coefficients are arbitrary-precision integers and nothing else:
    scalars are ints, and division by an int is exact or raises
    :class:`ExactnessError`.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        self._terms = {e: c for e, c in terms.items() if c} if terms else {}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def lefschetz(cls, k: int = 1) -> "LaurentPoly":
        """The monomial L^k (k may be negative)."""
        return cls({k: 1})

    @classmethod
    def _coerce(cls, x):
        if isinstance(x, cls):
            return x
        if isinstance(x, int):
            return cls({0: x})
        return NotImplemented

    # -- structure ----------------------------------------------------

    def terms(self):
        """Sorted (exponent, coefficient) pairs."""
        return sorted(self._terms.items())

    def __getitem__(self, e: int):
        return self._terms.get(e, 0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def is_effective(self) -> bool:
        """True when all coefficients are non-negative."""
        return all(c >= 0 for c in self._terms.values())

    def min_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return min(self._terms)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = LaurentPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = LaurentPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return LaurentPoly()
            return LaurentPoly({e: c * other for e, c in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, k):
        """Exact division by a nonzero integer; raises ExactnessError when
        some coefficient is not divisible by k."""
        if not isinstance(k, int):
            return NotImplemented
        out = {}
        for e, c in self._terms.items():
            q, r = divmod(c, k)
            if r:
                raise ExactnessError(f"{self} is not divisible by {k}")
            out[e] = q
        return LaurentPoly(out)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers of a general Laurent polynomial")
        out = LaurentPoly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        other = LaurentPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    # -- involution, Adams operation, evaluation -----------------------

    def dual(self) -> "LaurentPoly":
        """The involution L |-> L^{-1}, a ring homomorphism."""
        return LaurentPoly({-e: c for e, c in self._terms.items()})

    def adams(self, k: int) -> "LaurentPoly":
        """The k-th Adams operation L |-> L^k."""
        if k < 1:
            raise ValueError("Adams operations are indexed by positive integers")
        return LaurentPoly({e * k: c for e, c in self._terms.items()})

    def evaluate(self, q) -> Fraction:
        """Exact value at L = q, for a nonzero rational q."""
        q = Fraction(q)
        if q == 0 and self._terms and min(self._terms) < 0:
            raise ZeroDivisionError("negative exponents cannot be evaluated at 0")
        return sum((Fraction(c) * q ** e for e, c in self._terms.items()), Fraction(0))

    # -- serialization and display --------------------------------------

    def to_json_obj(self) -> dict:
        """JSON form: {"terms": [[exponent, coefficient-as-string], ...]}."""
        return {"terms": [[e, str(c)] for e, c in self.terms()]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "LaurentPoly":
        return cls({int(e): int(c) for e, c in obj["terms"]})

    def __repr__(self):
        return f"LaurentPoly({self._terms!r})"

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for e, c in sorted(self._terms.items(), reverse=True):
            if e == 0:
                mono = str(abs(c))
            else:
                var = "L" if e == 1 else f"L^{e}"
                mono = var if abs(c) == 1 else f"{abs(c)}*{var}"
            if not parts:
                parts.append(mono if c > 0 else f"-{mono}")
            else:
                parts.append(f"+ {mono}" if c > 0 else f"- {mono}")
        return " ".join(parts)


L = LaurentPoly.lefschetz()


def affine_class(d: int) -> LaurentPoly:
    """Class of affine d-space: L^d."""
    if d < 0:
        raise ValueError(f"affine space dimension must be >= 0, got {d}")
    return LaurentPoly.lefschetz(d)


def projective_class(d: int) -> LaurentPoly:
    """Class of projective d-space: 1 + L + ... + L^d; empty (0) for d = -1."""
    if d < -1:
        raise ValueError(f"projective space dimension must be >= -1, got {d}")
    return LaurentPoly({e: 1 for e in range(d + 1)})


def dual(f: LaurentPoly) -> LaurentPoly:
    """The duality involution L^n |-> L^{-n}, extended termwise."""
    return f.dual()


def eval_int(f: LaurentPoly, q) -> Fraction:
    """Substitute L = q exactly (q a nonzero rational)."""
    return f.evaluate(q)


# ---------------------------------------------------------------------------
# Laurent series in q known to a finite precision
# ---------------------------------------------------------------------------

class QSeries:
    """Laurent series in the symbol q with int coefficients, known modulo q^prec.

    The value is ``known + O(q^prec)``, where ``known`` is a LaurentPoly in
    the symbol q whose exponents are all below ``prec``, and ``prec`` is
    ``math.inf`` for an exactly known Laurent polynomial.  The arithmetic
    tracks the precision: a sum is known to min(N_a, N_b), a product to
    min(v_a + N_b, v_b + N_a), where v is :meth:`valuation`, q |-> q^k
    multiplies N by k, and division by an int is exact or raises
    :class:`ExactnessError`.  Ints are exact constants.  Equality compares
    the coefficients below the common precision.
    """

    __slots__ = ("known", "prec")

    def __init__(self, known: LaurentPoly, prec):
        self.prec = prec
        self.known = LaurentPoly({e: c for e, c in known._terms.items() if e < prec})

    @classmethod
    def one(cls) -> "QSeries":
        return cls(LaurentPoly.one(), math.inf)

    @classmethod
    def _coerce(cls, x):
        if isinstance(x, cls):
            return x
        if isinstance(x, int):
            return cls(LaurentPoly({0: x}), math.inf)
        return NotImplemented

    def terms(self):
        """Sorted (exponent, coefficient) pairs of the known part."""
        return self.known.terms()

    def valuation(self):
        """Lowest known exponent, or prec if none: a bound for the valuation."""
        return min(self.known._terms, default=self.prec)

    def __bool__(self) -> bool:
        """False only for an exact zero: O(q^N) may be a nonzero series."""
        return bool(self.known) or self.prec != math.inf

    def __add__(self, other):
        other = QSeries._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QSeries(self.known + other.known, min(self.prec, other.prec))

    __radd__ = __add__

    def __neg__(self):
        return QSeries(-self.known, self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        other = QSeries._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        prec = min(self.valuation() + other.prec, other.valuation() + self.prec)
        right = other.terms()
        out = {}
        for e1, c1 in self.known._terms.items():
            for e2, c2 in right:
                e = e1 + e2
                if e >= prec:
                    break
                out[e] = out.get(e, 0) + c1 * c2
        return QSeries(LaurentPoly(out), prec)

    __rmul__ = __mul__

    def __truediv__(self, k):
        """Exact division by a nonzero integer, or ExactnessError."""
        if not isinstance(k, int):
            return NotImplemented
        return QSeries(self.known / k, self.prec)

    def adams(self, k: int) -> "QSeries":
        """The Adams operation q |-> q^k; the precision scales by k."""
        return QSeries(self.known.adams(k), self.prec * k)

    def __eq__(self, other):
        other = QSeries._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        prec = min(self.prec, other.prec)
        return QSeries(self.known, prec).known == QSeries(other.known, prec).known

    __hash__ = None

    def __repr__(self):
        return f"QSeries({self.known!r}, {self.prec!r})"
