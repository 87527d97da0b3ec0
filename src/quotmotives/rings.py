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
* :class:`RationalFn` -- reduced fractions of integer polynomials in a
  single symbol q.  This is the coefficient field in which quiver
  partition sums are assembled before they collapse to Laurent
  polynomials.

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

    def max_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return max(self._terms)

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
# Dense integer polynomial helpers (coefficient tuples, lowest degree first)
# ---------------------------------------------------------------------------

def _pstrip(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def _padd(a, b):
    n = max(len(a), len(b))
    return _pstrip([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                    for i in range(n)])


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ci in enumerate(a):
        if ci:
            for j, cj in enumerate(b):
                out[i + j] += ci * cj
    return _pstrip(out)


def _pscale(a, k):
    return _pstrip([c * k for c in a])


def _pcontent(a):
    g = 0
    for c in a:
        g = math.gcd(g, c)
        if g == 1:
            break
    return g


def _pprimitive(a):
    """(content, primitive part) with the primitive part's sign matching a's leading sign."""
    if not a:
        return 0, ()
    g = _pcontent(a)
    return g, tuple(c // g for c in a)


def _pdivexact(a, b):
    """Exact quotient a / b in Z[q]; raises ExactnessError when not exact."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return ()
    if len(a) < len(b):
        raise ExactnessError("inexact polynomial division")
    rem = list(a)
    out = [0] * (len(a) - len(b) + 1)
    lead = b[-1]
    for i in range(len(out) - 1, -1, -1):
        c = rem[i + len(b) - 1]
        if c % lead:
            raise ExactnessError("inexact polynomial division")
        qc = c // lead
        out[i] = qc
        if qc:
            for j, bj in enumerate(b):
                rem[i + j] -= qc * bj
    if any(rem):
        raise ExactnessError("inexact polynomial division")
    return _pstrip(out)


def _prem(a, b):
    """Pseudo-remainder of a by b (both nonzero, deg a >= deg b)."""
    rem = list(a)
    db = len(b) - 1
    lead = b[-1]
    for i in range(len(a) - 1 - db, -1, -1):
        top = rem[i + db]
        if top:
            for j in range(len(rem)):
                rem[j] *= lead
            for j, bj in enumerate(b):
                rem[i + j] -= top * bj
        # rem[i + db] is now exactly zero
        del rem[i + db]
    return _pstrip(rem)


_GCD_PROBE_P = (1 << 61) - 1  # Mersenne prime; used to detect coprimality fast


def _modular_gcd_degree(a, b):
    """Degree of gcd(a, b) mod a large prime, or None when the probe is unusable."""
    p = _GCD_PROBE_P
    if a[-1] % p == 0 or b[-1] % p == 0:
        return None
    ra = [c % p for c in a]
    rb = [c % p for c in b]
    while any(rb):
        while rb and rb[-1] == 0:
            rb.pop()
        if not rb:
            break
        inv = pow(rb[-1], p - 2, p)
        rb = [c * inv % p for c in rb]
        while len(ra) >= len(rb):
            top = ra[-1]
            if top:
                off = len(ra) - len(rb)
                for j in range(len(rb)):
                    ra[off + j] = (ra[off + j] - top * rb[j]) % p
            ra.pop()
        ra, rb = rb, ra
    while ra and ra[-1] == 0:
        ra.pop()
    return len(ra) - 1


def _pgcd(a, b):
    """Gcd in Z[q] (content included), normalized to positive leading coefficient."""
    a, b = _pstrip(a), _pstrip(b)
    if not a:
        g = b
    elif not b:
        g = a
    else:
        ca, pa = _pprimitive(a)
        cb, pb = _pprimitive(b)
        c = math.gcd(ca, cb)
        if len(pa) < len(pb):
            pa, pb = pb, pa
        deg = _modular_gcd_degree(pa, pb)
        if deg == 0:
            return (c,)
        # primitive PRS; the modular probe already told us the gcd is nontrivial
        while pb:
            r = _prem(pa, pb)
            pa, pb = pb, _pprimitive(r)[1]
        g = _pscale(pa, c)
    if g and g[-1] < 0:
        g = _pneg(g)
    return g


def _peval(a, x: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(a):
        out = out * x + c
    return out


# ---------------------------------------------------------------------------
# Rational functions in q
# ---------------------------------------------------------------------------

class RationalFn:
    """Reduced ratio of integer polynomials in the symbol q.

    Canonical form: numerator and denominator are coprime in Z[q]
    (including integer content) and the denominator has positive leading
    coefficient, so equality is a structural check.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num, den=(1,)):
        if isinstance(num, int):
            num = (num,)
        if isinstance(den, int):
            den = (den,)
        num, den = _pstrip(num), _pstrip(den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            self._num, self._den = (), (1,)
            return
        g = _pgcd(num, den)
        if g != (1,):
            num = _pdivexact(num, g)
            den = _pdivexact(den, g)
        if den[-1] < 0:
            num, den = _pneg(num), _pneg(den)
        self._num, self._den = num, den

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "RationalFn":
        return cls(())

    @classmethod
    def one(cls) -> "RationalFn":
        return cls((1,))

    @classmethod
    def q_power(cls, k: int) -> "RationalFn":
        """q^k as a rational function (k may be negative)."""
        if k >= 0:
            return cls((0,) * k + (1,))
        return cls((1,), (0,) * (-k) + (1,))

    @classmethod
    def from_laurent(cls, f: LaurentPoly) -> "RationalFn":
        """Embed Z[L, L^{-1}] into Q(q) by L |-> q."""
        if not f:
            return cls.zero()
        shift = max(0, -f.min_exp())
        num = [0] * (f.max_exp() + shift + 1)
        for e, c in f.terms():
            num[e + shift] = c
        return cls(tuple(num), (0,) * shift + (1,))

    @classmethod
    def _coerce(cls, x):
        if isinstance(x, cls):
            return x
        if isinstance(x, int):
            return cls((x,))
        if isinstance(x, LaurentPoly):
            return cls.from_laurent(x)
        return NotImplemented

    # -- structure --------------------------------------------------------

    @property
    def numerator(self):
        return self._num

    @property
    def denominator(self):
        return self._den

    def __bool__(self):
        return bool(self._num)

    @property
    def is_polynomial(self) -> bool:
        return self._den == (1,)

    def __eq__(self, other):
        other = RationalFn._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    __hash__ = None

    # -- field operations --------------------------------------------------

    def __add__(self, other):
        other = RationalFn._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        num = _padd(_pmul(self._num, other._den), _pmul(other._num, self._den))
        return RationalFn(num, _pmul(self._den, other._den))

    __radd__ = __add__

    def __neg__(self):
        out = RationalFn.__new__(RationalFn)
        out._num, out._den = _pneg(self._num), self._den
        return out

    def __sub__(self, other):
        other = RationalFn._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = RationalFn._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # cross-cancel before multiplying to keep degrees small
        g1 = _pgcd(self._num, other._den)
        g2 = _pgcd(other._num, self._den)
        n1 = self._num if g1 == (1,) else _pdivexact(self._num, g1)
        d2 = other._den if g1 == (1,) else _pdivexact(other._den, g1)
        n2 = other._num if g2 == (1,) else _pdivexact(other._num, g2)
        d1 = self._den if g2 == (1,) else _pdivexact(self._den, g2)
        num, den = _pmul(n1, n2), _pmul(d1, d2)
        if den[-1] < 0:
            num, den = _pneg(num), _pneg(den)
        out = RationalFn.__new__(RationalFn)
        if num:
            out._num, out._den = num, den
        else:
            out._num, out._den = (), (1,)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = RationalFn((other,))
        elif not isinstance(other, RationalFn):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero rational function")
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        other = RationalFn._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def reciprocal(self) -> "RationalFn":
        if not self._num:
            raise ZeroDivisionError("zero has no reciprocal")
        num, den = self._den, self._num
        if den[-1] < 0:
            num, den = _pneg(num), _pneg(den)
        out = RationalFn.__new__(RationalFn)
        out._num, out._den = num, den
        return out

    def __pow__(self, k: int):
        if k < 0:
            return self.reciprocal() ** (-k)
        out = RationalFn.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- substitutions ------------------------------------------------------

    def adams(self, k: int) -> "RationalFn":
        """Substitute q |-> q^k (the Adams operation on the coefficient field)."""
        if k < 1:
            raise ValueError("Adams operations are indexed by positive integers")

        def stretch(a):
            out = [0] * ((len(a) - 1) * k + 1) if a else []
            for i, c in enumerate(a):
                out[i * k] = c
            return tuple(out)

        out = RationalFn.__new__(RationalFn)
        out._num, out._den = stretch(self._num), stretch(self._den)
        return out

    def subst_recip(self) -> "RationalFn":
        """Substitute q |-> q^{-1}."""
        if not self._num:
            return self
        dn, dd = len(self._num) - 1, len(self._den) - 1
        num = tuple(reversed(self._num))
        den = tuple(reversed(self._den))
        if dd >= dn:
            num = (0,) * (dd - dn) + num
        else:
            den = (0,) * (dn - dd) + den
        return RationalFn(num, den)

    def evaluate(self, x) -> Fraction:
        x = Fraction(x)
        d = _peval(self._den, x)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at {x}")
        return _peval(self._num, x) / d

    def to_laurent(self) -> LaurentPoly:
        """Exact conversion to Z[L, L^{-1}] (requires a monomial denominator)."""
        if not self._num:
            return LaurentPoly.zero()
        nz = [i for i, c in enumerate(self._den) if c]
        if len(nz) != 1:
            raise ExactnessError(f"denominator {self._den} is not a monomial")
        k, c = nz[0], self._den[nz[0]]
        terms = {}
        for i, a in enumerate(self._num):
            if a:
                if a % c:
                    raise ExactnessError("coefficient not divisible by denominator content")
                terms[i - k] = a // c
        return LaurentPoly(terms)

    # -- display -------------------------------------------------------------

    def __repr__(self):
        return f"RationalFn({self._num!r}, {self._den!r})"

    def __str__(self):
        def fmt(a):
            if not a:
                return "0"
            parts = []
            for i in range(len(a) - 1, -1, -1):
                c = a[i]
                if not c:
                    continue
                mono = "q" if i == 1 else (f"q^{i}" if i else str(abs(c)))
                if i and abs(c) != 1:
                    mono = f"{abs(c)}*{mono}"
                if not parts:
                    parts.append(mono if c > 0 else f"-{mono}")
                else:
                    parts.append(f"+ {mono}" if c > 0 else f"- {mono}")
            return " ".join(parts)

        if self.is_polynomial:
            return fmt(self._num)
        return f"({fmt(self._num)}) / ({fmt(self._den)})"
