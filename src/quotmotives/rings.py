"""Exact coefficient arithmetic for motivic classes.

One ring is used throughout the package: :class:`LaurentPoly`, the ring
Z[L, L^{-1}] of integer Laurent polynomials in the Lefschetz class L (the
class of the affine line).  Every variety class manipulated here (affine
and projective spaces, their products, all series coefficients) lives in
this subring of the Grothendieck ring, which keeps arithmetic exact and
equality decidable.  Coefficients are ints only: division by an integer
either divides exactly or raises :class:`ExactnessError`, so no rational
number is ever stored in a class.  The same class holds the polynomials
in a symbol q of the quiver partition sums, whose ratio is taken modulo
a power q^N through the kernel's stop (below).

Sums of products.  A series convolution needs sum_i a_i b_i for many
pairs of Laurent polynomials; the kernel :func:`_packed_sum` does it
with one packed big-int sum (Kronecker substitution).  Each operand
p is packed as the integer p L^(-min exp) at L = 2^w, the packed
products are shifted by w times their exponent offset and added as
Python ints, and the total is unpacked once.  The slot width w comes from
the bound B = sum_i ||a_i||_1 ||b_i||_inf on every coefficient of the
result: w is 32 if B < 2^31 and otherwise the smallest multiple of 64
with B < 2^(w-1), and the kernel checks that inequality.  Adding 2^(w-1) to every slot then turns
each coefficient c into the digit c + 2^(w-1), which lies in [1, 2^w);
so the biased total has exactly these digits in base 2^w, no carry
crosses a slot, and slicing its bytes recovers every coefficient.  For
w = 32 and 64 (nearly every sum) the unpacking runs in C: XOR with the
bias flips the top bit of each digit, which maps c + 2^(w-1) to c for
c >= 0 and to 2^w + c, the two's complement of c, for c < 0, so the
bytes of the XOR read as signed w-bit words (``memoryview.cast``, on
little-endian hosts; other hosts and wider slots slice the bytes slot
by slot).  The kernel can stop decoding at an exponent N: the low slots
of the biased total do not depend on the slots above them, so it keeps
the total modulo 2^(w (N - min exp)) and biases only those slots.
Widths are 32 bits or whole 64-bit words, few enough that the cached
pack of an operand used in many sums is mostly reused, while the 32-bit
slots of the many sums with small coefficients halve the size of what
is multiplied.
``LaurentPoly.__mul__`` itself stays the dict product, which is faster
for the few-term operands it mostly sees.  The width rule
(:func:`_slot_width`) and the unpacking (:func:`_decode`) are shared with
the layer loop of the Exp and of Log's division in
:mod:`quotmotives.plethystic`, which packs whole layers itself and moves
a pack to a new width by its bytes (:func:`_rewiden`).

Stored terms.  A LaurentPoly stores no zero coefficient; ``bool``,
equality and the kernel's norms rely on it.  ``LaurentPoly(terms)`` drops
zeros with a filtering copy of its dict.  The paths that cannot make a
zero skip that copy through the private ``LaurentPoly._of_nonzero``:
negation, ``*`` and exact ``/`` by a nonzero int, ``dual`` and ``adams``
(one-to-one exponent maps).  ``+`` deletes a key whose coefficients
cancel, and the kernel (:func:`_packed_sum`) and the layer reader of
:mod:`quotmotives.plethystic` keep only the nonzero digits they decode.
No other module calls ``_of_nonzero``.

Values are immutable after construction and all operations are pure, so
they are safe to share between threads: each cache is replaced by a new
tuple in one assignment, never mutated, so a reader never pairs the
width of one packing with the integer of another.
"""

from __future__ import annotations

import math


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

    __slots__ = ("_terms", "_pack")

    def __init__(self, terms=None):
        self._terms = {e: c for e, c in terms.items() if c} if terms else {}
        # (min exponent, max exponent, l1 norm, max norm, slot width, packed
        # int), filled lazily by the kernel _packed_sum (see the module docstring)
        self._pack = None

    # -- constructors -------------------------------------------------

    @classmethod
    def _of_nonzero(cls, terms: dict) -> "LaurentPoly":
        """The polynomial whose terms are the dict ``terms`` itself, kept
        without the filtering copy of ``__init__``: the caller guarantees
        that no coefficient is zero (see the module docstring)."""
        p = object.__new__(cls)
        p._terms = terms
        p._pack = None
        return p

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
            c += out.get(e, 0)
            if c:
                out[e] = c
            else:
                del out[e]
        return LaurentPoly._of_nonzero(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._of_nonzero({e: -c for e, c in self._terms.items()})

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
            return LaurentPoly._of_nonzero({e: c * other for e, c in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def _measure(self) -> tuple:
        """Cache and return (min exp, max exp, l1 norm, max norm, 0, 0)."""
        sizes = [abs(c) for c in self._terms.values()]
        self._pack = pack = (min(self._terms), max(self._terms), sum(sizes), max(sizes), 0, 0)
        return pack

    def _packed(self, w: int) -> int:
        """The value of self * L^(-min exp) at L = 2^w, cached for the last w."""
        pack = self._pack
        if pack[4] != w:
            lo = pack[0]
            x = 0
            for e, c in self._terms.items():
                x += c << (w * (e - lo))
            self._pack = pack = pack[:4] + (w, x)
        return pack[5]

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
        return LaurentPoly._of_nonzero(out)

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

    # -- involution and Adams operation -------------------------------

    def dual(self) -> "LaurentPoly":
        """The involution L |-> L^{-1}, a ring homomorphism."""
        return LaurentPoly._of_nonzero({-e: c for e, c in self._terms.items()})

    def adams(self, k: int) -> "LaurentPoly":
        """The k-th Adams operation L |-> L^k."""
        if k < 1:
            raise ValueError("Adams operations are indexed by positive integers")
        return LaurentPoly._of_nonzero({e * k: c for e, c in self._terms.items()})

    # -- serialization and display --------------------------------------

    def to_json_obj(self) -> dict:
        """JSON form: {"terms": [[exponent, coefficient-as-string], ...]}."""
        return {"terms": [[e, str(c)] for e, c in self.terms()]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "LaurentPoly":
        """The inverse of :meth:`to_json_obj`.  Exponents must be JSON
        integers, each at most once, and coefficients JSON integers or
        integer strings in the form ``str(int)`` writes; anything else
        raises ValueError."""
        pairs = obj.get("terms") if isinstance(obj, dict) else None
        if not isinstance(pairs, list) or any(type(p) is not list or len(p) != 2 for p in pairs):
            raise ValueError('a class must be an object {"terms": [[exponent, coefficient], ...]}')
        terms = {}
        for e, c in pairs:
            if type(e) is not int:  # a JSON integer, not a float or a bool
                raise ValueError(f"exponent must be an integer, got {e!r}")
            if e in terms:
                raise ValueError(f"exponent {e} is repeated")
            # int() alone also takes spaces, "_", a "+" and leading zeros
            if not (type(c) is int or type(c) is str and c == str(int(c))):
                raise ValueError(f"coefficient must be an integer or an integer "
                                 f"string as str() writes it, got {c!r}")
            terms[e] = int(c)
        return cls(terms)

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


# slot width -> the memoryview format that reads little-endian signed words
# of that width, as int.to_bytes writes them, where the host has one
_SIGNED_WORDS = {w: f for w, f in ((32, "i"), (64, "q"))
                 if memoryview((-2).to_bytes(w // 8, "little", signed=True) * 2)
                 .cast(f).tolist() == [-2, -2]}


def _packed_sum(pairs, stop) -> LaurentPoly:
    """sum of a * b over the (a, b) pairs of Laurent polynomials, with
    only the exponents below ``stop`` decoded, by one packed big-int sum
    (see the module docstring).  With ``stop = math.inf`` it equals the
    sum of the ``*`` products exactly."""
    ops = []
    bound = 0
    base, top = math.inf, -math.inf
    for a, b in pairs:
        if a._terms and b._terms:
            sa = a._pack or a._measure()
            sb = b._pack or b._measure()
            bound += sa[2] * sb[3]
            lo, hi = sa[0] + sb[0], sa[1] + sb[1]
            if lo < base:
                base = lo
            if hi > top:
                top = hi
            ops.append((a, b, lo))
    if stop <= top:
        top = stop - 1
    if top < base:
        return LaurentPoly()
    w = _slot_width(bound)
    if bound >> (w - 1):
        raise AssertionError(f"slot width {w} does not hold the bound {bound}")
    total = 0
    for a, b, lo in ops:
        pa, pb = a._pack, b._pack
        x = (pa[5] if pa[4] == w else a._packed(w)) * (pb[5] if pb[4] == w else b._packed(w))
        total += x << (w * (lo - base)) if lo != base else x
    slots = top - base + 1
    return LaurentPoly._of_nonzero({e: c for e, c in zip(range(base, base + slots),
                                                       _decode(total, w, slots)) if c})


def _slot_width(bound: int) -> int:
    """The kernel's slot width for coefficients of absolute value at most
    ``bound``: 32 if bound < 2^31, else the smallest multiple of 64 with
    bound < 2^(w-1).  Callers check that inequality explicitly."""
    n = bound.bit_length() + 1
    return 32 if n <= 32 else -(-n // 64) * 64


def _bias(w: int, slots: int, u: int = 0) -> int:
    """2^(u-1) in each of ``slots`` slots of w bits (u = w by default)."""
    return int.from_bytes((1 << ((u or w) - 1)).to_bytes(w >> 3, "little") * slots, "little")


def _decode(total: int, w: int, slots: int) -> list:
    """The signed digits c_0, ..., c_(slots-1) of total = sum_i c_i 2^(w i),
    each |c_i| < 2^(w-1); the digits from ``slots`` on are dropped."""
    # bias every slot by 2^(w-1): each digit c + 2^(w-1) lies in [1, 2^w)
    nbytes = w >> 3
    bias = _bias(w, slots)
    total += bias
    if total >> (w * slots):
        # drop the slots from ``slots`` on, whose digits the bias did not cover
        total &= (1 << (w * slots)) - 1
    fmt = _SIGNED_WORDS.get(w)
    if fmt:
        # the XOR turns each digit c + 2^(w-1) into the two's complement of c
        return memoryview((total ^ bias).to_bytes(nbytes * slots, "little")).cast(fmt).tolist()
    data = total.to_bytes(nbytes * slots, "little")
    half = 1 << (w - 1)
    return [int.from_bytes(data[k * nbytes:(k + 1) * nbytes], "little") - half
            for k in range(slots)]


def _rewiden(x: int, w: int, v: int, slots: int) -> int:
    """The int with the digits of x in ``slots`` slots of w bits, moved to
    slots of v bits; every digit must lie below 2^(min(w, v) - 1) in
    absolute value.  Biased by 2^(min(w, v) - 1), each digit is the low
    min(w, v) / 8 bytes of its slot, so the slots are moved as bytes."""
    u = min(w, v)
    data = (x + _bias(w, slots, u)).to_bytes((w >> 3) * slots, "little")
    out = bytearray((v >> 3) * slots)
    for i in range(u >> 3):
        out[i::v >> 3] = data[i::w >> 3]
    return int.from_bytes(out, "little") - _bias(v, slots, u)

