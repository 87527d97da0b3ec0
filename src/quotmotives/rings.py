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

Sums of products.  A series convolution needs sum_i a_i b_i for many
pairs of Laurent polynomials; :meth:`LaurentPoly.sum_of_products` does
it with one packed big-int kernel (Kronecker substitution).  Each operand
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
Each polynomial caches its exponent range, norms, last packing and
sparseness (below) in one slot; widths are 32 bits or whole 64-bit
words, few enough that the pack of an operand used in many sums is
mostly reused, while the 32-bit slots of the many sums with small
coefficients halve the size of what is multiplied.
``LaurentPoly.__mul__`` itself stays the dict product, which is faster
for the few-term operands it mostly sees.

Sparse operands.  The Euler recurrence of Exp multiplies every layer by
sums of Adams images psi_k(c), whose terms are those of c spread over
k Z: packed, they are mostly zero slots, which CPython's near-quadratic
product pays for.  An operand with t terms over a span of s + 1 slots is
sparse when 2 t <= s, and the kernel never packs it: for each of its
terms c_e L^e it adds c_e (Y << w (e - min exp)) into the total, Y the
pack of the other operand, with no multiply for c_e = +-1 (when both
operands are sparse, the second is packed).  That sum is the packed
product itself, so the width, the bound check, the bias and the
unpacking are those above.  The test runs once per operand, when it is
measured, and its result is cached with the measurement.  The constant 2
was measured: at t = s/2, t shifted adds and one multiply by a cached
pack took about the same time for spans of 32 to 128 slots against packs
of 30 to 4000 words, and Heine's Exp and the Quot series at orders
30-120 ran slower with 3 or 4 in its place.

QSeries products use the same kernel: :meth:`QSeries.sum_of_products`
(and ``*``, its one-pair case) takes the precision P = min over the
pairs of min(v_a + N_b, v_b + N_a), cuts every operand a to its terms
below P - v_b (and b to those below P - v_a), and packs only the cut
operands.  The cut is exact: a term q^e of a meets only terms q^f of b
with f >= v_b, so for e >= P - v_b every product lands at q^(e+f) with
e + f >= P, above the precision.  An operand with nothing to cut is
passed as it is, keeping its cached pack, and each QSeries keeps its
last cut with the exponent it was cut at (the layered solve of an Exp
cuts the same Adams sums at the same exponent on every layer, and a new
cut would measure and pack again).  The cut operands still have
products above q^P (a term just below P - v_b times one above v_b), so
the kernel decodes only the exponents below P.  Multiplying by an exact
monomial q^a needs no kernel: :meth:`QSeries.shift` moves the exponents
and the precision by a.

Values of both classes are immutable after construction and all
operations are pure, so they are safe to share between threads: each
cache is replaced by a new tuple in one assignment, never mutated, so a
reader never pairs the width of one packing with the integer of another,
or a cut with the exponent of another.
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
        # int, sparse), filled lazily by sum_of_products (see the module
        # docstring)
        self._pack = None

    # -- constructors -------------------------------------------------

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

    @classmethod
    def sum_of_products(cls, pairs) -> "LaurentPoly":
        """sum of a * b over the (a, b) pairs of Laurent polynomials, by one
        packed big-int kernel (Kronecker substitution, see the module
        docstring).  Equals the sum of the ``*`` products exactly."""
        return _packed_sum(pairs, math.inf)

    def _measure(self) -> tuple:
        """Cache and return (min exp, max exp, l1 norm, max norm, 0, 0,
        sparse), where sparse says that the kernel multiplies by shifted
        adds instead of packing self (see the module docstring)."""
        sizes = [abs(c) for c in self._terms.values()]
        lo, hi = min(self._terms), max(self._terms)
        self._pack = pack = (lo, hi, sum(sizes), max(sizes), 0, 0,
                             _SPARSE * len(sizes) <= hi - lo)
        return pack

    def _packed(self, w: int) -> int:
        """The value of self * L^(-min exp) at L = 2^w, cached for the last w."""
        pack = self._pack
        if pack[4] != w:
            lo = pack[0]
            x = 0
            for e, c in self._terms.items():
                x += c << (w * (e - lo))
            self._pack = pack = pack[:4] + (w, x, pack[6])
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

    # -- involution and Adams operation -------------------------------

    def dual(self) -> "LaurentPoly":
        """The involution L |-> L^{-1}, a ring homomorphism."""
        return LaurentPoly({-e: c for e, c in self._terms.items()})

    def adams(self, k: int) -> "LaurentPoly":
        """The k-th Adams operation L |-> L^k."""
        if k < 1:
            raise ValueError("Adams operations are indexed by positive integers")
        return LaurentPoly({e * k: c for e, c in self._terms.items()})

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
        terms = {}
        for e, c in obj["terms"]:
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

    __slots__ = ("known", "prec", "_cut")

    def __init__(self, known: LaurentPoly, prec):
        self.prec = prec
        terms = known._terms
        if terms and max(terms) >= prec:
            known = LaurentPoly({e: c for e, c in terms.items() if e < prec})
        self.known = known
        # (n, the terms of known below q^n), the last cut made by
        # sum_of_products (see the module docstring)
        self._cut = None

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
        known = self.known
        return (known._pack or known._measure())[0] if known._terms else self.prec

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

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = QSeries._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QSeries.sum_of_products([(self, other)])

    __rmul__ = __mul__

    @classmethod
    def sum_of_products(cls, pairs) -> "QSeries":
        """sum of a * b over the (a, b) pairs of QSeries (or ints), known
        modulo q^P for P the smallest precision of the products.  Each
        operand is cut to the terms that reach below q^P, and the cut
        pairs are summed by the kernel of
        :meth:`LaurentPoly.sum_of_products`, decoded below q^P only."""
        prec = math.inf
        ops = []
        for a, b in pairs:
            a, b = cls._coerce(a), cls._coerce(b)
            if a is NotImplemented or b is NotImplemented:
                raise TypeError("QSeries products need QSeries or int operands")
            va, vb = a.valuation(), b.valuation()
            prec = min(prec, va + b.prec, vb + a.prec)
            if a.known._terms and b.known._terms:
                ops.append((a, b, va, vb))
        # a term q^e of a meets only exponents >= v_b of b, so it reaches
        # below q^P only when e < P - v_b; likewise for b
        cut = [(_below(a, prec - vb), _below(b, prec - va)) for a, b, va, vb in ops]
        return cls(_packed_sum(cut, prec), prec)

    def shift(self, a: int) -> "QSeries":
        """q^a self, an exponent map: the coefficients and the precision of
        the product with the exact monomial q^a."""
        if not a:
            return self
        return QSeries(LaurentPoly({e + a: c for e, c in self.known._terms.items()}),
                       self.prec + a)

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


# an operand with t terms over a span of s + 1 slots is multiplied by t
# shifted adds when _SPARSE t <= s, and packed otherwise
_SPARSE = 2

# slot width -> the memoryview format that reads little-endian signed words
# of that width, as int.to_bytes writes them, where the host has one
_SIGNED_WORDS = {w: f for w, f in ((32, "i"), (64, "q"))
                 if memoryview((-2).to_bytes(w // 8, "little", signed=True) * 2)
                 .cast(f).tolist() == [-2, -2]}


def _packed_sum(pairs, stop) -> LaurentPoly:
    """sum of a * b over the (a, b) pairs of Laurent polynomials, with
    only the exponents below ``stop`` decoded: the kernel of
    :meth:`LaurentPoly.sum_of_products` (see the module docstring)."""
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
    n = bound.bit_length() + 1
    w = 32 if n <= 32 else -(-n // 64) * 64
    if bound >> (w - 1):
        raise AssertionError(f"slot width {w} does not hold the bound {bound}")
    total = 0
    for a, b, lo in ops:
        pa, pb = a._pack, b._pack
        if pa[6] or pb[6]:
            # c_e (Y << w (e - min exp)) over the terms of the sparse operand
            if not pa[6]:
                a, b, pa, pb = b, a, pb, pa
            y = pb[5] if pb[4] == w else b._packed(w)
            shift = lo - base - pa[0]
            for e, c in a._terms.items():
                if c == 1:
                    total += y << (w * (e + shift))
                elif c == -1:
                    total -= y << (w * (e + shift))
                else:
                    total += y * c << (w * (e + shift))
            continue
        x = (pa[5] if pa[4] == w else a._packed(w)) * (pb[5] if pb[4] == w else b._packed(w))
        total += x << (w * (lo - base)) if lo != base else x
    # bias every slot by 2^(w-1): each digit c + 2^(w-1) lies in [1, 2^w)
    slots = top - base + 1
    nbytes = w >> 3
    bias = int.from_bytes((bytes(nbytes - 1) + b"\x80") * slots, "little")
    total += bias
    if total >> (w * slots):
        # drop the slots from ``stop`` on, whose digits the bias did not cover
        total &= (1 << (w * slots)) - 1
    fmt = _SIGNED_WORDS.get(w)
    if fmt:
        # the XOR turns each digit c + 2^(w-1) into the two's complement of c
        words = memoryview((total ^ bias).to_bytes(nbytes * slots, "little")).cast(fmt)
        return LaurentPoly(dict(zip(range(base, base + slots), words.tolist())))
    data = total.to_bytes(nbytes * slots, "little")
    half = 1 << (w - 1)
    return LaurentPoly({base + k: int.from_bytes(data[k * nbytes:(k + 1) * nbytes], "little")
                        - half for k in range(slots)})


def _below(x: QSeries, n) -> LaurentPoly:
    """The known terms of x with exponent < n: the known part itself, with
    its cached pack, when every term is, and otherwise the cut kept from
    the last call at the same n, or a new one, which replaces it."""
    p = x.known
    if (p._pack or p._measure())[1] < n:
        return p
    cut = x._cut
    if cut is None or cut[0] != n:
        x._cut = cut = (n, LaurentPoly({e: c for e, c in p._terms.items() if e < n}))
    return cut[1]
