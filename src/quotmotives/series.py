"""Truncated formal power series with exact coefficients.

A :class:`TruncatedSeries` is a finite map from exponent vectors to
coefficients together with an explicit truncation order: every stored
exponent vector has non-negative entries and total degree <= order, and
two series are compared only up to their common order.  Series are
univariate in t (arity 1) or live in a vertex-indexed family of
variables (arity = number of vertices), graded by total degree.

Coefficients may be ints, ``fractions.Fraction``, :class:`LaurentPoly`
or :class:`QSeries`; the arithmetic is duck-typed and mixing genuinely
incompatible rings fails in the coefficient operations.  A coefficient
is dropped only when it is falsy, i.e. an exact zero.  Inversion,
``exp`` and ``log`` all solve one recurrence layered by total degree
(:func:`_solve_layers`); ``exp`` and ``log`` divide only by degrees, so
over Z[L, L^-1] they stay integral throughout.
Values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from fractions import Fraction

from .rings import ExactnessError, LaurentPoly, QSeries


def _zero_key(arity: int):
    return (0,) * arity


def _invert_coeff(c):
    """Multiplicative inverse of a constant coefficient, exact or an error."""
    if isinstance(c, int):
        if c in (1, -1):
            return c
        return Fraction(1, c)
    if isinstance(c, Fraction):
        return 1 / c
    if isinstance(c, LaurentPoly):
        t = c.terms()
        if len(t) != 1 or t[0][1] not in (1, -1):
            raise ExactnessError(f"constant term {c} is not a unit of Z[L, L^-1]")
        e, a = t[0]
        return LaurentPoly({-e: a})
    if isinstance(c, QSeries):
        # 1/(a q^e + O(q^N)) = a q^-e (1 + O(q^(N-e))) for a = +-1
        return QSeries(_invert_coeff(c.known), c.prec - 2 * c.valuation())
    raise TypeError(f"cannot invert coefficient of type {type(c).__name__}")


class TruncatedSeries:
    """Power series truncated at a total-degree order, with exact coefficients."""

    __slots__ = ("_coeffs", "order", "arity")

    def __init__(self, coeffs, order: int, arity: int = 1):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        if arity < 1:
            raise ValueError("arity must be >= 1")
        self.order = order
        self.arity = arity
        clean = {}
        for m, c in coeffs.items():
            if isinstance(m, int):
                m = (m,)
            if len(m) != arity:
                raise ValueError(f"exponent {m} has wrong arity (expected {arity})")
            if min(m) < 0:
                raise ValueError(f"negative exponent vector {m}")
            if sum(m) <= order and c:
                clean[m] = c
        self._coeffs = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def constant(cls, c, order: int, arity: int = 1) -> "TruncatedSeries":
        return cls({_zero_key(arity): c}, order, arity)

    @classmethod
    def variable(cls, order: int, arity: int = 1, index: int = 0, coeff=1) -> "TruncatedSeries":
        """The series coeff * x_index (t itself when arity is 1)."""
        m = [0] * arity
        m[index] = 1
        return cls({tuple(m): coeff}, order, arity)

    # -- access ------------------------------------------------------------

    def coefficient(self, m):
        """Coefficient of the exponent vector m (an int for univariate series)."""
        if isinstance(m, int):
            m = (m,)
        return self._coeffs.get(tuple(m), 0)

    def coefficients(self):
        """Sorted (exponent-vector, coefficient) pairs, graded lexicographically."""
        return sorted(self._coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def constant_term(self):
        return self._coeffs.get(_zero_key(self.arity), 0)

    def univariate_coefficients(self) -> list:
        """Dense coefficient list [c_0, ..., c_order] (univariate only)."""
        if self.arity != 1:
            raise ValueError("dense coefficients only for univariate series")
        return [self._coeffs.get((n,), 0) for n in range(self.order + 1)]

    def _layers(self):
        out = [[] for _ in range(self.order + 1)]
        for m, c in self._coeffs.items():
            out[sum(m)].append((m, c))
        return out

    # -- arithmetic ----------------------------------------------------------

    def _compat(self, other: "TruncatedSeries"):
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")
        return min(self.order, other.order)

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(other, self.order, self.arity)
        order = self._compat(other)
        out = dict(self._coeffs)
        for m, c in other._coeffs.items():
            out[m] = out.get(m, 0) + c
        return TruncatedSeries(out, order, self.arity)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries({m: -c for m, c in self._coeffs.items()},
                               self.order, self.arity)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(other, self.order, self.arity)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            # scalar from the coefficient ring
            return TruncatedSeries({m: c * other for m, c in self._coeffs.items()},
                                   self.order, self.arity)
        order = self._compat(other)
        out = {}
        for m1, c1 in self._coeffs.items():
            d1 = sum(m1)
            if d1 > order:
                continue
            for m2, c2 in other._coeffs.items():
                if d1 + sum(m2) > order:
                    continue
                m = tuple(a + b for a, b in zip(m1, m2))
                p = c1 * c2
                out[m] = out.get(m, 0) + p
        return TruncatedSeries(out, order, self.arity)

    __rmul__ = __mul__

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term must be a unit."""
        c0 = self.constant_term()
        if c0 == 0:
            raise ZeroDivisionError("series with zero constant term has no inverse")
        i0 = _invert_coeff(c0)
        # c0 u_n + sum_{d>=1} a_d u_{n-d} = 0 for n >= 1
        return _solve_layers(self, i0,
                             lambda n, acc: {m: -(i0 * c) for m, c in acc.items() if c})

    def pow_int(self, k: int) -> "TruncatedSeries":
        """Integer power; negative k inverts first."""
        if k < 0:
            return self.invert().pow_int(-k)
        out = TruncatedSeries.constant(1, self.order, self.arity)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- substitutions ----------------------------------------------------------

    def substitute_power(self, k: int) -> "TruncatedSeries":
        """Substitute t |-> t^k (univariate).  The result keeps the same order,
        so only source terms of degree <= order/k contribute."""
        if k < 1:
            raise ValueError("substitution exponent must be >= 1")
        if self.arity != 1:
            raise ValueError("substitute_power applies to univariate series")
        out = {(m[0] * k,): c for m, c in self._coeffs.items() if m[0] * k <= self.order}
        return TruncatedSeries(out, self.order, 1)

    def adams(self, k: int) -> "TruncatedSeries":
        """Adams operation: every variable x |-> x^k and L |-> L^k (resp. q |-> q^k)
        on coefficients that carry the symbol."""
        if k < 1:
            raise ValueError("Adams operations are indexed by positive integers")
        out = {}
        for m, c in self._coeffs.items():
            if sum(m) * k > self.order:
                continue
            if isinstance(c, (LaurentPoly, QSeries)):
                c = c.adams(k)
            out[tuple(e * k for e in m)] = c
        return TruncatedSeries(out, self.order, self.arity)

    def scale_variable(self, factor) -> "TruncatedSeries":
        """Substitute t |-> factor * t (univariate), factor a coefficient."""
        if self.arity != 1:
            raise ValueError("scale_variable applies to univariate series")
        out = {}
        for m, c in self._coeffs.items():
            out[m] = c * factor ** m[0]
        return TruncatedSeries(out, self.order, 1)

    def map_coefficients(self, fn, order: int | None = None) -> "TruncatedSeries":
        return TruncatedSeries({m: fn(c) for m, c in self._coeffs.items()},
                               self.order if order is None else order, self.arity)

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries({m: c for m, c in self._coeffs.items() if sum(m) <= order},
                               order, self.arity)

    # -- comparison -----------------------------------------------------------

    def __eq__(self, other):
        """Equality up to the common truncation order."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.arity != other.arity:
            return False
        order = min(self.order, other.order)
        keys = {m for m in self._coeffs if sum(m) <= order}
        keys |= {m for m in other._coeffs if sum(m) <= order}
        return all(self._coeffs.get(m, 0) == other._coeffs.get(m, 0) for m in keys)

    __hash__ = None

    def first_difference(self, other: "TruncatedSeries"):
        """Smallest-degree exponent where the two series differ, or None."""
        order = self._compat(other)
        keys = {m for m in self._coeffs if sum(m) <= order}
        keys |= {m for m in other._coeffs if sum(m) <= order}
        for m in sorted(keys, key=lambda m: (sum(m), m)):
            if not (self._coeffs.get(m, 0) == other._coeffs.get(m, 0)):
                return m
        return None

    # -- serialization ------------------------------------------------------------

    def to_json_obj(self) -> dict:
        def enc(c):
            if isinstance(c, LaurentPoly):
                return c.to_json_obj()
            return str(c)

        return {
            "order": self.order,
            "arity": self.arity,
            "terms": [[list(m), enc(c)] for m, c in self.coefficients()],
        }

    def __repr__(self):
        return f"TruncatedSeries({self._coeffs!r}, order={self.order}, arity={self.arity})"

    def __str__(self):
        if not self._coeffs:
            return f"O(t^{self.order + 1})"
        parts = []
        for m, c in self.coefficients():
            if self.arity == 1:
                var = "" if m[0] == 0 else ("t" if m[0] == 1 else f"t^{m[0]}")
            else:
                var = "*".join(f"z{i}^{e}" if e > 1 else f"z{i}"
                               for i, e in enumerate(m) if e)
            cs = str(c)
            if "+" in cs or "-" in cs.lstrip("-"):
                cs = f"({cs})"
            parts.append(f"{cs}*{var}" if var else cs)
        return " + ".join(parts) + f" + O(deg {self.order + 1})"


# ---------------------------------------------------------------------------
# The layered recurrence behind invert, exp and log
# ---------------------------------------------------------------------------

def _solve_layers(a: TruncatedSeries, first, step) -> TruncatedSeries:
    """The series u with constant term ``first`` whose total-degree-n part,
    for n = 1..order, is ``step(n, acc)``, where ``acc`` maps exponent
    vectors to the coefficients of sum_{d=1..n} a_d u_{n-d} and a_d is
    the total-degree-d part of ``a``.

    ``step`` must return the degree-n layer without zero coefficients.
    """
    order, arity = a.order, a.arity
    a_layers = a._layers()
    u = [{_zero_key(arity): first} if first else {}]
    for n in range(1, order + 1):
        acc = {}
        for d in range(1, n + 1):
            for m1, c1 in a_layers[d]:
                for m2, c2 in u[n - d].items():
                    m = tuple(x + y for x, y in zip(m1, m2))
                    acc[m] = acc.get(m, 0) + c1 * c2
        u.append(step(n, acc))
    out = {}
    for layer in u:
        out.update(layer)
    return TruncatedSeries(out, order, arity)


def _euler(s: TruncatedSeries) -> TruncatedSeries:
    """The Euler operator E: the total-degree-n part multiplied by n."""
    return TruncatedSeries({m: c * sum(m) for m, c in s._coeffs.items()},
                           s.order, s.arity)


def _divide_by_degree(s: TruncatedSeries) -> TruncatedSeries:
    """Inverse of E on series with zero constant term.  The coefficient
    division by an int is exact in Z[L, L^-1] or raises ExactnessError."""
    return TruncatedSeries({m: c / sum(m) for m, c in s._coeffs.items()},
                           s.order, s.arity)


def _exp_of_euler(eg: TruncatedSeries, one) -> TruncatedSeries:
    """exp(g) from eg = E(g): h_0 = one and n h_n = sum_{d=1..n} eg_d h_{n-d}.

    Each division by n is exact whenever exp(g) has coefficients in the
    ring of ``eg``; ``one`` is that ring's unit."""
    return _solve_layers(eg, one, lambda n, acc: {m: c / n for m, c in acc.items() if c})


def _ints_to_fractions(s: TruncatedSeries) -> TruncatedSeries:
    return s.map_coefficients(lambda c: Fraction(c) if isinstance(c, int) else c)


def series_exp(g: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with zero constant term.

    Uses the Euler-operator recurrence n*h_n = sum_k [E(g)]_k h_{n-k}
    (layered by total degree), so division happens only by layer degrees;
    coefficients must support division by an int.  Int coefficients are
    promoted to Fraction, so the result holds no float.
    """
    if not (g.constant_term() == 0):
        raise ValueError("series_exp requires zero constant term")
    return _exp_of_euler(_euler(_ints_to_fractions(g)), 1)


def series_log(h: TruncatedSeries) -> TruncatedSeries:
    """log of a series with constant term 1 (inverse of :func:`series_exp`)."""
    if not (h.constant_term() == 1):
        raise ValueError("series_log requires constant term 1")
    h = _ints_to_fractions(h)
    return _divide_by_degree(_euler(h) * h.invert())


def geometric_series(ratio_coeff, order: int, step: int = 1, arity: int = 1,
                     index: int = 0) -> TruncatedSeries:
    """sum_{j>=0} ratio_coeff^j * x_index^(step*j), i.e. 1/(1 - ratio_coeff*x^step)."""
    out = {}
    acc = 1
    for j in range(0, order // step + 1):
        m = [0] * arity
        m[index] = step * j
        out[tuple(m)] = acc
        acc = acc * ratio_coeff
    return TruncatedSeries(out, order, arity)
