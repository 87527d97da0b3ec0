"""Truncated formal power series with exact coefficients.

A :class:`TruncatedSeries` is a finite map from exponent vectors to
coefficients together with an explicit truncation order: every stored
exponent vector has non-negative entries and total degree <= order, and
two series are compared only up to their common order.  Series are
univariate in t (arity 1) or live in a vertex-indexed family of
variables (arity = number of vertices), graded by total degree.

Coefficients are ints, :class:`LaurentPoly` or :class:`QSeries`, so no
operation leaves the integers; the arithmetic is duck-typed and mixing
genuinely incompatible rings fails in the coefficient operations.  A
coefficient is dropped only when it is falsy, i.e. an exact zero.
Products and the layered solver group their terms by target exponent
vector and sum each group with one packed big-int kernel
(:func:`_sum_products`): LaurentPoly pairs go to
:meth:`LaurentPoly.sum_of_products`, and groups with a QSeries to
:meth:`QSeries.sum_of_products`, which cuts its operands to the group's
precision and calls the same kernel; int groups sum product by product.
Division needs a unit constant term in the denominator and solves a
recurrence layered by total degree (:func:`_solve_layers`); inversion is
division of 1, a product of factors (1 - c x^m)^(-a)
(:func:`euler_product`) is one division by its binomial factors, and the
plethystic exponential in :mod:`quotmotives.plethystic` shares the same
solver, so there is no second recurrence and no second exp/log.
Values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
from operator import add

from .rings import ExactnessError, LaurentPoly, QSeries


def _zero_key(arity: int):
    return (0,) * arity


def _invert_coeff(c):
    """Multiplicative inverse of a constant coefficient, exact or an error."""
    if isinstance(c, int):
        if c in (1, -1):
            return c
        raise ExactnessError(f"constant term {c} is not a unit of Z")
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


def _unit(coeffs):
    """The 1 of the coefficients' ring: ``one()`` of the first non-int
    one's type, else the int 1 (LaurentPoly groups stay packed)."""
    return next((type(c).one() for c in coeffs if type(c) is not int), 1)


def _unit_times(u):
    """The map c |-> u * c for a unit u of the coefficient ring.  The exact
    1 of any ring returns c itself, unless c is an int, which u * c
    promotes (so that LaurentPoly groups stay on the packed kernel).
    Every other unit multiplies, an inexact 1 + O(q^N) included, so that
    a quotient claims no precision it does not have."""
    if (type(u) is int and u == 1 or type(u) is LaurentPoly and u._terms == {0: 1}
            or type(u) is QSeries and u.prec == math.inf and u.known._terms == {0: 1}):
        return lambda c: u * c if type(c) is int else c
    return lambda c: u * c


class TruncatedSeries:
    """Power series truncated at a total-degree order, with exact coefficients."""

    __slots__ = ("_coeffs", "order", "arity", "__weakref__")

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
    def variable(cls, order: int, coeff=1) -> "TruncatedSeries":
        """The univariate series coeff * t."""
        return cls({(1,): coeff}, order)

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
        right = [(m2, c2, sum(m2)) for m2, c2 in other._coeffs.items()]
        groups = {}
        for m1, c1 in self._coeffs.items():
            room = order - sum(m1)
            for m2, c2, d2 in right:
                if d2 <= room:
                    m = tuple(map(add, m1, m2))
                    pairs = groups.get(m)
                    if pairs is None:
                        groups[m] = [(c1, c2)]
                    else:
                        pairs.append((c1, c2))
        return TruncatedSeries({m: _sum_products(pairs) for m, pairs in groups.items()},
                               order, self.arity)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Quotient by a series whose constant term is a unit.

        One layered solve: b_0 u_n = a_n - sum_{d>=1} b_d u_{n-d}, where
        a is ``self`` and b is ``other``.
        """
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        order = self._compat(other)
        c0 = other.constant_term()
        if c0 == 0:
            raise ZeroDivisionError("divisor has zero constant term")
        times_i0 = _unit_times(_invert_coeff(c0))
        num = self._layers()
        a0 = self.constant_term()

        def step(n, acc):
            layer = dict(num[n])
            for m, c in acc.items():
                layer[m] = layer[m] - c if m in layer else -c
            return {m: times_i0(c) for m, c in layer.items() if c}

        den = other if other.order == order else other.truncate(order)
        return _solve_layers(den, times_i0(a0) if a0 else 0, step)

    def __rtruediv__(self, other):
        """A coefficient divided by the series, e.g. ``1 / s``."""
        return TruncatedSeries.constant(other, self.order, self.arity) / self

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

    def map_coefficients(self, fn) -> "TruncatedSeries":
        return TruncatedSeries({m: fn(c) for m, c in self._coeffs.items()},
                               self.order, self.arity)

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
        return self.arity == other.arity and self.first_difference(other) is None

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


# ---------------------------------------------------------------------------
# The layered recurrence behind division and Exp
# ---------------------------------------------------------------------------

def _sum_products(pairs):
    """sum of c1 * c2 over the (c1, c2) pairs.  Pairs of LaurentPoly go
    through the packed kernel :meth:`LaurentPoly.sum_of_products`, and a
    group with a QSeries through :meth:`QSeries.sum_of_products`, which
    cuts its operands to the sum's precision before the same kernel; any
    other group (ints, as in zeta functions, possibly mixed with
    LaurentPoly) keeps the product-by-product sum."""
    if all(type(c1) is LaurentPoly and type(c2) is LaurentPoly for c1, c2 in pairs):
        return LaurentPoly.sum_of_products(pairs)
    acc = 0
    for c1, c2 in pairs:
        if type(c1) is QSeries or type(c2) is QSeries:
            return QSeries.sum_of_products(pairs)
        acc = acc + c1 * c2
    return acc


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
        groups = {}
        for d in range(1, n + 1):
            layer = u[n - d]
            if not layer:
                continue
            for m1, c1 in a_layers[d]:
                for m2, c2 in layer.items():
                    m = tuple(map(add, m1, m2))
                    pairs = groups.get(m)
                    if pairs is None:
                        groups[m] = [(c1, c2)]
                    else:
                        pairs.append((c1, c2))
        u.append(step(n, {m: _sum_products(pairs) for m, pairs in groups.items()}))
    out = {}
    for layer in u:
        out.update(layer)
    return TruncatedSeries(out, order, arity)


def geometric_series(ratio_coeff, order: int) -> TruncatedSeries:
    """sum_{j>=0} ratio_coeff^j t^j, i.e. 1/(1 - ratio_coeff t), from the
    unit of the ring of ratio_coeff (:func:`_unit`)."""
    out = {}
    acc = _unit([ratio_coeff])
    for j in range(order + 1):
        out[(j,)] = acc
        acc = acc * ratio_coeff
    return TruncatedSeries(out, order)


def euler_product(factors, order: int, arity: int = 1) -> TruncatedSeries:
    """prod over the (m, c, a) factors of (1 - c x^m)^(-a), for exponent
    vectors m of positive total degree and int multiplicities a: the
    binomials with a < 0 multiplied out and divided once, by one layered
    solve, by the product of those with a > 0.  The constant 1 is the
    unit of the ring of the c (:func:`_unit`; the int 1 with no factors).
    Binomials of high degree go first, which keeps the partial products
    sparse."""
    factors = sorted(factors, key=lambda f: -sum(f[0]))
    one = _unit(c for _, c, _ in factors)
    num = den = TruncatedSeries.constant(one, order, arity)
    for m, c, a in factors:
        binomial = TruncatedSeries({_zero_key(arity): one, m: -c}, order, arity)
        for _ in range(abs(a)):
            if a > 0:
                den = den * binomial
            else:
                num = num * binomial
    return num / den
