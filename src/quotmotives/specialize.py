"""Specializations of motive series: point counts and zeta functions.

A class that is a polynomial in L counts points over finite fields by
the substitution L = q, and its zeta function over F_q,

    Z(X; t) = exp(sum_{n>=1} #X(F_{q^n}) t^n / n),

is the finite product prod_k (1 - q^k t)^{-a_k} when [X] = sum_k a_k L^k.
The Quot-scheme series specialize to the product identities

    curve:    sum_n #Quot t^n = prod_{i<r} Z(X; q^i t),
    surface:  sum_n #Quot t^n = prod_{i<r} prod_{j>=0} Z(X; q^{i+rj} t^{j+1}),

which are verified here by exact expansion of both sides.
"""

from __future__ import annotations

from fractions import Fraction

from .rings import LaurentPoly
from .report import CheckReport
from .series import TruncatedSeries, geometric_series, series_exp
from . import quot


def _require_polynomial(x: LaurentPoly):
    if x and x.min_exp() < 0:
        raise ValueError(f"{x} has negative exponents; point counting needs a "
                         "polynomial in L")


def point_count_series(s: TruncatedSeries, q: int) -> list:
    """Substitute L = q in each coefficient of a univariate series with
    polynomial coefficients; returns [c_0(q), ..., c_order(q)] as ints."""
    if q < 1:
        raise ValueError("point counts need a positive prime power")
    out = []
    for c in s.univariate_coefficients():
        if isinstance(c, LaurentPoly):
            _require_polynomial(c)
            c = c.evaluate(q)
        if isinstance(c, Fraction) and c.denominator != 1:
            raise ValueError(f"non-integral point count {c}")
        out.append(int(c))
    return out


def zeta_series(x_class: LaurentPoly, q: int, order: int) -> TruncatedSeries:
    """Zeta function of a class polynomial in L over F_q, as an exact
    rational-coefficient t-series.

    Computed from the product form prod_k (1 - q^k t)^{-a_k}; the
    exp-of-point-count-sums definition is evaluated as well and the two
    are asserted equal.
    """
    _require_polynomial(x_class)
    out = TruncatedSeries.constant(Fraction(1), order)
    for e, a in x_class.terms():
        out = out * geometric_series(Fraction(q) ** e, order).pow_int(a)
    counts = [x_class.evaluate(Fraction(q) ** n) for n in range(1, order + 1)]
    log_arg = TruncatedSeries({(n,): counts[n - 1] / n for n in range(1, order + 1)},
                              order)
    if out != series_exp(log_arg):
        raise AssertionError(
            f"zeta product form disagrees with exp form (X={x_class}, q={q})")
    return out


def verify_zeta_product_curve(x_class: LaurentPoly, r: int, q: int,
                              order: int) -> CheckReport:
    """Point counts of the curve Quot series vs the product of shifted
    zeta functions."""
    lhs_counts = point_count_series(quot.quot_series(x_class, 1, r, order), q)
    lhs = TruncatedSeries({(n,): Fraction(c) for n, c in enumerate(lhs_counts)}, order)
    rhs = TruncatedSeries.constant(Fraction(1), order)
    for i in range(r):
        rhs = rhs * zeta_series(x_class, q, order).scale_variable(Fraction(q) ** i)
    ok = lhs == rhs
    detail = (f"X={x_class}, r={r}, q={q}, order {order}" if ok
              else f"first difference at {lhs.first_difference(rhs)}")
    return CheckReport("zeta-curve", ok, detail)


def verify_zeta_product_surface(x_class: LaurentPoly, r: int, q: int,
                                order: int) -> CheckReport:
    """Point counts of the surface Quot series vs the double product of
    zeta functions Z(X; q^{i+rj} t^{j+1})."""
    lhs_counts = point_count_series(quot.quot_series(x_class, 2, r, order), q)
    lhs = TruncatedSeries({(n,): Fraction(c) for n, c in enumerate(lhs_counts)}, order)
    rhs = TruncatedSeries.constant(Fraction(1), order)
    for i in range(r):
        for j in range(order):
            factor = (zeta_series(x_class, q, order)
                      .scale_variable(Fraction(q) ** (i + r * j))
                      .substitute_power(j + 1))
            rhs = rhs * factor
    ok = lhs == rhs
    detail = (f"X={x_class}, r={r}, q={q}, order {order}" if ok
              else f"first difference at {lhs.first_difference(rhs)}")
    return CheckReport("zeta-surface", ok, detail)

