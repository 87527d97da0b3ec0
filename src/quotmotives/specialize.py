"""Specializations of motive series: point counts and zeta functions.

A class that is a polynomial in L counts points over finite fields by
the substitution L = q, and everything here stays in the integers.  The
motivic zeta function of a class X is Kapranov's Z(X; t) = sum_n [S^n X]
t^n = Exp([X] t); at L = q it is the zeta function of X over F_q,

    Z(X; t) = exp(sum_{n>=1} #X(F_{q^n}) t^n / n),

because psi_n(L^k t) = L^(kn) t^n, and for [X] = sum_k a_k L^k it is the
finite product prod_k (1 - q^k t)^{-a_k}.  The Quot-scheme series
specialize to the product identities

    curve:    sum_n #Quot t^n = prod_{i<r} Z(X; q^i t),
    surface:  sum_n #Quot t^n = prod_{i<r} prod_{j>=0} Z(X; q^{i+rj} t^{j+1}),

which are verified here by exact expansion of both sides.
"""

from __future__ import annotations

from .rings import LaurentPoly
from .report import CheckReport
from .series import TruncatedSeries, geometric_series
from .plethystic import exp_pleth
from . import quot


def _require_polynomial(x: LaurentPoly):
    if x and x.min_exp() < 0:
        raise ValueError(f"{x} has negative exponents; point counting needs a "
                         "polynomial in L")


def point_count_series(s: TruncatedSeries, q: int) -> list:
    """Substitute L = q in each coefficient of a univariate series with
    polynomial coefficients; returns [c_0(q), ..., c_order(q)] as ints."""
    if not isinstance(q, int) or q < 1:
        raise ValueError("point counts need a positive prime power")
    out = []
    for c in s.univariate_coefficients():
        if isinstance(c, LaurentPoly):
            _require_polynomial(c)
            c = sum(a * q ** e for e, a in c.terms())
        elif not isinstance(c, int):
            raise TypeError(f"cannot count points of the coefficient {c!r}")
        out.append(c)
    return out


def zeta_series(x_class: LaurentPoly, q: int, order: int) -> TruncatedSeries:
    """Zeta function over F_q of a class polynomial in L, the specialization
    Z(X; t) = Exp([X] t) at L = q, as an int-coefficient t-series.

    Computed from the product form prod_k (1 - q^k t)^{-a_k}; the point
    counts of Exp([X] t) are evaluated as well and the two are checked
    to be equal.
    """
    _require_polynomial(x_class)
    exp_form = point_count_series(
        exp_pleth(TruncatedSeries.variable(order, coeff=x_class)), q)
    out = TruncatedSeries.constant(1, order)
    for e, a in x_class.terms():
        out = out * geometric_series(q ** e, order).pow_int(a)
    if out.univariate_coefficients() != exp_form:
        raise AssertionError(
            f"zeta product form disagrees with Exp([X] t) at L = q (X={x_class}, q={q})")
    return out


def verify_zeta_product_curve(x_class: LaurentPoly, r: int, q: int,
                              order: int) -> CheckReport:
    """Point counts of the curve Quot series vs the product of shifted
    zeta functions."""
    counts = point_count_series(quot.quot_series(x_class, 1, r, order), q)
    lhs = TruncatedSeries(dict(enumerate(counts)), order)
    zeta = zeta_series(x_class, q, order)
    rhs = TruncatedSeries.constant(1, order)
    for i in range(r):
        rhs = rhs * zeta.scale_variable(q ** i)
    return CheckReport.compare("zeta-curve", lhs, rhs,
                               f"X={x_class}, r={r}, q={q}, order {order}")


def verify_zeta_product_surface(x_class: LaurentPoly, r: int, q: int,
                                order: int) -> CheckReport:
    """Point counts of the surface Quot series vs the double product of
    zeta functions Z(X; q^{i+rj} t^{j+1})."""
    counts = point_count_series(quot.quot_series(x_class, 2, r, order), q)
    lhs = TruncatedSeries(dict(enumerate(counts)), order)
    zeta = zeta_series(x_class, q, order)
    rhs = TruncatedSeries.constant(1, order)
    for i in range(r):
        for j in range(order):
            rhs = rhs * zeta.scale_variable(q ** (i + r * j)).substitute_power(j + 1)
    return CheckReport.compare("zeta-surface", lhs, rhs,
                               f"X={x_class}, r={r}, q={q}, order {order}")
