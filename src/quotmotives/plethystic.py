"""Plethystic exponential, its inverse, and power structures.

``Exp`` is the group isomorphism from series with zero constant term
(additive) to series with constant term 1 (multiplicative) determined by
Exp(t) = 1/(1-t) and the symmetric-power pre-lambda-structure on
Z[L, L^-1], in which S^k(A^1) = A^k.  Two independent evaluation paths
are implemented:

* the Euler path: with E the Euler operator (the total-degree-n part
  times n), Exp(f) = exp(sum_{k>=1} psi_k(f)/k) satisfies
  E(Exp f) = g Exp(f) for the integral series g = sum_k psi_k(E f), so
  n h_n = sum_{d<=n} g_d h_{n-d} with an exact division by n, and
* the product path  Exp(sum_m f_m x^m) = prod_m sigma_{x^m}(f_m)  built
  from geometric series only.

Both run entirely in integer arithmetic over Z[L, L^-1].  ``Log``
inverts the Euler path: E(Log h) = sum_k mu(k) psi_k(E(h)/h), followed
by an exact division by the total degree.  The power structure is
f^a = Exp(a Log f).  The Euler path also works for series with
QSeries coefficients (where psi_k sends q to q^k and scales the
precision), which is what q-series identities like the Heine formula
need.
"""

from __future__ import annotations

import random

from .rings import ExactnessError, LaurentPoly, QSeries
from .report import CheckReport
from .series import (TruncatedSeries, _divide_by_degree, _euler, _exp_of_euler,
                     geometric_series)


def _mobius(n: int) -> int:
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    if n > 1:
        out = -out
    return out


def _adams_sum(s: TruncatedSeries, sign) -> TruncatedSeries:
    """sum_{k>=1} sign(k) psi_k(s) truncated at the order of s, for
    sign(k) in {-1, 0, 1}."""
    out = {}
    for k in range(1, s.order + 1):
        w = sign(k)
        if w:
            for m, c in s.adams(k)._coeffs.items():
                out[m] = out.get(m, 0) + c if w > 0 else out.get(m, 0) - c
    return TruncatedSeries(out, s.order, s.arity)


def _coerce_laurent_coeffs(f: TruncatedSeries) -> TruncatedSeries:
    return f.map_coefficients(
        lambda c: c if isinstance(c, (LaurentPoly, QSeries)) else LaurentPoly({0: c}))


def exp_pleth(f: TruncatedSeries) -> TruncatedSeries:
    """Plethystic exponential of a series with zero constant term.

    Coefficients may be LaurentPoly (or plain integers, which are
    promoted) or QSeries.  Solves n h_n = sum_{d<=n} g_d h_{n-d} with
    g = sum_k psi_k(E f); over Z[L, L^-1] each division by n is exact
    (an inexact one raises ExactnessError).
    """
    if not (f.constant_term() == 0):
        raise ValueError("plethystic exponential requires zero constant term")
    f = _coerce_laurent_coeffs(f)
    # h_0 is the unit of the coefficient ring (LaurentPoly or QSeries)
    one = next((type(c).one() for c in f._coeffs.values()), LaurentPoly.one())
    return _exp_of_euler(_adams_sum(_euler(f), lambda k: 1), one)


def log_pleth(g: TruncatedSeries) -> TruncatedSeries:
    """Inverse of :func:`exp_pleth`, for series with constant term 1."""
    if not (g.constant_term() == 1):
        raise ValueError("plethystic logarithm requires constant term 1")
    g = _coerce_laurent_coeffs(g)
    return _divide_by_degree(_adams_sum(_euler(g) * g.invert(), _mobius))


def exp_pleth_product(f: TruncatedSeries) -> TruncatedSeries:
    """Product-form plethystic exponential, prod_m sigma_{x^m}(f_m).

    Independent of the Euler path: built entirely from geometric series,
    integer powers and series inversion.  Requires LaurentPoly (or
    integer) coefficients.
    """
    if not (f.constant_term() == 0):
        raise ValueError("plethystic exponential requires zero constant term")
    f = _coerce_laurent_coeffs(f)
    out = TruncatedSeries.constant(1, f.order, f.arity)
    for m, c in f.coefficients():
        if not isinstance(c, LaurentPoly):
            raise ExactnessError("product form needs Laurent coefficients")
        step = sum(m)
        index = next(i for i, e in enumerate(m) if e)
        if len([e for e in m if e]) == 1 and m[index] == step:
            # single-variable monomial: sigma along x_index^step
            for e, a in c.terms():
                geo = geometric_series(LaurentPoly.lefschetz(e), f.order,
                                       step=step, arity=f.arity, index=index)
                out = out * geo.pow_int(a)
        else:
            # genuinely mixed monomial x^m: substitute u = x^m into sigma_u
            for e, a in c.terms():
                geo_coeffs = {}
                acc = LaurentPoly.one()
                for j in range(0, f.order // step + 1):
                    geo_coeffs[tuple(j * mi for mi in m)] = acc
                    acc = acc * LaurentPoly.lefschetz(e)
                geo = TruncatedSeries(geo_coeffs, f.order, f.arity)
                out = out * geo.pow_int(a)
    return out


def power_structure(f: TruncatedSeries, a) -> TruncatedSeries:
    """The power f^a = Exp(a Log f) for a series f with constant term 1
    and an exponent a in Z[L, L^-1] (or a plain integer)."""
    if not (f.constant_term() == 1):
        raise ValueError("power structure requires constant term 1")
    if isinstance(a, int):
        a = LaurentPoly({0: a})
    return exp_pleth(log_pleth(f) * a)


def symmetric_power(x: LaurentPoly, k: int) -> LaurentPoly:
    """k-th symmetric power of a class: the t^k coefficient of Exp(x t)."""
    if k < 0:
        raise ValueError("symmetric powers are indexed by non-negative integers")
    if k == 0:
        return LaurentPoly.one()
    s = exp_pleth(TruncatedSeries.variable(k, coeff=x))
    c = s.coefficient(k)
    return c if isinstance(c, LaurentPoly) else LaurentPoly({0: c})


# ---------------------------------------------------------------------------
# Randomized verification of the power-structure axioms
# ---------------------------------------------------------------------------

def _random_laurent(rng: random.Random, allow_zero: bool = True) -> LaurentPoly:
    n = rng.randint(0 if allow_zero else 1, 3)
    terms = {}
    for _ in range(n):
        terms[rng.randint(-3, 3)] = rng.randint(-4, 4)
    return LaurentPoly(terms)


def _random_one_series(rng: random.Random, order: int) -> TruncatedSeries:
    coeffs = {(0,): LaurentPoly.one()}
    for d in range(1, order + 1):
        c = _random_laurent(rng)
        if c:
            coeffs[(d,)] = c
    return TruncatedSeries(coeffs, order)


def verify_power_axioms(samples: int = 50, order: int = 8,
                        seed: int = 20240) -> CheckReport:
    """Check the eight power-structure axioms, Exp/Log round trips and the
    two-path Exp cross-check on randomized inputs."""
    rng = random.Random(seed)
    one = TruncatedSeries.constant(1, order)
    failures = []
    for i in range(samples):
        f = _random_one_series(rng, order)
        g = _random_one_series(rng, order)
        a = _random_laurent(rng)
        b = _random_laurent(rng)
        checks = {
            "f^0 = 1": power_structure(f, 0) == one,
            "f^(a+b) = f^a f^b":
                power_structure(f, a + b) == power_structure(f, a) * power_structure(f, b),
            "f^1 = f": power_structure(f, 1) == f,
            "f^(ab) = (f^a)^b":
                power_structure(f, a * b) == power_structure(power_structure(f, a), b),
            "(fg)^a = f^a g^a":
                power_structure(f * g, a) ==
                power_structure(f, a) * power_structure(g, a),
            "(1+t)^a = 1 + a t + O(t^2)": (lambda p: p.coefficient(0) == 1
                                           and p.coefficient(1) == a)(
                power_structure(one + TruncatedSeries.variable(order), a)),
            "f(t^2)^a = f^a at t^2":
                power_structure(f.substitute_power(2), a) ==
                power_structure(f, a).substitute_power(2),
            "jet continuity": _jet_check(f, a, order),
            "Log(Exp) round trip": _roundtrip_check(rng, order),
            "two-path Exp agreement": _two_path_check(rng, order),
        }
        for name, ok in checks.items():
            if not ok:
                failures.append(f"sample {i}: {name}")
    detail = "; ".join(failures[:5]) if failures else f"{samples} samples, order {order}"
    return CheckReport("power-axioms", not failures, detail)


def _jet_check(f: TruncatedSeries, a, order: int) -> bool:
    # the (order-1)-jet of f^a must not depend on the degree-`order` term of f
    bumped = f + TruncatedSeries.variable(order).pow_int(order)
    lhs = power_structure(f, a).truncate(order - 1)
    rhs = power_structure(bumped, a).truncate(order - 1)
    return lhs == rhs


def _roundtrip_check(rng: random.Random, order: int) -> bool:
    coeffs = {}
    for d in range(1, order + 1):
        c = _random_laurent(rng)
        if c:
            coeffs[(d,)] = c
    f = TruncatedSeries(coeffs, order)
    return log_pleth(exp_pleth(f)) == f


def _two_path_check(rng: random.Random, order: int) -> bool:
    coeffs = {}
    for d in range(1, order + 1):
        c = _random_laurent(rng)
        if c:
            coeffs[(d,)] = c
    f = TruncatedSeries(coeffs, order)
    return exp_pleth(f) == exp_pleth_product(f)
