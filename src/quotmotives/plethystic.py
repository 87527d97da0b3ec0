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
* the product path  Exp(sum_m f_m x^m) = prod_m sigma_{x^m}(f_m), one
  division by its binomial factors (1 - L^e x^m).

Both run entirely in integer arithmetic over Z[L, L^-1].  ``Log``
inverts the Euler path: E(Log h) = sum_k mu(k) psi_k(E(h)/h), followed
by an exact division by the total degree.  The power structure is
f^a = Exp(a Log f).  The Euler path also works for series with
QSeries coefficients (where psi_k sends q to q^k and scales the
precision), which is what q-series identities like the Heine formula
need.

:func:`exp_pleth` keeps its last argument, and a weak reference to its
result, in one slot; a result that nothing else holds is freed.  The
key is exact: the order, the arity and, per exponent vector, the sorted
terms of the coerced coefficient (with a tag and the precision for a
QSeries), so an int and the constant LaurentPoly of equal value share
a key.  The function is pure and series are immutable, so a hit
returns the very series a solve would produce.  This is what makes the
Quot check cheap: its Exp(x Log P) has the argument of the closed
Exp(x A_p) computed just before it whenever the two paths agree (see
:mod:`quotmotives.quot`).
"""

from __future__ import annotations

import weakref

from .rings import ExactnessError, LaurentPoly, QSeries
from .report import CheckReport
from .series import TruncatedSeries, _solve_layers, _unit, euler_product


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


def _euler(s: TruncatedSeries) -> TruncatedSeries:
    """The Euler operator E: the total-degree-n part multiplied by n."""
    return TruncatedSeries({m: c * sum(m) for m, c in s._coeffs.items()},
                           s.order, s.arity)


def _adams_sum(s: TruncatedSeries, sign) -> TruncatedSeries:
    """sum_{k>=1} sign(k) psi_k(s) truncated at the order of s, for
    sign(k) in {-1, 0, 1}: each term c x^m adds sign(k) psi_k(c) x^(km)
    for every k with k deg(m) <= order (every k <= order in degree 0)."""
    order = s.order
    signs = [sign(k) for k in range(1, order + 1)]
    out = {}
    for m, c in s._coeffs.items():
        d = sum(m)
        symbolic = isinstance(c, (LaurentPoly, QSeries))
        for k in range(1, order // d + 1 if d else order + 1):
            w = signs[k - 1]
            if not w:
                continue
            if k > 1:
                key = tuple([e * k for e in m])
                ck = c.adams(k) if symbolic else c
            else:
                key, ck = m, c
            prev = out.get(key)
            if prev is None:
                out[key] = ck if w > 0 else -ck
            else:
                out[key] = prev + ck if w > 0 else prev - ck
    return TruncatedSeries(out, order, s.arity)


def _coerce_laurent_coeffs(f: TruncatedSeries) -> TruncatedSeries:
    return f.map_coefficients(
        lambda c: c if isinstance(c, (LaurentPoly, QSeries)) else LaurentPoly({0: c}))


def _exp_key(f: TruncatedSeries) -> tuple:
    """Exact key of a coerced Exp argument: equal keys mean the same
    order, arity, ring and coefficients, term for term."""
    return (f.order, f.arity,
            {m: (c.terms(),) if type(c) is LaurentPoly else ("q", c.prec, c.terms())
             for m, c in f._coeffs.items()})


# (key, weak reference to the result) of the last exp_pleth solve
_exp_memo = (None, lambda: None)


def exp_pleth(f: TruncatedSeries) -> TruncatedSeries:
    """Plethystic exponential of a series with zero constant term.

    Coefficients may be LaurentPoly (or plain integers, which are
    promoted) or QSeries.  Solves n h_n = sum_{d<=n} g_d h_{n-d} with
    g = sum_k psi_k(E f); over Z[L, L^-1] each division by n is exact
    (an inexact one raises ExactnessError).

    An argument equal, by :func:`_exp_key`, to that of the previous call
    returns the previous result without a solve while that result is
    still alive: the function is pure and series are immutable, so it is
    the series the solve would give.
    """
    global _exp_memo
    if not (f.constant_term() == 0):
        raise ValueError("plethystic exponential requires zero constant term")
    f = _coerce_laurent_coeffs(f)
    key = _exp_key(f)
    last_key, last_ref = _exp_memo
    last = last_ref()
    if last is not None and key == last_key:
        return last
    g = _adams_sum(_euler(f), lambda k: 1)
    h = _solve_layers(g, _unit(f._coeffs.values()),
                      lambda n, acc: {m: c / n for m, c in acc.items() if c})
    _exp_memo = (key, weakref.ref(h))
    return h


def log_pleth(g: TruncatedSeries) -> TruncatedSeries:
    """Inverse of :func:`exp_pleth`, for series with constant term 1."""
    if not (g.constant_term() == 1):
        raise ValueError("plethystic logarithm requires constant term 1")
    g = _coerce_laurent_coeffs(g)
    eh = _adams_sum(_euler(g) / g, _mobius)
    # undo E: each division by the total degree is exact or raises ExactnessError
    return TruncatedSeries({m: c / sum(m) for m, c in eh._coeffs.items()},
                           eh.order, eh.arity)


def exp_pleth_product(f: TruncatedSeries) -> TruncatedSeries:
    """Product-form plethystic exponential, prod_m sigma_{x^m}(f_m).

    Independent of the Euler path: each term a L^e of f_m is the factor
    (1 - L^e x^m)^(-a), x^m in one variable or mixed, and the factors are
    expanded by one division in :func:`euler_product`.  Requires
    LaurentPoly (or integer) coefficients.
    """
    if not (f.constant_term() == 0):
        raise ValueError("plethystic exponential requires zero constant term")
    f = _coerce_laurent_coeffs(f)
    factors = []
    for m, c in f.coefficients():
        if not isinstance(c, LaurentPoly):
            raise ExactnessError("product form needs Laurent coefficients")
        factors += [(m, LaurentPoly.lefschetz(e), a) for e, a in c.terms()]
    return euler_product(factors, f.order, f.arity)


def power_structure(f: TruncatedSeries, a) -> TruncatedSeries:
    """The power f^a = Exp(a Log f) for a series f with constant term 1
    and an exponent a in Z[L, L^-1] (or a plain integer)."""
    return exp_pleth(log_pleth(f) * a)


def symmetric_power(x: LaurentPoly, k: int) -> LaurentPoly:
    """k-th symmetric power of a class: the t^k coefficient of Exp(x t)."""
    if k < 0:
        raise ValueError("symmetric powers are indexed by non-negative integers")
    s = exp_pleth(TruncatedSeries.variable(k, coeff=x))
    c = s.coefficient(k)
    return c if isinstance(c, LaurentPoly) else LaurentPoly({0: c})


# ---------------------------------------------------------------------------
# Randomized verification of the power-structure axioms
# ---------------------------------------------------------------------------

def _random_laurent(rng: random.Random) -> LaurentPoly:
    n = rng.randint(0, 3)
    terms = {}
    for _ in range(n):
        terms[rng.randint(-3, 3)] = rng.randint(-4, 4)
    return LaurentPoly(terms)


def _random_series(rng: random.Random, order: int, constant=0) -> TruncatedSeries:
    """constant + sum_{d=1..order} c_d t^d, one random class c_d per degree."""
    coeffs = {(0,): constant}
    for d in range(1, order + 1):
        coeffs[(d,)] = _random_laurent(rng)
    return TruncatedSeries(coeffs, order)


def verify_power_axioms(samples: int = 50, order: int = 8) -> CheckReport:
    """Check the eight power-structure axioms, Exp/Log round trips and the
    two-path Exp cross-check on random inputs of a fixed seed.  The jet
    check compares (order - 1)-jets, so order must be >= 1."""
    if order < 1:
        raise ValueError(f"power-axiom checks need order >= 1, got {order}")
    if samples < 0:
        raise ValueError(f"power-axiom checks need samples >= 0, got {samples}")
    import random  # here, so that importing the package does not load it

    rng = random.Random(20240)
    one = TruncatedSeries.constant(1, order)
    failures = []
    for i in range(samples):
        f = _random_series(rng, order, LaurentPoly.one())
        g = _random_series(rng, order, LaurentPoly.one())
        a = _random_laurent(rng)
        b = _random_laurent(rng)
        h = _random_series(rng, order)
        k = _random_series(rng, order)
        # Log f, Log g and f^a once per sample; equal inputs give equal series
        log_f, log_g = log_pleth(f), log_pleth(g)
        fa = exp_pleth(log_f * a)
        checks = {
            "f^0 = 1": exp_pleth(log_f * 0) == one,
            "f^(a+b) = f^a f^b": exp_pleth(log_f * (a + b)) == fa * exp_pleth(log_f * b),
            "f^1 = f": exp_pleth(log_f * 1) == f,
            "f^(ab) = (f^a)^b": exp_pleth(log_f * (a * b)) == power_structure(fa, b),
            "(fg)^a = f^a g^a": power_structure(f * g, a) == fa * exp_pleth(log_g * a),
            "(1+t)^a = 1 + a t + O(t^2)": (lambda p: p.coefficient(0) == 1
                                           and p.coefficient(1) == a)(
                power_structure(one + TruncatedSeries.variable(order), a)),
            "f(t^2)^a = f^a at t^2":
                power_structure(f.substitute_power(2), a) == fa.substitute_power(2),
            "jet continuity": _jet_check(f, fa, a, order),
            "Log(Exp) round trip": log_pleth(exp_pleth(h)) == h,
            "two-path Exp agreement": exp_pleth(k) == exp_pleth_product(k),
        }
        for name, ok in checks.items():
            if not ok:
                failures.append(f"sample {i}: {name}")
    detail = "; ".join(failures[:5]) if failures else f"{samples} samples, order {order}"
    return CheckReport("power-axioms", not failures, detail)


def _jet_check(f: TruncatedSeries, fa: TruncatedSeries, a, order: int) -> bool:
    # the (order-1)-jet of f^a must not depend on the degree-`order` term of f
    bumped = f + TruncatedSeries({(order,): 1}, order)
    return fa.truncate(order - 1) == power_structure(bumped, a).truncate(order - 1)
