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
* the product path  Exp(sum_m f_m x^m) = prod_m sigma_{x^m}(f_m), its
  binomial factors (1 - L^e x^m) multiplied out and divided once
  (:func:`~quotmotives.series.euler_product`).

Both run entirely in integer arithmetic over Z[L, L^-1].  The Euler
path (:func:`_exp_exact`) is written per monomial b L^e x^m of E f,
n h_n = sum b sum_{k>=1} L^(ek) x^(km) h_(n-k|m|), and runs on layers
packed into ints: the terms of equal k|m| are merged by slot, and each
adds a shifted multiple of the pack of h_(n-k|m|); QSeries
coefficients (Heine's formula) take it modulo q^N, N their least
precision.  ``Log`` inverts the Euler path: E(h)/h =
sum_{k>=1} psi_k(E(Log h)), so degree by degree E(Log h) is E(h)/h less
the Adams images psi_k, k >= 2, of its own lower layers, and each layer
is divided exactly by its degree.  The power structure is
f^a = Exp(a Log f).

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

import math
import weakref

from .rings import ExactnessError, LaurentPoly, QSeries, _decode, _rewiden, _slot_width
from .report import CheckReport
from .series import TruncatedSeries, _unit, _zero_key, euler_product


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
    promoted) or QSeries; :func:`_exp_exact` solves the Euler recurrence
    (an inexact division by n raises ExactnessError).  QSeries of least
    precision N < inf need exponents >= 0 (else ValueError), and every
    coefficient but the exact 1 is then known modulo q^N.

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
    if any(type(c) is QSeries for c in f._coeffs.values()):
        if not all(type(c) is QSeries for c in f._coeffs.values()):
            raise TypeError("Exp mixes QSeries with other coefficients")
        stop = min(c.prec for c in f._coeffs.values())
        if stop < math.inf and min(c.valuation() for c in f._coeffs.values()) < 0:
            raise ValueError("finite-precision QSeries Exp needs exponents >= 0")
        # each sum of exponent vectors of f gets a coefficient, O(q^N) if 0
        sums = {_zero_key(f.arity)}
        for _ in range(f.order):
            sums |= {tuple(x + y for x, y in zip(a, m)) for a in sums for m in f._coeffs
                     if sum(a) + sum(m) <= f.order}
        h = _exp_exact(f.map_coefficients(lambda c: c.known), stop)._coeffs
        h = TruncatedSeries({**{m: QSeries(h.get(m, LaurentPoly()), stop) for m in sums if any(m)},
                             _zero_key(f.arity): QSeries.one()}, f.order, f.arity)
    else:
        h = _exp_exact(f)
    _exp_memo = (key, weakref.ref(h))
    return h


def _monomials(f: TruncatedSeries) -> list:
    """The monomials b L^e x^m of E f as (b, e, m), b = |m| a for each
    term a L^e of the LaurentPoly coefficient f_m."""
    return [(sum(m) * a, e, m) for m, c in f._coeffs.items() for e, a in c._terms.items()]


def _exp_exact(f: TruncatedSeries, stop=math.inf) -> TruncatedSeries:
    """Exp of a series with LaurentPoly coefficients, on packed layers.

    Written per monomial b L^e x^m of E f, with j = |m|, the recurrence
    is n h_n = sum b sum_{k>=1} L^(ek) x^(km) h_(n-kj).  Each layer h_n is
    one int: its entry c L^E x^M is the digit c in slot (E - lo) P +
    pos(M) of width w, where lo is the layer's lowest exponent, pos(M)
    reads M without its first entry in base order + 1, so that x^m moves
    every slot by pos(m), and P exceeds every pos (P = 1 in one
    variable).  The terms b L^(ek) x^(km) with kj = d are merged by slot
    shift, and each merged term adds the pack of h_(n-d), shifted and
    times its weight (1: a shift alone).  A finite ``stop`` (exponents
    >= 0) solves modulo L^stop: no term with ek >= stop is merged, and
    each layer keeps only its digits below L^stop.

    The width of layer n is the kernel's (:func:`rings._slot_width`) for
    a bound on the digits of n h_n from the actual norms of the earlier
    layers; a pack made at another width is moved to this one
    (:func:`rings._rewiden`).  The pack of h_n is that of n h_n divided
    by n, taken only after every digit of n h_n, decoded by
    :func:`rings._decode`, is checked to divide by n (ExactnessError
    otherwise).  A layer's pack is dropped once no later layer reads it.
    """
    order, arity = f.order, f.arity
    out = {_zero_key(arity): _unit(f._coeffs.values())}
    base = order + 1
    P = order * base ** (arity - 2) + 1 if arity > 1 else 1
    merged = [{} for _ in range(order + 1)]  # d -> {slot shift: weight}
    for b, e, m in _monomials(f):
        step = e * P + sum(mi * base ** i for i, mi in enumerate(m[1:]))
        j = sum(m)
        for k in range(1, order // j + 1):
            if e * k >= stop:
                break
            g = merged[k * j]
            g[k * step] = g.get(k * step, 0) + b
    # per d, the merged terms: the (shift, weight) pairs, their l1 norm,
    # their lowest exponent and their highest shift
    adams = [None] * (order + 1)
    for d, g in enumerate(merged):
        pairs = [(s, c) for s, c in g.items() if c]
        if pairs:
            adams[d] = (pairs, sum(abs(c) for _, c in pairs), min(pairs)[0] // P,
                        max(pairs)[0])
    # layer n reads back to layer n - reach; older packs are dropped
    reach = max([d for d, g in enumerate(adams) if g], default=0)
    # per layer None (zero) or [lowest exponent, slots, width, pack, norm]
    layers = [[0, 1, 32, 1, 1]]
    for n in range(1, order + 1):
        if n > reach:
            layers[n - reach - 1] = None
        # the (merged terms of d, layer n - d) pairs that add anything
        active = [(g, h) for g, h in zip(adams[1:n + 1], layers[n - 1::-1]) if g and h]
        bound = sum(g[1] * h[4] for g, h in active)
        if not bound:
            layers.append(None)
            continue
        w = _slot_width(bound)
        if bound >> (w - 1):
            raise AssertionError(f"slot width {w} does not hold the bound {bound}")
        lo_n = min(h[0] + g[2] for g, h in active)
        acc = top = 0
        for (pairs, _, _, hi), h in active:
            if h[2] != w:
                h[3], h[2] = _rewiden(h[3], h[2], w, h[1]), w
            x = h[3]
            off = (h[0] - lo_n) * P
            if off + hi + h[1] > top:
                top = off + hi + h[1]
            for s, c in pairs:
                acc += (x if c == 1 else x * c) << w * (off + s)
        if (stop - lo_n) * P < top:
            # the signed digits of acc below L^stop
            top = max((stop - lo_n) * P, 0)
            low = (1 << w * top) - 1
            acc = ((acc + (low + 1 >> 1)) & low) - (low + 1 >> 1)
        if any(map(n.__rmod__, _decode(acc, w, top))):
            raise ExactnessError(f"layer {n} of Exp is not divisible by {n}")
        acc //= n
        quotient = _decode(acc, w, top)
        if any(quotient):
            nonzero = [i for i, c in enumerate(quotient) if c]
            first = nonzero[0] // P
            layers.append([lo_n + first, nonzero[-1] + 1 - first * P, w, acc >> w * first * P,
                           max(max(quotient), -min(quotient))])
            rows = {}
            for i in nonzero:
                q, p = divmod(i, P)
                rows.setdefault(p, {})[lo_n + q] = quotient[i]
            for p, row in rows.items():
                tail = []
                for _ in range(arity - 1):
                    p, mi = divmod(p, base)
                    tail.append(mi)
                out[(n - sum(tail), *tail)] = LaurentPoly(row)
            continue
        layers.append(None)
    return TruncatedSeries(out, order, arity)


def log_pleth(g: TruncatedSeries) -> TruncatedSeries:
    """Inverse of :func:`exp_pleth`, for series with constant term 1.

    E g / g = sum_{k>=1} psi_k(E Log g), E the Euler operator, so layer n
    of E Log g is that of E g / g less the images psi_k(c) x^(km), k >= 2,
    of the terms c x^m of its own lower layers.  The same pass divides
    each term of layer n by n: exactly, or ExactnessError.
    """
    if not (g.constant_term() == 1):
        raise ValueError("plethystic logarithm requires constant term 1")
    g = _coerce_laurent_coeffs(g)
    order = g.order
    # E g / g, where E multiplies the total-degree-n part by n
    eg = TruncatedSeries({m: c * sum(m) for m, c in g._coeffs.items()}, order, g.arity) / g
    layers = [dict(layer) for layer in eg._layers()]
    for n in range(1, order + 1):
        layer = layers[n]
        for m, c in layer.items():
            layer[m] = c / n
            if 2 * n > order:
                continue
            minus = -c
            for k in range(2, order // n + 1):
                key, ck, peel = tuple([e * k for e in m]), minus.adams(k), layers[k * n]
                peel[key] = peel[key] + ck if key in peel else ck
    return TruncatedSeries({m: c for layer in layers for m, c in layer.items()}, order, g.arity)


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
