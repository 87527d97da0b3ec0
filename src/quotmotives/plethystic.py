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
packed into ints (:func:`_layer_loop`): the terms of equal k|m| are
merged by slot, and each adds a shifted multiple of the pack of
h_(n-k|m|).  The merged terms of one degree are sorted by shift, and
every stretch of at least _RUN equal weights on equally spaced shifts
is a geometric run (shift, weight, step, count): doubling builds the
count shifted copies of a pack in two shifted adds per bit of count
(:func:`_repeat`).  Heine's argument sum_i q^i t merges into one run
per degree d, unit weights d slots apart.  The cut-off is measured:
Heine's solves read the same from 4 to 12, and no Quot series of a
benchmark pass forms a run.  One exact division per run,
(x 2^(a count) - x) / (2^a - 1), made ``verify_heine(30)`` 1.6 times
slower than doubling.  A monomial of t-degree 1 whose k-sum has at least
_RUNNING_TERMS terms keeps it instead as a running sum
R(n) = L^e x^m (h_(n-1) + R(n-1)): two shifted adds per layer in place
of n.  The cut-off is measured.  Running sums for every degree-1
monomial made ``verify_heine(16)`` twice as slow (its argument has 137
of them, most with short k-sums), and running sums for degrees up to 2
or 4 gained no more than degree 1 alone.  A finite ``stop`` solves
modulo L^stop; Heine's formula in :mod:`quotmotives.quiver` takes it so.

``Log`` inverts the Euler path: E(h)/h = sum_{k>=1} psi_k(E(Log h)), so
degree by degree E(Log h) is E(h)/h less the Adams images psi_k,
k >= 2, of its own lower layers, and each layer is divided exactly by
its degree.  The division E(h)/h runs on the same layer loop
(:func:`_euler_quotient`): the layers of h are packed once, and each
quotient layer is kept as (shift, weight) pairs, so every step is
shifted adds.  Log uses neither the monomials of E f nor the running
sums, so the Quot self-check, Exp(x Log P) against the closed Exp,
still tests the Exp against an independent Log.  The power structure
is f^a = Exp(a Log f).  Exp, Log and the power structure take int and
LaurentPoly coefficients only; any other coefficient is a TypeError.

:func:`exp_pleth` keeps its last argument, and a weak reference to its
result, in one slot; a result that nothing else holds is freed.  The
key is exact: the order, the arity and, per exponent vector, the sorted
terms of the coerced coefficient, so an int and the constant
LaurentPoly of equal value share a key.  The function is pure and series
are immutable, so a hit returns the very series a solve would produce.
This is what makes the Quot check cheap: its Exp(x Log P) has the
argument of the closed Exp(x A_p) computed just before it whenever the
two paths agree (see :mod:`quotmotives.quot`).
"""

from __future__ import annotations

import math
import weakref

from .rings import ExactnessError, LaurentPoly, _decode, _rewiden, _slot_width
from .report import CheckReport
from .series import TruncatedSeries, _unit, _zero_key, euler_product


def _coerce_laurent_coeffs(f: TruncatedSeries) -> TruncatedSeries:
    """f with its int coefficients promoted to LaurentPoly; a coefficient
    of any other type is a TypeError."""
    def coerce(c):
        x = LaurentPoly._coerce(c)
        if x is NotImplemented:
            raise TypeError(f"Exp and Log take int and LaurentPoly coefficients, "
                            f"not {type(c).__name__}")
        return x
    return f.map_coefficients(coerce)


def _exp_key(f: TruncatedSeries) -> tuple:
    """Exact key of a coerced Exp argument: equal keys mean the same
    order, arity and coefficients, term for term."""
    return f.order, f.arity, {m: c.terms() for m, c in f._coeffs.items()}


# (key, weak reference to the result) of the last exp_pleth solve
_exp_memo = (None, lambda: None)


def exp_pleth(f: TruncatedSeries) -> TruncatedSeries:
    """Plethystic exponential of a series with zero constant term.

    Coefficients are LaurentPoly or plain integers, which are promoted;
    any other coefficient is a TypeError.  :func:`_exp_exact` solves the
    Euler recurrence (an inexact division by n raises ExactnessError).

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
    h = _exp_exact(f)
    _exp_memo = (key, weakref.ref(h))
    return h


# a monomial of E f of t-degree 1 whose k-sum has at least this many
# terms keeps it as a running sum in _exp_exact (fixed by measurement)
_RUNNING_TERMS = 15

# at least this many merged terms of equal weight on equally spaced shifts
# are added as one geometric run in _exp_exact (fixed by measurement)
_RUN = 8


def _runs(pairs: list) -> tuple:
    """(pairs, runs) for a list of (shift, weight) pairs sorted by shift:
    each run (shift, weight, step, count) stands for the count >= _RUN
    pairs (shift + i step, weight), i < count, of a stretch of equal
    weights on equally spaced shifts; the pairs in no run stay pairs."""
    single, runs = [], []
    i, n = 0, len(pairs)
    while i < n:
        s, c = pairs[i]
        j = i + 1
        step = pairs[j][0] - s if j < n else 0
        while j < n and pairs[j] == (s + step * (j - i), c):
            j += 1
        if j - i >= _RUN:
            runs.append((s, c, step, j - i))
            i = j
        else:
            single.append(pairs[i])
            i += 1
    return single, runs


def _monomials(f: TruncatedSeries) -> list:
    """The monomials b L^e x^m of E f as (b, e, m), b = |m| a for each
    term a L^e of the LaurentPoly coefficient f_m."""
    return [(sum(m) * a, e, m) for m, c in f._coeffs.items() for e, a in c._terms.items()]


def _grid(order: int, arity: int) -> tuple:
    """(base, P): a term L^E x^M of a packed layer sits in slot
    (E - lo) P + pos(M), pos(M) reading M without its first entry in base
    order + 1, and P exceeds every pos (P = 1 in one variable)."""
    base = order + 1
    return base, order * base ** (arity - 2) + 1 if arity > 1 else 1


def _pos(m, base: int) -> int:
    """pos(m) of :func:`_grid` for an exponent vector m."""
    return sum(mi * base ** i for i, mi in enumerate(m[1:])) if len(m) > 1 else 0


def _read_layer(digits, lo: int, P: int, base: int, arity: int, n: int, out: dict):
    """Write the coefficients of layer n, whose digit i belongs to
    L^(lo + i // P) x^M with pos(M) = i % P, into ``out``: one slice of
    the digits per residue mod P."""
    if P == 1:
        out[(n,)] = LaurentPoly._of_nonzero({e: c for e, c in zip(range(lo, lo + len(digits)),
                                                                 digits) if c})
        return
    for p in range(min(P, len(digits))):
        row = digits[p::P]
        if any(row):
            tail, q = [], p
            for _ in range(arity - 1):
                q, mi = divmod(q, base)
                tail.append(mi)
            out[(n - sum(tail), *tail)] = LaurentPoly._of_nonzero(
                {e: c for e, c in zip(range(lo, lo + len(row)), row) if c})


def _shifted_sum(active: list, P: int, stop, w: int = 0) -> tuple:
    """(acc, width, lowest exponent, slots, bound): acc is the sum over
    the (terms, pack) pairs of ``active`` of the pack times each weight,
    shifted by each shift of the terms, with only its digits below
    L^stop kept.

    A pack is [lowest exponent, slots, width, int, norm]: its digit i
    belongs to L^(lowest + i // P) x^M with pos(M) = i % P, and norm
    bounds every digit.  Terms are (pairs, l1 norm, lowest exponent,
    highest shift, runs), the pairs (shift, weight) of slot shifts
    E P + pos(M), and each run (shift, weight, step, count) of
    :func:`_runs` the count pairs (shift + i step, weight), i < count,
    added as one shifted multiple of the pack repeated by
    :func:`_repeat`.  The norm and the two bounds cover the runs' pairs.
    The width is w if it holds the bound sum ||weights||_1 ||pack||_inf,
    and otherwise the kernel's (:func:`rings._slot_width`), checked
    explicitly; a pack made at another width is moved to this one
    (:func:`rings._rewiden`).
    """
    bound = sum([g[1] * h[4] for g, h in active])
    if not bound:
        return 0, 32, 0, 0, 0
    if not w or bound >> (w - 1):
        w = _slot_width(bound)
        if bound >> (w - 1):
            raise AssertionError(f"slot width {w} does not hold the bound {bound}")
    lo = min([h[0] + g[2] for g, h in active])
    acc = top = 0
    for (pairs, _, _, hi, runs), h in active:
        if h[2] != w:
            h[3], h[2] = _rewiden(h[3], h[2], w, h[1]), w
        x = h[3]
        off = (h[0] - lo) * P
        if off + hi + h[1] > top:
            top = off + hi + h[1]
        for s, c in pairs:
            if c == 1:
                acc += x << w * (off + s)
            elif c == -1:
                acc -= x << w * (off + s)
            else:
                acc += x * c << w * (off + s)
        for s, c, step, count in runs:
            acc += _repeat(x, w * step, count) * c << w * (off + s)
    if (stop - lo) * P < top:
        # the signed digits of acc below L^stop
        top = max((stop - lo) * P, 0)
        low = (1 << w * top) - 1
        acc = ((acc + (low + 1 >> 1)) & low) - (low + 1 >> 1)
    return acc, w, lo, top, bound


def _repeat(x: int, a: int, count: int) -> int:
    """x (1 + 2^a + ... + 2^(a (count - 1))), the sum of count copies of x
    shifted a bits apart, by doubling: two shifted adds per bit of count."""
    y = k = 0  # y is the sum of k copies
    for bit in bin(count)[2:]:
        y += y << a * k
        k += k
        if bit == "1":
            y = x + (y << a)
            k += 1
    return y


def _layer_loop(order: int, P: int, terms: list, packs: list, extra: list, step,
                stop=math.inf):
    """The packed layer loop of the Exp and of Log's division.

    For n = 1..order, layer n sums (:func:`_shifted_sum`, below L^stop)
    the pairs (terms[d], packs[n - d]) for d = 1..n, and the (terms,
    pack) pairs of ``extra``.  ``step(n, acc, width, lowest exponent,
    slots)`` turns that sum into layer n, which it appends to ``terms``
    or to ``packs``, and returns the ``extra`` of layer n + 1.
    """
    for n in range(1, order + 1):
        active = extra + [(g, h) for g, h in zip(terms[1:n + 1], packs[n - 1::-1]) if g and h]
        extra = step(n, *_shifted_sum(active, P, stop)[:4])


def _exp_exact(f: TruncatedSeries, stop=math.inf) -> TruncatedSeries:
    """Exp of a series with LaurentPoly coefficients, on packed layers.

    Written per monomial b L^e x^m of E f, with j = |m|, the recurrence
    is n h_n = sum b sum_{k>=1} L^(ek) x^(km) h_(n-kj), solved by
    :func:`_layer_loop` with the layers h_n as its packs.  A monomial of
    t-degree 1 whose k-sum has at least _RUNNING_TERMS terms (k <= order
    with ek < stop) keeps it as a running sum R(n) = L^e x^m (h_(n-1) +
    R(n-1)), one pack cut below L^stop and added to layer n times b: two
    shifted adds per layer in place of n (the module docstring says why
    the cut-off, and why degree 1 only).  The other terms
    b L^(ek) x^(km) with kj = d are merged by slot shift, and each merged
    term adds the pack of h_(n-d), shifted and times its weight (1: a
    shift alone); the stretches of equal weights on equally spaced
    shifts are added as geometric runs (:func:`_runs`).  A finite
    ``stop`` (exponents >= 0) solves modulo
    L^stop: no term with ek >= stop is merged, and each layer keeps only
    its digits below L^stop.

    The pack of h_n is that of n h_n divided by n, taken only after every
    digit of n h_n, decoded by :func:`rings._decode`, is checked to
    divide by n (ExactnessError otherwise).  A layer's pack is dropped
    once no later layer reads it.  R(n + 1) is made at the width of h_n
    unless its bound ||h_n|| + ||R(n)|| needs a wider one.
    """
    order, arity = f.order, f.arity
    out = {_zero_key(arity): _unit(f._coeffs.values())}
    base, P = _grid(order, arity)
    running = []  # per running monomial [terms of b, terms of L^e x^m, R]
    merged = [{} for _ in range(order + 1)]  # d -> {slot shift: weight}
    for b, e, m in _monomials(f):
        j = sum(m)
        step = e * P + _pos(m, base)
        # a k-sum of degree 1 has min(order, ceil(stop / e) - 1) terms
        if j == 1 and (order if e <= 0 or stop == math.inf
                       else min(order, -(-stop // e) - 1)) >= _RUNNING_TERMS:
            running.append([([(0, b)], abs(b), 0, 0, ()), ([(step, 1)], 1, e, step, ()), None])
            continue
        for k in range(1, order // j + 1):
            if e * k >= stop:
                break
            g = merged[k * j]
            g[k * step] = g.get(k * step, 0) + b
    # per d, the merged terms, as terms of _shifted_sum
    adams = [None] * (order + 1)
    for d, g in enumerate(merged):
        pairs = sorted([(s, c) for s, c in g.items() if c])
        if pairs:
            single, runs = _runs(pairs)
            adams[d] = (single, sum(abs(c) for _, c in pairs), pairs[0][0] // P, pairs[-1][0],
                        runs)
    # layer n reads back to layer n - reach; older packs are dropped
    reach = max([d for d, g in enumerate(adams) if g], default=0)
    layers = [[0, 1, 32, 1, 1]]  # per layer None (zero) or its pack

    def advance(h, w):
        # R(n + 1) = L^e x^m (h_n + R(n)) for every running monomial
        extra = []
        for run in running:
            acc, v, lo, slots, norm = _shifted_sum(
                [(run[1], o) for o in (h, run[2]) if o], P, stop, w)
            run[2] = [lo, slots, v, acc, norm] if acc else None
            if acc:
                extra.append((run[0], run[2]))
        return extra

    def solve(n, acc, w, lo, slots):
        h = None
        if acc:
            if any(map(n.__rmod__, _decode(acc, w, slots))):
                raise ExactnessError(f"layer {n} of Exp is not divisible by {n}")
            acc //= n
            digits = _decode(acc, w, slots)
            _read_layer(digits, lo, P, base, arity, n, out)
            first = ((acc & -acc).bit_length() - 1) // w // P
            h = [lo + first, abs(acc).bit_length() // w + 1 - first * P, w,
                 acc >> w * first * P, max(max(digits), -min(digits))]
        layers.append(h)
        extra = advance(h, w) if running and n < order else []
        if n >= reach:
            layers[n - reach] = None
        return extra

    _layer_loop(order, P, adams, layers, advance(layers[0], 32), solve, stop)
    return TruncatedSeries(out, order, arity)


def _euler_quotient(g: TruncatedSeries) -> list:
    """The layers of E g / g, as dicts from exponent vectors to classes,
    for g over Z[L, L^-1] with constant term 1 and E the Euler operator.

    The layers g_n are packed once and are the packs of
    :func:`_layer_loop`.  Each quotient layer
    G_n = n g_n - sum_{d<n} G_d g_(n-d) is read off its digits and kept
    as the (shift, -weight) pairs of its terms, so every step is shifted
    adds; n g_n is the ``extra`` of layer n.
    """
    order, arity = g.order, g.arity
    base, P = _grid(order, arity)
    packs = [None] * (order + 1)
    for n, layer in enumerate(g._layers()):
        if n and layer:
            slots = [(e * P + p, a) for m, c in layer for p in (_pos(m, base),)
                     for e, a in c._terms.items()]
            lo, hi = min(slots)[0] // P, max(slots)[0]
            norm = max(abs(a) for _, a in slots)
            w = _slot_width(norm)
            packs[n] = [lo, hi + 1 - lo * P, w,
                        sum(a << w * (s - lo * P) for s, a in slots), norm]
    out = [{} for _ in range(order + 1)]
    terms = [None]

    def solve(n, acc, w, lo, slots):
        pairs = None
        if acc:
            digits = _decode(acc, w, slots)
            _read_layer(digits, lo, P, base, arity, n, out[n])
            pairs = [(lo * P + i, -c) for i, c in enumerate(digits) if c]
            pairs = (pairs, sum(abs(c) for _, c in pairs), pairs[0][0] // P, pairs[-1][0], ())
        terms.append(pairs)
        return numerator(n + 1)

    def numerator(n):
        return [(([(0, n)], n, 0, 0, ()), packs[n])] if n <= order and packs[n] else []

    _layer_loop(order, P, terms, packs, numerator(1), solve)
    return out


def log_pleth(g: TruncatedSeries) -> TruncatedSeries:
    """Inverse of :func:`exp_pleth`, for series with constant term 1.

    E g / g = sum_{k>=1} psi_k(E Log g), E the Euler operator, so layer n
    of E Log g is that of E g / g less the images psi_k(c) x^(km), k >= 2,
    of the terms c x^m of its own lower layers.  The same pass divides
    each term of layer n by n: exactly, or ExactnessError.  E g / g is
    solved on packed layers by :func:`_euler_quotient`.  Coefficients are
    LaurentPoly or plain integers; any other coefficient is a TypeError.
    """
    if not (g.constant_term() == 1):
        raise ValueError("plethystic logarithm requires constant term 1")
    g = _coerce_laurent_coeffs(g)
    order = g.order
    layers = _euler_quotient(g)
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
    expanded by one division in :func:`euler_product`.  Coefficients are
    LaurentPoly or plain integers; any other coefficient is a TypeError.
    """
    if not (f.constant_term() == 0):
        raise ValueError("plethystic exponential requires zero constant term")
    f = _coerce_laurent_coeffs(f)
    factors = []
    for m, c in f.coefficients():
        factors += [(m, LaurentPoly.lefschetz(e), a) for e, a in c.terms()]
    return euler_product(factors, f.order, f.arity)


def power_structure(f: TruncatedSeries, a) -> TruncatedSeries:
    """The power f^a = Exp(a Log f) for a series f with constant term 1
    and an exponent a in Z[L, L^-1] (or a plain integer)."""
    return exp_pleth(log_pleth(f) * a)


# ---------------------------------------------------------------------------
# Randomized verification of the power-structure axioms
# ---------------------------------------------------------------------------

def _random_laurent(rng) -> LaurentPoly:
    n = rng.randint(0, 3)
    terms = {}
    for _ in range(n):
        terms[rng.randint(-3, 3)] = rng.randint(-4, 4)
    return LaurentPoly(terms)


def _random_series(rng, order: int, constant=0) -> TruncatedSeries:
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
