import gc
import itertools
import math
import os
import pathlib
import random
import subprocess
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from quotmotives import plethystic, quiver, quot
from quotmotives.rings import ExactnessError, LaurentPoly, affine_class, projective_class
from quotmotives.quiver import verify_heine
from quotmotives.series import TruncatedSeries, geometric_series
from quotmotives.plethystic import (_coerce_laurent_coeffs, _exp_exact, exp_pleth,
                                    exp_pleth_product, log_pleth, power_structure,
                                    verify_power_axioms)

L = LaurentPoly.lefschetz()


def brute_product(factors, order):
    """Independent expansion of a product of geometric factors
    1/(1 - c t^step), used as the oracle for Exp identities."""
    out = TruncatedSeries.constant(1, order)
    for coeff, step in factors:
        out = out * geometric_series(coeff, order).substitute_power(step)
    return out


def geometric_exp_product(f):
    """prod_m sigma_{x^m}(f_m) as a chain of products by powers of geometric
    series, the way exp_pleth_product built it before it became one
    division: each term a L^e of f_m substitutes u = x^m into
    1/(1 - L^e u) and multiplies by it a times (divides, for a < 0)."""
    out = TruncatedSeries.constant(1, f.order, f.arity)
    for m, c in f.coefficients():
        c = LaurentPoly._coerce(c)
        step = sum(m)
        for e, a in c.terms():
            geo = TruncatedSeries(
                {tuple(j * mi for mi in m): LaurentPoly.lefschetz(e * j)
                 for j in range(f.order // step + 1)}, f.order, f.arity)
            for _ in range(abs(a)):
                out = out * geo if a > 0 else out / geo
    return out


def _mobius(n):
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def reference_adams_sum(s, sign):
    """sum_k sign(k) psi_k(s): one Adams series s.adams(k) per k, added up."""
    out = {}
    for k in range(1, s.order + 1):
        w = sign(k)
        if w:
            for m, c in s.adams(k)._coeffs.items():
                out[m] = out.get(m, 0) + c if w > 0 else out.get(m, 0) - c
    return TruncatedSeries(out, s.order, s.arity)


def euler(s):
    """E s: the total-degree-n part of s multiplied by n."""
    return TruncatedSeries({m: c * sum(m) for m, c in s._coeffs.items()}, s.order, s.arity)


def reference_log(g):
    """Log g by the Moebius formula, the way log_pleth took it before it
    peeled: E(Log g) = sum_k mu(k) psi_k(E g / g), then each term divided
    by its total degree."""
    g = _coerce_laurent_coeffs(g)
    eg = euler(g) / g
    eh = reference_adams_sum(eg, _mobius)
    return TruncatedSeries({m: c / sum(m) for m, c in eh._coeffs.items()}, eh.order, eh.arity)


def terms_below(c, prec):
    """The terms of c (an int or LaurentPoly) below q^prec."""
    c = LaurentPoly({0: c}) if type(c) is int else c
    return [(e, a) for e, a in c.terms() if e < prec]


def _exact_terms(s):
    """Every coefficient of s with its type and terms (``==`` takes an int
    for the constant LaurentPoly of its value)."""
    def exact(c):
        return type(c), (c.terms() if isinstance(c, LaurentPoly) else c)
    return s.order, s.arity, [(m, exact(c)) for m, c in s.coefficients()]


class TestAdamsSum:
    """sum_k sign(k) psi_k, the sum under Exp and Log, against one Adams
    series per k: sign one is E(Exp f) / Exp f = sum_k psi_k(E f), and the
    Moebius sign is the peel in log_pleth, E(Log g) = sum_k mu(k) psi_k(E g / g)."""
    RINGS = {
        "int": lambda rng: rng.randint(-5, 5),
        "laurent": lambda rng: LaurentPoly({rng.randint(-3, 3): rng.randint(-4, 4)
                                            for _ in range(rng.randint(1, 3))}),
    }
    ONES = {
        "int": lambda rng: 1,
        "laurent": lambda rng: LaurentPoly.one(),
    }

    @pytest.mark.parametrize("ring", sorted(RINGS))
    @pytest.mark.parametrize("arity, order", [(1, 9), (2, 5), (3, 4)])
    @pytest.mark.parametrize("sign", [lambda k: 1, _mobius], ids=["one", "mobius"])
    def test_matches_the_per_k_sum(self, ring, arity, order, sign):
        rng = random.Random(f"{ring}-{arity}-{order}")
        draw = self.RINGS[ring]
        for _ in range(8):
            coeffs = {m: draw(rng)
                      for m in itertools.product(range(order + 1), repeat=arity)
                      if 1 <= sum(m) <= order and rng.random() < 0.6}
            if sign is _mobius:
                g = TruncatedSeries({**coeffs, (0,) * arity: self.ONES[ring](rng)}, order, arity)
                assert _exact_terms(log_pleth(g)) == _exact_terms(reference_log(g))
            else:
                f = _coerce_laurent_coeffs(TruncatedSeries(coeffs, order, arity))
                g = exp_pleth(f)
                assert euler(g) / g == reference_adams_sum(euler(f), sign)


class TestExp:
    def test_exp_t_is_geometric(self):
        s = exp_pleth(TruncatedSeries.variable(9))
        assert s == geometric_series(1, 9)

    def test_exp_Lt(self):
        s = exp_pleth(TruncatedSeries.variable(7, coeff=L))
        assert s == geometric_series(L, 7)

    def test_exp_p1_t_gives_projective_spaces(self):
        # oracle: 1/((1-t)(1-Lt)) expanded directly
        oracle = brute_product([(1, 1), (L, 1)], 5)
        s = exp_pleth(TruncatedSeries.variable(5, coeff=projective_class(1)))
        assert s == oracle
        assert s.coefficient(2) == projective_class(2)

    def test_exp_is_homomorphism(self):
        rng = random.Random(7)
        for _ in range(10):
            f = _random_zero_series(rng, 8)
            g = _random_zero_series(rng, 8)
            assert exp_pleth(f + g) == exp_pleth(f) * exp_pleth(g)

    def test_exp_commutes_with_variable_power(self):
        rng = random.Random(11)
        for n in (2, 3):
            f = _random_zero_series(rng, 9)
            assert exp_pleth(f.substitute_power(n)) == \
                exp_pleth(f).substitute_power(n)

    def test_nonzero_constant_rejected(self):
        with pytest.raises(ValueError):
            exp_pleth(TruncatedSeries.constant(1, 4))

    def test_integrality_of_exp(self):
        rng = random.Random(23)
        for _ in range(20):
            s = exp_pleth(_random_zero_series(rng, 7))
            assert all(isinstance(a, int)
                       for _, c in s.coefficients() for _, a in c.terms())

    def test_two_paths_agree(self):
        rng = random.Random(5)
        for _ in range(15):
            f = _random_zero_series(rng, 8)
            assert exp_pleth(f) == exp_pleth_product(f)

    def test_product_form_matches_geometric_product(self):
        rng = random.Random(13)
        for arity, order in ((1, 8), (1, 8), (2, 5), (2, 5), (3, 3)):
            for _ in range(4):
                f = _random_zero_series(rng, order, arity)
                assert exp_pleth_product(f) == geometric_exp_product(f)

    def test_exp_of_zero_series_is_one_in_either_ring(self):
        s = exp_pleth(TruncatedSeries({}, 3))
        assert s == TruncatedSeries.constant(LaurentPoly.one(), 3)

    def test_two_paths_agree_multivariate(self):
        f = TruncatedSeries({(1, 0): L, (0, 1): 1, (1, 1): L.dual()}, 5, arity=2)
        assert exp_pleth(f) == exp_pleth_product(f)
        assert log_pleth(exp_pleth(f)) == f


@st.composite
def exact_arguments(draw, coefficients=st.integers(-6, 6), max_order=9):
    """A series with zero constant term over Z[L, L^-1] in one to three
    variables: virtual classes with negative exponents, and ints, at
    exponent vectors of every degree up to the order."""
    arity = draw(st.sampled_from((1, 2, 3)))
    order = draw(st.integers(0, (max_order, max_order - 3, max(max_order - 5, 1))[arity - 1]))
    vectors = [m for m in itertools.product(range(order + 1), repeat=arity)
               if 1 <= sum(m) <= order]
    classes = st.one_of(
        st.dictionaries(st.integers(-4, 4), coefficients, max_size=4).map(LaurentPoly),
        coefficients)
    coeffs = draw(st.dictionaries(st.sampled_from(vectors), classes, max_size=8)
                  if vectors else st.just({}))
    return TruncatedSeries(coeffs, order, arity)


@st.composite
def running_arguments(draw):
    """A series over Z[L, L^-1] at the orders where the Exp keeps running
    sums: 14-24 in one variable and 14-16 in two, so that its t-degree-1
    monomials (virtual classes with negative exponents, and ints) have
    k-sums on both sides of the cut-off, plus a few terms of higher
    degree, which stay merged."""
    arity = draw(st.sampled_from((1, 2)))
    order = draw(st.integers(14, (24, 16)[arity - 1]))
    linear = [m for m in itertools.product((0, 1), repeat=arity) if sum(m) == 1]
    vectors = [m for m in itertools.product(range(order + 1), repeat=arity)
               if 2 <= sum(m) <= order]
    classes = st.one_of(
        st.dictionaries(st.integers(-4, 4), st.integers(-3, 3), max_size=3).map(LaurentPoly),
        st.integers(-3, 3))
    coeffs = draw(st.dictionaries(st.sampled_from(linear), classes, min_size=1))
    coeffs.update(draw(st.dictionaries(st.sampled_from(vectors), classes, max_size=3)))
    return TruncatedSeries(coeffs, order, arity)


def record_widths(monkeypatch):
    """The slot width of every layer of the exact-coefficient Exp."""
    widths = []
    width = plethystic._slot_width

    def recorded(bound):
        widths.append(width(bound))
        return widths[-1]

    monkeypatch.setattr(plethystic, "_slot_width", recorded)
    return widths


@st.composite
def stopped_arguments(draw):
    """(f, stop): a series with zero constant term and LaurentPoly
    coefficients in q in one to three variables, exponents >= 0, and a
    stop 3, 6, 9 or none (math.inf) for Heine's solve."""
    arity = draw(st.sampled_from((1, 2, 3)))
    order = draw(st.integers(1, (7, 4, 3)[arity - 1]))
    vectors = [m for m in itertools.product(range(order + 1), repeat=arity)
               if 1 <= sum(m) <= order]
    classes = st.dictionaries(st.integers(0, 5), st.integers(-3, 3), min_size=1, max_size=3)\
        .map(LaurentPoly).filter(bool)
    f = TruncatedSeries(draw(st.dictionaries(st.sampled_from(vectors), classes,
                                             min_size=1, max_size=5)), order, arity)
    return f, draw(st.sampled_from((3, 6, 9, math.inf)))


def surface_quot_argument(x, r, order):
    return TruncatedSeries.variable(order, coeff=projective_class(r - 1) * x) \
        * geometric_series(LaurentPoly.lefschetz(r), order)


class TestExactExp:
    """Exp over Z[L, L^-1] on packed layers (_exp_exact) against the
    product form, which shares no formula with it."""

    @given(st.one_of(exact_arguments(), running_arguments()))
    @example(TruncatedSeries({}, 0))
    @example(TruncatedSeries({(1,): LaurentPoly({-2: 3, 1: -1})}, 1))
    @example(TruncatedSeries({(1, 0): -2, (0, 1): LaurentPoly({-1: 1})}, 1, 2))
    @example(TruncatedSeries({(1, 0, 0): L, (0, 1, 0): -2, (0, 0, 1): LaurentPoly({-1: 1}),
                              (1, 1, 1): 3, (0, 2, 1): LaurentPoly({2: -1, -3: 2})}, 4, 3))
    @example(TruncatedSeries({(1,): LaurentPoly({-1: 2, 0: -3}), (2,): 1,
                              (3,): LaurentPoly({4: -1}), (5,): 2}, 9))
    # one variable at orders 14 and 15, just below and at the running-sum
    # cut-off, and at 24; two variables at order 15
    @example(TruncatedSeries({(1,): LaurentPoly({-2: 2, 1: -1}), (2,): L, (5,): -1}, 14))
    @example(TruncatedSeries({(1,): LaurentPoly({-2: 2, 1: -1}), (2,): L, (5,): -1}, 15))
    @example(TruncatedSeries({(1,): LaurentPoly({-3: -1, 0: 2, 2: 1}), (3,): L.dual()}, 24))
    @example(TruncatedSeries({(1, 0): LaurentPoly({-1: 1, 2: -2}), (0, 1): -1, (1, 1): L,
                              (0, 3): 2}, 15, 2))
    def test_matches_the_product_form(self, f):
        expected = _exact_terms(exp_pleth_product(f))
        assert _exact_terms(_exp_exact(_coerce_laurent_coeffs(f))) == expected
        reset_exp_memo()
        assert _exact_terms(exp_pleth(f)) == expected

    @given(exact_arguments(st.integers(-2 ** 70, 2 ** 70), max_order=5))
    @example(TruncatedSeries({(3,): 2 ** 30}, 5))
    @example(TruncatedSeries({(1,): 2 ** 62, (2,): -(2 ** 62), (4,): 2 ** 61}, 4))
    # a running sum R(2) = h_1 + R(1) of 2^31 (2^63) outgrows the 32-bit
    # (64-bit) slots of layer 1
    @example(TruncatedSeries({(1,): 2 ** 31 - 1}, 15))
    @example(TruncatedSeries({(1,): -(2 ** 63 - 1), (2,): 1}, 16))
    def test_wide_coefficients_round_trip_through_log(self, f):
        # coefficients up to 2^70 (the product form takes them as
        # multiplicities) against Log, which shares the packed layer loop
        # but neither the monomials of E f nor the running sums
        f = _coerce_laurent_coeffs(f)
        assert _exact_terms(log_pleth(_exp_exact(f))) == _exact_terms(f)

    def test_slots_widen_past_64_bits(self, monkeypatch):
        # the closed surface Quot series of 2 + 3L + 2L^2 at rank 4 reaches
        # 63-bit coefficients by order 30, so the last layers need 128-bit
        # slots and the earlier packs are moved to them
        widths = record_widths(monkeypatch)
        f = surface_quot_argument(LaurentPoly({0: 2, 1: 3, 2: 2}), 4, 30)
        h = _exp_exact(f)
        assert widths[0] == 32 and 64 in widths and widths[-1] == 128
        assert widths == sorted(widths)
        assert max(abs(c) for _, p in h.coefficients() for _, c in p.terms()).bit_length() == 63
        assert _exact_terms(h) == _exact_terms(exp_pleth_product(f))

    def test_stopped_arguments_stop_at_the_stop(self):
        # the Exp reaches q^6 at t^4, (q^3 t^2)^2; solved modulo q^5, every
        # layer stops below q^5
        f = TruncatedSeries({(1,): LaurentPoly({1: 2}), (2,): LaurentPoly({0: -1, 3: 1})}, 4)
        h = _exp_exact(f, 5)
        assert h.coefficient(1) == f.coefficient(1)
        expect = exp_pleth_product(f)
        assert max(e for _, c in expect.coefficients() for e, _ in c.terms()) == 6
        assert max(e for _, c in h.coefficients() for e, _ in c.terms()) == 4
        assert all(terms_below(expect.coefficient(m), 5) == c.terms() for m, c in h.coefficients())

    @given(stopped_arguments())
    @example((TruncatedSeries({(1,): LaurentPoly({7: 1})}, 4), 3))
    @example((TruncatedSeries({(1, 0): LaurentPoly({0: 1, 1: 1, 2: 1}),
                               (0, 1): LaurentPoly({2: 1})}, 3, 2), 3))
    # Heine's sum_{i<N} q^i t: the k-sums of q^0, q^1 and q^2 t have 20, 20
    # and 19 terms below q^40 and run, cut at q^40; those from q^3 t merge
    @example((TruncatedSeries({(1,): LaurentPoly(dict.fromkeys(range(40), 1))}, 20), 40))
    @example((TruncatedSeries({(1,): LaurentPoly({0: 1, 1: -2, 3: 1}),
                               (2,): LaurentPoly({1: 1})}, 18), 30))
    @example((TruncatedSeries({(1, 0): LaurentPoly({0: 2, 4: -1}),
                               (0, 1): LaurentPoly({1: 1})}, 15, 2), 12))
    def test_stopped_arguments_match_the_product_form_below_the_stop(self, drawn):
        # the product form, read below q^stop: the solve keeps exactly those terms
        f, stop = drawn
        h = _exp_exact(f, stop)
        expect = exp_pleth_product(f)
        assert {m: terms_below(c, stop) for m, c in expect.coefficients()
                if terms_below(c, stop)} == {m: terms_below(c, math.inf)
                                             for m, c in h.coefficients()}

    PURE = TruncatedSeries({(1,): Fraction(2, 3), (2,): Fraction(1)}, 3)
    MIXED = TruncatedSeries({(1,): L, (2,): Fraction(1, 2), (3,): 2}, 3)
    REFUSALS = {"exp": exp_pleth, "product": exp_pleth_product,
                "log": lambda f: log_pleth(f + 1), "power": lambda f: power_structure(f + 1, L)}

    # a symmetric power's argument is one class, so it has no mixed case
    @pytest.mark.parametrize("solve, f", [
        *(pytest.param(solve, f, id=f"{name}-{kind}") for (name, solve), (kind, f)
          in itertools.product(REFUSALS.items(), (("pure", PURE), ("mixed", MIXED)))),
        pytest.param(lambda f: _symmetric_power(f.coefficient(1), 3), PURE, id="symmetric-pure"),
    ])
    def test_other_coefficients_are_a_type_error(self, solve, f):
        with pytest.raises(TypeError, match="int and LaurentPoly coefficients, not Fraction"):
            solve(f)

    def test_a_cut_one_exponent_too_low_fails_heine(self, monkeypatch):
        exact = plethystic._exp_exact
        monkeypatch.setattr(quiver, "_exp_exact", lambda f, stop=math.inf: exact(f, stop - 1))
        assert str(verify_heine(6)) == "heine: FAIL (first difference at (1,))"

    def test_inexact_layer_raises(self, monkeypatch):
        # a weight of E f that its degree does not divide is no Exp argument:
        # the layer of that degree is not divisible and no quotient is taken
        monomials = plethystic._monomials
        monkeypatch.setattr(plethystic, "_monomials",
                            lambda f: [(b + 1 if sum(m) == 3 else b, e, m)
                                       for b, e, m in monomials(f)])
        with pytest.raises(ExactnessError, match="layer 3 of Exp is not divisible by 3"):
            _exp_exact(TruncatedSeries({(1,): L, (3,): L}, 5))

    def test_exceeded_slot_bound_raises(self, monkeypatch):
        monkeypatch.setattr(plethystic, "_slot_width", lambda bound: 32)
        f = surface_quot_argument(LaurentPoly({0: 2, 1: 3, 2: 2}), 4, 30)
        with pytest.raises(AssertionError, match="slot width 32 does not hold the bound"):
            _exp_exact(f)

    def test_checks_survive_optimized_mode(self):
        # both checks raise explicitly, so python -O keeps them
        script = (
            "from quotmotives import plethystic\n"
            "from quotmotives.rings import LaurentPoly\n"
            "from quotmotives.series import TruncatedSeries as T, geometric_series\n"
            "monomials = plethystic._monomials\n"
            "plethystic._monomials = lambda f: [(b + (sum(m) == 3), e, m)\n"
            "                                   for b, e, m in monomials(f)]\n"
            "L = LaurentPoly.lefschetz()\n"
            "try:\n"
            "    plethystic._exp_exact(T({(1,): L, (3,): L}, 5))\n"
            "except ArithmeticError as exc:\n"
            "    print(type(exc).__name__, exc)\n"
            "plethystic._monomials = monomials\n"
            "plethystic._slot_width = lambda bound: 32\n"
            "x = LaurentPoly({0: 2, 1: 3, 2: 2}) * LaurentPoly({0: 1, 1: 1, 2: 1, 3: 1})\n"
            "try:\n"
            "    plethystic._exp_exact(T.variable(30, coeff=x)\n"
            "                          * geometric_series(LaurentPoly.lefschetz(4), 30))\n"
            "except AssertionError as exc:\n"
            "    print(type(exc).__name__, exc)\n")
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        run = subprocess.run([sys.executable, "-O", "-c", script],
                             capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        lines = run.stdout.splitlines()
        assert lines[0] == "ExactnessError layer 3 of Exp is not divisible by 3"
        assert lines[1].startswith("AssertionError slot width 32 does not hold the bound")


@st.composite
def run_arguments(draw):
    """A series over Z[L, L^-1] in one or two variables, at orders below
    the running-sum cut-off, whose coefficients include stretches of
    equal weights on equally spaced exponents, around _RUN terms long, so
    that the merged terms of the Exp form geometric runs and break them."""
    arity = draw(st.sampled_from((1, 2)))
    order = draw(st.integers(1, (12, 8)[arity - 1]))
    vectors = [m for m in itertools.product(range(order + 1), repeat=arity)
               if 1 <= sum(m) <= order]
    stretch = st.builds(
        lambda lo, step, count, c, extra: LaurentPoly(
            {**{lo + step * i: c for i in range(count)}, **extra}),
        st.integers(-4, 2), st.integers(1, 3),
        st.integers(plethystic._RUN - 2, 2 * plethystic._RUN + 1),
        st.sampled_from((1, -1, 2, 3)),
        st.dictionaries(st.integers(-6, 30), st.integers(-2, 2), max_size=2))
    classes = st.one_of(stretch, st.integers(-3, 3))
    coeffs = draw(st.dictionaries(st.sampled_from(vectors), classes, min_size=1, max_size=4))
    return TruncatedSeries(coeffs, order, arity)


def solve_without_runs(f, stop=math.inf):
    """_exp_exact with every merged term added pair by pair."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plethystic, "_RUN", 10 ** 9)
        return _exp_exact(f, stop)


def _expanded(single, runs):
    """The (shift, weight) pairs that ``single`` and ``runs`` stand for."""
    return sorted(single + [(s + step * i, c) for s, c, step, count in runs
                            for i in range(count)])


R = plethystic._RUN


class TestRuns:
    """The geometric runs of merged terms in _exp_exact against adding
    every merged term on its own."""

    @pytest.mark.parametrize("pairs, runs", [
        # one short of a run: every pair stays
        ([(3 * i, 2) for i in range(R - 1)], []),
        ([(3 * i, 2) for i in range(R)], [(0, 2, 3, R)]),
        # a change of weight ends a run, and one in the middle leaves two
        # stretches too short to run
        ([(i, 1) for i in range(R)] + [(i, 2) for i in range(R, 2 * R)],
         [(0, 1, 1, R), (R, 2, 1, R)]),
        ([(i, -1 if i == R // 2 else 1) for i in range(2 * (R // 2) + 1)], []),
        # two runs with different steps, the pair between them stays
        ([(i, 1) for i in range(R)] + [(R + 5, 4)] + [(R + 7 + 3 * i, 1) for i in range(R)],
         [(0, 1, 1, R), (R + 7, 1, 3, R)]),
    ], ids=["short", "one-run", "weight-change", "broken-in-the-middle", "two-steps"])
    def test_split(self, pairs, runs):
        single, got = plethystic._runs(pairs)
        assert got == runs
        assert single == [p for p in pairs if p not in _expanded([], runs)]
        assert _expanded(single, got) == pairs

    @given(st.dictionaries(st.integers(0, 60), st.sampled_from((1, 1, 1, -1, 2)), max_size=40))
    def test_split_keeps_every_pair(self, terms):
        pairs = sorted(terms.items())
        single, runs = plethystic._runs(pairs)
        assert _expanded(single, runs) == pairs
        assert all(count >= R for *_, count in runs)

    @pytest.mark.parametrize("count", [1, 2, 3, 7, 8, 31, 64, 100])
    def test_repeat_is_the_shifted_sum(self, count):
        for x in (1, -7, 2 ** 90 + 5, -(2 ** 64)):
            for a in (32, 96):
                assert plethystic._repeat(x, a, count) == sum(x << a * i for i in range(count))

    def test_heine_arguments_match_the_plain_loop(self, monkeypatch):
        made = []
        runs = plethystic._runs

        def recorded(pairs):
            single, got = runs(pairs)
            made.extend(got)
            return single, got

        monkeypatch.setattr(plethystic, "_runs", recorded)
        for order in range(1, 31):
            stop = order * (order + 1) // 2 + 1
            inverse = quiver._inverse_pochhammers(order, stop)
            f = TruncatedSeries.variable(order, coeff=inverse[1])
            assert _exact_terms(_exp_exact(f, stop)) == _exact_terms(solve_without_runs(f, stop))
        assert made  # Heine's merged terms do form runs

    @given(st.one_of(run_arguments(),
                     exact_arguments().filter(lambda f: f.arity <= 2)))
    @example(TruncatedSeries({(1,): LaurentPoly({i: 1 for i in range(0, 20, 2)}),
                              (2,): LaurentPoly({i: -2 for i in range(8)})}, 6))
    @example(TruncatedSeries({(1, 0): LaurentPoly({i: 1 for i in range(10)}),
                              (1, 1): LaurentPoly({3 * i: 2 for i in range(9)})}, 5, 2))
    def test_arguments_match_the_plain_loop(self, f):
        f = _coerce_laurent_coeffs(f)
        assert _exact_terms(_exp_exact(f)) == _exact_terms(solve_without_runs(f))


def count_solves(monkeypatch):
    """Count the solves: the Exp (_exp_exact), Log's division E g / g on
    packed layers (_euler_quotient), and the layered series division
    (TruncatedSeries.__truediv__), which neither Exp nor Log calls, so
    that a quotient the Quot series takes on the side is counted too."""
    calls = []
    for owner, name in ((plethystic, "_exp_exact"), (plethystic, "_euler_quotient"),
                        (TruncatedSeries, "__truediv__")):
        solve = getattr(owner, name)

        def counted(*args, solve=solve):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls


def reset_exp_memo():
    plethystic._exp_memo = (None, lambda: None)


class TestExpMemo:
    """exp_pleth keeps its last argument and a weak reference to its
    result; an equal argument costs no solve while that result is alive,
    and anything else is solved."""

    def test_equal_distinct_arguments_cost_one_solve(self, monkeypatch):
        reset_exp_memo()
        calls = count_solves(monkeypatch)
        make = lambda: TruncatedSeries({(1,): L, (2,): 1 + L, (3,): -L}, 6)
        f, g = make(), make()
        assert f is not g
        h = exp_pleth(f)
        assert exp_pleth(g) is h
        assert len(calls) == 1

    @pytest.mark.parametrize("first, second", [
        (TruncatedSeries({(1,): L, (2,): 1 + L}, 6),
         TruncatedSeries({(1,): L, (2,): 1 + 2 * L}, 6)),
        (TruncatedSeries({(1,): L, (2,): 1 + L}, 6),
         TruncatedSeries({(1,): L, (2,): 1 + L}, 7)),
        (TruncatedSeries({(1, 0): L}, 4, 2), TruncatedSeries({(0, 1): L}, 4, 2)),
    ], ids=["coefficient", "order", "exponent"])
    def test_different_arguments_cost_two_solves(self, monkeypatch, first, second):
        reset_exp_memo()
        calls = count_solves(monkeypatch)
        h1 = exp_pleth(first)
        h2 = exp_pleth(second)
        assert len(calls) == 2
        reset_exp_memo()
        assert _exact_terms(exp_pleth(second)) == _exact_terms(h2)
        assert _exact_terms(h1) != _exact_terms(h2)

    def test_int_and_constant_laurent_share_a_key(self, monkeypatch):
        reset_exp_memo()
        calls = count_solves(monkeypatch)
        h = exp_pleth(TruncatedSeries({(1,): 2, (3,): -1}, 6))
        one = LaurentPoly.one()
        assert exp_pleth(TruncatedSeries({(1,): 2 * one, (3,): -one}, 6)) is h
        assert len(calls) == 1
        assert all(type(c) is LaurentPoly for _, c in h.coefficients())

    def test_dropped_result_is_freed_and_solved_again(self, monkeypatch):
        reset_exp_memo()
        calls = count_solves(monkeypatch)
        make = lambda: TruncatedSeries({(1,): L, (2,): 1 + L}, 6)
        h = exp_pleth(make())
        expect, r = _exact_terms(h), weakref.ref(h)
        del h
        gc.collect()
        assert r() is None
        assert _exact_terms(exp_pleth(make())) == expect
        assert len(calls) == 2

    def test_failed_solve_leaves_the_slot(self, monkeypatch):
        reset_exp_memo()
        f = TruncatedSeries({(1,): L}, 5)
        h = exp_pleth(f)
        with pytest.raises(ValueError):
            exp_pleth(TruncatedSeries.constant(1, 5))
        calls = count_solves(monkeypatch)
        assert exp_pleth(f) is h
        assert not calls

    SPACES = {
        "zero": LaurentPoly(),
        "point": LaurentPoly.one(),
        "A1": affine_class(1),
        "P2": projective_class(2),
        "virtual": LaurentPoly({-2: 3, 0: -1, 1: 2}),
        "minus-P1": -projective_class(1),
    }

    @pytest.mark.parametrize("space", sorted(SPACES))
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("r", [0, 1, 3])
    def test_quot_series_matches_four_solves(self, monkeypatch, space, d, r):
        x, order = self.SPACES[space], 7
        reset_exp_memo()
        calls = count_solves(monkeypatch)
        got = quot.quot_series(x, d, r, order)
        memoized = len(calls)
        reset_exp_memo()
        punctual = quot.punctual_quot_series(r, d, order)
        reset_exp_memo()
        # the closed argument, built here and not by quot's helper
        arg = TruncatedSeries.variable(order, coeff=projective_class(r - 1) * x)
        if d == 2:
            arg = arg * geometric_series(LaurentPoly.lefschetz(r), order)
        closed = exp_pleth(arg)
        reset_exp_memo()
        powered = power_structure(punctual, x)
        assert len(calls) - memoized == 4
        assert _exact_terms(got) == _exact_terms(closed) == _exact_terms(powered)
        # x = 1 or r = 0 makes the closed argument the punctual one, a
        # second hit; otherwise only the power's Exp is one
        assert memoized == (2 if space == "point" or r == 0 else 3)

    def test_quot_series_makes_three_solves(self, monkeypatch):
        reset_exp_memo()
        calls = count_solves(monkeypatch)
        for n, x in enumerate((projective_class(2), affine_class(1), L.dual()), 1):
            quot.quot_series(x, 2, 2, 9)
            assert len(calls) == 3 * n


@st.composite
def log_arguments(draw):
    """A series with constant term 1 in one to three variables over one
    ring, ints or Z[L, L^-1], up to order 20 in one variable."""
    arity = draw(st.sampled_from((1, 2, 3)))
    laurent = st.dictionaries(st.integers(-3, 4), st.integers(-4, 4), max_size=3).map(LaurentPoly)
    classes, one = draw(st.sampled_from(((st.integers(-5, 5), 1), (laurent, LaurentPoly.one()))))
    order = draw(st.integers(0, (20, 5, 4)[arity - 1]))
    vectors = [m for m in itertools.product(range(order + 1), repeat=arity)
               if 1 <= sum(m) <= order]
    coeffs = draw(st.dictionaries(st.sampled_from(vectors), classes, max_size=12)
                  if vectors else st.just({}))
    return TruncatedSeries({**coeffs, (0,) * arity: one}, order, arity)


class TestLog:
    @given(log_arguments())
    @example(TruncatedSeries({(0,): 1, (1,): L, (2,): LaurentPoly({-1: 2, 0: -1}), (4,): 3}, 8))
    @example(TruncatedSeries({(0, 0): 1, (1, 0): L, (0, 1): -1, (1, 1): 2}, 4, 2))
    # coefficients near 2^31 and 2^63: the layers of E g / g move from
    # 32- to 64-, 128- and wider slots
    @example(TruncatedSeries({(0,): 1, (1,): 2 ** 31 - 1}, 20))
    @example(TruncatedSeries({(0,): 1, (1,): 2 ** 31 - 1, (2,): -(2 ** 31), (3,): 2 ** 31 - 2}, 6))
    @example(TruncatedSeries({(0,): 1, (1,): LaurentPoly({-1: 2 ** 63 - 1, 2: -(2 ** 62)}),
                              (2,): 2 ** 63 - 1}, 5))
    @example(TruncatedSeries({(0, 0): 1, (1, 0): -(2 ** 63 - 1), (0, 2): LaurentPoly({1: 2 ** 31})},
                             4, 2))
    def test_matches_the_mobius_formula(self, g):
        # mu(4) = mu(8) = 0, yet the peel takes psi_2 and psi_4 images off
        # those layers: they must cancel term for term
        assert _exact_terms(log_pleth(g)) == _exact_terms(reference_log(g))

    def test_log_geometric(self):
        assert log_pleth(geometric_series(1, 8)) == TruncatedSeries.variable(8)

    def test_log_round_trip(self):
        f = TruncatedSeries({(1,): L, (3,): LaurentPoly.one()}, 10)
        assert log_pleth(exp_pleth(f)) == f

    def test_log_of_product_formula(self):
        # oracle: Exp(t + t^2) = 1/((1-t)(1-t^2)) by the product formula
        g = brute_product([(1, 1), (1, 2)], 10)
        assert log_pleth(g) == TruncatedSeries({(1,): 1, (2,): 1}, 10)

    def test_log_requires_one(self):
        with pytest.raises(ValueError):
            log_pleth(TruncatedSeries.variable(4))

    def test_exact_coefficients_divide_on_packed_layers(self, monkeypatch):
        # no Log reaches the series division, and one with a Fraction
        # coefficient is refused before it divides
        args = [TruncatedSeries({(0,): 1, (1,): 3, (2,): -2, (5,): 7}, 8),
                TruncatedSeries({(0, 0): 1, (1, 0): L, (0, 2): LaurentPoly({-1: 2})}, 4, 2)]
        expect = [_exact_terms(reference_log(g)) for g in args]

        def refused(*args):
            raise AssertionError("series division called")

        monkeypatch.setattr(TruncatedSeries, "__truediv__", refused)
        assert [_exact_terms(log_pleth(g)) for g in args] == expect
        with pytest.raises(TypeError, match="not Fraction"):
            log_pleth(TruncatedSeries({(0,): 1, (1,): Fraction(1, 2)}, 3))


class TestPowerStructure:
    def test_geometric_power_is_motivic_sigma(self):
        # (1-t)^{-L} = 1/(1 - Lt): symmetric powers of the affine line
        one_minus_t_inv = geometric_series(1, 8)
        assert power_structure(one_minus_t_inv, L) == geometric_series(L, 8)

    def test_linear_jet(self):
        one_plus_t = TruncatedSeries({(0,): 1, (1,): 1}, 6)
        a = LaurentPoly({2: 3, -1: 1})
        p = power_structure(one_plus_t, a)
        assert p.coefficient(0) == 1
        assert p.coefficient(1) == a

    def test_power_zero(self):
        rng = random.Random(3)
        for _ in range(5):
            f = _random_one_series(rng, 6)
            assert power_structure(f, 0) == TruncatedSeries.constant(1, 6)

    def test_constant_term_must_be_one(self):
        with pytest.raises(ValueError, match="logarithm requires constant term 1"):
            power_structure(TruncatedSeries.constant(2, 4), L)

    def test_axiom_suite(self):
        report = verify_power_axioms(samples=12, order=6)
        assert report.passed, report.detail


def _symmetric_power(x, k):
    """The k-th symmetric power of a class: the t^k coefficient of Exp(x t),
    as a LaurentPoly (a constant coefficient comes back as an int)."""
    return LaurentPoly._coerce(exp_pleth(TruncatedSeries.variable(k, coeff=x)).coefficient(k))


class TestSymmetricPower:
    def test_point_powers(self):
        assert _symmetric_power(LaurentPoly.one(), 5) == 1

    def test_k_zero(self):
        s = _symmetric_power(LaurentPoly({3: 4, -1: 2}), 0)
        assert type(s) is LaurentPoly and s == LaurentPoly.one()

    def test_p1_cube(self):
        # oracle: expand 1/((1-t)(1-Lt)) to order 3
        oracle = brute_product([(1, 1), (L, 1)], 3)
        assert _symmetric_power(projective_class(1), 3) == oracle.coefficient(3)
        assert _symmetric_power(projective_class(1), 3) == projective_class(3)

    def test_affine_plane_square(self):
        # t^2 coefficient of Exp(L^2 t) = 1/(1 - L^2 t)
        oracle = geometric_series(LaurentPoly.lefschetz(2), 2)
        assert _symmetric_power(LaurentPoly.lefschetz(2), 2) == oracle.coefficient(2)
        assert _symmetric_power(LaurentPoly.lefschetz(2), 2) == LaurentPoly.lefschetz(4)

    def test_sigma_one_is_identity(self):
        x = LaurentPoly({2: 5, 0: -1})
        assert _symmetric_power(x, 1) == x


def _random_zero_series(rng, order, arity=1):
    """Random Laurent coefficients, some with negative multiplicities, at
    every exponent vector of total degree 1..order (the mixed monomials
    too when arity > 1)."""
    coeffs = {}
    for m in itertools.product(range(order + 1), repeat=arity):
        if not 1 <= sum(m) <= order:
            continue
        t = {rng.randint(-3, 3): rng.randint(-4, 4) for _ in range(rng.randint(0, 2))}
        c = LaurentPoly(t)
        if c:
            coeffs[m] = c
    return TruncatedSeries(coeffs, order, arity)


def _random_one_series(rng, order):
    s = _random_zero_series(rng, order)
    return s + TruncatedSeries.constant(1, order)
