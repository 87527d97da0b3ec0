import itertools

import pytest
from hypothesis import example, given, strategies as st

from quotmotives import quiver as quiver_module
from quotmotives.quiver import _pack, _packed_ratio
from quotmotives.rings import ExactnessError, LaurentPoly, _slot_width
from quotmotives.series import TruncatedSeries, _unit_times, geometric_series


laurents = st.dictionaries(st.integers(-4, 4), st.integers(-6, 6), max_size=4)\
    .map(LaurentPoly)


def univariate(order=6):
    return st.dictionaries(
        st.tuples(st.integers(0, order)), laurents, max_size=5
    ).map(lambda d: TruncatedSeries(d, order))


def unit_series(coeffs, units, order=5):
    """Series whose constant term is drawn from `units`."""
    return st.builds(
        lambda c0, rest: TruncatedSeries({**rest, (0,): c0}, order),
        units, st.dictionaries(st.tuples(st.integers(1, order)), coeffs, max_size=5))


@st.composite
def stopped_operands(draw):
    """(a, b, stop): series in one or two variables whose coefficients are
    LaurentPoly in q with exponents in [0, stop), and b_0 = 1."""
    stop = draw(st.integers(1, 8))
    arity = draw(st.sampled_from((1, 2)))
    order = draw(st.integers(0, (6, 4)[arity - 1]))
    vectors = [m for m in itertools.product(range(order + 1), repeat=arity) if sum(m) <= order]
    coeffs = st.dictionaries(st.integers(0, stop - 1), st.integers(-6, 6), max_size=4)\
        .map(LaurentPoly)
    a = draw(st.dictionaries(st.sampled_from(vectors), coeffs, max_size=6))
    b = draw(st.dictionaries(st.sampled_from(vectors[1:]), coeffs, max_size=6)
             if order else st.just({}))
    b[vectors[0]] = LaurentPoly.one()
    return TruncatedSeries(a, order, arity), TruncatedSeries(b, order, arity), stop


def cut(s: TruncatedSeries, stop) -> TruncatedSeries:
    """s with every LaurentPoly coefficient cut below q^stop."""
    return s.map_coefficients(lambda c: LaurentPoly({e: x for e, x in c.terms() if e < stop}))


def exact_terms(s: TruncatedSeries):
    """Every coefficient with its type and terms (``==`` takes an int for
    the constant LaurentPoly of its value)."""
    return [(m, type(c), c.terms() if isinstance(c, LaurentPoly) else c)
            for m, c in s.coefficients()]


def packed(s: TruncatedSeries, stop) -> dict:
    """{v: (pack, width)} for every v of total degree <= s.order, as the
    quiver's chain table returns its sums: the coefficient's digits below
    q^stop packed at the kernel's width for their largest size."""
    out = {}
    for v in itertools.product(range(s.order + 1), repeat=s.arity):
        if sum(v) <= s.order:
            c = LaurentPoly._coerce(s.coefficient(v))
            digits = [c[e] for e in range(stop)]
            width = _slot_width(max(map(abs, digits)))
            out[v] = _pack(digits, width), width
    return out


def packed_quotient(a: TruncatedSeries, b: TruncatedSeries, stop):
    """a / b modulo q^stop by the quiver ratio's division on packs
    (b_0 = 1), with each returned digit list checked and read back as
    a LaurentPoly."""
    ratio = _packed_ratio(packed(a, stop), packed(b, stop), stop)
    assert all(len(d) == stop and any(d) for d in ratio.values())
    return TruncatedSeries({v: LaurentPoly(dict(enumerate(d))) for v, d in ratio.items()},
                           min(a.order, b.order), a.arity)


def with_unit_constant(a: TruncatedSeries, b: TruncatedSeries, stop):
    """(a b_0, b b_0, stop) for b_0 = +-1: the same quotient, with b_0 = 1."""
    b0 = b.constant_term()
    return a * b0, b * b0, stop


# draws of the divisor b on which a / b once tracked less precision than
# a * (1 / b), when q-series known modulo q^N were a coefficient ring of
# their own and a product was known to min(v_a + N_b, v_b + N_a) (ids: the
# coefficients whose precisions differed, and the two precisions).  Each
# is the known part of b, shifted by the power of q that makes b_0 = +-1,
# with the least precision of its coefficients as the stop; the draw
# t3-minus2-vs-0 has no such form.
RECORDED_DRAWS = [(TruncatedSeries({(e,): LaurentPoly({0: c}) for e, c in enumerate(b)}, 5), stop)
                  for b, stop in (((-1, 2, -2), 4), ((1, 1, 1), 5), ((1, 1, 1), 4),
                                  ((-1, 2, -2), 5))]
RECORDED_IDS = ["t3-4-vs-8", "t2-t5-5-vs-10", "t2-t5-4-vs-8", "t3-5-vs-10"]
RECORDED_A = TruncatedSeries({(0,): LaurentPoly({0: 1}), (2,): LaurentPoly({1: 3})}, 5)
ONE = TruncatedSeries.constant(LaurentPoly.one(), 5)


def geom(order=6):
    return geometric_series(1, order)


class TestArithmetic:
    def test_mul_example_telescoping(self):
        one_minus_t = TruncatedSeries({(0,): 1, (1,): -1}, 8)
        assert geom(8) * one_minus_t == TruncatedSeries.constant(1, 8)

    def test_mul_example_difference_of_squares(self):
        a = TruncatedSeries({(0,): 1, (1,): 1}, 5)
        b = TruncatedSeries({(0,): 1, (1,): -1}, 5)
        assert a * b == TruncatedSeries({(0,): 1, (2,): -1}, 5)

    def test_mul_example_laurent_coeffs(self):
        L = LaurentPoly.lefschetz()
        a = TruncatedSeries({(0,): 1, (1,): L}, 3)
        sq = a * a
        assert sq.coefficient(1) == 2 * L
        assert sq.coefficient(2) == LaurentPoly.lefschetz(2)

    def test_arity_mismatch(self):
        a = TruncatedSeries({(0,): 1}, 3, arity=1)
        b = TruncatedSeries({(0, 0): 1}, 3, arity=2)
        with pytest.raises(ValueError):
            a * b

    def test_order_downgrades_to_minimum(self):
        a = TruncatedSeries({(5,): 1}, 5)
        b = TruncatedSeries.constant(1, 3)
        assert (a * b).order == 3
        assert (a + b).order == 3

    @given(univariate(), univariate(), univariate())
    def test_ring_properties(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries({(-1,): 1}, 3)

    @given(univariate(), univariate())
    def test_subtraction_and_negation(self, a, b):
        assert a - b == a + (-b)
        assert 1 - a == -(a - 1)
        assert -(-a) == a

    def test_repr(self):
        s = TruncatedSeries({(0,): 1, (2,): LaurentPoly({1: -1})}, 3)
        assert repr(s) == str(s) == \
            "TruncatedSeries({(0,): 1, (2,): LaurentPoly({1: -1})}, order=3, arity=1)"


class TestInvert:
    def test_geometric(self):
        one_minus_t = TruncatedSeries({(0,): 1, (1,): -1}, 8)
        assert 1 / one_minus_t == geom(8)

    def test_lefschetz_geometric(self):
        L = LaurentPoly.lefschetz()
        s = 1 / TruncatedSeries({(0,): 1, (1,): -L}, 6)
        assert s == geometric_series(L, 6)

    def test_round_trip(self):
        a = TruncatedSeries({(0,): 1, (1,): 1, (2,): 1}, 10)
        assert 1 / (1 / a) == a

    @given(univariate())
    def test_two_sided_inverse(self, a):
        a = a + TruncatedSeries.constant(1 - a.constant_term(), a.order)
        assert a * (1 / a) == TruncatedSeries.constant(1, a.order)
        assert (1 / a) * a == TruncatedSeries.constant(1, a.order)

    def test_nonunit_constant_term(self):
        for c in (LaurentPoly({0: 1, 1: 1}), 2):
            with pytest.raises(ArithmeticError):
                1 / TruncatedSeries({(0,): c, (1,): 1}, 3)
        with pytest.raises(ZeroDivisionError):
            1 / TruncatedSeries({(1,): 1}, 3)

    def test_laurent_constant_inverts(self):
        c = LaurentPoly({0: -1})  # its own inverse
        s = TruncatedSeries({(0,): c, (1,): LaurentPoly({0: 1, 1: 1})}, 4)
        inv = 1 / s
        assert exact_terms(inv.truncate(0)) == [((0,), LaurentPoly, [(0, -1)])]
        assert s * inv == TruncatedSeries.constant(LaurentPoly.one(), 4)
        # only +-L^e is taken for a unit constant term
        for c0 in (LaurentPoly({1: 1, 2: 1}), LaurentPoly({0: 1, 1: 1}), LaurentPoly({0: 2})):
            with pytest.raises(ExactnessError):
                1 / TruncatedSeries({(0,): c0}, 2)


class TestDivide:
    @given(univariate(), unit_series(laurents, st.sampled_from(
        (1, -1, LaurentPoly({2: 1}), LaurentPoly({-1: -1})))))
    def test_quotient_times_divisor_laurent(self, a, b):
        assert (a / b) * b == a

    @given(univariate(), unit_series(laurents, st.sampled_from(
        (1, -1, LaurentPoly({0: 1}), LaurentPoly({0: -1}), LaurentPoly({-2: 1})))))
    def test_matches_multiplying_by_the_inverse(self, a, b):
        got, expect = a / b, a * (1 / b)
        assert got == expect
        assert exact_terms(got) == exact_terms(expect)

    # the stop tests below run the quiver ratio's division on packs
    # (quiver._packed_ratio), the one quotient that is cut below q^stop
    @pytest.mark.parametrize("b, stop", RECORDED_DRAWS, ids=RECORDED_IDS)
    def test_recorded_draws_agree_below_the_common_precision(self, b, stop):
        got = packed_quotient(*with_unit_constant(RECORDED_A, b, stop))
        assert exact_terms(got) == exact_terms(cut(RECORDED_A / b, stop))
        assert exact_terms(got) == exact_terms(cut(RECORDED_A * (ONE / b), stop))

    @given(stopped_operands())
    @example(with_unit_constant(ONE, *RECORDED_DRAWS[0]))
    @example(with_unit_constant(ONE, *RECORDED_DRAWS[1]))
    @example(with_unit_constant(ONE, *RECORDED_DRAWS[2]))
    @example(with_unit_constant(ONE, *RECORDED_DRAWS[3]))
    def test_stopped_quotient_is_the_cut_exact_quotient(self, operands):
        a, b, stop = operands
        got = packed_quotient(a, b, stop)
        assert exact_terms(got) == exact_terms(cut(a / b, stop))
        assert exact_terms(cut(got * b, stop)) == exact_terms(a)

    @pytest.mark.parametrize("widths", ["64-bit", "alternating"])
    @given(stopped_operands())
    @example(with_unit_constant(ONE, *RECORDED_DRAWS[0]))
    def test_stopped_quotient_at_forced_widths(self, widths, operands):
        # the forced widths of the chain table's test move the operands'
        # packs, made at the kernel width, between widths
        a, b, stop = operands
        kernel = quiver_module._slot_width
        with pytest.MonkeyPatch.context() as patch:
            if widths == "64-bit":
                patch.setattr(quiver_module, "_slot_width", lambda b: max(64, kernel(b)))
            else:
                flip = itertools.count()
                patch.setattr(quiver_module, "_slot_width",
                              lambda b: max(64 * (next(flip) % 2), kernel(b)))
            got = packed_quotient(a, b, stop)
        assert exact_terms(got) == exact_terms(cut(a / b, stop))

    def test_nonunit_constant_term(self):
        a = TruncatedSeries({(0,): 1, (2,): 3}, 4)
        for c in (2, LaurentPoly({0: 1, 1: 1}), LaurentPoly({0: 2})):
            with pytest.raises(ExactnessError):
                a / TruncatedSeries({(0,): c, (1,): 1}, 4)
        with pytest.raises(ZeroDivisionError):
            a / TruncatedSeries({(1,): 1}, 4)

    @given(st.sampled_from((1, -1, LaurentPoly({0: 1}), LaurentPoly({0: -1}), LaurentPoly({2: -1}))),
           st.one_of(laurents, st.integers(-3, 3)))
    def test_unit_map_is_the_product(self, u, c):
        # the map's value is the product, type and terms; the 1 of int or
        # LaurentPoly returns a LaurentPoly c itself
        got, expect = _unit_times(u)(c), u * c
        assert type(got) is type(expect)
        assert (got.terms() if isinstance(got, LaurentPoly) else got) == \
            (expect.terms() if isinstance(expect, LaurentPoly) else expect)
        if type(c) is LaurentPoly and u in (1, LaurentPoly({0: 1})):
            assert got is c

    @given(univariate(), unit_series(laurents, st.just(LaurentPoly.one())))
    def test_unit_one_makes_no_coefficient_product(self, a, b):
        products = []
        real = LaurentPoly.__mul__

        def counted(x, y):
            products.append((x, y))
            return real(x, y)

        LaurentPoly.__mul__ = LaurentPoly.__rmul__ = counted
        try:
            got = a / b
        finally:
            LaurentPoly.__mul__ = LaurentPoly.__rmul__ = real
        assert products == []
        assert got == a * (1 / b)

    def test_order_is_the_smaller(self):
        a = TruncatedSeries({(0,): 1, (3,): 1}, 6)
        assert (a / geom(4)).order == 4
        assert (geom(4) / a).order == 4


class TestSubstitutions:
    def test_substitute_power_examples(self):
        a = TruncatedSeries({(1,): 1, (2,): 1}, 6)
        assert a.substitute_power(2) == TruncatedSeries({(2,): 1, (4,): 1}, 6)
        assert a.substitute_power(1) == a
        assert geom(9).substitute_power(3) == \
            TruncatedSeries({(0,): 1, (3,): 1, (6,): 1, (9,): 1}, 9)

    def test_substitute_power_bad_exponent(self):
        with pytest.raises(ValueError):
            geom(4).substitute_power(0)

    @given(univariate(), univariate(), st.integers(1, 3))
    def test_substitute_commutes_with_mul(self, a, b, k):
        assert (a * b).substitute_power(k) == \
            a.substitute_power(k) * b.substitute_power(k)

    def test_adams_examples(self):
        L = LaurentPoly.lefschetz()
        a = TruncatedSeries({(1,): L}, 6)
        assert a.adams(2) == TruncatedSeries({(2,): LaurentPoly.lefschetz(2)}, 6)
        b = TruncatedSeries({(1,): projective(1)}, 6)
        assert b.adams(3) == TruncatedSeries({(3,): LaurentPoly({0: 1, 3: 1})}, 6)
        assert b.adams(1) == b

    @given(univariate(), st.integers(1, 2), st.integers(1, 2))
    def test_adams_composition(self, a, k, m):
        assert a.adams(k).adams(m) == a.adams(k * m)

    def test_scale_variable(self):
        s = geom(4).scale_variable(2)
        assert s.univariate_coefficients() == [1, 2, 4, 8, 16]


def projective(d):
    return LaurentPoly({e: 1 for e in range(d + 1)})


class TestZeroCoefficients:
    def test_zero_test_builds_no_laurent_poly(self, monkeypatch):
        coeffs = {(0,): LaurentPoly(), (1,): LaurentPoly.lefschetz(), (2,): 0}
        built = []
        init = LaurentPoly.__init__

        def counting_init(self, terms=None):
            built.append(terms)
            init(self, terms)

        monkeypatch.setattr(LaurentPoly, "__init__", counting_init)
        s = TruncatedSeries(coeffs, 3)
        assert built == []
        assert s.coefficients() == [((1,), LaurentPoly.lefschetz())]


class TestMultivariate:
    def test_total_degree_truncation(self):
        s = TruncatedSeries({(1, 2): 1, (2, 2): 1}, 3, arity=2)
        assert s.coefficient((2, 2)) == 0
        assert s.coefficient((1, 2)) == 1

    def test_product(self):
        a = TruncatedSeries({(1, 0): 1}, 4, arity=2)
        b = TruncatedSeries({(0, 1): 1}, 4, arity=2)
        assert (a * b).coefficient((1, 1)) == 1


class TestJson:
    def test_series_json(self):
        L = LaurentPoly.lefschetz()
        s = TruncatedSeries({(0,): LaurentPoly.one(), (1,): L}, 2)
        obj = s.to_json_obj()
        assert obj["order"] == 2
        assert obj["terms"][0] == [[0], {"terms": [[0, "1"]]}]

    def test_first_difference(self):
        a = TruncatedSeries({(1,): 1, (2,): 2}, 5)
        b = TruncatedSeries({(1,): 1, (2,): 3}, 5)
        assert a.first_difference(b) == (2,)
        assert a.first_difference(a) is None
