import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quotmotives.rings import LaurentPoly, QSeries
from quotmotives.series import (TruncatedSeries, geometric_series, series_exp,
                                series_log)


laurents = st.dictionaries(st.integers(-4, 4), st.integers(-6, 6), max_size=4)\
    .map(LaurentPoly)


def qs(terms: dict, prec) -> QSeries:
    return QSeries(LaurentPoly(terms), prec)


def univariate(order=6):
    return st.dictionaries(
        st.tuples(st.integers(0, order)), laurents, max_size=5
    ).map(lambda d: TruncatedSeries(d, order))


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


class TestInvert:
    def test_geometric(self):
        one_minus_t = TruncatedSeries({(0,): 1, (1,): -1}, 8)
        assert one_minus_t.invert() == geom(8)

    def test_lefschetz_geometric(self):
        L = LaurentPoly.lefschetz()
        s = TruncatedSeries({(0,): 1, (1,): -L}, 6).invert()
        assert s == geometric_series(L, 6)

    def test_round_trip(self):
        a = TruncatedSeries({(0,): 1, (1,): 1, (2,): 1}, 10)
        assert a.invert().invert() == a

    @given(univariate())
    def test_two_sided_inverse(self, a):
        a = a + TruncatedSeries.constant(1 - a.constant_term(), a.order)
        assert a * a.invert() == TruncatedSeries.constant(1, a.order)
        assert a.invert() * a == TruncatedSeries.constant(1, a.order)

    def test_nonunit_constant_term(self):
        s = TruncatedSeries({(0,): LaurentPoly({0: 1, 1: 1})}, 3)
        with pytest.raises(ArithmeticError):
            s.invert()
        with pytest.raises(ZeroDivisionError):
            TruncatedSeries({(1,): 1}, 3).invert()

    def test_qseries_constant_inverts(self):
        c = qs({-1: -1}, 5)  # -q^-1 + O(q^5), a monomial unit
        s = TruncatedSeries({(0,): c, (1,): qs({0: 1, 1: 1}, 4)}, 4)
        inv = s.invert()
        assert inv.coefficient(0) == qs({1: -1}, 7)
        assert inv.coefficient(0).prec == 7
        assert s * inv == TruncatedSeries.constant(QSeries.one(), 4)
        with pytest.raises(ArithmeticError):
            TruncatedSeries({(0,): qs({0: 1, 1: 1}, 5)}, 2).invert()


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
        s = geom(4).scale_variable(Fraction(2))
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

    def test_inexact_zero_is_kept(self):
        unknown = qs({}, 3)          # O(q^3): not known to vanish
        s = TruncatedSeries({(0,): qs({}, math.inf), (1,): unknown}, 2)
        assert s.coefficients() == [((1,), unknown)]
        assert s.coefficient(1).prec == 3


class TestMultivariate:
    def test_total_degree_truncation(self):
        s = TruncatedSeries({(1, 2): 1, (2, 2): 1}, 3, arity=2)
        assert s.coefficient((2, 2)) == 0
        assert s.coefficient((1, 2)) == 1

    def test_product(self):
        a = TruncatedSeries({(1, 0): 1}, 4, arity=2)
        b = TruncatedSeries({(0, 1): 1}, 4, arity=2)
        assert (a * b).coefficient((1, 1)) == 1


class TestExpLog:
    def test_exp_of_t(self):
        e = series_exp(TruncatedSeries({(1,): Fraction(1)}, 6))
        assert e.coefficient(3) == Fraction(1, 6)

    def test_log_inverts_exp(self):
        g = TruncatedSeries({(1,): Fraction(2), (3,): Fraction(-1, 3)}, 8)
        assert series_log(series_exp(g)) == g

    def test_exp_requires_zero_constant(self):
        with pytest.raises(ValueError):
            series_exp(TruncatedSeries.constant(Fraction(1), 3))

    def test_log_requires_one(self):
        with pytest.raises(ValueError):
            series_log(TruncatedSeries.constant(Fraction(2), 3))

    def test_int_coefficients_give_fractions(self):
        e = series_exp(TruncatedSeries({(1,): 1}, 3))
        assert e.coefficient(3) == Fraction(1, 6)
        assert all(isinstance(c, (int, Fraction)) for _, c in e.coefficients())
        g = series_log(TruncatedSeries({(0,): 1, (1,): 1, (2,): 3}, 4))
        assert g.coefficient(4) == Fraction(-7, 4)  # -9/2 + 9/3 - 1/4
        assert all(isinstance(c, Fraction) for _, c in g.coefficients())

    def test_exp_multivariate(self):
        g = TruncatedSeries({(1, 0): Fraction(1), (0, 1): Fraction(1)}, 4, arity=2)
        e = series_exp(g)
        assert e.coefficient((1, 1)) == Fraction(1)
        assert e.coefficient((2, 1)) == Fraction(1, 2)


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
