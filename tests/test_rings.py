from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quotmotives.rings import (ExactnessError, LaurentPoly, RationalFn,
                               affine_class, dual, eval_int, projective_class)


laurents = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=5)\
    .map(LaurentPoly)


def poly_tuples(max_deg=4, max_coeff=6):
    return st.lists(st.integers(-max_coeff, max_coeff), min_size=1,
                    max_size=max_deg + 1).map(tuple)


rationals = st.tuples(poly_tuples(), poly_tuples().filter(lambda a: any(a)))\
    .map(lambda nd: RationalFn(*nd))


class TestLaurentPoly:
    def test_affine_classes(self):
        assert affine_class(0) == 1
        assert affine_class(1) == LaurentPoly.lefschetz()
        assert affine_class(2) == LaurentPoly.lefschetz(2)
        with pytest.raises(ValueError):
            affine_class(-1)

    def test_projective_classes(self):
        assert projective_class(-1) == 0
        assert projective_class(1) == LaurentPoly({0: 1, 1: 1})
        assert projective_class(2) == LaurentPoly({0: 1, 1: 1, 2: 1})
        with pytest.raises(ValueError):
            projective_class(-2)

    def test_dual_examples(self):
        assert dual(LaurentPoly.lefschetz(2)) == LaurentPoly.lefschetz(-2)
        p1 = projective_class(1)
        assert dual(p1) == LaurentPoly({0: 1, -1: 1})
        assert dual(p1) == LaurentPoly.lefschetz(-1) * p1
        f = LaurentPoly({3: 3, -1: -1})
        assert dual(dual(f)) == f

    def test_eval_int_examples(self):
        assert eval_int(projective_class(1), 2) == 3
        assert eval_int(LaurentPoly.lefschetz(-1), 2) == Fraction(1, 2)
        assert eval_int(projective_class(3), 2) == 15
        with pytest.raises(ZeroDivisionError):
            eval_int(LaurentPoly.lefschetz(-1), 0)

    def test_zero_coefficients_dropped(self):
        assert not LaurentPoly({3: 0})
        assert LaurentPoly({1: 2, 2: 0})[2] == 0

    @given(laurents, laurents, laurents)
    def test_ring_axioms(self, f, g, h):
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert f * LaurentPoly.one() == f
        assert f + LaurentPoly.zero() == f

    @given(laurents, laurents)
    def test_dual_is_ring_homomorphism(self, f, g):
        assert dual(f * g) == dual(f) * dual(g)
        assert dual(f + g) == dual(f) + dual(g)
        assert dual(dual(f)) == f

    @given(laurents)
    def test_evaluation_respects_dual(self, f):
        assert f.evaluate(2) == dual(f).evaluate(Fraction(1, 2))

    def test_pow(self):
        p = projective_class(1)
        assert p ** 0 == 1
        assert p ** 3 == p * p * p

    def test_json_round_trip(self):
        f = LaurentPoly({-2: 3, 0: -1, 5: 7})
        obj = f.to_json_obj()
        assert obj["terms"] == [[-2, "3"], [0, "-1"], [5, "7"]]
        assert LaurentPoly.from_json_obj(obj) == f

    def test_integer_only_coefficients(self):
        with pytest.raises(ExactnessError):
            projective_class(1) / 2
        assert (2 * projective_class(1)) / 2 == projective_class(1)
        with pytest.raises(TypeError):
            projective_class(1) * Fraction(1, 2)


class TestRationalFn:
    def test_canonical_form(self):
        # 6/(2q) reduces to 3/q
        f = RationalFn((6,), (0, 2))
        assert f.numerator == (3,)
        assert f.denominator == (0, 1)
        # sign lives in the numerator
        g = RationalFn((1,), (0, -1))
        assert g.numerator == (-1,)
        assert g.denominator == (0, 1)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFn((1,), ())

    def test_reduction(self):
        # (q^2 - 1)/(q - 1) = q + 1
        f = RationalFn((-1, 0, 1), (-1, 1))
        assert f.is_polynomial
        assert f.numerator == (1, 1)

    @given(rationals, rationals, rationals)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a - a == RationalFn.zero()

    @given(rationals)
    def test_reciprocal(self, a):
        if a:
            assert a * a.reciprocal() == RationalFn.one()

    @given(laurents, laurents)
    def test_embedding_is_homomorphism(self, f, g):
        ef, eg = RationalFn.from_laurent(f), RationalFn.from_laurent(g)
        assert RationalFn.from_laurent(f + g) == ef + eg
        assert RationalFn.from_laurent(f * g) == ef * eg

    @given(laurents)
    def test_embedding_round_trip(self, f):
        assert RationalFn.from_laurent(f).to_laurent() == f

    def test_to_laurent_requires_monomial_denominator(self):
        f = RationalFn((1,), (-1, 1))  # 1/(q-1)
        with pytest.raises(ExactnessError):
            f.to_laurent()

    def test_q_power(self):
        assert RationalFn.q_power(3).numerator == (0, 0, 0, 1)
        neg = RationalFn.q_power(-2)
        assert neg.numerator == (1,)
        assert neg.denominator == (0, 0, 1)
        assert RationalFn.q_power(3) * RationalFn.q_power(-3) == RationalFn.one()

    def test_adams(self):
        # (1+q)/(1-q) under q -> q^2
        f = RationalFn((1, 1), (1, -1))
        g = f.adams(2)
        assert g == RationalFn((1, 0, 1), (1, 0, -1))

    def test_subst_recip(self):
        f = RationalFn((0, 1))  # q
        assert f.subst_recip() == RationalFn.q_power(-1)
        g = RationalFn((1, 1), (1, -1))  # (1+q)/(1-q)
        h = g.subst_recip()
        assert h == RationalFn((1, 1), (-1, 1))

    @given(rationals)
    def test_subst_recip_involution(self, a):
        assert a.subst_recip().subst_recip() == a

    @given(rationals, st.integers(1, 3))
    def test_adams_matches_evaluation(self, a, k):
        x = Fraction(3, 2)
        try:
            lhs = a.adams(k).evaluate(x)
            rhs = a.evaluate(x ** k)
        except ZeroDivisionError:
            return
        assert lhs == rhs

    def test_evaluate(self):
        f = RationalFn((1, 1), (1, -1))
        assert f.evaluate(Fraction(1, 2)) == 3
        with pytest.raises(ZeroDivisionError):
            f.evaluate(1)
