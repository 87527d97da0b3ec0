import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quotmotives.rings import (ExactnessError, LaurentPoly, QSeries,
                               affine_class, dual, eval_int, projective_class)


laurents = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=5)\
    .map(LaurentPoly)


precisions = st.one_of(st.integers(-4, 8), st.just(math.inf))


def qs(terms: dict, prec) -> QSeries:
    return QSeries(LaurentPoly(terms), prec)


qseries = st.builds(QSeries, laurents, precisions)


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


class TestQSeries:
    def test_terms_below_precision(self):
        f = qs({-1: 2, 0: 0, 3: 1, 4: 5}, 4)
        assert f.terms() == [(-1, 2), (3, 1)]
        assert f.known == LaurentPoly({-1: 2, 3: 1})
        assert f.valuation() == -1
        assert qs({5: 1}, 4).valuation() == 4

    def test_exact_values(self):
        one = QSeries.one()
        assert one.prec == math.inf
        assert qs({3: 1}, math.inf) * qs({-3: 1}, math.inf) == one
        assert (qs({3: 1}, math.inf) * 0).prec == math.inf
        assert 2 * one - 1 == one

    def test_bool(self):
        # only an exact zero is falsy: O(q^N) may hide a nonzero series
        assert not qs({}, math.inf)
        assert qs({}, 3)
        assert qs({5: 1}, 3)
        assert qs({0: 1}, math.inf)

    def test_precision_tracking(self):
        a = qs({-2: 1, 0: 1}, 3)     # q^-2 + 1 + O(q^3)
        b = qs({1: 1}, 5)            # q + O(q^5)
        assert (a + b).prec == 3
        assert (a * b).prec == min(-2 + 5, 1 + 3)
        assert (a * b) == qs({-1: 1, 1: 1}, 3)

    def test_equality_at_common_precision(self):
        assert qs({0: 1, 2: 7}, 3) == qs({0: 1}, 2)
        assert qs({0: 1, 2: 7}, 3) != qs({0: 1}, 3)
        assert qs({}, 0) == qs({0: 9}, 1)

    @given(qseries, qseries, qseries)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == qs({}, a.prec)

    @given(laurents, laurents, precisions, precisions, st.integers(1, 3))
    def test_truncation_is_homomorphism(self, f, g, m, n, k):
        # every coefficient a result claims to know is the true one
        a, b = QSeries(f, m), QSeries(g, n)
        assert a + b == QSeries(f + g, math.inf)
        assert a - b == QSeries(f - g, math.inf)
        assert a * b == QSeries(f * g, math.inf)
        assert a.adams(k) == QSeries(f.adams(k), math.inf)

    def test_adams(self):
        f = qs({0: 1, 1: 1}, 3)
        g = f.adams(2)
        assert g.prec == 6
        assert g == qs({0: 1, 2: 1}, 6)
        with pytest.raises(ValueError):
            f.adams(0)

    def test_division_by_int_is_exact(self):
        f = qs({0: 2, 1: 4, 5: 3}, 3)
        assert f / 2 == qs({0: 1, 1: 2}, 3)
        with pytest.raises(ExactnessError):
            qs({0: 3}, 3) / 2
