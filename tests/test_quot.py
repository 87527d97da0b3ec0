import pytest

from quotmotives import plethystic
from quotmotives.rings import LaurentPoly, affine_class, projective_class
from quotmotives.series import TruncatedSeries, geometric_series
from quotmotives.quot import (UnsupportedDimensionError, jordan_product_series,
                              nakajima_framed_series, punctual_quot_series,
                              quot_series, verify_class1_closed,
                              verify_duality, verify_product_vs_exp)

L = LaurentPoly.lefschetz()


def gottsche_product(x_exp, order):
    """prod_{j>=1} 1/(1 - L^{j+x_exp-1} t^j): independent expansion used as
    the oracle for the rank-one surface series."""
    out = TruncatedSeries.constant(1, order)
    for j in range(1, order + 1):
        out = out * geometric_series(LaurentPoly.lefschetz(j + x_exp - 1),
                                     order).substitute_power(j)
    return out


class TestPunctual:
    def test_constant_term(self):
        for r, d in [(1, 1), (2, 1), (1, 2), (3, 2)]:
            assert punctual_quot_series(r, d, 0).coefficient(0) == 1

    def test_punctual_hilb2_is_p1(self):
        s = punctual_quot_series(1, 2, 3)
        assert s.coefficient(2) == projective_class(1)

    def test_curve_rank2_order3(self):
        # oracle: Exp((1+L)t) = 1/((1-t)(1-Lt)), so t^3 coefficient is [P^3]
        oracle = geometric_series(1, 3) * geometric_series(L, 3)
        s = punctual_quot_series(2, 1, 3)
        assert s == oracle
        assert s.coefficient(3) == projective_class(3)

    def test_dimension_three_rejected(self):
        with pytest.raises(UnsupportedDimensionError):
            punctual_quot_series(1, 3, 2)

    def test_rank_zero(self):
        s = punctual_quot_series(0, 2, 3)
        assert s == TruncatedSeries.constant(1, 3)

    def test_coefficients_effective(self):
        for r, d in [(1, 2), (2, 2), (3, 1)]:
            for _, c in punctual_quot_series(r, d, 5).coefficients():
                assert c.is_effective


class TestQuotSeries:
    def test_hilbert_scheme_of_affine_plane(self):
        # oracle: the weighted product expansion
        s = quot_series(affine_class(2), 2, 1, 3)
        assert s == gottsche_product(2, 3)
        assert s.univariate_coefficients() == [
            LaurentPoly.one(), LaurentPoly.lefschetz(2),
            LaurentPoly({4: 1, 3: 1}), LaurentPoly({6: 1, 5: 1, 4: 1})]

    def test_point_power_is_identity(self):
        for d in (1, 2):
            assert quot_series(LaurentPoly.one(), d, 2, 4) == \
                punctual_quot_series(2, d, 4)

    def test_affine_line_rank_two(self):
        s = quot_series(affine_class(1), 1, 2, 4)
        assert s.coefficient(1) == LaurentPoly({1: 1, 2: 1})

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimensionError):
            quot_series(affine_class(3), 3, 1, 2)

    def test_dual_class_input_allowed(self):
        # non-effective input skips positivity checks but still runs both paths
        s = quot_series(L.dual(), 1, 1, 3)
        assert s.coefficient(1) == L.dual()


class TestFramedSeries:
    def test_rank_one(self):
        s = nakajima_framed_series(1, 3)
        assert s.coefficient(1) == LaurentPoly.lefschetz(2)

    def test_rank_two(self):
        s = nakajima_framed_series(2, 2)
        assert s.coefficient(0) == 1
        assert s.coefficient(1) == LaurentPoly({3: 1, 4: 1})


def jordan_geometric_product(r, order):
    """The double product as a chain of dense products by geometric series,
    the way jordan_product_series built it before it became one division."""
    out = TruncatedSeries.constant(1, order)
    for i in range(1, r + 1):
        for j in range(1, order + 1):
            out = out * geometric_series(LaurentPoly.lefschetz(r * j - i),
                                         order).substitute_power(j)
    return out


class TestJordanProduct:
    def test_matches_geometric_product(self):
        for r in range(4):
            for n in range(11):
                s = jordan_product_series(r, n)
                assert s == jordan_geometric_product(r, n)
                # the unit is read from the LaurentPoly factors, so no
                # coefficient is an int; with no factor (rank 0 or order 0)
                # the constant is the int 1, as Exp of the zero series gives
                ring = LaurentPoly if r and n else int
                assert all(type(c) is ring for _, c in s.coefficients())

    def test_matches_exp_form(self):
        for r in (1, 2, 3):
            assert verify_product_vs_exp(r, 6).passed

    def test_product_series_rank1(self):
        # r=1: prod_j 1/(1 - L^{j-1} t^j)
        s = jordan_product_series(1, 4)
        assert s == punctual_quot_series(1, 2, 4)

    def test_nilpotent_quiver_series_equals_both_closed_forms(self):
        # the punctual surface scheme is the nilpotent one-loop quiver
        # variety, so the partition-sum series must match the double
        # product and the Exp form
        from quotmotives.quiver import Quiver, nilpotent_motive_series
        for r in (1, 2, 3):
            summed = nilpotent_motive_series(Quiver.jordan(), (r,), 6)
            assert summed == jordan_product_series(r, 6)
            assert summed == punctual_quot_series(r, 2, 6)


class TestClass1:
    def test_jordan_w1_w2(self):
        for r in (1, 2):
            assert verify_class1_closed(r, 4).passed


class TestDuality:
    def test_examples(self):
        # r=1, n=1: dual(1) = L^{-2} L^2
        assert LaurentPoly.one().dual() == \
            LaurentPoly.lefschetz(-2) * LaurentPoly.lefschetz(2)
        # r=2, n=1: dual(1+L) = L^{-4}(L^3 + L^4)
        assert projective_class(1).dual() == \
            LaurentPoly.lefschetz(-4) * LaurentPoly({3: 1, 4: 1})

    def test_suite(self):
        for r in (1, 2, 3):
            assert verify_duality(r, 5).passed


class TestAffinePlaneVsFramed:
    """Quot schemes of the trivial sheaf on the affine plane against the
    framed moduli on the plane: equal for rank 1 only."""

    def test_rank_one_equal(self):
        s = quot_series(affine_class(2), 2, 1, 6)
        assert s == nakajima_framed_series(1, 6)
        assert s.first_difference(nakajima_framed_series(1, 6)) is None

    def test_rank_two_first_difference(self):
        lhs = quot_series(affine_class(2), 2, 2, 6)
        rhs = nakajima_framed_series(2, 6)
        assert lhs.first_difference(rhs) == (1,)
        assert lhs.coefficient(1) == LaurentPoly({2: 1, 3: 1})
        assert rhs.coefficient(1) == LaurentPoly({3: 1, 4: 1})

    def test_constant_term(self):
        assert quot_series(affine_class(2), 2, 3, 2).coefficient(0) == 1


def perturbed_log(k):
    """plethystic.log_pleth with 1 added to its t^k coefficient."""
    log = plethystic.log_pleth
    return lambda g: log(g) + TruncatedSeries({(k,): 1}, g.order)


class TestQuotSelfCheck:
    """A wrong Log P makes the power-structure evaluation differ from the
    closed Exp from t^k on; the memo of exp_pleth must not hide it."""

    @pytest.mark.parametrize("x, d, r, k", [
        (projective_class(2), 2, 2, 2),
        (affine_class(1), 1, 3, 1),
        (LaurentPoly({-1: 2, 1: -1}), 2, 1, 4),
    ])
    def test_wrong_log_is_reported(self, monkeypatch, x, d, r, k):
        monkeypatch.setattr(plethystic, "log_pleth", perturbed_log(k))
        with pytest.raises(AssertionError, match=rf"first difference at \({k},\)"):
            quot_series(x, d, r, 6)
