from fractions import Fraction

import pytest

from quotmotives.rings import LaurentPoly, affine_class, projective_class
from quotmotives.series import TruncatedSeries, geometric_series
from quotmotives.plethystic import exp_pleth
from quotmotives import quot, specialize
from quotmotives.quot import UnsupportedDimensionError, punctual_quot_series, quot_series
from quotmotives.specialize import (point_count_series, require_prime_power,
                                    verify_zeta_product, zeta_series)

L = LaurentPoly.lefschetz()


def value(x, q):
    """x at L = q, summed here independently of point_count_series."""
    return sum(c * q ** e for e, c in x.terms())


def exp_form(x, q, order):
    """exp(sum_n #X(F_{q^n}) t^n / n) in exact rationals, independently of
    the package's Exp."""
    counts = [value(x, q ** n) for n in range(1, order + 1)]
    h = [Fraction(1)] + [Fraction(0)] * order
    for n in range(1, order + 1):
        h[n] = sum(counts[d - 1] * h[n - d] for d in range(1, n + 1)) / n
    assert all(c.denominator == 1 for c in h)
    return TruncatedSeries({n: int(c) for n, c in enumerate(h)}, order)


class TestPointCounts:
    def test_punctual_surface_counts(self):
        s = punctual_quot_series(1, 2, 3)
        assert point_count_series(s, 2) == [1, 1, 3, 7]

    def test_q_one_degenerates_to_coefficient_sums(self):
        s = quot_series(affine_class(2), 2, 1, 3)
        assert point_count_series(s, 1) == [1, 1, 2, 3]

    def test_constant_series(self):
        s = TruncatedSeries.constant(LaurentPoly.one(), 4)
        assert point_count_series(s, 5) == [1, 0, 0, 0, 0]

    def test_negative_exponent_rejected(self):
        s = TruncatedSeries.constant(L.dual(), 2)
        with pytest.raises(ValueError):
            point_count_series(s, 2)


def is_prime_power(q) -> bool:
    try:
        require_prime_power(q)
    except ValueError:
        return False
    return True


class TestPrimePower:
    def test_matches_trial_division(self):
        def smallest_factor(n):
            return next(d for d in range(2, n + 1) if n % d == 0)

        for q in range(-2, 3000):
            expect = False
            if q >= 2:
                p, rest = smallest_factor(q), q
                while rest % p == 0:
                    rest //= p
                expect = rest == 1
            assert is_prime_power(q) == expect, q

    @pytest.mark.parametrize("q", [
        3215031751,  # 151 * 751 * 28351, a strong pseudoprime to bases 2, 3, 5, 7
        318665857834031151167461,  # a strong pseudoprime to bases 2, ..., 37
        (2 ** 31 - 1) * (2 ** 61 - 1),
        (2 ** 61 - 1) ** 2 * (2 ** 31 - 1),
    ])
    def test_large_composites_rejected(self, q):
        assert not is_prime_power(q)

    @pytest.mark.parametrize("q", [
        10 ** 18 + 3, (2 ** 61 - 1) ** 2, (2 ** 127 - 1) ** 3, 2 ** 89, 3 ** 50,
    ])
    def test_large_prime_powers_accepted(self, q):
        assert is_prime_power(q)

    @pytest.mark.parametrize("q", [True, 4.0, "4"])
    def test_non_int_rejected(self, q):
        assert not is_prime_power(q)


class TestZeta:
    def test_affine_line(self):
        z = zeta_series(affine_class(1), 2, 6)
        assert z == geometric_series(2, 6)

    def test_p1(self):
        z = zeta_series(projective_class(1), 3, 5)
        expect = geometric_series(1, 5) * geometric_series(3, 5)
        assert z == expect

    def test_p2(self):
        z = zeta_series(projective_class(2), 2, 4)
        expect = (geometric_series(1, 4)
                  * geometric_series(2, 4)
                  * geometric_series(4, 4))
        assert z == expect

    def test_virtual_class_has_int_coefficients(self):
        # 2 + L - L^2 + 3L^3: the product form inverts, the counts are ints
        x = LaurentPoly({0: 2, 1: 1, 2: -1, 3: 3})
        z = zeta_series(x, 3, 6)
        assert all(type(c) is int for c in z.univariate_coefficients())
        assert z == exp_form(x, 3, 6)

    def test_matches_geometric_product(self):
        # a negative coefficient gives a binomial factor in the numerator
        x = LaurentPoly({0: 2, 1: -1, 2: 1})
        for q in (2, 3, 4, 5):
            expect = TruncatedSeries.constant(1, 8)
            for e, a in x.terms():
                geo = geometric_series(q ** e, 8)
                for _ in range(abs(a)):
                    expect = expect * geo if a > 0 else expect / geo
            z = zeta_series(x, q, 8)
            assert z == expect
            assert all(type(c) is int for c in z.univariate_coefficients())

    def test_symmetric_power_compatibility(self):
        # #S^k X(F_q) equals the value of the k-th symmetric power class,
        # the t^k coefficient of Exp(x t) (an int when it is constant)
        for x in (L, projective_class(1), LaurentPoly.lefschetz(2)):
            powers = exp_pleth(TruncatedSeries.variable(5, coeff=x))
            for q in (2, 3):
                z = zeta_series(x, q, 5)
                for k in range(6):
                    assert z.coefficient(k) == value(LaurentPoly._coerce(powers.coefficient(k)), q)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            zeta_series(L.dual(), 2, 3)


class TestIntegerOnly:
    """Point counts and zeta functions never leave the integers."""

    def test_no_fraction_is_created(self, monkeypatch):
        made = []
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        assert verify_zeta_product(projective_class(2), 2, 2, 3, 6).passed
        z = zeta_series(projective_class(2), 3, 6)
        assert made == []
        assert all(type(c) is int for c in z.univariate_coefficients())

    def test_rational_q_rejected(self):
        # 1 + 2L t^2 takes integral values at L = 3/2, and is still rejected
        s = TruncatedSeries({0: LaurentPoly.one(), 2: 2 * L}, 2)
        for q in (Fraction(3, 2), Fraction(3), 0):
            with pytest.raises(ValueError):
                point_count_series(s, q)


class TestZetaProducts:
    def test_curve_p1(self):
        assert verify_zeta_product(projective_class(1), 1, 2, 2, 6).passed

    def test_curve_rank_one_is_zeta(self):
        assert verify_zeta_product(projective_class(1), 1, 1, 3, 5).passed

    def test_curve_point(self):
        assert verify_zeta_product(LaurentPoly.one(), 1, 1, 2, 5).passed

    def test_surface_p2(self):
        assert verify_zeta_product(projective_class(2), 2, 1, 2, 4).passed

    def test_surface_affine_plane_rank2(self):
        assert verify_zeta_product(affine_class(2), 2, 2, 2, 4).passed

    def test_order_zero(self):
        assert verify_zeta_product(projective_class(2), 2, 2, 2, 0).passed

    def test_report_is_named_by_dimension(self):
        for d, name in ((1, "zeta-curve"), (2, "zeta-surface")):
            report = verify_zeta_product(projective_class(1), d, 1, 2, 3)
            assert (report.name, report.passed) == (name, True)

    @pytest.mark.parametrize("d", [0, 3])
    def test_other_dimension_rejected_before_any_series(self, monkeypatch, d):
        def never(*args):
            raise AssertionError("a series was solved")

        monkeypatch.setattr(specialize, "zeta_series", never)
        monkeypatch.setattr(quot, "quot_series", never)
        with pytest.raises(UnsupportedDimensionError):
            verify_zeta_product(projective_class(1), d, 1, 2, 3)


class TestPoincare:
    def test_normalized_curve_moduli_identity(self):
        # sum_n L^{-n} [Quot(O^r, n) over A^1] t^n = prod_{i<r} 1/(1 - L^i t)
        r, order = 2, 6
        s = quot_series(affine_class(1), 1, r, order)
        lhs = TruncatedSeries(
            {(n,): LaurentPoly.lefschetz(-n) * s.coefficient(n)
             for n in range(order + 1)}, order)
        rhs = TruncatedSeries.constant(1, order)
        for i in range(r):
            rhs = rhs * geometric_series(LaurentPoly.lefschetz(i), order)
        assert lhs == rhs
