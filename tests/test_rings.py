import math
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quotmotives.rings import (ExactnessError, L, LaurentPoly, QSeries, _packed_sum,
                               affine_class, projective_class)
from quotmotives.series import _sum_products


laurents = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=5)\
    .map(LaurentPoly)


wide_laurents = st.dictionaries(
    st.integers(-6, 6), st.one_of(st.integers(-9, 9), st.integers(-2 ** 80, 2 ** 80)),
    max_size=5).map(LaurentPoly)


precisions = st.one_of(st.integers(-4, 8), st.just(math.inf))


def qs(terms: dict, prec) -> QSeries:
    return QSeries(LaurentPoly(terms), prec)


qseries = st.builds(QSeries, laurents, precisions)


# wider QSeries for the product tests: negative exponents, mixed signs,
# coefficients past 2^64, precisions that leave the known part empty
wide_qseries = st.builds(
    QSeries,
    st.dictionaries(st.integers(-8, 8),
                    st.one_of(st.integers(-9, 9), st.integers(-2 ** 80, 2 ** 80)),
                    max_size=8).map(LaurentPoly),
    st.one_of(st.integers(-6, 10), st.just(math.inf)))


def _dict_product(a: QSeries, b: QSeries) -> QSeries:
    """The reference: the dict double loop that multiplied QSeries before
    the packed kernel, each term product kept only below the precision."""
    va = min(a.known._terms, default=a.prec)
    vb = min(b.known._terms, default=b.prec)
    prec = min(va + b.prec, vb + a.prec)
    right = b.terms()
    out = {}
    for e1, c1 in a.known._terms.items():
        for e2, c2 in right:
            e = e1 + e2
            if e >= prec:
                break
            out[e] = out.get(e, 0) + c1 * c2
    return QSeries(LaurentPoly(out), prec)


def _exactly(x: QSeries):
    """Known terms and precision, compared exactly (``==`` compares only
    below the common precision)."""
    return type(x), x.terms(), x.prec


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
        assert LaurentPoly.lefschetz(2).dual() == LaurentPoly.lefschetz(-2)
        p1 = projective_class(1)
        assert p1.dual() == LaurentPoly({0: 1, -1: 1})
        assert p1.dual() == LaurentPoly.lefschetz(-1) * p1
        f = LaurentPoly({3: 3, -1: -1})
        assert f.dual().dual() == f

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
        assert f + LaurentPoly() == f

    @given(laurents, laurents)
    def test_dual_is_ring_homomorphism(self, f, g):
        assert (f * g).dual() == f.dual() * g.dual()
        assert (f + g).dual() == f.dual() + g.dual()
        assert f.dual().dual() == f

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


def _summed_products(pairs) -> LaurentPoly:
    """The reference: sum of the dict products, one ``*`` and ``+`` each."""
    total = LaurentPoly()
    for a, b in pairs:
        total = total + a * b
    return total


def _random_poly(rng: random.Random, bits: int, size: int) -> LaurentPoly:
    return LaurentPoly({rng.randint(-9, 9): rng.choice((-1, 1)) * rng.getrandbits(bits)
                        for _ in range(size)})


# slot width -> the bit length of the dense operands' coefficients that
# makes the kernel choose it (B < 2^31, < 2^63 and < 2^127 below)
SLOT_BITS = {32: 0, 64: 40, 128: 80}


@st.composite
def adams_and_dense(draw, bits):
    """A pair (psi_k(p), d) in either order, and d: the Adams image of a
    few-term p, with coefficients +-1 or larger, spread over k Z, and a
    dense d, every slot of its span nonzero, with coefficients of about
    ``bits`` bits."""
    p = LaurentPoly(draw(st.dictionaries(
        st.integers(-3, 3), st.one_of(st.sampled_from((1, -1)), st.integers(-50, 50).filter(bool)),
        min_size=1, max_size=4)))
    image = p.adams(draw(st.integers(2, 7)))
    lo = draw(st.integers(-6, 6))
    dense = LaurentPoly({lo + i: draw(st.sampled_from((1, -1))) * (draw(st.integers(1, 9)) << bits)
                         for i in range(draw(st.integers(1, 12)))})
    return ((image, dense) if draw(st.booleans()) else (dense, image)), dense


class TestSumOfProducts:
    """``LaurentPoly.sum_of_products`` against the sum of dict products."""

    @given(st.lists(st.tuples(laurents, laurents), max_size=8))
    def test_random_pairs(self, pairs):
        assert LaurentPoly.sum_of_products(pairs) == _summed_products(pairs)

    @pytest.mark.parametrize("bits", [8, 63, 64, 65, 130, 201, 260])
    def test_large_coefficients(self, bits):
        rng = random.Random(bits)
        for _ in range(20):
            pairs = [(_random_poly(rng, bits, rng.randint(1, 6)),
                      _random_poly(rng, rng.randint(1, bits), rng.randint(1, 6)))
                     for _ in range(rng.randint(1, 6))]
            assert LaurentPoly.sum_of_products(pairs) == _summed_products(pairs)

    def test_cancellation(self):
        a = LaurentPoly({-3: 2 ** 200, 0: -5, 4: 7})
        b = LaurentPoly({-1: -(2 ** 70), 2: 3})
        total = LaurentPoly.sum_of_products([(a, b), (-a, b)])
        assert total == 0 and total.terms() == []
        assert LaurentPoly.sum_of_products([(a, b), (b, -a)]) == 0
        # (1 + L)(1 - L) + L^2 = 1: the cancellation is inside the sum
        one_plus, one_minus = LaurentPoly({0: 1, 1: 1}), LaurentPoly({0: 1, 1: -1})
        total = LaurentPoly.sum_of_products([(one_plus, one_minus), (L, L)])
        assert total.terms() == [(0, 1)]

    def test_empty_and_one_term(self):
        assert LaurentPoly.sum_of_products([]) == 0
        assert LaurentPoly.sum_of_products([(LaurentPoly(), L)]) == 0
        a, b = LaurentPoly({-3: 5}), LaurentPoly({7: -2})
        assert LaurentPoly.sum_of_products([(a, b)]).terms() == [(4, -10)]
        assert LaurentPoly.sum_of_products([(a, b), (b, b)]).terms() == [(4, -10), (14, 4)]

    @pytest.mark.parametrize("bound", [2 ** 31 - 1, 2 ** 31, 2 ** 63 - 1, 2 ** 63,
                                       2 ** 64 - 1, 2 ** 64, 2 ** 127, 2 ** 128 - 1,
                                       2 ** 200 + 1])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_every_coefficient_at_the_bound(self, bound, sign):
        # B = sum ||a||_1 ||b||_inf, and every coefficient of the sum is sign * B
        ones = LaurentPoly({e: 1 for e in range(-2, 5)})
        split = bound // 3
        pairs = [(LaurentPoly({-1: sign * split}), ones),
                 (LaurentPoly({-1: sign * (bound - split)}), ones)]
        total = LaurentPoly.sum_of_products(pairs)
        assert total.terms() == [(e, sign * bound) for e in range(-3, 4)]
        assert total == _summed_products(pairs)

    @pytest.mark.parametrize("bound, width", [(2 ** 31 - 1, 32), (2 ** 31, 64),
                                              (2 ** 63 - 1, 64), (2 ** 63, 128)])
    def test_both_unpack_paths(self, bound, width):
        # the same operands, scaled so that B sits just below and at 2^31
        # (32- and 64-bit slots, both unpacked as signed words) and 2^63
        # (64-bit slots, and 128-bit slots unpacked slot by slot)
        rng = random.Random(63)
        a = [LaurentPoly({e: rng.randint(-9, 9) for e in range(-4, 7)}) for _ in range(3)]
        b = [LaurentPoly({e: rng.choice((-1, 1)) * rng.randint(1, 9) for e in range(-2, 5)})
             for _ in range(3)]
        norm = sum(sum(abs(c) for _, c in x.terms()) * max(abs(c) for _, c in y.terms())
                   for x, y in zip(a, b))
        scale, extra = divmod(bound, norm)
        pairs = [(x * scale, y) for x, y in zip(a, b)]
        # one more term on a constant operand makes B exactly the bound
        pairs.append((LaurentPoly({0: extra}), LaurentPoly({0: 1})))
        total = LaurentPoly.sum_of_products(pairs)
        assert total == sum((x * y for x, y in pairs), LaurentPoly())
        assert any(c < 0 for _, c in total.terms()) and any(c > 0 for _, c in total.terms())
        assert pairs[0][0]._pack[4] == width

    @given(st.lists(st.tuples(wide_laurents, laurents), max_size=6), st.integers(-14, 14))
    def test_decoded_below_a_stop(self, pairs, stop):
        # the kernel behind QSeries products decodes only the exponents below
        # the precision; the dropped slots may hold any sign or size
        expected = [(e, c) for e, c in _summed_products(pairs).terms() if e < stop]
        assert _packed_sum(pairs, stop).terms() == expected

    def test_shared_operand_at_two_widths(self):
        # the shared operand's cached pack alternates between 64- and 128-bit
        # slots; it is dense, so the kernel packs it next to either partner
        shared = LaurentPoly({-2: 3, -1: 2, 0: -1, 1: 7})
        small, large = LaurentPoly({1: 2 ** 31}), LaurentPoly({-4: 2 ** 100, 3: -1})
        for _ in range(3):
            for other, width in ((small, 64), (large, 128)):
                assert LaurentPoly.sum_of_products([(shared, other)]) == shared * other
                assert shared._pack[4] == width

    @pytest.mark.parametrize("width", sorted(SLOT_BITS))
    @given(data=st.data())
    def test_adams_images_by_shifted_adds(self, width, data):
        # the sparse Adams images are multiplied by shifted adds into the
        # total, the dense partners packed at the width of the sum (128-bit
        # slots are unpacked slot by slot)
        drawn = data.draw(st.lists(adams_and_dense(SLOT_BITS[width]), min_size=1, max_size=5))
        pairs = [pair for pair, _ in drawn]
        assert LaurentPoly.sum_of_products(pairs) == _summed_products(pairs)
        assert all(dense._pack[4] == width for _, dense in drawn)

    def test_sparse_operand_is_never_packed(self):
        # psi_5(1 + 2L - L^2): 3 terms over 11 slots; the dense partner is packed
        image, dense = LaurentPoly({0: 1, 1: 2, 2: -1}).adams(5), LaurentPoly({-1: 4, 0: -3})
        for pair in ((image, dense), (dense, image)):
            assert LaurentPoly.sum_of_products([pair]) == image * dense
            assert image._pack[4:] == (0, 0, True)
            assert dense._pack[4] == 32 and dense._pack[6] is False
        # two sparse operands: the first is added in shifts, the second packed
        other = LaurentPoly({0: 1, 9: -1})
        assert LaurentPoly.sum_of_products([(image, other)]) == image * other
        assert image._pack[4] == 0 and other._pack[4] == 32

    def test_cache_is_invisible(self):
        f, twin = LaurentPoly({-2: 3, 0: -1, 5: 7}), LaurentPoly({-2: 3, 0: -1, 5: 7})
        LaurentPoly.sum_of_products([(f, f)])
        assert f._pack is not None and twin._pack is None
        assert f == twin
        assert repr(f) == repr(twin) and str(f) == str(twin)
        assert f.to_json_obj() == twin.to_json_obj()
        assert f.dual() == twin.dual() and f.adams(3) == twin.adams(3)
        assert repr(f.dual()) == repr(twin.dual())
        # a QSeries keeps the last cut of its known part that a product made
        x, twin = qs({e: e + 1 for e in range(10)}, 10), qs({e: e + 1 for e in range(10)}, 10)
        y = qs({-2: 1, 0: 5}, 3)
        first = _exactly(x * y)
        cut = x._cut
        assert cut is not None and cut[0] == 5 and twin._cut is None
        assert _exactly(x * y) == first == _exactly(_dict_product(twin, y))
        assert x._cut is cut
        assert _exactly(x) == _exactly(twin) and repr(x) == repr(twin) and x == twin
        assert _exactly(x.adams(2)) == _exactly(twin.adams(2))
        assert _exactly(x * qs({-1: 1}, 3)) == _exactly(_dict_product(twin, qs({-1: 1}, 3)))
        assert x._cut[0] == 4
        assert _exactly(x * y) == first

    def test_shared_operand_across_threads(self):
        # threads race to replace the shared operand's pack at two widths
        shared = LaurentPoly({e: (-1) ** (e % 2) * (e + 5) for e in range(-4, 9)})
        partners = [LaurentPoly({0: 3, 2: -1}), LaurentPoly({-1: 2 ** 90, 1: 5})]
        expected = [shared * p for p in partners]
        errors = []

        def work(i):
            try:
                for k in range(2000):
                    j = (i + k) % 2
                    if LaurentPoly.sum_of_products([(shared, partners[j])]) != expected[j]:
                        errors.append((i, k))
            except Exception as exc:  # a thread's exception must fail the test
                errors.append((i, repr(exc)))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []


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

    def test_int_minus_qseries(self):
        x = qs({-1: 2, 0: -3, 2: 5}, 4)
        assert _exactly(3 - x) == _exactly(-(x - 3))
        assert _exactly(3 - x) == (QSeries, [(-1, -2), (0, 6), (2, -5)], 4)

    def test_division_by_int_is_exact(self):
        f = qs({0: 2, 1: 4, 5: 3}, 3)
        assert f / 2 == qs({0: 1, 1: 2}, 3)
        with pytest.raises(ExactnessError):
            qs({0: 3}, 3) / 2

    EDGE_CASES = [qs({}, math.inf), qs({}, 3), qs({5: 1}, 3), qs({-2: 2 ** 70, 1: -1}, 2),
                  qs({0: 1}, math.inf), qs({-3: -1, 4: 2 ** 65}, math.inf), qs({2: 7}, -4)]

    @given(wide_qseries, wide_qseries)
    def test_product_matches_dict_product(self, a, b):
        assert _exactly(a * b) == _exactly(_dict_product(a, b))

    @pytest.mark.parametrize("a", EDGE_CASES)
    @pytest.mark.parametrize("b", EDGE_CASES)
    def test_product_edge_cases(self, a, b):
        assert _exactly(a * b) == _exactly(_dict_product(a, b))

    @given(wide_qseries, st.integers(-2 ** 70, 2 ** 70))
    def test_int_operands(self, a, k):
        exact = QSeries(LaurentPoly({0: k}), math.inf)
        assert _exactly(a * k) == _exactly(k * a) == _exactly(_dict_product(a, exact))

    def test_operands_cut_to_the_precision(self):
        # q^-2 + O(q^3) times 1 + q + ... + q^9 (+ O(q^10)): only the terms
        # of b below q^(3 - (-2)) = q^5 reach the result's precision 3
        a = qs({-2: 1}, 3)
        b = qs({e: 1 for e in range(10)}, 10)
        prod = a * b
        assert _exactly(prod) == (QSeries, [(e, 1) for e in range(-2, 3)], 3)
        assert _exactly(prod) == _exactly(_dict_product(a, b))

    @pytest.mark.parametrize("width", sorted(SLOT_BITS))
    @given(data=st.data())
    def test_adams_images_with_a_precision_stop(self, width, data):
        # Adams images and dense operands, each known to some O(q^N): the
        # cut operands go through the shifted adds, decoded below P
        pairs = []
        for (a, b), _ in data.draw(st.lists(adams_and_dense(SLOT_BITS[width]),
                                            min_size=1, max_size=4)):
            pairs.append((QSeries(a, data.draw(precisions)), QSeries(b, data.draw(precisions))))
        expected = QSeries(LaurentPoly(), math.inf)
        for a, b in pairs:
            expected = expected + _dict_product(a, b)
        assert _exactly(QSeries.sum_of_products(pairs)) == _exactly(expected)

    @given(st.lists(st.tuples(wide_qseries, st.one_of(wide_qseries, st.integers(-9, 9))),
                    min_size=1, max_size=6))
    def test_group_matches_pairwise_sum(self, pairs):
        expected = QSeries(LaurentPoly(), math.inf)
        for a, b in pairs:
            expected = expected + _dict_product(a, QSeries._coerce(b))
        assert _exactly(_sum_products(pairs)) == _exactly(expected)
        assert _exactly(QSeries.sum_of_products(pairs)) == _exactly(expected)

    def test_empty_group_is_exact_zero(self):
        assert _exactly(QSeries.sum_of_products([])) == (QSeries, [], math.inf)

    def test_incompatible_operand(self):
        with pytest.raises(TypeError):
            QSeries.sum_of_products([(qs({0: 1}, 3), LaurentPoly({0: 1}))])

    @given(wide_qseries, st.integers(-6, 6))
    def test_shift_is_the_monomial_product(self, x, a):
        monomial = QSeries(LaurentPoly.lefschetz(a), math.inf)
        assert _exactly(x.shift(a)) == _exactly(monomial * x)
        assert _exactly(x.shift(a)) == _exactly(_dict_product(monomial, x))
