import math
import os
import pathlib
import random
import subprocess
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from quotmotives import rings
from quotmotives.plethystic import _exp_exact
from quotmotives.rings import (ExactnessError, L, LaurentPoly, _decode, _packed_sum,
                               _rewiden, affine_class, projective_class)
from quotmotives.series import TruncatedSeries, _sum_products


laurents = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=5)\
    .map(LaurentPoly)


wide_laurents = st.dictionaries(
    st.integers(-6, 6), st.one_of(st.integers(-9, 9), st.integers(-2 ** 80, 2 ** 80)),
    max_size=5).map(LaurentPoly)


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

    @pytest.mark.parametrize("obj", [
        [], "x", {}, {"terms": 5}, {"terms": [5]}, {"terms": [[0]]}, {"terms": [[0, 1, 2]]},
    ])
    def test_malformed_json_raises_value_error(self, obj):
        with pytest.raises(ValueError, match='^a class must be an object {"terms"'):
            LaurentPoly.from_json_obj(obj)

    def test_integer_only_coefficients(self):
        with pytest.raises(ExactnessError):
            projective_class(1) / 2
        assert (2 * projective_class(1)) / 2 == projective_class(1)
        with pytest.raises(TypeError):
            projective_class(1) * Fraction(1, 2)


def _stores_no_zero(*values):
    """Every LaurentPoly in ``values`` keeps no zero coefficient."""
    for p in values:
        assert isinstance(p, LaurentPoly) and all(p._terms.values()), p


class TestNoZeroCoefficient:
    """The paths that build a LaurentPoly without the filtering copy of
    ``__init__`` (LaurentPoly._of_nonzero) keep its invariant: no stored
    coefficient is zero."""

    @given(laurents, laurents, st.integers(-9, 9).filter(bool), st.integers(1, 4))
    def test_laurent_paths(self, x, y, k, m):
        full, partial = x + (-x), x + (y - x)
        assert not full and full == LaurentPoly()
        assert not x - x and x - x == LaurentPoly()
        assert partial == y
        _stores_no_zero(full, partial, x - x, -x, x * k, k * x, (x * k) / k, x.adams(m),
                        x.dual(), x + 3, 3 - x)

    @given(laurents, laurents)
    def test_kernel_sums_that_cancel(self, x, y):
        total = _packed_sum([(x, y), (-x, y)], math.inf)
        assert not total and total == LaurentPoly()
        one_plus, one_minus = LaurentPoly({0: 1, 1: 1}), LaurentPoly({0: 1, 1: -1})
        _stores_no_zero(total, _packed_sum([(x, y), (y, -x), (x, x)], math.inf),
                        _packed_sum([(one_plus, one_minus), (L, L)], math.inf),
                        _packed_sum([(x, y), (y, y)], 2))

    @pytest.mark.parametrize("f", [
        # h_1 = 1 + L^3 in one variable, and rows with zero slots in two
        TruncatedSeries({(1,): LaurentPoly({0: 1, 3: 1})}, 4),
        TruncatedSeries({(1,): LaurentPoly({-2: 1, 2: -1}), (3,): LaurentPoly({5: 2})}, 6),
        TruncatedSeries({(1, 0): LaurentPoly({0: 1, 4: 1}), (0, 1): LaurentPoly({-3: 1}),
                         (1, 1): LaurentPoly({2: -1})}, 4, 2),
    ])
    def test_exp_layers_with_zero_interior_slots(self, f):
        h = _exp_exact(f)
        assert any(p.terms() and p.terms()[-1][0] - p.terms()[0][0] >= len(p.terms())
                   for _, p in h.coefficients())  # some layer has a zero slot inside
        _stores_no_zero(*(p for _, p in h.coefficients()))


def _summed_products(pairs) -> LaurentPoly:
    """The reference: sum of the dict products, one ``*`` and ``+`` each."""
    total = LaurentPoly()
    for a, b in pairs:
        total = total + a * b
    return total


def _random_poly(rng: random.Random, bits: int, size: int) -> LaurentPoly:
    return LaurentPoly({rng.randint(-9, 9): rng.choice((-1, 1)) * rng.getrandbits(bits)
                        for _ in range(size)})


# slot width -> the bit length of one operand's coefficients that makes
# the kernel choose it (B < 2^31, < 2^63 and < 2^127 below)
SLOT_BITS = {32: 0, 64: 40, 128: 80}


@st.composite
def adams_and_dense(draw, bits):
    """A pair (psi_k(p), d) in either order: the Adams image of a few-term
    p, with coefficients +-1 or larger, spread over k Z, and a dense d,
    every slot of its span nonzero, with coefficients of about ``bits``
    bits."""
    p = LaurentPoly(draw(st.dictionaries(
        st.integers(-3, 3), st.one_of(st.sampled_from((1, -1)), st.integers(-50, 50).filter(bool)),
        min_size=1, max_size=4)))
    image = p.adams(draw(st.integers(2, 7)))
    lo = draw(st.integers(-6, 6))
    dense = LaurentPoly({lo + i: draw(st.sampled_from((1, -1))) * (draw(st.integers(1, 9)) << bits)
                         for i in range(draw(st.integers(1, 12)))})
    return (image, dense) if draw(st.booleans()) else (dense, image)


# psi_5(1 + 2L - L^2): 3 terms over 11 slots
IMAGE = LaurentPoly({0: 1, 1: 2, 2: -1}).adams(5)


class TestSumOfProducts:
    """The kernel ``_packed_sum``, decoding every exponent, against the sum
    of dict products."""

    @given(st.lists(st.tuples(laurents, laurents), max_size=8))
    def test_random_pairs(self, pairs):
        assert _packed_sum(pairs, math.inf) == _summed_products(pairs)

    @pytest.mark.parametrize("bits", [8, 63, 64, 65, 130, 201, 260])
    def test_large_coefficients(self, bits):
        rng = random.Random(bits)
        for _ in range(20):
            pairs = [(_random_poly(rng, bits, rng.randint(1, 6)),
                      _random_poly(rng, rng.randint(1, bits), rng.randint(1, 6)))
                     for _ in range(rng.randint(1, 6))]
            assert _packed_sum(pairs, math.inf) == _summed_products(pairs)

    def test_cancellation(self):
        a = LaurentPoly({-3: 2 ** 200, 0: -5, 4: 7})
        b = LaurentPoly({-1: -(2 ** 70), 2: 3})
        total = _packed_sum([(a, b), (-a, b)], math.inf)
        assert total == 0 and total.terms() == []
        assert _packed_sum([(a, b), (b, -a)], math.inf) == 0
        # (1 + L)(1 - L) + L^2 = 1: the cancellation is inside the sum
        one_plus, one_minus = LaurentPoly({0: 1, 1: 1}), LaurentPoly({0: 1, 1: -1})
        total = _packed_sum([(one_plus, one_minus), (L, L)], math.inf)
        assert total.terms() == [(0, 1)]

    def test_empty_and_one_term(self):
        assert _packed_sum([], math.inf) == 0
        assert _packed_sum([(LaurentPoly(), L)], math.inf) == 0
        a, b = LaurentPoly({-3: 5}), LaurentPoly({7: -2})
        assert _packed_sum([(a, b)], math.inf).terms() == [(4, -10)]
        assert _packed_sum([(a, b), (b, b)], math.inf).terms() == [(4, -10), (14, 4)]

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
        total = _packed_sum(pairs, math.inf)
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
        total = _packed_sum(pairs, math.inf)
        assert total == sum((x * y for x, y in pairs), LaurentPoly())
        assert any(c < 0 for _, c in total.terms()) and any(c > 0 for _, c in total.terms())
        assert pairs[0][0]._pack[4] == width

    @given(st.lists(st.tuples(wide_laurents, laurents), max_size=6), st.integers(-14, 14))
    def test_decoded_below_a_stop(self, pairs, stop):
        # the kernel decodes only the exponents below the stop, as the
        # quiver ratio's division asks; the dropped slots may hold any sign
        # or size
        expected = [(e, c) for e, c in _summed_products(pairs).terms() if e < stop]
        assert _packed_sum(pairs, stop).terms() == expected

    def test_shared_operand_at_two_widths(self):
        # the shared operand's cached pack alternates between 64- and 128-bit
        # slots; it is dense, so the kernel packs it next to either partner
        shared = LaurentPoly({-2: 3, -1: 2, 0: -1, 1: 7})
        small, large = LaurentPoly({1: 2 ** 31}), LaurentPoly({-4: 2 ** 100, 3: -1})
        for _ in range(3):
            for other, width in ((small, 64), (large, 128)):
                assert _packed_sum([(shared, other)], math.inf) == shared * other
                assert shared._pack[4] == width

    @pytest.mark.parametrize("width", sorted(SLOT_BITS))
    @given(st.lists(adams_and_dense(0), min_size=1, max_size=5))
    @example([(IMAGE, LaurentPoly({-1: 4, 0: -3}))])
    @example([(LaurentPoly({-1: 4, 0: -3}), IMAGE)])
    @example([(IMAGE, LaurentPoly({0: 1, 9: -1}))])
    def test_adams_images_packed_at_the_sum_width(self, width, drawn):
        # an Adams image, whose terms sit on k Z, is packed at the width of
        # the sum like its partner; the first operands are scaled by
        # 2^SLOT_BITS[width] to reach that width (128-bit slots are
        # unpacked slot by slot)
        pairs = [(a * (1 << SLOT_BITS[width]), b) for a, b in drawn]
        assert _packed_sum(pairs, math.inf) == _summed_products(pairs)
        assert all(a._pack[4] == b._pack[4] == width for a, b in pairs)

    @given(st.lists(st.tuples(wide_laurents, st.one_of(laurents, st.integers(-9, 9))),
                    min_size=1, max_size=6), st.integers(0, 12))
    def test_group_matches_pairwise_sum(self, pairs, stop):
        # the series' group sum: LaurentPoly groups on the kernel, decoded
        # below q^stop, and groups with an int product by product
        exact = [(a, b) for a, b in pairs if type(b) is LaurentPoly]
        assert _sum_products(exact, stop).terms() == \
            [(e, c) for e, c in _summed_products(exact).terms() if e < stop]
        assert _sum_products(pairs) == _summed_products(pairs)

    @pytest.mark.parametrize("width", sorted(SLOT_BITS))
    @given(st.lists(adams_and_dense(0), min_size=1, max_size=4), st.integers(0, 18))
    def test_adams_images_decoded_below_a_stop(self, width, drawn, stop):
        # Adams images and dense operands, moved to exponents >= 0 as in
        # the quiver ratio: the sum is decoded below q^stop
        pairs = [(a * (1 << SLOT_BITS[width]) * LaurentPoly.lefschetz(-a.min_exp()),
                  b * LaurentPoly.lefschetz(-b.min_exp())) for a, b in drawn]
        expected = [(e, c) for e, c in _summed_products(pairs).terms() if e < stop]
        assert _packed_sum(pairs, stop).terms() == expected

    def test_bound_check_raises(self, monkeypatch):
        # 32-bit slots cannot hold the coefficient 2^31 of the product
        monkeypatch.setattr(rings, "_slot_width", lambda bound: 32)
        with pytest.raises(AssertionError, match="slot width 32 does not hold the bound 2147483648"):
            _packed_sum([(LaurentPoly({0: 2 ** 31}), LaurentPoly({0: 1, 1: 1}))], math.inf)

    def test_bound_check_survives_optimized_mode(self):
        # the check raises explicitly, so python -O keeps it
        script = (
            "import math\n"
            "from quotmotives import rings\n"
            "from quotmotives.rings import LaurentPoly\n"
            "rings._slot_width = lambda bound: 32\n"
            "try:\n"
            "    rings._packed_sum([(LaurentPoly({0: 2 ** 31}), LaurentPoly({0: 1, 1: 1}))], math.inf)\n"
            "except AssertionError as exc:\n"
            "    print(type(exc).__name__, exc)\n")
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        run = subprocess.run([sys.executable, "-O", "-c", script],
                             capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "AssertionError slot width 32 does not hold the bound 2147483648\n"

    def test_cache_is_invisible(self):
        f, twin = LaurentPoly({-2: 3, 0: -1, 5: 7}), LaurentPoly({-2: 3, 0: -1, 5: 7})
        _packed_sum([(f, f)], math.inf)
        assert f._pack is not None and twin._pack is None
        assert f == twin
        assert repr(f) == repr(twin) and str(f) == str(twin)
        assert f.to_json_obj() == twin.to_json_obj()
        assert f.dual() == twin.dual() and f.adams(3) == twin.adams(3)
        assert repr(f.dual()) == repr(twin.dual())

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
                    if _packed_sum([(shared, partners[j])], math.inf) != expected[j]:
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

    @given(data=st.data())
    def test_rewiden_moves_every_digit(self, data):
        # the Exp over Z[L, L^-1] moves a layer's pack to the width of a
        # later layer, wider or narrower, by its bytes
        w, v = (data.draw(st.sampled_from((32, 64, 128, 192))) for _ in range(2))
        top = (1 << (min(w, v) - 1)) - 1
        digits = data.draw(st.lists(st.integers(-top, top) | st.just(0), min_size=1, max_size=9))
        moved = _rewiden(sum(c << w * i for i, c in enumerate(digits)), w, v, len(digits))
        assert moved == sum(c << v * i for i, c in enumerate(digits))
        assert _decode(moved, v, len(digits)) == digits


def _below(f: LaurentPoly, n) -> LaurentPoly:
    """The terms of f below q^n."""
    return LaurentPoly({e: c for e, c in f.terms() if e < n})


def _dict_product(a: LaurentPoly, b: LaurentPoly, n) -> LaurentPoly:
    """The reference: the dict double loop, each term product kept only
    below q^n."""
    right = b.terms()
    out = {}
    for e1, c1 in a.terms():
        for e2, c2 in right:
            e = e1 + e2
            if e >= n:
                break
            out[e] = out.get(e, 0) + c1 * c2
    return LaurentPoly(out)


# power series in q: exponents >= 0, coefficients past 2^64, and stops
# that leave nothing below them
q_polys = st.dictionaries(
    st.integers(0, 16), st.one_of(st.integers(-9, 9), st.integers(-2 ** 80, 2 ** 80)),
    max_size=8).map(LaurentPoly)
stops = st.one_of(st.integers(0, 18), st.just(math.inf))


class TestQSeries:
    """Power series in q known modulo q^N, the coefficients of the quiver
    ratio: LaurentPoly operands with exponents in [0, N), multiplied and
    summed by the kernel with the stop N.  Reduction modulo q^N is a ring
    map, so a product of a known modulo q^m and b known modulo q^n is
    known modulo q^min(m, n).  The class keeps the name of the retired
    QSeries ring, whose product tests these were."""

    EDGE_CASES = [({}, math.inf), ({}, 3), ({5: 1}, 3), ({0: 2 ** 70, 1: -1}, 2),
                  ({0: 1}, math.inf), ({1: -1, 4: 2 ** 65}, math.inf), ({2: 7}, 0)]

    @staticmethod
    def _product(a, m, b, n):
        """(a mod q^m) * (b mod q^n), on the kernel and by the reference."""
        a, b, stop = _below(a, m), _below(b, n), min(m, n)
        return _packed_sum([(a, b)], stop).terms(), _dict_product(a, b, stop).terms()

    @given(q_polys, stops, q_polys, stops)
    def test_product_matches_dict_product(self, a, m, b, n):
        kernel, reference = self._product(a, m, b, n)
        assert kernel == reference

    @pytest.mark.parametrize("a", EDGE_CASES)
    @pytest.mark.parametrize("b", EDGE_CASES)
    def test_product_edge_cases(self, a, b):
        kernel, reference = self._product(LaurentPoly(a[0]), a[1], LaurentPoly(b[0]), b[1])
        assert kernel == reference

    @given(q_polys, stops, st.integers(-2 ** 70, 2 ** 70))
    def test_int_operands(self, a, n, k):
        # an int is an exact constant: known modulo every power of q
        a = _below(a, n)
        expected = _dict_product(a, LaurentPoly({0: k}), n)
        assert _packed_sum([(a, LaurentPoly({0: k}))], n) == expected == _below(a * k, n)

    def test_operands_cut_to_the_precision(self):
        # (q + O(q^3)) (1 + q + ... + q^9 + O(q^10)): the terms of b at q^3
        # and above land at or above the stop 3, undecoded
        a, b = LaurentPoly({1: 1}), LaurentPoly({e: 1 for e in range(10)})
        assert _packed_sum([(a, b)], 3).terms() == [(1, 1), (2, 1)]
        assert _dict_product(a, b, 3).terms() == [(1, 1), (2, 1)]

    @given(q_polys, q_polys, q_polys, st.integers(0, 18))
    def test_ring_axioms(self, a, b, c, n):
        a, b, c = _below(a, n), _below(b, n), _below(c, n)

        def mul(x, y):
            return _packed_sum([(x, y)], n)

        assert mul(a, b) == mul(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, b + c) == _packed_sum([(a, b), (a, c)], n) == mul(a, b) + mul(a, c)

    @given(q_polys, q_polys, stops, stops)
    def test_truncation_is_homomorphism(self, f, g, m, n):
        # every coefficient a result claims to know is the true one
        stop = min(m, n)
        a, b = _below(f, m), _below(g, n)
        assert _below(a + b, stop) == _below(f + g, stop)
        assert _below(a - b, stop) == _below(f - g, stop)
        assert _packed_sum([(a, b)], stop) == _below(f * g, stop)

    def test_empty_group_is_exact_zero(self):
        for stop in (0, 3, math.inf):
            assert _packed_sum([], stop).terms() == []
            assert _sum_products([], stop) == 0
