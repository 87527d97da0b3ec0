import itertools
from fractions import Fraction

import pytest

import brute_force
from quotmotives import _classsum
from quotmotives.quiver import partitions_of
from quotmotives.oracle import (BudgetError, count_global_affine,
                                count_punctual, gl_order, raw_stable_count)


class TestGlOrder:
    def test_values(self):
        assert gl_order(0, 2) == 1
        assert gl_order(1, 2) == 1
        assert gl_order(2, 2) == 6
        assert gl_order(2, 3) == (9 - 1) * (9 - 3)

    def test_negative(self):
        with pytest.raises(ValueError):
            gl_order(-1, 2)


class TestStability:
    """The reference's stability test: matrices are flat row-major n*n
    tuples acting on column vectors, the framing is a list of columns."""

    def test_unit_column_spans_line(self):
        assert brute_force.is_stable([(0,)], [(1,)], 1, 2)

    def test_zero_framing_unstable(self):
        assert not brute_force.is_stable([(0, 0, 0, 0)], [(0, 0)], 2, 2)

    def test_jordan_block_convention(self):
        # X acts on columns: X e2 = e1, so the framing e2 is cyclic
        jordan = (0, 1, 0, 0)
        assert brute_force.is_stable([jordan], [(0, 1)], 2, 2)
        # but e1 is killed by X and spans only a line
        assert not brute_force.is_stable([jordan], [(1, 0)], 2, 2)

    def test_two_matrices_jointly_generate(self):
        # neither matrix alone moves e1 to e2... except via the second one
        x1 = (0, 0, 0, 0)
        x2 = (0, 0, 1, 0)  # e1 -> e2
        assert brute_force.is_stable([x1, x2], [(1, 0)], 2, 2)

    def test_empty_space(self):
        assert brute_force.is_stable([], [()], 0, 2)


def _all_matrices(n, q):
    return [brute_force._decode(i, n * n, q) for i in range(q ** (n * n))]


class TestNilpotencyWordCheck:
    def test_punctual_condition_equals_word_vanishing(self):
        # X1, X2 nilpotent and commuting <=> all words of length 2n vanish
        n, q = 2, 2
        mats = _all_matrices(n, q)
        for x1, x2 in itertools.product(mats, repeat=2):
            punctual = (brute_force._is_nilpotent(x1, n, q)
                        and brute_force._is_nilpotent(x2, n, q)
                        and brute_force._commute(x1, x2, n, q))
            if brute_force._commute(x1, x2, n, q):
                words_vanish = all(
                    not any(_word_product(word, n, q))
                    for word in itertools.product((x1, x2), repeat=2 * n))
                assert punctual == words_vanish


def _word_product(word, n, q):
    out = word[0]
    for m in word[1:]:
        out = brute_force._mat_mul(out, m, n, q)
    return out


class TestCountExamples:
    def test_n_zero_is_one(self):
        assert count_punctual(0, 3, 5, 1) == 1
        assert count_global_affine(0, 1, 2, 2) == 1

    def test_punctual_line_rank2(self):
        assert count_punctual(1, 2, 2, 1) == 3

    def test_punctual_hilb2_plane(self):
        assert count_punctual(2, 1, 2, 2) == 3

    def test_global_line(self):
        assert count_global_affine(1, 1, 2, 1) == 2

    def test_global_line_rank2_length2(self):
        assert count_global_affine(2, 2, 2, 1) == 28

    def test_global_plane_point(self):
        assert count_global_affine(1, 1, 3, 2) == 9

    def test_divisibility_by_gl(self):
        raw = raw_stable_count(2, 1, 2, 2, punctual=True)
        assert raw == 3 * gl_order(2, 2)


class TestBudget:
    def test_dimension(self):
        with pytest.raises(ValueError):
            count_punctual(1, 1, 2, 3)

    def test_n_caps(self):
        with pytest.raises(BudgetError):
            count_punctual(5, 1, 2, 1)
        with pytest.raises(BudgetError):
            count_punctual(4, 1, 2, 2)

    def test_work_estimate_rejects_before_counting(self, monkeypatch):
        # within the n/r/q caps, but minutes of work
        def never(*args):
            raise AssertionError("the framing DP ran")

        monkeypatch.setattr(_classsum, "_generating_tuples", never)
        with pytest.raises(BudgetError, match="563500000 work units"):
            count_global_affine(4, 8, 5, 1)
        with pytest.raises(BudgetError, match="work units"):
            count_global_affine(3, 1, 5, 2)

    def test_field(self):
        with pytest.raises(BudgetError):
            count_punctual(1, 1, 4, 1)
        with pytest.raises(BudgetError):
            count_punctual(1, 1, 7, 1)


class TestKernels:
    """The brute-force reference kernel itself."""

    def test_known_small_counts(self):
        assert brute_force.count_stable(1, 2, 2, 1, True) == 3
        assert brute_force.count_stable(2, 1, 2, 2, True) == 3 * gl_order(2, 2)


# The small-tier cases of perfbench.workloads.oracle_pool() (brute-force
# work <= 10 000), then larger cases the brute force still finishes; the
# grid of benchmarks/bench_oracle.py is a subset.
BRUTE_FORCE_GRID = [
    (2, 1, 2, 1, True), (2, 1, 2, 1, False), (2, 1, 2, 2, True),
    (2, 1, 2, 2, False), (2, 1, 3, 1, True), (2, 1, 3, 1, False),
    (2, 1, 3, 2, True), (2, 1, 5, 1, True), (2, 2, 2, 1, True),
    (2, 2, 2, 1, False), (2, 2, 2, 2, True), (2, 2, 2, 2, False),
    (2, 2, 3, 1, True), (2, 2, 3, 1, False), (2, 3, 2, 1, True),
    (2, 3, 2, 1, False), (2, 3, 2, 2, True), (2, 3, 3, 1, True),
    (3, 1, 2, 1, True), (3, 1, 2, 1, False), (3, 2, 2, 1, True),
    (4, 1, 2, 1, True), (3, 1, 2, 2, True), (2, 2, 3, 2, True),
    (3, 1, 3, 1, True), (3, 2, 2, 1, False),
]


class TestClassSum:
    @pytest.mark.parametrize("n,r,q,d,punctual", BRUTE_FORCE_GRID)
    def test_matches_brute_force(self, n, r, q, d, punctual):
        assert (raw_stable_count(n, r, q, d, punctual)
                == brute_force.count_stable(n, r, q, d, punctual))

    def test_commuting_pairs_feit_fine(self):
        # sum over classes of |class| * |C(x)| counts the commuting pairs,
        # sum_n |C_n| / |GL_n| u^n = prod_{i>=1} prod_{j>=0} (1 - q^(1-j) u^i)^-1
        known = {(1, 2): 4, (2, 2): 88, (3, 2): 7456,
                 (1, 3): 9, (2, 3): 945, (3, 3): 809433}
        for n, q in [(1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3),
                     (1, 5), (2, 5), (3, 5), (4, 5)]:
            classes = _classsum.conjugacy_classes(n, q, False)
            pairs = sum(size * q ** len(basis) for _, size, basis in classes)
            assert pairs == _pair_count(n, q, Fraction(q))
            assert pairs == known.get((n, q), pairs)

    def test_nilpotent_commuting_pairs_fulman_guralnick(self):
        # nilpotent classes, and the nilpotent members of each commutant,
        # count the commuting pairs of nilpotent matrices (Fulman-Guralnick),
        # sum_n |N_n| / |GL_n| u^n = prod_{i>=1} prod_{j>=1} (1 - q^(-j) u^i)^-1
        for n, q in [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3)]:
            pairs = sum(size * sum(1 for x in _classsum._span(basis, q)
                                   if _classsum._is_nilpotent(x, n, q))
                        for _, size, basis in _classsum.conjugacy_classes(n, q, True))
            assert pairs == _pair_count(n, q, Fraction(1, q))

    def test_nilpotency_count(self):
        # the kernel's own nilpotency test finds q^(n^2 - n) nilpotent
        # matrices (Fine-Herstein), the reference's finds the same ones
        for n, q in [(1, 2), (2, 2), (2, 3), (3, 2)]:
            found = [x for x in _all_matrices(n, q) if _classsum._is_nilpotent(x, n, q)]
            assert len(found) == q ** (n * n - n)
            assert found == [x for x in _all_matrices(n, q)
                             if brute_force._is_nilpotent(x, n, q)]

    def test_number_of_classes(self):
        # similarity classes of n x n matrices: sum over partitions of n of
        # q^(number of parts); nilpotent ones: one per partition
        for n, q in [(1, 2), (2, 3), (3, 2), (3, 5), (4, 2), (4, 3)]:
            parts = list(partitions_of(n))
            classes = _classsum.conjugacy_classes(n, q, False)
            assert len(classes) == sum(q ** len(p) for p in parts)
            assert len(_classsum.conjugacy_classes(n, q, True)) == len(parts)


def _pair_count(n, q, z):
    """|GL_n(F_q)| times the u^n coefficient of
    prod_{i>=1} prod_{j>=0} (1 - z q^-j u^i)^-1, in exact rationals.

    For fixed i the product over j is sum_k (z x)^k / prod_{l<=k} (1 - q^-l)
    with x = u^i (Euler).  z = q gives the Feit-Fine product of all
    commuting pairs, z = 1/q the Fulman-Guralnick product of nilpotent ones."""
    coeffs = [Fraction(1)] + [Fraction(0)] * n
    for i in range(1, n + 1):
        factor = [Fraction(0)] * (n + 1)
        term = Fraction(1)
        for k in range(n // i + 1):
            if k:
                term *= z / (1 - Fraction(1, q ** k))
            factor[i * k] = term
        coeffs = [sum(coeffs[a] * factor[m - a] for a in range(m + 1))
                  for m in range(n + 1)]
    gl = 1
    for i in range(n):
        gl *= q ** n - q ** i
    return gl * coeffs[n]
