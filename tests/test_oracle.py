import itertools

import pytest

import brute_force
import classical
from quotmotives import _classsum
from quotmotives.quiver import partitions_of
from quotmotives.oracle import BudgetError, gl_order, orbit_count, raw_stable_count


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
        assert orbit_count(0, 3, 5, 1, True)[1] == 1
        assert orbit_count(0, 1, 2, 2, False)[1] == 1

    def test_punctual_line_rank2(self):
        assert orbit_count(1, 2, 2, 1, True)[1] == 3

    def test_punctual_hilb2_plane(self):
        assert orbit_count(2, 1, 2, 2, True)[1] == 3

    def test_global_line(self):
        assert orbit_count(1, 1, 2, 1, False)[1] == 2

    def test_global_line_rank2_length2(self):
        assert orbit_count(2, 2, 2, 1, False)[1] == 28

    def test_global_plane_point(self):
        assert orbit_count(1, 1, 3, 2, False)[1] == 9

    def test_divisibility_by_gl(self):
        raw = raw_stable_count(2, 1, 2, 2, punctual=True)
        assert raw == 3 * gl_order(2, 2)


class TestBudget:
    def test_dimension(self):
        with pytest.raises(ValueError):
            orbit_count(1, 1, 2, 3, True)

    def test_n_caps(self):
        with pytest.raises(BudgetError):
            orbit_count(5, 1, 2, 1, True)
        with pytest.raises(BudgetError):
            orbit_count(4, 1, 2, 2, True)

    def test_work_estimate_rejects_before_counting(self, monkeypatch):
        # within the n/r/q caps, but minutes of work
        def never(*args):
            raise AssertionError("a framing count ran")

        monkeypatch.setattr(_classsum, "_generating_tuples", never)
        monkeypatch.setattr(_classsum, "_framing_count", never)
        with pytest.raises(BudgetError, match="563500000 work units"):
            orbit_count(4, 8, 5, 1, False)
        with pytest.raises(BudgetError, match="work units"):
            orbit_count(3, 1, 5, 2, False)

    def test_field(self):
        with pytest.raises(BudgetError):
            orbit_count(1, 1, 4, 1, True)
        with pytest.raises(BudgetError):
            orbit_count(1, 1, 7, 1, True)


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

    def test_closed_framing_count_matches_the_dp(self):
        # Nakayama's closed count against Hall's DP on the representative
        # itself, so the block labels are those of the matrix the DP reads
        # (n = 4 over F_5 is left out: its DP runs for seconds)
        for n in (1, 2, 3, 4):
            for q in (2, 3, 5) if n < 4 else (2, 3):
                for punctual in (True, False):
                    for rep, _, _, blocks in _classsum.conjugacy_classes(n, q, punctual):
                        for r in range(4):
                            assert (_classsum._framing_count(blocks, n, r, q)
                                    == _classsum._generating_tuples((rep,), n, r, q)), \
                                (n, q, blocks, r)

    def test_dp_runs_only_for_pairs(self, monkeypatch):
        calls = []
        dp = _classsum._generating_tuples

        def spy(mats, n, r, q):
            calls.append(len(mats))
            return dp(mats, n, r, q)

        monkeypatch.setattr(_classsum, "_generating_tuples", spy)
        for punctual in (True, False):
            raw_stable_count(3, 2, 3, 1, punctual)
        assert calls == []
        for punctual in (True, False):
            raw_stable_count(2, 2, 3, 2, punctual)
        assert calls and set(calls) == {2}

    def test_commuting_pairs_feit_fine(self):
        for n, q in classical.FEIT_FINE_CASES:
            classical.check_feit_fine(n, q)

    def test_nilpotent_commuting_pairs_fulman_guralnick(self):
        # n = 4 over F_2 (several seconds) runs in acceptance criterion 12
        for n, q in classical.NILPOTENT_PAIR_CASES:
            classical.check_nilpotent_pairs(n, q)

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

