import pytest
from hypothesis import given, strategies as st

from quotmotives.rings import LaurentPoly, RationalFn
from quotmotives.series import TruncatedSeries
from quotmotives.plethystic import exp_pleth
from quotmotives.quiver import (Quiver, euler_form, nakajima_dim,
                                nakajima_motive_series, nakajima_partition_sum,
                                nilpotent_motive_series, partition_collections,
                                partitions_of, q_pochhammer, t_pochhammer,
                                verify_heine)

L = LaurentPoly.lefschetz()
JORDAN = Quiver.jordan()
A2_QUIVER = Quiver(2, ((0, 1),))  # one arrow 0 -> 1
POINT = Quiver(1, ())


class TestQuiver:
    def test_validation(self):
        with pytest.raises(ValueError):
            Quiver(1, ((0, 1),))
        with pytest.raises(ValueError):
            Quiver(0, ())

    def test_json_round_trip(self):
        q = Quiver(3, ((0, 1), (1, 2), (2, 2)))
        assert Quiver.from_json_obj(q.to_json_obj()) == q


class TestEulerForm:
    def test_jordan_vanishes(self):
        for v, w in [((1,), (1,)), ((3,), (2,)), ((0,), (5,))]:
            assert euler_form(JORDAN, v, w) == 0

    def test_point_quiver(self):
        assert euler_form(POINT, (2,), (3,)) == 6

    def test_one_arrow(self):
        assert euler_form(A2_QUIVER, (1, 1), (1, 1)) == 1

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            euler_form(JORDAN, (1, 2), (1,))

    @given(st.tuples(*[st.integers(-5, 5)] * 2), st.tuples(*[st.integers(-5, 5)] * 2),
           st.tuples(*[st.integers(-5, 5)] * 2))
    def test_bilinear(self, v, vp, w):
        lhs = euler_form(A2_QUIVER, tuple(a + b for a, b in zip(v, vp)), w)
        assert lhs == euler_form(A2_QUIVER, v, w) + euler_form(A2_QUIVER, vp, w)


class TestDim:
    def test_jordan(self):
        for n in range(4):
            for r in range(1, 4):
                assert nakajima_dim(JORDAN, (n,), (r,)) == 2 * r * n

    def test_zero(self):
        assert nakajima_dim(POINT, (0,), (7,)) == 0

    def test_point_quiver(self):
        assert nakajima_dim(POINT, (1,), (2,)) == 2


class TestPochhammer:
    def test_empty_product(self):
        assert q_pochhammer(0) == RationalFn.one()

    def test_two(self):
        expect = (RationalFn.one() - RationalFn.q_power(1)) * \
                 (RationalFn.one() - RationalFn.q_power(2))
        assert q_pochhammer(2) == expect

    def test_t_pochhammer_one(self):
        s = t_pochhammer(1, 4)
        assert s.coefficient(0) == RationalFn.one()
        assert s.coefficient(1) == -RationalFn.one()
        assert s.coefficient(2) == 0

    def test_t_pochhammer_at_t_equals_q(self):
        # substituting t = q into (t;q)_n recovers (q;q)_n
        n, order = 3, 6
        s = t_pochhammer(n, order)
        val = sum((c * RationalFn.q_power(m[0]) for m, c in s.coefficients()),
                  RationalFn.zero())
        assert val == q_pochhammer(n)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            q_pochhammer(-1)


class TestPartitions:
    def test_partitions_of_small(self):
        assert list(partitions_of(0)) == [()]
        assert sorted(partitions_of(4)) == sorted(
            [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)])

    def test_collection_count(self):
        # two vertices, total <= 2: pairs of partitions with |a|+|b| <= 2
        cols = list(partition_collections(2, 2))
        assert len(cols) == 1 + 2 + (2 + 2 + 1)

    def test_collections_are_per_vertex(self):
        for col in partition_collections(3, 2):
            assert len(col) == 3


class TestPartitionSum:
    def test_constant_term_is_one(self):
        for w in [(0,), (1,), (3,)]:
            s = nakajima_partition_sum(JORDAN, w, 3)
            assert s.coefficient(0) == RationalFn.one()

    def test_degree_one_unframed(self):
        s = nakajima_partition_sum(JORDAN, (0,), 3)
        assert s.coefficient(1) == q_pochhammer(1).reciprocal()

    def test_jordan_closed_form(self):
        # S(r, q, t) = Exp(q^{-r} t / ((1-q)(1-t))) for the one-loop quiver
        order = 5
        for r in (0, 1, 2):
            lhs = nakajima_partition_sum(JORDAN, (r,), order)
            coeff = RationalFn.q_power(-r) / (RationalFn.one() - RationalFn.q_power(1))
            arg = TruncatedSeries(
                {(m,): coeff for m in range(1, order + 1)}, order)
            assert lhs == exp_pleth(arg)

    def test_two_vertex_quiver_runs(self):
        s = nakajima_partition_sum(A2_QUIVER, (1, 0), 2)
        assert s.coefficient((0, 0)) == RationalFn.one()
        assert s.arity == 2


class TestMotiveSeries:
    def test_z0_coefficient(self):
        s = nakajima_motive_series(JORDAN, (1,), 2)
        assert s.coefficient(0) == LaurentPoly.one()

    def test_hilbert_scheme_of_plane(self):
        s = nakajima_motive_series(JORDAN, (1,), 3)
        assert s.coefficient(1) == LaurentPoly.lefschetz(2)
        assert s.coefficient(2) == LaurentPoly({4: 1, 3: 1})

    def test_rank_two(self):
        s = nakajima_motive_series(JORDAN, (2,), 2)
        assert s.coefficient(1) == LaurentPoly({3: 1, 4: 1})

    def test_nilpotent_series(self):
        s = nilpotent_motive_series(JORDAN, (1,), 3)
        assert s.coefficient(0) == LaurentPoly.one()
        assert s.coefficient(1) == LaurentPoly.one()
        t = nilpotent_motive_series(JORDAN, (2,), 2)
        assert t.coefficient(1) == LaurentPoly({0: 1, 1: 1})

    def test_coefficients_effective(self):
        for w in [(1,), (2,)]:
            s = nakajima_motive_series(JORDAN, w, 4)
            for _, c in s.coefficients():
                assert all(isinstance(a, int) for _, a in c.terms())
                assert c.is_effective
                assert not c or c.min_exp() >= 0

    def test_quiver_without_loops(self):
        # single vertex, no arrows: M(v, w) is the cotangent bundle of a
        # Grassmannian; M(1, 2) = T* P^1 has class L (1 + L)
        s = nakajima_motive_series(POINT, (2,), 2)
        assert s.coefficient(1) == L * (1 + L)

    def test_two_vertex_quiver(self):
        # arrow quiver framed at the source, v = (1, 0): the moduli space is
        # zero-dimensional and nonempty, hence a point
        assert nakajima_dim(A2_QUIVER, (1, 0), (1, 0)) == 0
        s = nakajima_motive_series(A2_QUIVER, (1, 0), 2)
        assert s.coefficient((1, 0)) == LaurentPoly.one()


class TestHeine:
    def test_heine_small(self):
        assert verify_heine(6).passed

    def test_heine_reports_order(self):
        r = verify_heine(4)
        assert "4" in r.detail
