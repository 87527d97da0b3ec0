import itertools
import math

import pytest
from hypothesis import given, strategies as st

import classical
from quotmotives.rings import LaurentPoly, QSeries
from quotmotives.series import TruncatedSeries
from quotmotives.plethystic import exp_pleth
from quotmotives.quiver import (Quiver, _inverse_q_pochhammers, euler_form,
                                nakajima_dim, nakajima_motive_series,
                                nakajima_partition_sum, nilpotent_motive_series,
                                partitions_of, q_pochhammer, verify_heine)

L = LaurentPoly.lefschetz()
JORDAN = Quiver.jordan()
A2_QUIVER = Quiver(2, ((0, 1),))  # one arrow 0 -> 1
POINT = Quiver(1, ())
CYCLE3 = Quiver(3, ((0, 1), (1, 2), (2, 0)))  # oriented 3-cycle


def _collections(vertices: int, max_total: int):
    """All tuples of one partition per vertex with total size <= max_total:
    the reference enumeration for the chain recursion of the package."""
    if vertices == 0:
        yield ()
        return
    for size in range(max_total + 1):
        for p in partitions_of(size):
            for rest in _collections(vertices - 1, max_total - size):
                yield (p,) + rest


def _part_vectors(collection):
    """theta_1, theta_2, ..., theta_depth, 0: the vectors of k-th parts."""
    depth = max((len(p) for p in collection), default=0)
    return [tuple(p[k] if k < len(p) else 0 for p in collection)
            for k in range(depth + 1)]


def _enumerated_partition_sum(quiver, w, order, prec):
    """S(w, q, z) summed collection by collection, in QSeries modulo q^prec."""
    inverse = _inverse_q_pochhammers(order, prec)
    coeffs = {}
    for collection in _collections(quiver.vertices, order):
        parts = _part_vectors(collection)
        a = -sum(x * y for x, y in zip(w, parts[0]))
        term = QSeries.one()
        for k in range(len(parts) - 1):
            a += euler_form(quiver, parts[k], parts[k])
            for m in (x - y for x, y in zip(parts[k], parts[k + 1])):
                if m:
                    term = term * inverse[m]
        v = tuple(sum(p) for p in collection)
        coeffs[v] = coeffs.get(v, 0) + QSeries(LaurentPoly.lefschetz(a), math.inf) * term
    return TruncatedSeries(coeffs, order, quiver.vertices)


class TestQuiver:
    def test_validation(self):
        with pytest.raises(ValueError):
            Quiver(1, ((0, 1),))
        with pytest.raises(ValueError):
            Quiver(0, ())
        # the constructor checks types too: no float endpoint or vertex
        # count is truncated, and a bool is not a vertex count
        for vertices, arrows in ((1, ((0.7, 0),)), (1.5, ()), (True, ())):
            with pytest.raises(ValueError):
                Quiver(vertices, arrows)

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
    # polynomials in q are held as LaurentPoly in the symbol q
    def test_empty_product(self):
        assert q_pochhammer(0) == LaurentPoly.one()

    def test_two(self):
        q = LaurentPoly.lefschetz()
        assert q_pochhammer(2) == (1 - q) * (1 - q * q)

    def test_inverses_by_partition_counting(self):
        for prec in (1, 2, 7, 12):
            inverse = _inverse_q_pochhammers(5, prec)
            for m, inv in enumerate(inverse):
                assert inv.prec == prec
                poch = QSeries(q_pochhammer(m), math.inf)
                assert poch * inv == QSeries.one()
                assert (poch * inv).prec == prec

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
        cols = list(_collections(2, 2))
        assert len(cols) == 1 + 2 + (2 + 2 + 1)

    def test_collections_are_per_vertex(self):
        for col in _collections(3, 2):
            assert len(col) == 3


class TestPartitionSum:
    def test_constant_term_is_one(self):
        for w in [(0,), (1,), (3,)]:
            s = nakajima_partition_sum(JORDAN, w, 3, 4)
            assert s.coefficient(0) == 1
            assert s.coefficient(0).prec == math.inf

    def test_degree_one_unframed(self):
        s = nakajima_partition_sum(JORDAN, (0,), 3, 6)
        assert s.coefficient(1) == QSeries(LaurentPoly({e: 1 for e in range(6)}), 6)
        assert s.coefficient(1).prec == 6

    def test_jordan_closed_form(self):
        # S(r, q, t) = Exp(q^{-r} t / ((1-q)(1-t))) for the one-loop quiver
        order, prec = 5, 12
        for r in (0, 1, 2):
            lhs = nakajima_partition_sum(JORDAN, (r,), order, prec)
            coeff = QSeries(LaurentPoly.lefschetz(-r), math.inf) * _inverse_q_pochhammers(1, prec)[1]
            arg = TruncatedSeries(
                {(m,): coeff for m in range(1, order + 1)}, order)
            rhs = exp_pleth(arg)
            assert lhs == rhs
            assert min(c.prec for _, c in rhs.coefficients()) >= prec - order * r

    @pytest.mark.parametrize("quiver, w, order", [
        (JORDAN, (2,), 6),
        (POINT, (3,), 6),
        (Quiver(1, ((0, 0), (0, 0))), (1,), 5),
        (A2_QUIVER, (1, 2), 4),
        (Quiver(2, ((0, 1), (0, 1), (1, 1))), (0, 1), 4),
        (Quiver(2, ((0, 1), (1, 0))), (2, 1), 4),
        (CYCLE3, (1, 0, 0), 3),
        (Quiver(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 0))), (1, 0, 1, 0), 3),
    ])
    def test_recursion_matches_enumeration(self, quiver, w, order):
        for prec in (1, 3, 12):
            for framing in (w, (0,) * len(w)):
                got = nakajima_partition_sum(quiver, framing, order, prec)
                expect = _enumerated_partition_sum(quiver, framing, order, prec)
                assert got == expect
                assert ({v: c.prec for v, c in got.coefficients()}
                        == {v: c.prec for v, c in expect.coefficients()})

    def test_two_vertex_quiver_runs(self):
        s = nakajima_partition_sum(A2_QUIVER, (1, 0), 2, 3)
        assert s.coefficient((0, 0)) == 1
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


class TestTypeAFlagVarieties:
    """Cotangent bundles of partial flag varieties (:mod:`classical`)."""

    @pytest.mark.parametrize("m, n", classical.FLAG_SIZES)
    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "backward"])
    def test_matches_q_multinomials(self, m, n, reverse):
        classical.check_flag_variety(m, n, reverse)


class TestTypeAEulerCharacteristics:
    """[M(v, w)] at L = 1 against weight multiplicities of sl_(n+1)
    (:mod:`classical`), every |v| <= 10, zero coefficients included."""

    @pytest.mark.parametrize("n, w, reverse", classical.EULER_CASES, ids=[
        f"A{n}-w{''.join(map(str, w))}-{'backward' if reverse else 'forward'}"
        for n, w, reverse in classical.EULER_CASES])
    def test_matches_weight_multiplicities(self, n, w, reverse):
        classical.check_euler_characteristics(n, w, reverse)


class TestHeine:
    def test_heine_small(self):
        assert verify_heine(6).passed

    def test_heine_reports_order(self):
        r = verify_heine(4)
        assert "4" in r.detail


def _sympy_motive_series(sp, quiver, w, order):
    """sum_v [M(v, w)] z^v from S(w)/S(0) computed in sympy's field Q(q):
    an exact reference that shares no arithmetic with QSeries or its window."""
    q, L = sp.symbols("q L")

    def partition_sum(framing):
        out = {}
        for collection in _collections(quiver.vertices, order):
            parts = _part_vectors(collection)
            term = q ** -sum(x * y for x, y in zip(framing, parts[0]))
            for k in range(len(parts) - 1):
                term *= q ** euler_form(quiver, parts[k], parts[k])
                for m in (x - y for x, y in zip(parts[k], parts[k + 1])):
                    term /= sp.prod([1 - q ** j for j in range(1, m + 1)])
            v = tuple(sum(p) for p in collection)
            out[v] = out.get(v, 0) + term
        return out

    def below(v):
        return itertools.product(*(range(x + 1) for x in v))

    sw, s0 = partition_sum(w), partition_sum(tuple(0 for _ in w))
    keys = sorted(s0, key=lambda v: (sum(v), v))
    inv = {}
    for v in keys:
        inv[v] = 1 if not any(v) else sp.cancel(
            -sum(s0[u] * inv[tuple(a - b for a, b in zip(v, u))]
                 for u in below(v) if any(u)))
    out = {}
    for v in keys:
        ratio = sum(sw[u] * inv[tuple(a - b for a, b in zip(v, u))] for u in below(v))
        half = nakajima_dim(quiver, v, w) // 2
        motive = sp.Poly(sp.cancel(L ** half * ratio.subs(q, 1 / L)), L)
        out[v] = LaurentPoly({e: int(c) for (e,), c in motive.terms()})
    return out


class TestSympyReference:
    @pytest.mark.parametrize("quiver, w", [
        (JORDAN, (2,)),
        (Quiver(1, ((0, 0), (0, 0))), (1,)),
        (Quiver(2, ((0, 1), (1, 1))), (1, 1)),
        (CYCLE3, (1, 0, 0)),
    ])
    def test_motive_series_matches_field_computation(self, quiver, w):
        sp = pytest.importorskip("sympy")
        order = 3
        expect = _sympy_motive_series(sp, quiver, w, order)
        got = nakajima_motive_series(quiver, w, order)
        assert {v: got.coefficient(v) for v in expect} == expect
        assert all(v in expect for v, _ in got.coefficients())
