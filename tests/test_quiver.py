import copy
import hashlib
import itertools
import json
import pathlib
import pickle

import pytest
from hypothesis import given, settings, strategies as st

import classical
from quotmotives.rings import LaurentPoly
from quotmotives.series import TruncatedSeries
from quotmotives.plethystic import _exp_exact
from quotmotives.quot import quot_series
from quotmotives.report import CheckReport
from quotmotives.quiver import (Quiver, _inverse_pochhammers, _partition_sums, _rescale,
                                euler_form, nakajima_dim, nakajima_motive_series,
                                nilpotent_motive_series, partitions_of, verify_heine)

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
    """S(w, q, z) summed collection by collection, every coefficient exact
    below q^prec: a term q^a prod_m 1/(q; q)_m takes its factors modulo
    q^(prec - a), by dict products."""
    coeffs = {}
    for collection in _collections(quiver.vertices, order):
        parts = _part_vectors(collection)
        a = -sum(x * y for x, y in zip(w, parts[0]))
        a += sum(euler_form(quiver, p, p) for p in parts[:-1])
        if a >= prec:
            continue
        inverse = _inverse_pochhammers(order, prec - a)
        term = LaurentPoly.lefschetz(a)
        for k in range(len(parts) - 1):
            for m in (x - y for x, y in zip(parts[k], parts[k + 1])):
                if m:
                    term = term * inverse[m]
        v = tuple(sum(p) for p in collection)
        coeffs[v] = coeffs.get(v, 0) + LaurentPoly({e: c for e, c in term.terms() if e < prec})
    return TruncatedSeries(coeffs, order, quiver.vertices)


def _q_pochhammer(n):
    """(q; q)_n = prod_{k=1}^{n} (1 - q^k), a LaurentPoly in the symbol q."""
    out = LaurentPoly.one()
    for k in range(1, n + 1):
        out = out * (1 - LaurentPoly.lefschetz(k))
    return out


def _partition_sum(quiver, w, order, prec):
    """The package's S(w, q, z) truncated at total z-degree ``order``, each
    z^v coefficient exact below q^prec: q^(-c.v) S'(w)_v, read off the
    chain table of the rescaled sums modulo q^(prec + order max_i c_i)."""
    c, _ = _rescale(quiver, w, order)
    sw, _ = _partition_sums(quiver, w, order, c, prec + order * max(c, default=0))
    out = {}
    for v, p in sw.items():
        cv = sum(a * b for a, b in zip(c, v))
        out[v] = LaurentPoly({e - cv: x for e, x in p.terms() if e - cv < prec})
    return TruncatedSeries(out, order, quiver.vertices)


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

    def test_record_semantics(self):
        q = Quiver(2, [[0, 1], [1, 1]])
        assert repr(q) == "Quiver(vertices=2, arrows=((0, 1), (1, 1)))"
        twin = Quiver(2, ((0, 1), (1, 1)))
        assert q == twin and hash(q) == hash(twin) and len({q, twin}) == 1
        assert q != Quiver(2, ((1, 0), (1, 1)))
        assert q == (2, ((0, 1), (1, 1)))  # a namedtuple equals its bare tuple
        for name in ("vertices", "arrows", "other"):
            with pytest.raises(AttributeError):
                setattr(q, name, 1)
        for copied in (copy.copy(q), copy.deepcopy(q),
                       *(pickle.loads(pickle.dumps(q, p))
                         for p in range(pickle.HIGHEST_PROTOCOL + 1))):
            assert type(copied) is Quiver and copied == q
        assert q._replace(arrows=[[1, 0]]) == Quiver(2, ((1, 0),))

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: JORDAN._replace(vertices=0), id="replace"),
        pytest.param(lambda: Quiver._make((0, ())), id="make"),
        # a pickle of an invalid record: tuple.__new__ skips the checks
        *(pytest.param(lambda p=p: pickle.loads(pickle.dumps(tuple.__new__(Quiver, (0, ())), p)),
                       id=f"unpickle-protocol-{p}")
          for p in range(pickle.HIGHEST_PROTOCOL + 1)),
    ])
    def test_every_constructor_validates(self, build):
        with pytest.raises(ValueError, match="^a quiver needs at least one vertex$"):
            build()


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

    @pytest.mark.parametrize("w", [(1,), (1, 1, 1)])
    def test_framing_size_mismatch(self, w):
        # zip would read a short or long framing without an error
        with pytest.raises(ValueError, match="^framing vector size does not match the quiver$"):
            nakajima_dim(A2_QUIVER, (1, 1), w)


class TestPochhammer:
    # polynomials in q are held as LaurentPoly in the symbol q
    def test_empty_product(self):
        assert _q_pochhammer(0) == LaurentPoly.one()

    def test_two(self):
        q = LaurentPoly.lefschetz()
        assert _q_pochhammer(2) == (1 - q) * (1 - q * q)

    def test_inverses_by_partition_counting(self):
        # each 1/(q; q)_m modulo q^prec: (q; q)_m times it is 1 below q^prec
        for prec in (1, 2, 7, 12):
            inverse = _inverse_pochhammers(5, prec)
            for m, inv in enumerate(inverse):
                assert inv.terms()[-1][0] < prec
                assert [t for t in (_q_pochhammer(m) * inv).terms() if t[0] < prec] == [(0, 1)]


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
            s = _partition_sum(JORDAN, w, 3, 4)
            assert type(s.coefficient(0)) is LaurentPoly
            assert s.coefficient(0) == LaurentPoly.one()

    def test_degree_one_unframed(self):
        s = _partition_sum(JORDAN, (0,), 3, 6)
        assert s.coefficient(1) == LaurentPoly({e: 1 for e in range(6)})

    def test_jordan_closed_form(self):
        # S(r, q, t) = Exp(q^{-r} t / ((1-q)(1-t))) for the one-loop quiver,
        # solved with t -> q^r t, whose argument q^(r(m-1)) t^m / (1-q) has
        # exponents >= 0, modulo q^prec; the t^n coefficient, shifted back by
        # q^(-rn), is then exact below q^(prec - rn)
        order, prec = 5, 12
        for r in (0, 1, 2):
            exact = prec - order * r
            lhs = _partition_sum(JORDAN, (r,), order, exact)
            arg = TruncatedSeries({(m,): LaurentPoly({e: 1 for e in range(r * (m - 1), prec)})
                                   for m in range(1, order + 1)}, order)
            h = _exp_exact(arg, stop=prec)
            rhs = TruncatedSeries(
                {(n,): LaurentPoly({e - r * n: c for e, c in
                                    LaurentPoly._coerce(h.coefficient(n)).terms()
                                    if e - r * n < exact})
                 for n in range(order + 1)}, order)
            assert lhs == rhs
            assert all(type(c) is LaurentPoly for _, c in lhs.coefficients())

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
                got = _partition_sum(quiver, framing, order, prec)
                expect = _enumerated_partition_sum(quiver, framing, order, prec)
                assert got == expect
                assert all(type(c) is LaurentPoly for _, c in got.coefficients())

    def test_two_vertex_quiver_runs(self):
        s = _partition_sum(A2_QUIVER, (1, 0), 2, 3)
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


    @pytest.mark.parametrize("m, n_max", [(2, 4), (3, 2), (4, 2)])
    def test_cycle_quiver_gives_hilbert_schemes_of_the_ale_space(self, m, n_max):
        # the oriented m-cycle framed at vertex 0 has M(n delta, e_0) =
        # Hilb^n(X), X the minimal resolution of C^2/Z_m with class
        # L^2 + (m - 1) L (Kuznetsov), so its z^(n, ..., n) coefficients
        # are the rank-1 Quot series of X from the paper's formula
        cycle = Quiver(m, [(i, (i + 1) % m) for i in range(m)])
        series = nakajima_motive_series(cycle, (1,) + (0,) * (m - 1), m * n_max)
        hilb = quot_series(L ** 2 + (m - 1) * L, 2, 1, n_max)
        for n in range(n_max + 1):
            assert series.coefficient((n,) * m) == hilb.coefficient(n)

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


class TestCheckReport:
    def test_record(self):
        assert str(CheckReport("heine", True, "order 4")) == "heine: pass (order 4)"
        assert str(CheckReport("heine", False)) == "heine: FAIL"
        assert CheckReport("x", True).detail == ""
        assert repr(CheckReport("x", True)) == "CheckReport(name='x', passed=True, detail='')"
        with pytest.raises(AttributeError):
            CheckReport("x", True).passed = False


def _sympy_motive_series(sp, quiver, w, order):
    """sum_v [M(v, w)] z^v from S(w)/S(0) computed in sympy's field Q(q):
    an exact reference that shares neither the package's division nor its modulus."""
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

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_quivers_match_field_computation(self, data):
        # up to 3 vertices and 4 arrows, loops and parallel arrows allowed
        sp = pytest.importorskip("sympy")
        n = data.draw(st.integers(1, 3), label="vertices")
        vertex = st.integers(0, n - 1)
        quiver = Quiver(n, data.draw(st.lists(st.tuples(vertex, vertex), max_size=4),
                                     label="arrows"))
        w = data.draw(st.tuples(*[st.integers(0, 2)] * n), label="framing")
        order = data.draw(st.integers(0, 3), label="order")
        expect = _sympy_motive_series(sp, quiver, w, order)
        got = nakajima_motive_series(quiver, w, order)
        assert {v: got.coefficient(v) for v in expect} == expect
        assert all(v in expect for v, _ in got.coefficients())


# Smooth and nilpotent series of 44 quivers (Jordan, several loops, the
# point, every two-vertex quiver with 1-4 distinct arrows, parallel
# arrows, A3, the 3- and 4-cycles), each hashed as the SHA-256 of
# json.dumps([smooth.to_json_obj(), nilpotent.to_json_obj()],
# sort_keys=True).  The digests were recorded from the partition sums of
# the Laurent-series design, before the rescale into Z[[q]], so a change
# to the quiver layer that moves any output bit fails here.
DIGEST_CASES = json.loads((pathlib.Path(__file__).parent / "quiver_digests.json").read_text())


class TestDigestGuard:
    @pytest.mark.parametrize("case", DIGEST_CASES, ids=[
        f"{c['vertices']}v-{'.'.join(f'{s}{t}' for s, t in c['arrows']) or 'none'}"
        f"-w{''.join(map(str, c['framing']))}-o{c['order']}" for c in DIGEST_CASES])
    def test_series_digest(self, case):
        quiver, w, order = Quiver(case["vertices"], case["arrows"]), case["framing"], case["order"]
        text = json.dumps([nakajima_motive_series(quiver, w, order).to_json_obj(),
                           nilpotent_motive_series(quiver, w, order).to_json_obj()],
                          sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == case["sha256"]
