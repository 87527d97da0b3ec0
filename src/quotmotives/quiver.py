"""Quivers, the Euler-Ringel form, and motive series of Nakajima varieties.

The generating function of motivic classes of Nakajima quiver varieties
attached to a quiver Q with framing vector w is computed from the
partition sum

    S(w, q, z) = sum_theta q^{-w.theta_1}
                 prod_{k>=1} q^{chi(theta_k, theta_k)}
                             z^{theta_k} / (q; q)_{theta_k - theta_{k+1}},

a z-series with coefficients in the Laurent series Z((q)), where theta
runs over collections of one integer partition per vertex, theta_k
collects the k-th parts, and (q; q)_v is the vertexwise q-Pochhammer
product.  With chi the Euler-Ringel form, the series of classes of the
smooth varieties is recovered from the ratio of two partition sums:

    sum_v L^{-dim/2} [M(v, w)] z^v = S(w, q, z) / S(0, q, z)  at q = L^{-1},

and the nilpotent (central-fiber) classes follow from the duality
[nilpotent]^dual = L^{-dim} [smooth].

Recursion.  A collection is the same as a chain theta_1 >= theta_2 >= ...
of nonzero part vectors, and its summand depends on the chain one
consecutive pair at a time.  So, with F(theta) the sum over the chains
that start at theta,

    F(theta) = q^{chi(theta, theta)} z^theta
               sum_{0 <= theta' <= theta} F(theta') / (q; q)_{theta - theta'},
    F(0) = 1,

where theta' = theta continues the chain with a repeated vector (so
F(theta) is a geometric series in q^{chi(theta, theta)} z^theta) and
theta' = 0 ends it.  The z^v coefficients of every F(theta) fill one
table in order of increasing |v|, and both sums come from it:
S(w) = 1 + sum_{theta != 0} q^{-w.theta} F(theta) and
S(0) = 1 + sum_{theta != 0} F(theta).  The ratio is one layered
division of power series in z.

Exactness.  The ratio is computed in Z((q)) modulo a tracked power of q
(:class:`QSeries`), at a precision derived from the inputs:

* R_v, the z^v coefficient of S(w)/S(0), equals q^(d/2) [M(v, w)](q^-1)
  with d = dim M(v, w) and deg [M(v, w)] <= d, so its exponents lie in
  [-d/2, d/2] and R_v modulo q^(d/2 + 1) is R_v itself.
* Each 1/(q; q)_m is an integer power series, computed modulo q^N with
  no division.  The table uses only sums, products with the exact
  monomials q^a (exponent maps, :meth:`QSeries.shift`, which give the
  product's coefficients and precision), and products with these
  factors, so each entry is known modulo q^(a + N) for a its lowest
  exponent; the division by S(0), whose constant term is exactly 1,
  carries the precision through to every R_v.
* Raising N by s raises every tracked precision by at least s, since
  the table and the division only add and multiply: a sum is known to
  the smaller precision, a product to min(v_a + N_b, v_b + N_a), and the
  lowest known exponent v cannot drop as more coefficients become
  known.

The ratio is built once, at the window N = 1 + max(0, max_v (d_v + 1))
over the vectors 0 < |v| <= order, read off the inputs alone.  If some
R_v is then known only modulo q^(p_v) with p_v < d_v/2 + 2, the
shortfall s = max_v (d_v/2 + 2 - p_v) is positive and the ratio is
built once more, at N + s; by the point above that makes every R_v
known modulo q^(d/2 + 2), one degree more than determines it.  The
window only decides whether one pass suffices; exactness rests on the
check that follows.

Each R_v is checked: it is known modulo q^(d/2 + 2), no known
exponent lies outside [-d/2, d/2] (so the spare coefficient is zero),
and its motive is effective.  A failure raises AssertionError
explicitly, which survives ``python -O``.
"""

import itertools
import math
from collections import namedtuple

from .rings import LaurentPoly, QSeries
from .report import CheckReport
from .series import TruncatedSeries
from .plethystic import _exp_exact


class Quiver(namedtuple("Quiver", "vertices arrows")):
    """Finite directed multigraph; loops and parallel arrows are allowed.

    ``vertices`` must be an int >= 1 and ``arrows`` a list or tuple of
    (source, target) pairs of vertex indices, given as ints; anything else
    raises ValueError, also from ``_make``, ``_replace``, copy and pickle."""

    __slots__ = ()

    def __new__(cls, vertices: int, arrows):
        if type(vertices) is not int:  # not a float or a bool
            raise ValueError(f"quiver vertex count must be an integer, got {vertices!r}")
        if not isinstance(arrows, (list, tuple)) or not all(
                isinstance(a, (list, tuple)) and len(a) == 2
                and all(type(x) is int for x in a) for a in arrows):
            raise ValueError(f"quiver arrows must be [source, target] integer pairs, "
                             f"got {arrows!r}")
        if vertices < 1:
            raise ValueError("a quiver needs at least one vertex")
        arrows = tuple(map(tuple, arrows))
        for s, t in arrows:
            if not (0 <= s < vertices and 0 <= t < vertices):
                raise ValueError(f"arrow ({s}, {t}) out of range")
        return super().__new__(cls, vertices, arrows)

    @classmethod
    def _make(cls, iterable):  # namedtuple's skips __new__, and _replace calls it
        return cls(*iterable)

    def __reduce__(self):  # pickle protocols 0 and 1 would skip __new__ too
        return type(self), tuple(self)

    @classmethod
    def jordan(cls) -> "Quiver":
        """One vertex with a single loop."""
        return cls(1, ((0, 0),))

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Quiver":
        """The quiver of {"vertices": int, "arrows": [[int, int], ...]};
        anything else raises ValueError."""
        if not isinstance(obj, dict) or not {"vertices", "arrows"} <= obj.keys():
            raise ValueError('quiver must be an object with "vertices" and "arrows"')
        return cls(obj["vertices"], obj["arrows"])

    def to_json_obj(self) -> dict:
        return {"vertices": self.vertices, "arrows": [list(a) for a in self.arrows]}


def euler_form(quiver: Quiver, v, w) -> int:
    """Euler-Ringel form: sum_i v_i w_i - sum_{arrows i->j} v_i w_j."""
    if len(v) != quiver.vertices or len(w) != quiver.vertices:
        raise ValueError("dimension vector size does not match the quiver")
    out = sum(vi * wi for vi, wi in zip(v, w))
    for s, t in quiver.arrows:
        out -= v[s] * w[t]
    return out


def nakajima_dim(quiver: Quiver, v, w) -> int:
    """Dimension 2(v.w - chi(v, v)) of the smooth variety M(v, w); always even."""
    if len(w) != quiver.vertices:
        raise ValueError("framing vector size does not match the quiver")
    return 2 * (sum(a * b for a, b in zip(v, w)) - euler_form(quiver, v, v))


# ---------------------------------------------------------------------------
# q-Pochhammer symbols
# ---------------------------------------------------------------------------

def q_pochhammer(n: int) -> LaurentPoly:
    """(q; q)_n = prod_{k=1}^{n} (1 - q^k), a polynomial in q held as a
    LaurentPoly in the symbol q."""
    if n < 0:
        raise ValueError("Pochhammer index must be >= 0")
    out = LaurentPoly.one()
    for k in range(1, n + 1):
        out = out * (1 - LaurentPoly.lefschetz(k))
    return out


def _inverse_q_pochhammers(m_max: int, prec: int) -> list:
    """[1/(q; q)_m for m = 0..m_max], each modulo q^prec.  1/(q; q)_m counts
    partitions into parts <= m, so one counting sweep gives them all."""
    counts = [1] + [0] * (prec - 1)
    out = [QSeries(LaurentPoly(dict(enumerate(counts))), prec)]
    for part in range(1, m_max + 1):
        for n in range(part, prec):
            counts[n] += counts[n - part]
        out.append(QSeries(LaurentPoly(dict(enumerate(counts))), prec))
    return out


# ---------------------------------------------------------------------------
# Partitions and partition sums
# ---------------------------------------------------------------------------

def partitions_of(n: int, max_part: int | None = None):
    """All partitions of n (weakly decreasing tuples of positive parts)."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def _vectors(quiver: Quiver, order: int) -> list:
    """The dimension vectors v with 0 < |v| <= order, by increasing |v|."""
    return sorted((v for v in itertools.product(range(order + 1), repeat=quiver.vertices)
                   if 0 < sum(v) <= order), key=sum)


def _chain_table(quiver: Quiver, order: int, prec: int) -> dict:
    """{v: {theta: z^v coefficient of F(theta)}} for 0 < |v| <= order.

    F(theta) sums the chains theta = theta_1 >= theta_2 >= ... > 0 of part
    vectors; the recursion of the module docstring fills the table in
    order of increasing |v|.  Each 1/(q; q)_m is taken modulo q^prec.
    An entry is one kernel call: its pairs (F(theta'), 1/(q; q)_(theta -
    theta')), with (F(theta), 1) for theta' = theta, go to
    :meth:`QSeries.sum_of_products` together, whose precision is the
    least of the pairs' product precisions, as for the sum of the
    separate products; the sum is then shifted by q^chi(theta, theta).
    """
    inverse = _inverse_q_pochhammers(order, prec)
    one = QSeries.one()
    factors = {}  # d -> prod_i 1/(q; q)_{d_i}, for d != 0

    def factor(d):
        f = factors.get(d)
        if f is None:
            f = QSeries.one()
            for m in d:
                if m:
                    f = f * inverse[m]
            factors[d] = f
        return f

    table = {}
    for v in _vectors(quiver, order):
        row = {}
        for theta in itertools.product(*(range(x + 1) for x in v)):
            if not any(theta):
                continue
            u = tuple(a - b for a, b in zip(v, theta))
            if any(u):
                # the chain goes on with theta' <= theta; theta' = theta needs no factor
                pairs = [(g, one if prev == theta
                          else factor(tuple(a - b for a, b in zip(theta, prev))))
                         for prev, g in table[u].items()
                         if all(a <= b for a, b in zip(prev, theta))]
                if not pairs:
                    continue
                acc = QSeries.sum_of_products(pairs)
            else:
                acc = factor(theta)
            row[theta] = acc.shift(euler_form(quiver, theta, theta))
        table[v] = row
    return table


def _partition_sums(quiver: Quiver, framings, order: int, prec: int) -> list:
    """[S(w, q, z) for w in framings], all from one chain table.

    The z^v coefficient of S(w) adds up q^(-w.theta) F(theta) over the
    row of v in one pass: each term q^e of F(theta) goes to the exponent
    e + a, a = -w.theta, of one dict, and the precision is the least
    F(theta).prec + a, what shifting and adding the QSeries would track.
    """
    if any(len(w) != quiver.vertices for w in framings):
        raise ValueError("framing vector size does not match the quiver")
    for w in framings:
        if min(w, default=0) < 0:
            raise ValueError(f"framing vector entries must be >= 0, got {tuple(w)}")
    table = _chain_table(quiver, order, prec)
    out = []
    for w in framings:
        coeffs = {(0,) * quiver.vertices: QSeries.one()}
        for v, row in table.items():
            # q^(-w.theta) F(theta) summed term by term into one dict
            terms, known = {}, math.inf
            for theta, g in row.items():
                a = -sum(x * y for x, y in zip(w, theta))
                if g.prec + a < known:
                    known = g.prec + a
                for e, c in g.known._terms.items():
                    terms[e + a] = terms.get(e + a, 0) + c
            coeffs[v] = QSeries(LaurentPoly(terms), known)
        out.append(TruncatedSeries(coeffs, order, quiver.vertices))
    return out


def nakajima_partition_sum(quiver: Quiver, w, order: int, prec: int) -> TruncatedSeries:
    """The partition sum S(w, q, z) truncated at total z-degree `order`.

    The z^v coefficient is a QSeries in q; v records the partition sizes
    per vertex.  Each factor 1/(q; q)_m is taken modulo q^prec, so the
    z^v coefficient is known modulo q^(a + prec), a the lowest exponent
    of q in it.
    """
    return _partition_sums(quiver, [w], order, prec)[0]


def _ratio(quiver: Quiver, w, order: int, prec: int) -> TruncatedSeries:
    """S(w)/S(0), every factor 1/(q; q)_m taken modulo q^prec."""
    sw, s0 = _partition_sums(quiver, [w, (0,) * len(w)], order, prec)
    return sw / s0


def _window(quiver: Quiver, w, order: int) -> int:
    """The window of the module docstring, from the inputs alone."""
    return 1 + max(0, max((nakajima_dim(quiver, v, w) + 1 for v in _vectors(quiver, order)),
                          default=0))


def nakajima_motive_series(quiver: Quiver, w, order: int) -> TruncatedSeries:
    """Series sum_v [M(v, w)] z^v of motives of the smooth quiver varieties.

    The z^v coefficient R_v of S(w)/S(0) is computed at the window of the
    module docstring, once more at the window plus the shortfall if that
    leaves some R_v short, checked as described there, and cleared to
    [M(v, w)] = L^{d/2} R_v(L^{-1}), d = dim M(v, w).
    """
    prec = _window(quiver, w, order)
    ratio = _ratio(quiver, w, order, prec)
    short = max((nakajima_dim(quiver, v, w) // 2 + 2 - c.prec
                 for v, c in ratio._coeffs.items()), default=0)
    if short > 0:
        ratio = _ratio(quiver, w, order, prec + short)
    out = {}
    for v, c in ratio._coeffs.items():
        half = nakajima_dim(quiver, v, w) // 2
        terms = c.terms()
        if c.prec < half + 2 or terms and (terms[0][0] < -half or terms[-1][0] > half):
            raise AssertionError(f"z^{v} coefficient of S(w)/S(0) is not known modulo "
                                 f"q^{half + 2} with exponents in [{-half}, {half}]: {c!r}")
        motive = LaurentPoly({half - e: a for e, a in terms})
        if not motive.is_effective:
            raise AssertionError(
                f"motive of M({v}, {tuple(w)}) is not an effective polynomial: {motive}")
        out[v] = motive
    return TruncatedSeries(out, order, quiver.vertices)


def nilpotent_motive_series(quiver: Quiver, w, order: int) -> TruncatedSeries:
    """Series of classes of the projective central fibers:
    the z^v coefficient is dual(L^{-dim} [M(v, w)])."""
    smooth = nakajima_motive_series(quiver, w, order)
    out = {}
    for v, c in smooth._coeffs.items():
        d = nakajima_dim(quiver, v, w)
        cls = (c * LaurentPoly.lefschetz(-d)).dual()
        if cls and cls.min_exp() < 0:
            raise AssertionError(f"nilpotent class at {v} has negative exponents: {cls}")
        out[v] = cls
    return TruncatedSeries(out, order, quiver.vertices)


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------

def verify_heine(order: int) -> CheckReport:
    """Heine / q-binomial identity: sum_n t^n/(q;q)_n = Exp(t/(1-q)).

    Both sides are compared modulo q^P, P = order (order + 1)/2 + 1: the
    left as the known parts of 1/(q; q)_n, the right as the Exp of the
    known part of t/(1-q), solved modulo q^P by
    :func:`~quotmotives.plethystic._exp_exact`.  Agreeing there proves
    the identity up to t^order: multiplied by the unit (q; q)_n of
    Z[[q]], the t^n coefficients become 1 and
    H_n = (q; q)_n [t^n] Exp(t/(1-q)), a polynomial of degree < P.  For the
    degree, the Euler recurrence n h_n = sum_{d=1..n} h_{n-d}/(1-q^d) gives

        n H_n = sum_{d=1..n} [prod_{j=n-d+1..n} (1-q^j) / (1-q^d)] H_{n-d},

    where exactly one of the d consecutive j is a multiple of d, so 1-q^d
    divides the product and the bracket is a polynomial of degree
    dn - d(d-1)/2 - d.  By induction from H_0 = 1 the terms have degree
    at most n(n+1)/2 - d - 1, or n(n-1)/2 for d = n, so
    deg H_n <= n(n+1)/2 - 1 < P.
    """
    if order == 0:
        # both sides are 1 + O(t); there is no t^1 coefficient to read 1/(1-q) from
        return CheckReport("heine", True, "order 0")
    prec = order * (order + 1) // 2 + 1
    inverse = [c.known for c in _inverse_q_pochhammers(order, prec)]
    lhs = TruncatedSeries({(n,): c for n, c in enumerate(inverse)}, order)
    rhs = _exp_exact(TruncatedSeries.variable(order, coeff=inverse[1]), stop=prec)
    return CheckReport.compare("heine", lhs, rhs, f"order {order}")
