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

Exactness.  The ratio is computed in Z((q)) modulo a tracked power of q
(:class:`QSeries`), at a precision derived from the inputs:

* R_v, the z^v coefficient of S(w)/S(0), equals q^(d/2) [M(v, w)](q^-1)
  with d = dim M(v, w) and deg [M(v, w)] <= d, so its exponents lie in
  [-d/2, d/2] and R_v modulo q^(d/2 + 1) is R_v itself.
* Each 1/(q; q)_m is an integer power series, computed modulo q^N with
  no division, so a term q^a prod 1/(q; q)_m is known modulo q^(a + N);
  sums, products and the inversion of S(0), whose constant term is
  exactly 1, carry the precision through to every R_v.
* Raising N by s raises every tracked precision by at least s: a sum is
  known to the smaller precision, a product to min(v_a + N_b, v_b + N_a),
  and the lowest known exponent v cannot drop as more coefficients
  become known.  So a pass at N = 1 reports the precision p_v of each
  R_v, and the window N = 1 + max(0, max_v (d_v/2 + 2 - p_v)) makes every
  R_v known modulo q^(d/2 + 2), one degree more than determines it.

Each R_v is then checked: it is known modulo q^(d/2 + 2), no known
exponent lies outside [-d/2, d/2] (so the spare coefficient is zero),
and its motive is effective.  A failure raises AssertionError
explicitly, which survives ``python -O``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .rings import LaurentPoly, QSeries
from .report import CheckReport
from .series import TruncatedSeries
from .plethystic import exp_pleth


@dataclass(frozen=True)
class Quiver:
    """Finite directed multigraph; loops and parallel arrows are allowed."""

    vertices: int
    arrows: tuple

    def __post_init__(self):
        if self.vertices < 1:
            raise ValueError("a quiver needs at least one vertex")
        object.__setattr__(self, "arrows", tuple((int(s), int(t)) for s, t in self.arrows))
        for s, t in self.arrows:
            if not (0 <= s < self.vertices and 0 <= t < self.vertices):
                raise ValueError(f"arrow ({s}, {t}) out of range")

    @classmethod
    def jordan(cls) -> "Quiver":
        """One vertex with a single loop."""
        return cls(1, ((0, 0),))

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Quiver":
        return cls(int(obj["vertices"]), tuple((s, t) for s, t in obj["arrows"]))

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
# Partition collections
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


def partition_collections(vertices: int, max_total: int):
    """All tuples of one partition per vertex with total size <= max_total."""
    def rec(i, budget):
        if i == vertices:
            yield ()
            return
        for size in range(budget + 1):
            for p in partitions_of(size):
                for rest in rec(i + 1, budget - size):
                    yield (p,) + rest

    return rec(0, max_total)


def _part_vector(collection, k: int):
    """theta_k: the vector of k-th parts (1-indexed; zero beyond the length)."""
    return tuple(p[k - 1] if k <= len(p) else 0 for p in collection)


def nakajima_partition_sum(quiver: Quiver, w, order: int, prec: int) -> TruncatedSeries:
    """The partition sum S(w, q, z) truncated at total z-degree `order`.

    The z^v coefficient is a QSeries in q; v records the partition sizes
    per vertex.  Each factor 1/(q; q)_m is taken modulo q^prec, so the
    term q^a prod 1/(q; q)_m of a collection is known modulo q^(a + prec).
    """
    if len(w) != quiver.vertices:
        raise ValueError("framing vector size does not match the quiver")
    inverse = _inverse_q_pochhammers(order, prec)
    coeffs = {}
    for theta in partition_collections(quiver.vertices, order):
        depth = max((len(p) for p in theta), default=0)
        a = -sum(wi * ti for wi, ti in zip(w, _part_vector(theta, 1)))
        term = QSeries.one()
        for k in range(1, depth + 1):
            tk = _part_vector(theta, k)
            tk1 = _part_vector(theta, k + 1)
            a += euler_form(quiver, tk, tk)
            for mi in (x - y for x, y in zip(tk, tk1)):
                if mi:
                    term = term * inverse[mi]
        v = tuple(sum(p) for p in theta)
        coeffs[v] = coeffs.get(v, 0) + QSeries(LaurentPoly.lefschetz(a), math.inf) * term
    return TruncatedSeries(coeffs, order, quiver.vertices)


def _ratio(quiver: Quiver, w, order: int, prec: int) -> TruncatedSeries:
    """S(w)/S(0), every factor 1/(q; q)_m taken modulo q^prec."""
    return (nakajima_partition_sum(quiver, w, order, prec)
            * nakajima_partition_sum(quiver, tuple(0 for _ in w), order, prec).invert())


def _window(quiver: Quiver, w, order: int) -> int:
    """The window of the module docstring, from a pass at precision 1."""
    rough = _ratio(quiver, w, order, 1)
    short = max((nakajima_dim(quiver, v, w) // 2 + 2 - c.prec
                 for v, c in rough._coeffs.items()), default=0)
    return 1 + max(0, short)


def nakajima_motive_series(quiver: Quiver, w, order: int) -> TruncatedSeries:
    """Series sum_v [M(v, w)] z^v of motives of the smooth quiver varieties.

    The z^v coefficient R_v of S(w)/S(0) is computed at the window of the
    module docstring, checked as described there, and cleared to
    [M(v, w)] = L^{d/2} R_v(L^{-1}), d = dim M(v, w).
    """
    ratio = _ratio(quiver, w, order, _window(quiver, w, order))
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

    Both sides run in Z((q)) modulo q^P, P = order (order + 1)/2 + 1, and
    agreeing there proves the identity up to t^order: multiplied by the
    unit (q; q)_n of Z[[q]], the t^n coefficients become 1 and
    H_n = (q; q)_n [t^n] Exp(t/(1-q)), a polynomial of degree < P.  For the
    degree, the Euler recurrence n h_n = sum_{d=1..n} h_{n-d}/(1-q^d) gives

        n H_n = sum_{d=1..n} [prod_{j=n-d+1..n} (1-q^j) / (1-q^d)] H_{n-d},

    where exactly one of the d consecutive j is a multiple of d, so 1-q^d
    divides the product and the bracket is a polynomial of degree
    dn - d(d-1)/2 - d.  By induction from H_0 = 1 the terms have degree
    at most n(n+1)/2 - d - 1, or n(n-1)/2 for d = n, so
    deg H_n <= n(n+1)/2 - 1 < P.
    """
    prec = order * (order + 1) // 2 + 1
    inverse = _inverse_q_pochhammers(order, prec)
    lhs = TruncatedSeries({(n,): inverse[n] for n in range(order + 1)}, order)
    rhs = exp_pleth(TruncatedSeries.variable(order, coeff=inverse[1]))
    short = [m for m, c in rhs.coefficients() if c.prec < prec]
    if short:
        raise AssertionError(f"Exp(t/(1-q)) is known below q^{prec} at {short}")
    ok = lhs == rhs
    detail = f"order {order}" if ok else f"first difference at {lhs.first_difference(rhs)}"
    return CheckReport("heine", ok, detail)
