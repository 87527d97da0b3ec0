"""Quivers, the Euler-Ringel form, and motive series of Nakajima varieties.

The generating function of motivic classes of Nakajima quiver varieties
attached to a quiver Q with framing vector w is computed from the
partition sum

    S(w, q, z) = sum_theta q^{-w.theta_1}
                 prod_{k>=1} q^{chi(theta_k, theta_k)}
                             z^{theta_k} / (q; q)_{theta_k - theta_{k+1}},

a z-series with rational-function coefficients in q, where theta runs
over collections of one integer partition per vertex, theta_k collects
the k-th parts, and (q; q)_v is the vertexwise q-Pochhammer product.
With chi the Euler-Ringel form, the series of classes of the smooth
varieties is recovered from the ratio of two partition sums:

    sum_v L^{-dim/2} [M(v, w)] z^v = S(w, q, z) / S(0, q, z)  at q = L^{-1},

and the nilpotent (central-fiber) classes follow from the duality
[nilpotent]^dual = L^{-dim} [smooth].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .rings import LaurentPoly, RationalFn
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

@lru_cache(maxsize=None)
def q_pochhammer(n: int) -> RationalFn:
    """(q; q)_n = prod_{k=1}^{n} (1 - q^k), a polynomial in q."""
    if n < 0:
        raise ValueError("Pochhammer index must be >= 0")
    if n == 0:
        return RationalFn.one()
    return q_pochhammer(n - 1) * (RationalFn.one() - RationalFn.q_power(n))


def t_pochhammer(n: int, order: int) -> TruncatedSeries:
    """(t; q)_n = prod_{k=0}^{n-1} (1 - t q^k), as a t-series over RationalFn."""
    if n < 0:
        raise ValueError("Pochhammer index must be >= 0")
    out = TruncatedSeries.constant(RationalFn.one(), order)
    for k in range(n):
        out = out * (TruncatedSeries.constant(RationalFn.one(), order)
                     - TruncatedSeries.variable(order, coeff=RationalFn.q_power(k)))
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


def nakajima_partition_sum(quiver: Quiver, w, order: int) -> TruncatedSeries:
    """The partition sum S(w, q, z) truncated at total z-degree `order`.

    The z^v coefficient is a RationalFn in q; v records the partition
    sizes per vertex.
    """
    if len(w) != quiver.vertices:
        raise ValueError("framing vector size does not match the quiver")
    coeffs = {}
    for theta in partition_collections(quiver.vertices, order):
        depth = max((len(p) for p in theta), default=0)
        term = RationalFn.q_power(-sum(wi * ti for wi, ti in
                                       zip(w, _part_vector(theta, 1))))
        for k in range(1, depth + 1):
            tk = _part_vector(theta, k)
            tk1 = _part_vector(theta, k + 1)
            term = term * RationalFn.q_power(euler_form(quiver, tk, tk))
            for mi in (a - b for a, b in zip(tk, tk1)):
                term = term / q_pochhammer(mi)
        v = tuple(sum(p) for p in theta)
        coeffs[v] = coeffs.get(v, RationalFn.zero()) + term
    return TruncatedSeries(coeffs, order, quiver.vertices)


def nakajima_motive_series(quiver: Quiver, w, order: int) -> TruncatedSeries:
    """Series sum_v [M(v, w)] z^v of motives of the smooth quiver varieties.

    Computed as the ratio S(w)/S(0) over RationalFn, then cleared to
    Laurent polynomials: the z^v coefficient of the ratio, with q read
    as L^{-1} and multiplied by L^{dim/2}, must come out a polynomial in
    L with non-negative coefficients (asserted).
    """
    ratio = (nakajima_partition_sum(quiver, w, order)
             * nakajima_partition_sum(quiver, tuple(0 for _ in w), order).invert())
    out = {}
    for v, c in ratio._coeffs.items():
        d = nakajima_dim(quiver, v, w)
        motive = (c.subst_recip() * RationalFn.q_power(d // 2)).to_laurent()
        if motive and (motive.min_exp() < 0 or not motive.is_effective):
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
    """Heine / q-binomial identity: sum_n t^n/(q;q)_n = Exp(t/(1-q))."""
    lhs = TruncatedSeries(
        {(n,): q_pochhammer(n).reciprocal() for n in range(order + 1)}, order)
    arg = TruncatedSeries.variable(
        order, coeff=(RationalFn.one() - RationalFn.q_power(1)).reciprocal())
    rhs = exp_pleth(arg)
    ok = lhs == rhs
    detail = f"order {order}" if ok else f"first difference at {lhs.first_difference(rhs)}"
    return CheckReport("heine", ok, detail)
