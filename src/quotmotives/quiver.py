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

Exactness.  Substituting z^v -> q^(c.v) z^v, with c = w + k(1, ..., 1)
and k = max(0, max over 0 < |theta| <= order of ceil(-chi(theta, theta)
/ |theta|)), is a ring automorphism of the z-series, so it maps the
ratio's coefficient R_v to R'_v = q^(c.v) R_v.  Every exponent becomes
>= 0:

* F'(theta), the rescaled F(theta), carries q^(chi(theta, theta) +
  c.theta), and chi(theta, theta) + c.theta >= chi(theta, theta) +
  k|theta| >= 0 since w >= 0; each 1/(q; q)_m is an integer power
  series.  So the table and S'(0) = 1 + sum_theta F'(theta) lie in
  Z[[q]][[z]].  In S'(w) the first part's q^(-w.theta) cancels against
  c.theta, leaving q^(chi(theta, theta) + k|theta|), again with an
  exponent >= 0.
* R_v equals q^(d/2) [M(v, w)](q^-1) with d = dim M(v, w) = 2(w.v -
  chi(v, v)) and deg [M(v, w)] <= d, so the exponents of R'_v lie in
  [c.v - d/2, c.v + d/2], and c.v - d/2 = k|v| + chi(v, v) >= 0.

Reduction modulo q^N is then a ring map from Z[[q]], and S'(0) has the
constant term 1, so the whole ratio runs modulo one power q^N, read off
the inputs: N = 2 + max_v (c.v + d_v/2) over 0 < |v| <= order gives
every R'_v exactly, with one spare exponent, in one pass.  Each table
entry's sum is shifted up twice, by chi(theta, theta) + c.theta for the
table and S'(0) and by chi(theta, theta) + k|theta| for S'(w); shifting
the table's entry down by w.theta instead would lose the top w.theta
exponents below q^N.  The division is the layered solve of
:class:`~quotmotives.series.TruncatedSeries` on the LaurentPoly sums,
with every coefficient cut below q^N.

Each R'_v is checked: N >= c.v + d/2 + 2, no exponent lies outside
[c.v - d/2, c.v + d/2] (so the spare coefficient is zero), and its
motive is effective.  A failure raises AssertionError explicitly, which
survives ``python -O``.
"""

import itertools
from collections import namedtuple

from .rings import LaurentPoly, _packed_sum
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

def _inverse_pochhammers(m_max: int, prec: int) -> list:
    """[1/(q; q)_m for m = 0..m_max], each modulo q^prec (prec >= 1) as a
    LaurentPoly in q.  1/(q; q)_m counts partitions into parts <= m, so
    one counting sweep gives them all."""
    counts = [1] + [0] * (prec - 1)
    out = [LaurentPoly(dict(enumerate(counts)))]
    for part in range(1, m_max + 1):
        for n in range(part, prec):
            counts[n] += counts[n - part]
        out.append(LaurentPoly(dict(enumerate(counts))))
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


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _rescale(quiver: Quiver, w, order: int) -> tuple:
    """(c, N) of the module docstring, read off the inputs alone."""
    vectors = _vectors(quiver, order)
    k = max([0] + [-(euler_form(quiver, v, v) // sum(v)) for v in vectors])
    c = tuple(x + k for x in w)
    return c, 2 + max([0] + [_dot(c, v) + nakajima_dim(quiver, v, w) // 2 for v in vectors])


def _partition_sums(quiver: Quiver, w, order: int, c, prec: int) -> tuple:
    """({v: S'(w)_v}, {v: S'(0)_v}) for 0 <= |v| <= order, each a
    LaurentPoly in q modulo q^prec: the partition sums rescaled by
    z^v -> q^(c.v) z^v (module docstring), from one chain table.

    The table holds the z^v coefficient of every F'(theta); the
    recursion fills it in order of increasing |v|.  An entry is one
    kernel call, :func:`~quotmotives.rings._packed_sum` decoded below
    q^prec, on the pairs (F'(theta'), 1/(q; q)_(theta - theta')), with
    (F'(theta), 1) for theta' = theta.  Its sum goes to S'(0) and the
    table shifted by chi(theta, theta) + c.theta, and to S'(w) shifted
    by chi(theta, theta) + k|theta|, each cut below q^prec.
    """
    if len(w) != quiver.vertices:
        raise ValueError("framing vector size does not match the quiver")
    if min(w, default=0) < 0:
        raise ValueError(f"framing vector entries must be >= 0, got {tuple(w)}")
    inverse = _inverse_pochhammers(order, prec)
    one = LaurentPoly.one()
    factors = {}  # d -> prod_i 1/(q; q)_{d_i}, for d != 0

    def factor(d):
        f = factors.get(d)
        if f is None:
            f = one
            for m in d:
                if m:
                    f = _packed_sum([(f, inverse[m])], prec)
            factors[d] = f
        return f

    zero = (0,) * quiver.vertices
    sw, s0 = {zero: one}, {zero: one}
    table = {}
    for v in _vectors(quiver, order):
        row, tw, t0 = {}, {}, {}
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
                g = _packed_sum(pairs, prec)
            else:
                g = factor(theta)
            chi = euler_form(quiver, theta, theta)
            a0 = chi + _dot(c, theta)
            aw = a0 - _dot(w, theta)
            entry = {}
            for e, x in g._terms.items():
                if e + a0 < prec:
                    entry[e + a0] = x
                    t0[e + a0] = t0.get(e + a0, 0) + x
                if e + aw < prec:
                    tw[e + aw] = tw.get(e + aw, 0) + x
            row[theta] = LaurentPoly(entry)
        table[v] = row
        sw[v], s0[v] = LaurentPoly(tw), LaurentPoly(t0)
    return sw, s0


def nakajima_motive_series(quiver: Quiver, w, order: int) -> TruncatedSeries:
    """Series sum_v [M(v, w)] z^v of motives of the smooth quiver varieties.

    The z^v coefficient R'_v of the rescaled ratio S'(w)/S'(0) is computed
    modulo the q^N of the module docstring in one pass, checked as
    described there, and cleared to [M(v, w)] = L^(d/2) R_v(L^-1) with
    R_v = q^(-c.v) R'_v and d = dim M(v, w).
    """
    c, prec = _rescale(quiver, w, order)
    sw, s0 = _partition_sums(quiver, w, order, c, prec)
    ratio = TruncatedSeries(sw, order, quiver.vertices)._divide(
        TruncatedSeries(s0, order, quiver.vertices), prec)
    out = {}
    for v in sw:  # every v, also one whose R'_v is zero and so not stored
        r = ratio.coefficient(v)
        cv, half = _dot(c, v), nakajima_dim(quiver, v, w) // 2
        terms = r.terms() if r else []
        if prec < cv + half + 2 or terms and (terms[0][0] < cv - half
                                              or terms[-1][0] > cv + half):
            raise AssertionError(
                f"z^{v} coefficient of the rescaled S(w)/S(0) is not known modulo "
                f"q^{cv + half + 2} with exponents in [{cv - half}, {cv + half}]: "
                f"{r!r} modulo q^{prec}")
        motive = LaurentPoly({cv + half - e: a for e, a in terms})
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
    inverse = _inverse_pochhammers(order, prec)
    lhs = TruncatedSeries({(n,): c for n, c in enumerate(inverse)}, order)
    rhs = _exp_exact(TruncatedSeries.variable(order, coeff=inverse[1]), stop=prec)
    return CheckReport.compare("heine", lhs, rhs, f"order {order}")
