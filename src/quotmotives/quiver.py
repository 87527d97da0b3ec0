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
S(0) = 1 + sum_{theta != 0} F(theta).  The table runs on packed ints
modulo q^N (below): an entry, each factor prod_i 1/(q; q)_(d_i) and the
running z^v coefficients of both sums are each one int with a w-bit slot
per power of q, as in the kernel of :mod:`quotmotives.rings`, and an
entry that is zero modulo q^N is not stored.  The ratio is one layered
division of power series in z on the same packs: the z^v coefficient of
S(w)/S(0) is that of S(w) minus the products of the S(0) and ratio
coefficients of lower degree that reach z^v, one int sum per v.

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
table and S'(0) and by chi(theta, theta) + k|theta| for S'(w), each a
shift of the packed int cut below q^N by one mask; shifting the table's
entry down by w.theta instead would lose the top w.theta exponents
below q^N.  Since both shifts are >= 0 and the factors lie in Z[[q]],
an entry that is zero modulo q^N adds nothing modulo q^N to any later
entry or sum, so the table drops it, and a theta whose S'(w) shift
already reaches N is skipped.  Both shifts are checked to be >= 0 by an
explicit AssertionError.  S'(0)_v and S'(w)_v stay packs, and the
division runs on them (:func:`_packed_ratio`): each R'_v is one int sum
of packed products cut below q^N by one mask, at a slot width checked
against a bound on its coefficients, and decoded once for the checks.

Each R'_v is checked: N >= c.v + d/2 + 2, no exponent lies outside
[c.v - d/2, c.v + d/2] (so the spare coefficient is zero), and its
motive is effective.  A failure raises AssertionError explicitly, which
survives ``python -O``.
"""

from collections import namedtuple
from operator import add

from .rings import LaurentPoly, _bias, _decode, _rewiden, _slot_width
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

def _partition_counts(m_max: int, prec: int) -> list:
    """[the digits of 1/(q; q)_m modulo q^prec for m = 0..m_max], each a
    list of prec >= 1 ints.  1/(q; q)_m counts partitions into parts <= m,
    so one counting sweep gives them all."""
    counts = [1] + [0] * (prec - 1)
    out = [counts[:]]
    for part in range(1, m_max + 1):
        for n in range(part, prec):
            counts[n] += counts[n - part]
        out.append(counts[:])
    return out


def _inverse_pochhammers(m_max: int, prec: int) -> list:
    """[1/(q; q)_m for m = 0..m_max], each modulo q^prec (prec >= 1) as a
    LaurentPoly in q (:func:`_partition_counts`)."""
    return [LaurentPoly(dict(enumerate(c))) for c in _partition_counts(m_max, prec)]


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
    """The dimension vectors v with 0 < |v| <= order, by increasing |v|
    and, within one |v|, in the order of itertools.product: built degree
    by degree, a first entry before the vectors of the rest."""
    by_sum = [[(n,)] for n in range(order + 1)]  # by_sum[n]: vectors of sum n
    for _ in range(quiver.vertices - 1):
        by_sum = [[(first,) + rest for first in range(n + 1) for rest in by_sum[n - first]]
                  for n in range(order + 1)]
    return [v for n in range(1, order + 1) for v in by_sum[n]]


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _rescale(quiver: Quiver, w, order: int) -> tuple:
    """(c, N) of the module docstring, read off the inputs alone, with
    chi(v, v) evaluated once per vector."""
    vectors = _vectors(quiver, order)
    chis = [euler_form(quiver, v, v) for v in vectors]
    k = max([0] + [-(chi // sum(v)) for v, chi in zip(vectors, chis)])
    c = tuple(x + k for x in w)
    # c.v + d/2 with d/2 = w.v - chi(v, v)
    return c, 2 + max([0] + [_dot(c, v) + _dot(w, v) - chi for v, chi in zip(vectors, chis)])


def _pack(digits, w: int) -> int:
    """sum_i d_i 2^(w i) of signed digits |d_i| < 2^(w-1), by one
    int.from_bytes: biased by 2^(w-1), each digit fills its slot."""
    half = 1 << (w - 1)
    data = b"".join([(d + half).to_bytes(w >> 3, "little") for d in digits])
    return int.from_bytes(data, "little") - _bias(w, len(digits))


def _width(bound: int) -> int:
    """The kernel's slot width for the digit bound ``bound``, checked
    explicitly (it survives ``python -O``)."""
    w = _slot_width(bound)
    if bound >> (w - 1):
        raise AssertionError(f"slot width {w} does not hold the bound {bound}")
    return w


def _cut(x: int, w: int, slots: int) -> int:
    """The int of the signed w-bit digits of x below slot ``slots`` (0 if
    slots <= 0), by the centred cut of plethystic._shifted_sum."""
    if slots <= 0:
        return 0
    half = 1 << (w * slots - 1)
    return ((x + half) & ((half << 1) - 1)) - half


def _at(packs: dict, width: int, slots: int) -> int:
    """The pack at ``width`` from {width: pack} of one value of ``slots``
    slots, moved there once by :func:`~quotmotives.rings._rewiden` from
    the first pack and kept."""
    x = packs.get(width)
    if x is None:
        old, y = next(iter(packs.items()))
        x = packs[width] = _rewiden(y, old, width, slots)
    return x


def _partition_sums(quiver: Quiver, w, c, prec: int, squares: dict) -> tuple:
    """({v: S'(w)_v}, {v: S'(0)_v}) for 0 <= |v| <= order, each a pair
    (pack, width) of one packed int modulo q^prec and its slot width: the
    partition sums rescaled by z^v -> q^(c.v) z^v (module docstring), from
    one chain table.  ``squares`` maps the vectors of :func:`_vectors`,
    in their order, to chi(v, v); the largest |v| is the order.

    The table runs on packed ints modulo q^prec, one w-bit slot per power
    of q with the signed digits of :mod:`quotmotives.rings`, and stores
    no entry that is zero there.  Row u holds the z^u coefficient of
    every F'(theta) that is nonzero modulo q^prec, each one pack with its
    width and its l1 norm, read off its decoded digits, and row 0 holds
    F'(0) = 1.  The recursion fills the rows one total degree |v| at a
    time: entry (v, theta) pairs theta with the row u = v - theta.  Its
    sum is the int sum of the packs of F'(theta') times those of
    prod_i 1/(q; q)_(theta_i - theta'_i) (1 for theta' = theta), over
    the stored theta' <= theta of row u, at the width that
    :func:`~quotmotives.rings._slot_width` gives for the bound
    sum ||F'(theta')||_1 ||factor||_inf; a pack of another width is
    moved to it by :func:`~quotmotives.rings._rewiden`.  The sum goes
    to the table and S'(0)_v shifted up by a0 = chi(theta, theta) +
    c.theta, and to S'(w)_v shifted up by aw = a0 - w.theta, each cut
    below q^prec by one mask.  Both shifts must be >= 0 (an explicit
    AssertionError otherwise): the stored F'(theta') of a row have
    exponents >= the row's least one, and the factors lie in Z[[q]],
    so a theta with aw plus that exponent >= prec adds nothing and is
    skipped.  S'(0)_v and S'(w)_v are each the int sum of their parts,
    at one width for both, and are not decoded here.
    """
    if len(w) != quiver.vertices:
        raise ValueError("framing vector size does not match the quiver")
    if min(w, default=0) < 0:
        raise ValueError(f"framing vector entries must be >= 0, got {tuple(w)}")
    order = max(map(sum, squares), default=0)
    shifts = {}  # theta -> (a0, aw)
    for theta, chi in squares.items():
        a0 = chi + _dot(c, theta)
        aw = a0 - _dot(w, theta)
        if min(a0, aw) < 0:
            raise AssertionError(f"chain table shifts ({a0}, {aw}) at {theta} are not >= 0 "
                                 f"for c = {tuple(c)}")
        shifts[theta] = a0, aw

    # d -> [l1 norm, sup norm, {width: pack}] of prod_i 1/(q; q)_(d_i) modulo q^prec
    zero = (0,) * quiver.vertices
    factors = {zero: [1, 1, {32: 1}]}
    inverse = []
    for digits in _partition_counts(order, prec):
        top = max(digits)  # partition counts: every digit is >= 0
        width = _width(top)
        inverse.append([sum(digits), top, {width: _pack(digits, width)}])

    def factor(d):
        f = factors.get(d)
        if f is None:
            i = max(j for j, m in enumerate(d) if m)
            rest = d[:i] + (0,) + d[i + 1:]
            b = inverse[d[i]]
            if any(rest):
                a = factor(rest)
                width = _width(a[0] * b[1])
                x = _cut(_at(a[2], width, prec) * _at(b[2], width, prec), width, prec)
                sizes = list(map(abs, _decode(x, width, prec)))
                f = [sum(sizes), max(sizes), {width: x}]
            else:
                f = b
            factors[d] = f
        return f

    # (theta, |theta|, a0, aw) by increasing |theta|, for the theta with aw < prec
    live = [(theta, sum(theta)) + a for theta, a in shifts.items() if a[1] < prec]
    # rows[n]: (u, entries, least exponent) of the stored rows with |u| = n, an
    # entry [theta', pack, width, l1 norm] nonzero modulo q^prec; row 0 holds F'(0) = 1
    rows = [[(zero, [[zero, 1, 32, 1]], 0)]] + [[] for _ in range(order)]
    sw = {zero: (1, 32), **dict.fromkeys(squares, (0, 32))}
    s0 = dict(sw)
    for n in range(1, order + 1):
        pending = {}  # v -> [entries, parts, least exponent] of row v
        for theta, m, a0, aw in live:
            if m > n:
                break
            for u, entries, low in rows[n - m]:
                if aw + low >= prec:
                    continue
                # the chain goes on with theta' <= theta (theta' = theta: the
                # factor 1) or ends (theta' = 0, in row 0)
                ops = [(e, factor(tuple(a - b for a, b in zip(theta, e[0]))))
                       for e in entries if all(a <= b for a, b in zip(e[0], theta))]
                if not ops:
                    continue
                bound = sum([e[3] * f[1] for e, f in ops])
                width = _width(bound)
                g = 0
                for e, f in ops:
                    if e[2] != width:
                        e[1], e[2] = _rewiden(e[1], e[2], width, prec), width
                    g += e[1] * _at(f[2], width, prec)
                g = _cut(g, width, prec - aw)
                entry = _cut(g, width, prec - a0)
                v = tuple(a + b for a, b in zip(theta, u))
                row = pending.get(v)
                if row is None:
                    row = pending[v] = [[], [], prec]
                if entry:
                    # the lowest set bit of a nonzero pack lies in its lowest nonzero slot
                    row[2] = min(row[2], a0 + ((entry & -entry).bit_length() - 1) // width)
                    norm = sum(map(abs, _decode(entry, width, prec - a0)))
                    entry <<= width * a0
                    row[0].append([theta, entry, width, norm])
                row[1].append((entry, g << width * aw, width, bound))
        for v, (entries, parts, low) in pending.items():
            if entries:
                rows[n].append((v, entries, low))
            width = _width(sum([p[3] for p in parts]))
            t0 = tw = 0
            for x0, xw, wd, _ in parts:
                if wd != width:
                    x0, xw = _rewiden(x0, wd, width, prec), _rewiden(xw, wd, width, prec)
                t0 += x0
                tw += xw
            s0[v], sw[v] = (t0, width), (tw, width)
    return sw, s0


def _packed_ratio(sw: dict, s0: dict, prec: int) -> dict:
    """{v: digits} of the nonzero z^v coefficients R'_v of S'(w)/S'(0)
    modulo q^prec, each the list of its prec signed digits, from the
    (pack, width) pairs of :func:`_partition_sums`: both sums hold every
    0 <= |v| <= order, and each pack lies below q^prec.

    Since S'(0)_0 = 1, R'_v = S'(w)_v - sum S'(0)_u R'_r over u + r = v
    with u != 0, solved one total degree at a time, like the division
    of :class:`~quotmotives.series.TruncatedSeries`: for n = 1..order the
    stored nonzero S'(0)_u of degree d meet the stored nonzero R'_r of
    degree n - d, and the products are grouped by their target u + r.
    Each R'_v is one int sum of packed products at the width that
    :func:`_width` gives for the bound
    ||S'(w)_v||_inf + sum ||S'(0)_u||_1 ||R'_r||_inf on every coefficient
    of the sum (a pack of another width is moved by
    :func:`~quotmotives.rings._rewiden`), cut below q^prec by one mask
    and decoded once.  Reduction modulo q^prec is a ring map of Z[[q]],
    so R'_v is the exact quotient's coefficient cut below q^prec.
    """
    layers = [[] for _ in range(max(map(sum, sw), default=0) + 1)]
    for v in sw:
        layers[sum(v)].append(v)
    # den[d]: (u, {width: pack}, l1 norm) of the nonzero S'(0)_u with |u| = d >= 1
    den = [[] for _ in layers]
    for u, (x, width) in s0.items():
        if x and any(u):
            den[sum(u)].append((u, {width: x}, sum(map(abs, _decode(x, width, prec)))))
    # got[n]: (r, {width: pack}, sup norm) of the nonzero R'_r with |r| = n
    got = [[] for _ in layers]
    out = {}
    for n, targets in enumerate(layers):
        groups = {}  # v -> [(S'(0)_u, l1 norm, R'_r, sup norm)]
        for d in range(1, n + 1):
            for r, fr, sup in got[n - d]:
                for u, fu, l1 in den[d]:
                    v = tuple(map(add, u, r))
                    pairs = groups.get(v)
                    if pairs is None:
                        groups[v] = [(fu, l1, fr, sup)]
                    else:
                        pairs.append((fu, l1, fr, sup))
        for v in targets:
            x, wx = sw[v]
            pairs = groups.get(v, ())
            bound = max(map(abs, _decode(x, wx, prec))) if x else 0
            width = _width(bound + sum([l1 * sup for _, l1, _, sup in pairs]))
            total = x if wx == width else _rewiden(x, wx, width, prec)
            for fu, _, fr, _ in pairs:
                total -= _at(fu, width, prec) * _at(fr, width, prec)
            total = _cut(total, width, prec)
            if total:
                digits = out[v] = _decode(total, width, prec)
                got[n].append((v, {width: total}, max(map(abs, digits))))
    return out


def nakajima_motive_series(quiver: Quiver, w, order: int) -> TruncatedSeries:
    """Series sum_v [M(v, w)] z^v of motives of the smooth quiver varieties.

    The z^v coefficient R'_v of the rescaled ratio S'(w)/S'(0) is computed
    modulo the q^N of the module docstring in one pass, checked as
    described there, and cleared to [M(v, w)] = L^(d/2) R_v(L^-1) with
    R_v = q^(-c.v) R'_v and d = dim M(v, w).  chi(v, v) is evaluated
    once per vector for the chain table and the checks (and once more by
    :func:`_rescale`).
    """
    c, prec = _rescale(quiver, w, order)
    squares = {v: euler_form(quiver, v, v) for v in _vectors(quiver, order)}
    sw, s0 = _partition_sums(quiver, w, c, prec, squares)
    ratio = _packed_ratio(sw, s0, prec)
    out = {}
    for v in sw:  # every v, also one whose R'_v is zero and so not stored
        terms = [(e, a) for e, a in enumerate(ratio.get(v, ())) if a]
        cv, half = _dot(c, v), _dot(w, v) - squares.get(v, 0)  # half = dim M(v, w) / 2
        if prec < cv + half + 2 or terms and (terms[0][0] < cv - half
                                              or terms[-1][0] > cv + half):
            raise AssertionError(
                f"z^{v} coefficient of the rescaled S(w)/S(0) is not known modulo "
                f"q^{cv + half + 2} with exponents in [{cv - half}, {cv + half}]: "
                f"{LaurentPoly(dict(terms))!r} modulo q^{prec}")
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
