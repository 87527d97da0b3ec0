"""Closed-form motive series of Quot schemes on curves and surfaces.

For a rank-r locally free sheaf on a smooth variety X of dimension d,
the generating series of motivic classes of its Quot schemes of
zero-dimensional length-n quotients is

    d = 1:   Exp([X] [P^{r-1}] t),
    d = 2:   Exp([X] [P^{r-1}] t / (1 - L^r t)),

and the punctual series (quotients supported at one point, X = affine
d-space localized at the origin) is the specialization [X] = 1.  The
global series is also the punctual series raised to the power [X] in
the power structure; both evaluation paths are computed and compared.
:func:`quot_series` computes the punctual series first and the closed
Exp just before the power, so that the Exp(x Log P) inside the power
repeats the argument of the closed Exp whenever the paths agree and is
answered by the one-slot memo of :func:`~quotmotives.plethystic.exp_pleth`.
Any fault that makes the arguments differ misses the memo, and the two
solved series are compared as before.
Ambient dimension d >= 3 is rejected: no closed form for the punctual
invariants is known there.
"""

from __future__ import annotations

from .rings import LaurentPoly, projective_class
from .report import CheckReport
from .series import TruncatedSeries, euler_product, geometric_series
from .plethystic import exp_pleth, power_structure
from .quiver import Quiver, nakajima_motive_series


class UnsupportedDimensionError(ValueError):
    """Raised for ambient dimension outside {1, 2}."""

    def __init__(self, d):
        super().__init__(
            f"ambient dimension {d} is not supported: punctual Quot invariants "
            "are only known in dimensions 1 and 2")


def _check_rd(r: int, d: int):
    if r < 0:
        raise ValueError(f"rank must be >= 0, got {r}")
    if d not in (1, 2):
        raise UnsupportedDimensionError(d)


def _closed_series(x: LaurentPoly, r: int, d: int, order: int) -> TruncatedSeries:
    """The closed form Exp([P^{r-1}] x t) for d = 1 and
    Exp([P^{r-1}] x t / (1 - L^r t)) for d = 2."""
    _check_rd(r, d)
    arg = TruncatedSeries.variable(order, coeff=projective_class(r - 1) * x)
    if d == 2:
        arg = arg * geometric_series(LaurentPoly.lefschetz(r), order)
    return exp_pleth(arg)


def punctual_quot_series(r: int, d: int, order: int) -> TruncatedSeries:
    """Motive series of punctual Quot schemes of a trivial rank-r sheaf
    at a point of a smooth d-fold (d in {1, 2})."""
    return _closed_series(LaurentPoly.one(), r, d, order)


def quot_series(x_class: LaurentPoly, d: int, r: int, order: int) -> TruncatedSeries:
    """Motive series of Quot schemes of a trivial rank-r sheaf on a smooth
    d-fold with class x_class.

    Evaluated both as (punctual series)^(x_class) in the power structure
    and by the closed Exp formula; the two must agree exactly.  The
    punctual series is computed first and the closed Exp right before
    the power, whose Exp(x_class Log P) then finds the closed argument
    in the memo of :func:`exp_pleth` exactly when the two arguments are
    equal.  Exp is pure, so the comparison has the outcome it has with
    both series solved, and any difference is still solved and reported.
    """
    if isinstance(x_class, int):
        x_class = LaurentPoly({0: x_class})
    punctual = punctual_quot_series(r, d, order)
    closed = _closed_series(x_class, r, d, order)
    powered = power_structure(punctual, x_class)
    if closed != powered:
        raise AssertionError(
            "power-structure and Exp evaluations of the Quot series disagree "
            f"(r={r}, d={d}, first difference at {closed.first_difference(powered)})")
    if x_class.is_effective:
        for _, c in closed.coefficients():
            if isinstance(c, LaurentPoly) and not c.is_effective:
                raise AssertionError(f"non-effective coefficient {c} for effective input")
    return closed


def nakajima_framed_series(r: int, order: int) -> TruncatedSeries:
    """Closed form Exp([P^{r-1}] L^{r+1} t / (1 - L^r t)) for the motive
    series of the smooth Nakajima varieties of the one-loop quiver with
    r-dimensional framing (framed torsion-free sheaves on the plane)."""
    return _closed_series(LaurentPoly.lefschetz(r + 1), r, 2, order)


def quot_affine_plane_series(r: int, order: int) -> TruncatedSeries:
    """Closed form Exp([P^{r-1}] L^2 t / (1 - L^r t)): motive series of the
    Quot schemes of the trivial rank-r sheaf on the affine plane."""
    return _closed_series(LaurentPoly.lefschetz(2), r, 2, order)


def compare_affine_plane_vs_framed(r: int, order: int):
    """Compare the affine-plane Quot series with the framed-moduli series.

    Returns (first_diff, lhs, rhs): the first exponent where they differ
    (None when equal through the order) and the two coefficient values
    there.  They agree termwise exactly for r = 1.
    """
    lhs = quot_affine_plane_series(r, order)
    rhs = nakajima_framed_series(r, order)
    m = lhs.first_difference(rhs)
    if m is None:
        return None, None, None
    return m[0], lhs.coefficient(m), rhs.coefficient(m)


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------

def jordan_product_series(r: int, order: int) -> TruncatedSeries:
    """The double product prod_{i=1..r} prod_{j>=1} (1 - L^{rj-i} t^j)^{-1};
    equals the punctual d=2 series (nilpotent one-loop quiver varieties).
    One division of 1 by its binomials with j <= order (:func:`euler_product`)."""
    return euler_product([((j,), LaurentPoly.lefschetz(r * j - i), 1)
                          for i in range(1, r + 1) for j in range(1, order + 1)],
                         order, one=LaurentPoly.one())


def verify_product_vs_exp(r: int, order: int) -> CheckReport:
    """Double product vs Exp([P^{r-1}] t/(1 - L^r t)) for the punctual
    surface series."""
    lhs = jordan_product_series(r, order)
    rhs = punctual_quot_series(r, 2, order)
    return CheckReport.compare("product-vs-exp", lhs, rhs, f"r={r}, order {order}")


def verify_class1_closed(r: int, order: int) -> CheckReport:
    """Partition-sum motive series of the one-loop quiver vs the closed form."""
    closed = nakajima_framed_series(r, order)
    summed = nakajima_motive_series(Quiver.jordan(), (r,), order)
    return CheckReport.compare("class1-vs-closed", summed, closed,
                               f"r={r}, order {order}")


def verify_duality(r: int, n_max: int) -> CheckReport:
    """Coefficientwise duality between nilpotent and smooth series.

    Surface case: dual([L(n,r)]) = L^{-2rn} [M(n,r)] with the punctual
    d=2 series on the left and the framed series on the right; curve
    case: dual([punctual d=1]) = L^{-rn} [global d=1 on the affine line].
    """
    nilp2 = punctual_quot_series(r, 2, n_max)
    smooth2 = nakajima_framed_series(r, n_max)
    nilp1 = punctual_quot_series(r, 1, n_max)
    smooth1 = quot_series(LaurentPoly.lefschetz(), 1, r, n_max)
    failures = []
    for n in range(n_max + 1):
        for case, k, nilp, smooth in (("surface", 2, nilp2, smooth2),
                                      ("curve", 1, nilp1, smooth1)):
            # an unstored coefficient is the int 0 (every one for n >= 1
            # at rank 0); as a class it is the constant polynomial
            lhs = LaurentPoly._coerce(nilp.coefficient(n)).dual()
            rhs = LaurentPoly.lefschetz(-k * r * n) * smooth.coefficient(n)
            if lhs != rhs:
                failures.append(f"{case} case at n={n}: {lhs} != {rhs}")
    detail = "; ".join(failures) if failures else f"r={r}, n<={n_max}"
    return CheckReport("duality", not failures, detail)
