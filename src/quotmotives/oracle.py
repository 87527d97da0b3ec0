"""Point counts of (punctual) Quot schemes over small finite fields.

A length-n quotient of the trivial rank-r sheaf on affine d-space over
F_q is the same thing as a stable framed representation: d pairwise
commuting n x n matrices (nilpotent ones for quotients supported at the
origin) together with an n x r framing whose columns generate F_q^n
under the matrix action.  Stable framed representations have trivial
stabilizer in GL_n(F_q), so the number of points is the raw number of
stable instances divided by |GL_n(F_q)| -- the division is checked to
be exact.

The raw number comes from `_classsum`, the one enumeration kernel, which
sums over conjugacy classes and counts generating framings over the
submodule lattice, after an up-front work estimate from the class list
has passed the budget.  `_classsum` is imported on the first count, so
importing the package does not load it.  The brute-force enumeration
over all matrices and framings is not part of the package: it lives in
`tests/brute_force.py` as the independent test reference for the kernel.
"""

from __future__ import annotations


def active_backend() -> str:
    """Name of the enumeration kernel; there is one, the class sum."""
    return "class-sum"


class BudgetError(ValueError):
    """Requested enumeration exceeds the supported desk-scale budget."""


_MAX_N = {1: 4, 2: 3}
_PRIMES = (2, 3, 5)
_MAX_R = 8
# Work units of the class sum (see _classsum.work_estimate).  A unit costs
# 0.06-9 us in CPython 3.11 (the most for r = 1, where each unit is a
# whole cyclic-submodule closure).  Every case the caps above and this
# budget admit ran in under 5 s on a 2-vCPU x86-64 VM.  Of the rejected
# ones, global (3, 1, 5, 2) took 90 s and global (4, 2, 5, 1) 7.5 s, but
# punctual (3, 2, 5, 2) takes 0.3 s: the estimate counts every member of
# the commutant, not only the nilpotent ones.
_MAX_WORK = 4_000_000


def _validate(n: int, r: int, q: int, d: int):
    if d not in (1, 2):
        raise ValueError(f"ambient dimension must be 1 or 2, got {d}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if r < 0:
        raise ValueError(f"rank must be >= 0, got {r}")
    if q not in _PRIMES:
        raise BudgetError(f"field size must be a prime <= 5, got {q}")
    if n > _MAX_N[d]:
        raise BudgetError(
            f"n = {n} exceeds the enumeration budget for d = {d} (max {_MAX_N[d]})")
    if r > _MAX_R:
        raise BudgetError(f"rank {r} exceeds the enumeration budget (max {_MAX_R})")


def gl_order(n: int, q: int) -> int:
    """|GL_n(F_q)| = prod_{i<n} (q^n - q^i)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


def raw_stable_count(n: int, r: int, q: int, d: int, punctual: bool) -> int:
    """Raw number of stable (nilpotent/commuting) matrix-tuple instances."""
    _validate(n, r, q, d)
    if n == 0:
        return 1
    from . import _classsum  # loaded here: commands that never count skip it

    classes = _classsum.conjugacy_classes(n, q, punctual)
    work = _classsum.work_estimate(classes, n, r, q, d)
    if work > _MAX_WORK:
        kind = "punctual" if punctual else "global"
        raise BudgetError(
            f"{kind} count (n, r, q, d) = ({n}, {r}, {q}, {d}) needs ~{work} "
            f"work units, over the enumeration budget of {_MAX_WORK}")
    return _classsum.class_sum(classes, n, r, q, d, punctual)


def orbit_count(n: int, r: int, q: int, d: int, punctual: bool) -> tuple:
    """(raw, raw / |GL_n(F_q)|): the raw stable count and the number of
    points, with the division checked to be exact."""
    raw = raw_stable_count(n, r, q, d, punctual)
    g = gl_order(n, q)
    if raw % g:
        raise ArithmeticError(
            f"stable-instance count {raw} is not divisible by |GL_{n}(F_{q})| = {g}; "
            "this indicates a bug in the stability test")
    return raw, raw // g

