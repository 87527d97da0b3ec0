"""Specializations of motive series: point counts and zeta functions.

A class that is a polynomial in L counts points over finite fields by
the substitution L = q, and everything here stays in the integers.  The
motivic zeta function of a class X is Kapranov's Z(X; t) = sum_n [S^n X]
t^n = Exp([X] t); at L = q it is the zeta function of X over F_q,

    Z(X; t) = exp(sum_{n>=1} #X(F_{q^n}) t^n / n),

because psi_n(L^k t) = L^(kn) t^n, and for [X] = sum_k a_k L^k it is the
finite product prod_k (1 - q^k t)^{-a_k}.  The Quot-scheme series
specialize to the product identities

    curve:    sum_n #Quot t^n = prod_{i<r} Z(X; q^i t),
    surface:  sum_n #Quot t^n = prod_{i<r} prod_{j>=0} Z(X; q^{i+rj} t^{j+1}),

which are verified here by exact expansion of both sides.
"""

from __future__ import annotations

from .rings import LaurentPoly
from .report import CheckReport
from .series import TruncatedSeries, euler_product
from .plethystic import exp_pleth
from . import quot


def _require_polynomial(x: LaurentPoly):
    if x and x.min_exp() < 0:
        raise ValueError(f"{x} has negative exponents; point counting needs a "
                         "polynomial in L")


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the primes up to 41 as bases, which decides
    primality exactly for n < 3.3 * 10^24 and is a strong probable-prime
    test above that."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, k: int) -> int:
    """The integer k-th root floor(n^(1/k)) of n >= 1, by Newton's method
    from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def require_prime_power(q) -> None:
    """Raise ValueError unless q is the size p^k of a finite field: for
    some k <= log2(q), the integer k-th root p of q has p^k = q and is
    prime (:func:`_is_prime`)."""
    if isinstance(q, int) and q >= 2:
        for k in range(1, q.bit_length() + 1):
            p = _iroot(q, k)
            if p < 2:
                break
            if p ** k == q and _is_prime(p):
                return
    raise ValueError(f"field size q must be a prime power, got {q}")


def point_count_series(s: TruncatedSeries, q: int) -> list:
    """Substitute L = q in each coefficient of a univariate series with
    polynomial coefficients; returns [c_0(q), ..., c_order(q)] as ints.
    Any int q >= 1 is accepted: q = 1 gives the coefficient sums."""
    if not isinstance(q, int) or q < 1:
        raise ValueError(f"point counts substitute an int L = q >= 1, got {q}")
    out = []
    for c in s.univariate_coefficients():
        if isinstance(c, LaurentPoly):
            _require_polynomial(c)
            c = sum(a * q ** e for e, a in c.terms())
        elif not isinstance(c, int):
            raise TypeError(f"cannot count points of the coefficient {c!r}")
        out.append(c)
    return out


def zeta_series(x_class: LaurentPoly, q: int, order: int) -> TruncatedSeries:
    """Zeta function over F_q of a class polynomial in L, the specialization
    Z(X; t) = Exp([X] t) at L = q, as an int-coefficient t-series.

    Computed from the product form prod_k (1 - q^k t)^{-a_k}; the point
    counts of Exp([X] t) are evaluated as well and the two are checked
    to be equal.
    """
    require_prime_power(q)
    _require_polynomial(x_class)
    exp_form = point_count_series(
        exp_pleth(TruncatedSeries.variable(order, coeff=x_class)), q)
    out = euler_product([((1,), q ** e, a) for e, a in x_class.terms()], order)
    if out.univariate_coefficients() != exp_form:
        raise AssertionError(
            f"zeta product form disagrees with Exp([X] t) at L = q (X={x_class}, q={q})")
    return out


def verify_zeta_product(x_class: LaurentPoly, d: int, r: int, q: int,
                        order: int) -> CheckReport:
    """Point counts of the d-fold Quot series vs the product of the zeta
    functions Z(X; q^{i+rj} t^{j+1}) over i < r, with j = 0 for d = 1
    (``zeta-curve``) and j < order for d = 2 (``zeta-surface``).  The
    dimension and then the zeta function come first: they check d, q and
    the class before the Quot series is solved."""
    if d not in (1, 2):
        raise quot.UnsupportedDimensionError(d)
    zeta = zeta_series(x_class, q, order)
    counts = point_count_series(quot.quot_series(x_class, d, r, order), q)
    lhs = TruncatedSeries(dict(enumerate(counts)), order)
    rhs = TruncatedSeries.constant(1, order)
    for i in range(r):
        for j in range(1 if d == 1 else order):
            rhs = rhs * zeta.scale_variable(q ** (i + r * j)).substitute_power(j + 1)
    name = "zeta-curve" if d == 1 else "zeta-surface"
    return CheckReport.compare(name, lhs, rhs, f"X={x_class}, r={r}, q={q}, order {order}")
