"""Classical references that check the package without its formulas.

Shared by the unit tests and the acceptance criteria, so that each check
is written once.  Every reference here is computed from a description
that shares no code with the package:

* commuting-pair counts over F_q (Feit-Fine; Fulman-Guralnick for
  nilpotent pairs), in exact rationals, against the class list,
  commutants and nilpotency test of the oracle kernel;
* type-A quiver varieties from their geometry: cotangent bundles of
  partial flag varieties (q-multinomials) and Euler characteristics
  (weight multiplicities of sl_(n+1)-modules), against the partition
  sum S(w)/S(0).

Not a test module (no ``test_`` prefix), so pytest does not collect it.
"""

import itertools
from fractions import Fraction

from quotmotives import _classsum
from quotmotives.quiver import Quiver, nakajima_motive_series

# ---------------------------------------------------------------------------
# Commuting pairs of matrices over F_q
# ---------------------------------------------------------------------------

FEIT_FINE_CASES = [(1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3),
                   (1, 5), (2, 5), (3, 5), (4, 5), (1, 7), (2, 7), (3, 7), (4, 7)]
NILPOTENT_PAIR_CASES = [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3)]
# known totals of commuting pairs, an anchor that does not use pair_count
KNOWN_PAIRS = {(1, 2): 4, (2, 2): 88, (3, 2): 7456,
               (1, 3): 9, (2, 3): 945, (3, 3): 809433}


def pair_count(n, q, z):
    """|GL_n(F_q)| times the u^n coefficient of
    prod_{i>=1} prod_{j>=0} (1 - z q^-j u^i)^-1, in exact rationals.

    For fixed i the product over j is sum_k (z x)^k / prod_{l<=k} (1 - q^-l)
    with x = u^i (Euler).  z = q gives the Feit-Fine product of all
    commuting pairs, z = 1/q the Fulman-Guralnick product of nilpotent ones."""
    coeffs = [Fraction(1)] + [Fraction(0)] * n
    for i in range(1, n + 1):
        factor = [Fraction(0)] * (n + 1)
        term = Fraction(1)
        for k in range(n // i + 1):
            if k:
                term *= z / (1 - Fraction(1, q ** k))
            factor[i * k] = term
        coeffs = [sum(coeffs[a] * factor[m - a] for a in range(m + 1))
                  for m in range(n + 1)]
    gl = 1
    for i in range(n):
        gl *= q ** n - q ** i
    return gl * coeffs[n]


def check_feit_fine(n, q):
    """Sum over the classes of |class| * |C(x)| counts the commuting pairs,
    sum_n |C_n| / |GL_n| u^n = prod_{i>=1} prod_{j>=0} (1 - q^(1-j) u^i)^-1."""
    classes = _classsum.conjugacy_classes(n, q, False)
    pairs = sum(size * q ** len(basis) for _, size, basis in classes)
    assert pairs == pair_count(n, q, Fraction(q)), (n, q, pairs)
    assert pairs == KNOWN_PAIRS.get((n, q), pairs), (n, q, pairs)


def check_nilpotent_pairs(n, q):
    """Nilpotent classes, and the nilpotent members of each commutant,
    count the commuting pairs of nilpotent matrices (Fulman-Guralnick),
    sum_n |N_n| / |GL_n| u^n = prod_{i>=1} prod_{j>=1} (1 - q^(-j) u^i)^-1."""
    pairs = sum(size * sum(1 for x in _classsum._span(basis, q)
                           if _classsum._is_nilpotent(x, n, q))
                for _, size, basis in _classsum.conjugacy_classes(n, q, True))
    assert pairs == pair_count(n, q, Fraction(1, q)), (n, q, pairs)


# ---------------------------------------------------------------------------
# Type-A quiver varieties
# ---------------------------------------------------------------------------

def linear_quiver(m, reverse):
    """The A_m quiver 0 - 1 - ... - (m-1), arrows i -> i+1 (or reversed)."""
    return Quiver(m, tuple((i + 1, i) if reverse else (i, i + 1) for i in range(m - 1)))


def _vectors(vertices, order):
    """Every dimension vector v with |v| <= order."""
    return [v for v in itertools.product(range(order + 1), repeat=vertices)
            if sum(v) <= order]


def _poly_mul(a, b):
    """Product of integer coefficient lists, lowest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_div_exact(num, den):
    """num / den by long division; the remainder must be zero."""
    num, out = list(num), [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c, r = divmod(num[k + len(den) - 1], den[-1])
        assert r == 0
        out[k] = c
        for j, d in enumerate(den):
            num[k + j] -= c * d
    assert not any(num)
    return out


def _q_factorial(k):
    """[k]_L! = prod_{i=1..k} (1 + L + ... + L^(i-1))."""
    out = [1]
    for i in range(1, k + 1):
        out = _poly_mul(out, [1] * i)
    return out


def flag_cotangent_class(n, v):
    """{exponent: coefficient} of [T*Fl(v_m <= ... <= v_1 <= n)] =
    L^(dim Fl) [n; n - v_1, v_1 - v_2, ..., v_m]_L, or {} when v is not
    a weakly decreasing sequence in [0, n]."""
    chain = (n,) + tuple(v) + (0,)
    if any(a < b for a, b in zip(chain, chain[1:])):
        return {}
    den = [1]
    for a, b in zip(chain, chain[1:]):
        den = _poly_mul(den, _q_factorial(a - b))
    multinomial = _poly_div_exact(_q_factorial(n), den)
    dim = len(multinomial) - 1
    return {dim + e: c for e, c in enumerate(multinomial) if c}


FLAG_SIZES = [(2, 3), (2, 4), (3, 3)]


def check_flag_variety(m, n, reverse):
    """For the linear A_m quiver framed by w = n e_0, M(v, w) is the
    cotangent bundle of the partial flag variety Fl(v_m <= ... <= v_1 <= n)
    (Nakajima 1994, section 7), for either orientation.  Its class comes
    from q-factorials, sharing nothing with S(w)/S(0)."""
    order = m * n
    got = nakajima_motive_series(linear_quiver(m, reverse), (n,) + (0,) * (m - 1), order)
    got = {v: dict(c.terms()) for v, c in got.coefficients() if c}
    expect = {v: c for v in _vectors(m, order) if (c := flag_cotangent_class(n, v))}
    assert got == expect


def weight_multiplicities(w):
    """{weight: multiplicity} of the sl_(n+1)-module (x)_k V(omega_k)^(x) w_k,
    n = len(w), with weights in the coordinates eps_1, ..., eps_(n+1): the
    weights of V(omega_k) are the k-subsets of {1, ..., n+1}, each once."""
    n = len(w)
    out = {(0,) * (n + 1): 1}
    for k, copies in enumerate(w, 1):
        subsets = [tuple(int(j in s) for j in range(n + 1))
                   for s in itertools.combinations(range(n + 1), k)]
        for _ in range(copies):
            product = {}
            for mu, c in out.items():
                for s in subsets:
                    key = tuple(a + b for a, b in zip(mu, s))
                    product[key] = product.get(key, 0) + c
            out = product
    return out


# (n, w, reverse): A_n quivers, framings up to (1, 1, 1), both orientations
EULER_CASES = [
    (1, (1,), False), (1, (2,), False), (2, (1, 0), False), (2, (0, 1), True),
    (2, (1, 1), False), (2, (1, 1), True), (2, (2, 0), True),
    (3, (1, 0, 0), False), (3, (0, 1, 0), True), (3, (1, 0, 1), False),
    (3, (1, 1, 1), False), (3, (1, 1, 1), True), (4, (0, 1, 0, 0), True),
]
EULER_ORDER = 10


def check_euler_characteristics(n, w, reverse):
    """[M(v, w)] at L = 1 is the multiplicity of the weight
    lambda - sum_i v_i alpha_i, lambda = sum_i w_i omega_i, in the module
    of :func:`weight_multiplicities` (Nakajima, JAMS 2001: the homology of
    M(w) is a standard module, whose fundamental modules restrict to the
    V(omega_i) in type A), for every |v| <= EULER_ORDER, zeros included.  In
    eps coordinates, omega_k = eps_1 + ... + eps_k and
    alpha_i = eps_i - eps_(i+1)."""
    got = nakajima_motive_series(linear_quiver(n, reverse), w, EULER_ORDER)
    multiplicity = weight_multiplicities(w)
    for v in _vectors(n, EULER_ORDER):
        padded = (0,) + v + (0,)
        weight = tuple(sum(w[j:]) - padded[j + 1] + padded[j] for j in range(n + 1))
        c = got.coefficient(v)
        chi = sum(a for _, a in c.terms()) if c else 0
        assert chi == multiplicity.get(weight, 0), (n, w, reverse, v, chi)
