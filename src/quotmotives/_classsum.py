"""Class-sum kernel of the finite-field counting oracle (see `oracle`).

The raw number of stable instances is a sum over conjugacy classes
instead of over matrices.  The number of generating framings of
(x_1, ..., x_d) only depends on the tuple up to simultaneous
conjugation, so

    raw = sum over classes x_1 of |GL_n| / |Z(x_1)|
          * sum over x_2 in C(x_1) of #{generating r-tuples of vectors},

where the classes are the nilpotent Jordan types for punctual counts
and the rational canonical forms (one partition per monic irreducible
polynomial) for global ones, C(x_1) is the commutant of x_1 (a nullspace
over F_q, whose members are filtered by nilpotency for punctual counts)
and the inner sum is only present for d = 2.  When x_1 is scalar the
inner sum is the d = 1 count of x_2, which is computed once.  |Z(x_1)|,
the unit group of C(x_1), is q^dim C * prod |GL_m(F_Q)| / Q^(m^2) over
the multiplicities m of the block sizes belonging to each irreducible
of degree e, Q = q^e.  `conjugacy_classes` checks the class equation
(the class sizes add up to q^(n^2), or to q^(n^2 - n) nilpotent
matrices) on every call and raises AssertionError otherwise.

For one matrix x (every d = 1 class, and the scalar-x_1 sum of d = 2)
the generating r-tuples are counted in closed form.  F_q^n is a module
over the PID F_q[x], a sum of F_q[x]/p^k, one per part k of the
partition attached to each irreducible p in x's rational canonical
form.  By Nakayama's lemma a tuple generates it exactly when its image
spans the top, the sum over p of (F_q[x]/p)^(l_p), l_p the number of
parts; this is an F_Q-vector space of dimension l_p for Q = q^deg p,
and the kernel of the projection is free.  So the count is
q^(r (n - s)) prod_p prod_{i < l_p} (Q^r - Q^i), s = sum deg p * l_p,
read off the block data that `conjugacy_classes` keeps with each class.

For a pair (x_1, x_2), x_2 in C(x_1), the generating r-tuples are
counted with P. Hall's idea of counting over the lattice of submodules
("The Eulerian functions of a group", 1936): a dynamic program over the
submodule spanned so far, each a reduced echelon basis, with one
transition per line of F_q^n modulo it.  Only pairs run it.

This is the package's only enumeration kernel.  It shares no code with
its test reference, the brute-force enumeration in `tests/brute_force.py`.
"""

from __future__ import annotations

import itertools

from .oracle import gl_order
from .quiver import partitions_of


def class_sum(classes: list, n: int, r: int, q: int, d: int, punctual: bool) -> int:
    """Raw number of stable instances, from the `conjugacy_classes` list:
    the class size of each x_1 times the generating framings of x_1
    (d = 1, in closed form) or of every pair (x_1, x_2), x_2 in the
    commutant (d = 2, by the submodule DP)."""
    single = None  # d = 1 count of the second matrix, for scalar x_1
    total = 0
    for rep, size, basis, blocks in classes:
        if d == 1:
            total += size * _framing_count(blocks, n, r, q)
        elif len(basis) == n * n:
            if single is None:
                single = sum(s * _framing_count(b, n, r, q)
                             for _, s, _, b in classes)
            total += size * single
        else:
            inner = 0
            for x2 in _span(basis, q):
                if punctual and not _is_nilpotent(x2, n, q):
                    continue
                inner += _generating_tuples((rep, x2), n, r, q)
            total += size * inner
    return total


def _is_nilpotent(x, n: int, q: int) -> bool:
    """x^n = 0, by n - 1 products with x (flat row-major n*n tuples)."""
    p = x
    for _ in range(n - 1):
        p = [sum(p[i * n + k] * x[k * n + j] for k in range(n)) % q
             for i in range(n) for j in range(n)]
    return not any(p)


# ---------------------------------------------------------------------------
# Conjugacy classes
# ---------------------------------------------------------------------------

def conjugacy_classes(n: int, q: int, punctual: bool) -> list:
    """One (representative, class size, commutant basis, blocks) per
    conjugacy class of n x n matrices over F_q (nilpotent ones if
    punctual), checked against the class equation; `blocks` are the
    representative's (p, partition) pairs from `_block_data`."""
    irreducibles = [(0, 1)] if punctual else _irreducibles(n, q)
    g = gl_order(n, q)
    out = []
    total = 0
    for blocks in _block_data(n, irreducibles, 0):
        rep = _block_matrix(n, q, blocks)
        basis = _nullspace(_commutator_map(rep, n, q), n * n, q)
        z = _centralizer_order(blocks, len(basis), q)
        if g % z:
            raise AssertionError(
                f"centralizer order {z} does not divide |GL_{n}(F_{q})| = {g}")
        out.append((rep, g // z, basis, tuple(blocks)))
        total += g // z
    expected = q ** (n * n - n) if punctual else q ** (n * n)
    if total != expected:
        raise AssertionError(
            f"class equation fails for n = {n}, q = {q}: class sizes add up "
            f"to {total}, expected {expected}")
    return out


def _block_data(n: int, irreducibles: list, start: int):
    """Every assignment of a partition to the irreducibles from `start`
    on with sum of deg(p) * |partition| equal to n, as a list of
    (p, partition) pairs."""
    if n == 0:
        yield []
        return
    for i in range(start, len(irreducibles)):
        p = irreducibles[i]
        e = len(p) - 1
        for size in range(1, n // e + 1):
            for part in partitions_of(size):
                for rest in _block_data(n - e * size, irreducibles, i + 1):
                    yield [(p, part)] + rest


def _irreducibles(n: int, q: int) -> list:
    """Monic irreducible polynomials over F_q of degree 1..n, as
    coefficient tuples from the constant term up."""
    out = []
    for e in range(1, n + 1):
        reducible = {_poly_mul(f, g, q) for a in range(1, e // 2 + 1)
                     for f in _monic(a, q) for g in _monic(e - a, q)}
        out += [f for f in _monic(e, q) if f not in reducible]
    return out


def _monic(e: int, q: int):
    for low in itertools.product(range(q), repeat=e):
        yield low + (1,)


def _poly_mul(f, g, q: int):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return tuple(c % q for c in out)


def _block_matrix(n: int, q: int, blocks) -> tuple:
    """Block-diagonal matrix of the companion matrices of p^k, one per
    part k of the partition attached to p (flat, row-major)."""
    mat = [0] * (n * n)
    at = 0
    for p, part in blocks:
        for k in part:
            f = (1,)
            for _ in range(k):
                f = _poly_mul(f, p, q)
            m = len(f) - 1
            # X e_i = e_{i+1}, X e_{m-1} = -(f_0 e_0 + ... + f_{m-1} e_{m-1})
            for i in range(m - 1):
                mat[(at + i + 1) * n + at + i] = 1
            for i in range(m):
                mat[(at + i) * n + at + m - 1] = -f[i] % q
            at += m
    return tuple(mat)


def _centralizer_order(blocks, dim: int, q: int) -> int:
    """|Z(x)| = q^dim * prod |GL_m(F_Q)| / Q^(m^2), over the
    multiplicities m of each block size of each irreducible (Q = q^deg)."""
    num, den = q ** dim, 1
    for p, part in blocks:
        big = q ** (len(p) - 1)
        for k in set(part):
            m = part.count(k)
            den *= big ** (m * (m + 1) // 2)
            for i in range(1, m + 1):
                num *= big ** i - 1
    if num % den:
        raise AssertionError(f"centralizer order {num}/{den} is not an integer")
    return num // den


def _commutator_map(x, n: int, q: int) -> list:
    """Rows of the linear system x Y - Y x = 0 in the n*n entries of Y."""
    rows = []
    for i in range(n):
        for j in range(n):
            row = [0] * (n * n)
            for k in range(n):
                row[k * n + j] += x[i * n + k]
                row[i * n + k] -= x[k * n + j]
            rows.append([c % q for c in row])
    return rows


def _nullspace(system: list, size: int, q: int) -> list:
    """A basis of {y : system y = 0} over F_q, as flat tuples."""
    rows, pivots = [], []
    for row in system:
        _echelon_insert(rows, pivots, row, q)
    basis = []
    for free in range(size):
        if free in pivots:
            continue
        y = [0] * size
        y[free] = 1
        for col, row in zip(pivots, rows):
            y[col] = -row[free] % q
        basis.append(tuple(y))
    return basis


def _echelon_insert(rows: list, pivots: list, w, q: int):
    """Add w to the reduced echelon `rows` (pivot columns `pivots`) in
    place; return the new normalized row, or None if w is in their span."""
    for p, row in zip(pivots, rows):
        c = w[p]
        if c:
            w = [(a - c * b) % q for a, b in zip(w, row)]
    lead = next((i for i, c in enumerate(w) if c), None)
    if lead is None:
        return None
    inv = pow(w[lead], q - 2, q)
    w = [c * inv % q for c in w]
    for i, row in enumerate(rows):
        c = row[lead]
        if c:
            rows[i] = [(a - c * b) % q for a, b in zip(row, w)]
    rows.append(w)
    pivots.append(lead)
    return w


def _span(basis: list, q: int):
    """Every F_q-linear combination of the basis vectors."""
    size = len(basis[0])
    for coeffs in itertools.product(range(q), repeat=len(basis)):
        v = [0] * size
        for c, b in zip(coeffs, basis):
            if c:
                for i, a in enumerate(b):
                    v[i] += c * a
        yield tuple(a % q for a in v)


# ---------------------------------------------------------------------------
# Generating framings: closed form for one matrix, Hall's DP for pairs
# ---------------------------------------------------------------------------

def _framing_count(blocks, n: int, r: int, q: int) -> int:
    """Number of r-tuples of vectors generating F_q^n under one matrix
    with rational canonical form `blocks`: those whose images span the
    top, q^(r (n - s)) prod_p prod_{i < l_p} (Q^r - Q^i) with Q = q^deg p,
    l_p the number of parts of p's partition and s = sum deg p * l_p."""
    count, s = 1, 0
    for p, part in blocks:
        e = len(p) - 1
        big = q ** e
        for i in range(len(part)):
            count *= big ** r - big ** i
        s += e * len(part)
    return count * q ** (r * (n - s))


def _generating_tuples(mats, n: int, r: int, q: int) -> int:
    """Number of r-tuples of vectors generating F_q^n as a module over
    the algebra generated by `mats`: a DP over the submodule spanned so
    far, adding one vector per step."""
    space = q ** n
    mats = [[x[i * n:(i + 1) * n] for i in range(n)] for x in mats]
    layer = {(): 1}
    steps = {}
    done = 0  # tuples that already generate everything
    for _ in range(r):
        done *= space
        nxt = {}
        for state, ways in layer.items():
            moves = steps.get(state)
            if moves is None:
                moves = steps[state] = _moves(state, mats, n, q)
            for target, mult in moves.items():
                if len(target) == n:
                    done += ways * mult
                else:
                    nxt[target] = nxt.get(target, 0) + ways * mult
        layer = nxt
    return done


def _moves(state, mats, n: int, q: int) -> dict:
    """Submodules S + A v, with multiplicities, over all v in F_q^n.
    The result only depends on the line of v mod S, so v runs over the
    vectors that vanish at the pivots of S and have first nonzero entry
    1, each standing for (q - 1) q^dim S vectors."""
    pivots = [next(i for i, c in enumerate(row) if c) for row in state]
    free = [i for i in range(n) if i not in pivots]
    weight = q ** len(state)
    out = {state: weight}
    for k, lead in enumerate(free):
        for values in itertools.product(range(q), repeat=len(free) - k - 1):
            v = [0] * n
            v[lead] = 1
            for i, c in zip(free[k + 1:], values):
                v[i] = c
            target = _closure(state, pivots, v, mats, n, q)
            out[target] = out.get(target, 0) + (q - 1) * weight
    return out


def _closure(state, pivots, v, mats, n: int, q: int) -> tuple:
    """Reduced echelon basis of the submodule generated by the submodule
    `state` (reduced echelon rows with the given pivots) and v; each
    matrix in `mats` is given as a list of its rows."""
    rows = [list(row) for row in state]
    pivots = list(pivots)
    stack = [v]
    while stack:
        w = _echelon_insert(rows, pivots, stack.pop(), q)
        if w is None:
            continue
        if len(rows) == n:
            break
        for x in mats:
            stack.append([sum(a * b for a, b in zip(row, w)) % q for row in x])
    order = sorted(range(len(rows)), key=pivots.__getitem__)
    return tuple(tuple(rows[i]) for i in order)


# ---------------------------------------------------------------------------
# Budget
# ---------------------------------------------------------------------------

def _subspace_count(n: int, q: int) -> int:
    """Number of subspaces of F_q^n (sum of Gaussian binomials)."""
    total = 0
    for k in range(n + 1):
        num = den = 1
        for i in range(k):
            num *= q ** (n - i) - 1
            den *= q ** (i + 1) - 1
        total += num // den
    return total


def work_estimate(classes: list, n: int, r: int, q: int, d: int) -> int:
    """Framing-DP work of the class sum, before any of it runs: per
    class, the number of second matrices times the DP's size bound
    min(q^(n r), subspaces * q^n).  The DP runs only for pairs; for
    d = 1, and for the scalar-x_1 sum of d = 2, the framings are counted
    in closed form, but the estimate still charges one DP per class, so
    it over-counts those cases and the admitted ones stay the same."""
    per_dp = min(q ** (n * r), _subspace_count(n, q) * q ** n)
    if d == 1:
        return len(classes) * per_dp
    dp_runs = sum(q ** len(basis) for _, _, basis, _ in classes
                  if len(basis) < n * n)
    if any(len(basis) == n * n for _, _, basis, _ in classes):
        dp_runs += len(classes)
    return dp_runs * per_dp
