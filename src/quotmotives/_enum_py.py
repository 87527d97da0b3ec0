"""Brute-force enumeration for the finite-field counting oracle.

The test reference for the class-sum kernel `_classsum`: it visits
every matrix tuple and every framing, so it only reaches small cases.

* matrices over F_q are enumerated as base-q digit strings, row-major,
  most significant digit first: index i encodes the matrix whose (row,
  col) entry is digit row*n+col of i written with n*n base-q digits;
* an instance is a tuple (X_1, ..., X_d) of n x n matrices plus an
  n x r framing matrix f;
* punctual counting keeps instances with every X_i nilpotent and, for
  d = 2, X_1 X_2 = X_2 X_1; global counting drops nilpotency;
* an instance is stable when the columns of f generate F_q^n under
  iterated application of the X_i (closure of the column span);
* the kernel returns the raw number of stable instances.
"""

from __future__ import annotations


def _decode(index: int, size: int, q: int):
    """Base-q digits of index, most significant first, as a flat tuple."""
    digits = [0] * size
    for pos in range(size - 1, -1, -1):
        index, digits[pos] = divmod(index, q)
    return tuple(digits)


def _mat_mul(a, b, n: int, q: int):
    out = [0] * (n * n)
    for i in range(n):
        for k in range(n):
            aik = a[i * n + k]
            if aik:
                for j in range(n):
                    out[i * n + j] += aik * b[k * n + j]
    return tuple(c % q for c in out)


def _is_nilpotent(x, n: int, q: int) -> bool:
    p = x
    for _ in range(n - 1):
        p = _mat_mul(p, x, n, q)
    return not any(p)


def _commute(a, b, n: int, q: int) -> bool:
    return _mat_mul(a, b, n, q) == _mat_mul(b, a, n, q)


def _mat_vec(x, v, n: int, q: int):
    return tuple(sum(x[i * n + j] * v[j] for j in range(n)) % q for i in range(n))


def is_stable(mats, framing_cols, n: int, q: int) -> bool:
    """Closure of the framing column span under the matrices saturates F_q^n.

    `mats` is a sequence of flat n*n tuples, `framing_cols` a sequence of
    length-n column vectors.
    """
    if n == 0:
        return True
    pivots = {}
    stack = list(framing_cols)
    while stack:
        v = list(stack.pop())
        for lead in range(n):
            c = v[lead]
            if not c:
                continue
            row = pivots.get(lead)
            if row is None:
                inv = pow(c, q - 2, q)
                vec = tuple(x * inv % q for x in v)
                pivots[lead] = vec
                if len(pivots) == n:
                    return True
                for x in mats:
                    stack.append(_mat_vec(x, vec, n, q))
                break
            v = [(a - c * b) % q for a, b in zip(v, row)]
    return len(pivots) == n


def _stable_framing_count(mats, n: int, r: int, q: int) -> int:
    count = 0
    for fidx in range(q ** (n * r)):
        flat = _decode(fidx, n * r, q)
        cols = [tuple(flat[i * r + j] for i in range(n)) for j in range(r)]
        if is_stable(mats, cols, n, q):
            count += 1
    return count


def count_stable(n: int, r: int, q: int, d: int, punctual: bool) -> int:
    """Raw number of stable instances."""
    size = n * n
    total_mats = q ** size
    count = 0
    for idx1 in range(total_mats):
        x1 = _decode(idx1, size, q)
        if punctual and not _is_nilpotent(x1, n, q):
            continue
        if d == 1:
            count += _stable_framing_count((x1,), n, r, q)
        else:
            for idx2 in range(total_mats):
                x2 = _decode(idx2, size, q)
                if punctual and not _is_nilpotent(x2, n, q):
                    continue
                if not _commute(x1, x2, n, q):
                    continue
                count += _stable_framing_count((x1, x2), n, r, q)
    return count
