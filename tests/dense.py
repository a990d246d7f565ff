"""Test-only dense helpers: the package applies operators through sparse rows
and takes and returns sparse {index: entry} vectors; the tests build dense
inputs and check dense views (`eval`, `coeffs`) with these."""

from math import gcd

from yosp.exact_arith import ONE, Scalar, ZERO


def mat_vec(A, v):
    """A v for a dense matrix A and a dense vector v."""
    return [sum((a * x for a, x in zip(row, v)), ZERO) for row in A]


def sparse(v):
    """A dense vector as a sparse {index: entry} dict of its nonzeros."""
    return {i: x for i, x in enumerate(v) if x != 0}


def sparse_rows(A):
    """A dense matrix as a list of sparse rows."""
    return [sparse(row) for row in A]


def dense(v, n):
    """A sparse {index: entry} dict as a dense vector of length n."""
    return [v.get(i, ZERO) for i in range(n)]


def dense_rows(rows, n):
    """Sparse rows over n columns as a dense matrix."""
    return [dense(r, n) for r in rows]


def is_canonical(op):
    """OperatorPoly's invariant: nonzero int entries (no bool) over a den >= 1
    that shares no factor with all of them, and a dense view `coeff(k)` that
    holds the Fraction entry / den at each stored position and 0 elsewhere."""
    entries = [x for R in op.rows for row in R for x in row.values()]
    if not (all(type(x) is int and x for x in entries) and op.den >= 1
            and gcd(op.den, *entries) == 1):
        return False
    return all(op.coeff(k) == dense_rows(
        [{c: Scalar(x, op.den) for c, x in row.items()} for row in R], op.dim)
        for k, R in enumerate(op.rows))


def unit(m, label):
    """The dense unit vector of the basis vector of m labelled label."""
    v = [ZERO] * m.dim
    v[m.space.labels.index(label)] = ONE
    return v


def eye(n):
    """The dense n x n identity."""
    return [[ONE if a == b else ZERO for b in range(n)] for a in range(n)]
