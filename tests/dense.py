"""Test-only dense helpers: the package applies operators through sparse rows
and takes and returns sparse {index: entry} vectors; the tests build dense
inputs and check dense views (`eval`, `coeffs`) with these."""

from yosp.exact_arith import ONE, ZERO


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


def eye(n):
    """The dense n x n identity."""
    return [[ONE if a == b else ZERO for b in range(n)] for a in range(n)]
