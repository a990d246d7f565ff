"""Test-only dense helpers: the package applies operators through sparse rows
and takes and returns sparse {index: entry} vectors; the tests build dense
inputs and check dense views (`eval`, `coeffs`) with these."""

from yosp.exact_arith import ZERO


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
