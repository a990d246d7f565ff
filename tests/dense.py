"""Test-only dense helper: the package applies operators through sparse rows,
and the tests check the dense views (`eval`, `coeffs`) against it."""

from yosp.exact_arith import ZERO


def mat_vec(A, v):
    """A v for a dense matrix A and a dense vector v."""
    return [sum((a * x for a, x in zip(row, v)), ZERO) for row in A]
