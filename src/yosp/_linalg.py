"""Exact linear algebra over the rationals: dense matrix products, and row
reduction (rank, kernels, inverses, spans) through one sparse echelon Span."""

from __future__ import annotations

from .exact_arith import ZERO, ONE, rat


class SingularMatrix(ArithmeticError):
    """A required matrix inverse does not exist."""


def zeros(n: int, m: int = None):
    m = n if m is None else m
    return [[ZERO] * m for _ in range(n)]


def eye(n: int):
    out = zeros(n)
    for i in range(n):
        out[i][i] = ONE
    return out


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(A, c):
    c = rat(c)
    return [[c * a for a in row] for row in A]


def mat_mul(A, B):
    """Product skipping zero entries of A (the matrices here are quite sparse)."""
    n, k = len(A), len(B[0])
    out = zeros(n, k)
    for i, row in enumerate(A):
        oi = out[i]
        for j, a in enumerate(row):
            if a == 0:
                continue
            bj = B[j]
            for l, b in enumerate(bj):
                if b != 0:
                    oi[l] += a * b
    return out


def mat_vec(A, v):
    """A v over the nonzeros of v; `is ZERO` skips the shared zero cheaply."""
    nz = [(j, x) for j, x in enumerate(v) if x is not ZERO and x]
    out = [ZERO] * len(A)
    for i, row in enumerate(A):
        acc = ZERO
        for j, x in nz:
            a = row[j]
            if a is not ZERO and a:
                acc += a * x
        out[i] = acc
    return out


def transpose(A):
    return [list(col) for col in zip(*A)]


def mat_eq(A, B):
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def rref(rows):
    """Reduced row echelon form: (its nonzero rows, their pivot columns)."""
    span = Span(len(rows[0]) if rows else 0)
    for r in rows:
        span.add(r)
    return span.basis(), span.pivots()


def rank(rows) -> int:
    return len(rref(rows)[1])


def nullspace(A):
    """Basis of {v : A v = 0} with free variables set to 1, as a list of vectors."""
    if not A:
        return []
    m = len(A[0])
    R, pivots = rref(A)
    pivset = set(pivots)
    basis = []
    for free in range(m):
        if free in pivset:
            continue
        v = [ZERO] * m
        v[free] = ONE
        for r, p in enumerate(pivots):
            v[p] = -R[r][free]
        basis.append(v)
    return basis


def inverse(A):
    n = len(A)
    aug = [list(row) + list(e) for row, e in zip(A, eye(n))]
    R, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise SingularMatrix("matrix not invertible")
    return [row[n:] for row in R[:n]]


def _sub_multiple(r, f, row):
    """r -= f * row on sparse {column: entry} dicts, dropping what cancels."""
    for c, y in row.items():
        x = r.get(c, ZERO) - f * y
        if x:
            r[c] = x
        else:
            del r[c]


class Span:
    """A subspace with its unique reduced-row-echelon basis, built a vector
    at a time: each row is a sparse {column: entry} dict, 1 at its pivot (its
    first column) and with no entry at another row's pivot."""

    def __init__(self, dim: int):
        self.ambient_dim = dim
        self._rows = {}  # pivot column -> sparse row

    def reduce(self, v):
        """v modulo the span, as a sparse dict with no entry at a pivot."""
        r = {c: x for c, x in enumerate(v) if x is not ZERO and x}
        # Subtracting a row adds no entry at a pivot: only v's pivots matter.
        for p in [c for c in r if c in self._rows]:
            _sub_multiple(r, r[p], self._rows[p])
        return r

    def add(self, v) -> bool:
        """Add a vector; True when it enlarged the span."""
        r = self.reduce(v)
        if not r:
            return False
        p = min(r)
        inv = ONE / r[p]
        r = {c: x * inv for c, x in r.items()}
        for row in self._rows.values():
            if p in row:
                _sub_multiple(row, row[p], r)
        self._rows[p] = r
        return True

    def contains(self, v) -> bool:
        return not self.reduce(v)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def pivots(self):
        return sorted(self._rows)

    def basis(self):
        """The rows, dense, in pivot order."""
        return [[self._rows[p].get(c, ZERO) for c in range(self.ambient_dim)]
                for p in self.pivots()]
