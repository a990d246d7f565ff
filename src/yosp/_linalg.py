"""Exact linear algebra over the rationals.  Vectors and matrix rows are
sparse {index: nonzero entry} dicts; row reduction (rank, kernels, inverses,
spans) runs through one sparse echelon Span.  Dense matrices serve only the
Gauss spot check, the R-matrix constant and OperatorPoly's dense views."""

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


def sparse_vec(v):
    """A dense vector as a sparse {index: entry} dict of its nonzeros;
    testing `x is ZERO` first skips the shared zero without a Scalar call."""
    return {c: x for c, x in enumerate(v) if x is not ZERO and x}


def add_multiple(r, f, row):
    """r += f * row on sparse {column: entry} dicts, deleting entries that
    cancel; f = 1 and f = -1 take no product."""
    s = 1 if f == 1 else -1 if f == -1 else 0
    for c, y in row.items():
        y = y if s == 1 else -y if s == -1 else f * y
        x = r.get(c)
        if x is None:
            r[c] = y
        else:
            x = x + y
            if x:
                r[c] = x
            else:
                del r[c]


def sparse_mat_vec(rows, v):
    """M v for M as sparse rows and v a sparse {column: entry} dict, as a
    sparse dict without zeros."""
    out = {}
    for a, row in enumerate(rows):
        acc = None
        for c, x in row.items():
            y = v.get(c)
            if y is not None:
                acc = x * y if acc is None else acc + x * y
        if acc:
            out[a] = acc
    return out


def rref(rows):
    """Reduced row echelon form of sparse rows: (nonzero rows, pivots)."""
    span = Span()
    for r in rows:
        span.add(r)
    return span.basis(), span.pivots()


def rank(rows) -> int:
    return len(rref(rows)[1])


def nullspace(rows, width: int):
    """Basis of {v : A v = 0} for A as sparse rows over `width` columns: a
    sparse vector per free column, 1 there and 0 at the other free columns."""
    R, pivots = rref(rows)
    pivset = set(pivots)
    basis = []
    for free in range(width):
        if free in pivset:
            continue
        v = {free: ONE}
        for r, p in zip(R, pivots):
            if free in r:
                v[p] = -r[free]
        basis.append(v)
    return basis


def inverse(A):
    """A^{-1} for a dense square A, dense, from the sparse rows of [A | I]."""
    n = len(A)
    R, pivots = rref([{**sparse_vec(row), n + i: ONE} for i, row in enumerate(A)])
    if pivots[:n] != list(range(n)):
        raise SingularMatrix("matrix not invertible")
    return [[row.get(n + c, ZERO) for c in range(n)] for row in R[:n]]


class Span:
    """A subspace with its unique reduced-row-echelon basis, built a vector
    at a time: each row is a sparse {column: entry} dict, 1 at its pivot (its
    first column) and with no entry at another row's pivot."""

    def __init__(self):
        self._rows = {}  # pivot column -> sparse row

    def reduce(self, v):
        """v modulo the span, as a sparse dict with no entry at a pivot; v is
        a sparse {column: entry} dict without zeros."""
        r = dict(v)
        # Subtracting a row adds no entry at a pivot: only v's pivots matter.
        for p in [c for c in r if c in self._rows]:
            add_multiple(r, -r[p], self._rows[p])
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
                add_multiple(row, -row[p], r)
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
        """Copies of the rows, in pivot order (add edits its rows in place)."""
        return [dict(self._rows[p]) for p in self.pivots()]
