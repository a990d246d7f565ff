"""Dense exact linear algebra over the rationals: products, rank, kernels, spans."""

from __future__ import annotations

from .exact_arith import Scalar, ZERO, ONE, rat


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
    out = [ZERO] * len(A)
    for i, row in enumerate(A):
        acc = ZERO
        for a, x in zip(row, v):
            if a != 0 and x != 0:
                acc += a * x
        out[i] = acc
    return out


def transpose(A):
    return [list(col) for col in zip(*A)]


def mat_eq(A, B):
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def rref(rows):
    """Reduced row echelon form (on a copy); returns (rows, pivot column list)."""
    R = [list(r) for r in rows]
    if not R:
        return R, []
    m = len(R[0])
    pivots = []
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, len(R)) if R[i][c] != 0), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = ONE / R[r][c]
        R[r] = [x * inv for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == len(R):
            break
    return R[:r] + [[ZERO] * m] * (len(R) - r), pivots


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


class Span:
    """Incrementally built subspace with an echelonized basis."""

    def __init__(self, dim: int):
        self.ambient_dim = dim
        self._rows = {}  # pivot index -> reduced vector

    def _reduce(self, v):
        v = list(v)
        for p, row in self._rows.items():
            if v[p] != 0:
                f = v[p]
                v = [x - f * y for x, y in zip(v, row)]
        return v

    def add(self, v) -> bool:
        """Add a vector; True when it enlarged the span."""
        v = self._reduce(v)
        p = next((i for i, x in enumerate(v) if x != 0), None)
        if p is None:
            return False
        inv = ONE / v[p]
        v = [x * inv for x in v]
        for q in self._rows:
            if self._rows[q][p] != 0:
                f = self._rows[q][p]
                self._rows[q] = [x - f * y for x, y in zip(self._rows[q], v)]
        self._rows[p] = v
        return True

    def contains(self, v) -> bool:
        return all(x == 0 for x in self._reduce(v))

    @property
    def dim(self) -> int:
        return len(self._rows)

    def basis(self):
        return [self._rows[p] for p in sorted(self._rows)]
