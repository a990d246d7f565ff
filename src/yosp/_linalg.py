"""Exact linear algebra over the rationals.  Vectors and matrix rows are
sparse {index: nonzero entry} dicts of ints or Fractions; a matrix acts on a
vector through its sparse columns.  Row reduction (rank, kernels, inverses,
spans) runs through one sparse echelon Span of primitive integer rows,
fraction-free (Bareiss, Math. Comp. 22 (1968)), whose results are Fractions.
Dense matrices (lists of rows) remain only where perfbench pins them by
name or type, until the benchmark refresh (ROADMAP E0): zeros, mat_sub,
mat_scale and mat_mul, which the Gauss check computes with, and mat_add (all
in WRAPPED; mat_mul in matmul36_ms); the dense I/O of inverse, and
sparse_vec; OperatorPoly's dense constructor, coeffs, coeff(k) and eval
(_flipped_copy, digest, _tensor_probe, muladd_ns)."""

from __future__ import annotations

from math import gcd, lcm

from .exact_arith import ZERO, ONE, Scalar, rat


class SingularMatrix(ArithmeticError):
    """A required matrix inverse does not exist."""


def zeros(n: int, m: int = None):
    m = n if m is None else m
    return [[ZERO] * m for _ in range(n)]


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


def columns(rows):
    """The sparse columns {column: {row: entry}} of a matrix given by sparse rows."""
    cols = {}
    for a, row in enumerate(rows):
        for c, x in row.items():
            cols.setdefault(c, {})[a] = x
    return cols


def mat_vec(cols, v):
    """M v for M as its sparse columns: v[c] times column c, summed, no zeros."""
    out = {}
    for c, x in v.items():
        add_multiple(out, x, cols.get(c, {}))
    return out


def integral(v):
    """(w, s): the integer vector w = s v, for s the lcm of v's denominators."""
    s = lcm(*{x.denominator for x in v.values() if type(x) is not int})
    return {c: x.numerator * (s // x.denominator) for c, x in v.items()}, s


def primitive(v):
    """A nonzero integer vector over the gcd of its entries, its first entry > 0."""
    g = gcd(*v.values()) if v[min(v)] > 0 else -gcd(*v.values())
    return v if g == 1 else {c: x // g for c, x in v.items()}


def _eliminate(r, row, p):
    """(f r - g row, f), f > 0 least to clear column p; r edited in place if f = 1."""
    f = row[p] // gcd(row[p], r[p])
    if f != 1:
        r = {c: f * x for c, x in r.items()}
    add_multiple(r, -(r[p] // row[p]), row)
    return r, f


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
    return [{free: ONE, **{p: -r[free] for r, p in zip(R, pivots) if free in r}}
            for free in range(width) if free not in pivset]


def inverse(A):
    """A^{-1} for a dense square A, dense, from the sparse rows of [A | I]."""
    n = len(A)
    R, pivots = rref([{**sparse_vec(row), n + i: ONE} for i, row in enumerate(A)])
    if pivots[:n] != list(range(n)):
        raise SingularMatrix("matrix not invertible")
    return [[row.get(n + c, ZERO) for c in range(n)] for row in R[:n]]


class Span:
    """A subspace with its unique reduced-row-echelon basis, built a vector at
    a time.  Each row is kept as the primitive integer multiple of its reduced
    echelon row: positive at its pivot (its first column), with no entry at
    another row's pivot.  basis() and reduce() divide on the way out."""

    def __init__(self):
        self._rows = {}  # pivot column -> primitive integer row

    def _reduce(self, v):
        """(w, s): s > 0 times v modulo the span, as an integer vector w."""
        w, s = integral(v)
        # Subtracting a row adds no entry at a pivot: only v's pivots matter.
        for p in [c for c in w if c in self._rows]:
            w, f = _eliminate(w, self._rows[p], p)
            s *= f
        return w, s

    def reduce(self, v):
        """v modulo the span: no entry at a pivot, v minus a combination of rows."""
        w, s = self._reduce(v)
        return {c: Scalar(x, s) for c, x in w.items()}

    def add(self, v) -> bool:
        """Add a vector; True when it enlarged the span."""
        r = self._reduce(v)[0]
        if not r:
            return False
        r = primitive(r)
        p = min(r)
        for q, row in self._rows.items():
            if p in row:
                self._rows[q] = primitive(_eliminate(row, r, p)[0])
        self._rows[p] = r
        return True

    def contains(self, v) -> bool:
        return not self._reduce(v)[0]

    def pivots(self):
        return sorted(self._rows)

    def basis(self):
        """The reduced echelon rows, in pivot order, as Fractions."""
        return [{c: Scalar(x, row[p]) for c, x in row.items()}
                for p, row in sorted(self._rows.items())]
