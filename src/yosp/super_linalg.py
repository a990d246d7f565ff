"""Z2-graded linear algebra on C^{1|2} and its tensor powers.

Basis indices run over 1, 2, 3 with parities bar(1)=bar(3)=1, bar(2)=0
(the middle vector is even), signs theta = (1, 1, -1), and the index
involution i -> i' = 4 - i.  Operators are stored as sparse rational rows
(OperatorPoly); the Koszul signs live in the tensor product's Kronecker step
(hopf_tensor) and in the two-leg encodings of P, Q and R(u), so there is
exactly one place where sign conventions can go wrong and the RTT verifier
will catch it there.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Tuple

from .exact_arith import KAPPA, Scalar, UniPoly, rat
from ._linalg import (add_multiple, eye, mat_add, mat_scale, mat_sub,
                      sparse_vec, zeros)

BAR = (None, 1, 0, 1)      # BAR[i] for i in 1..3
THETA = (None, 1, 1, -1)


def bar(i: int) -> int:
    return BAR[i]


def theta(i: int) -> int:
    return THETA[i]


def iprime(i: int) -> int:
    return 4 - i


@dataclass(frozen=True)
class GradedSpace:
    """Ordered basis with a parity bit, a weight, and an opaque label per vector."""

    dim: int
    parity: Tuple[int, ...]
    weight: Tuple[Scalar, ...]
    labels: Tuple

    def __post_init__(self):
        assert len(self.parity) == self.dim and len(self.weight) == self.dim

    def tensor(self, other: "GradedSpace") -> "GradedSpace":
        par, wt, lab = [], [], []
        for i in range(self.dim):
            for j in range(other.dim):
                par.append((self.parity[i] + other.parity[j]) % 2)
                wt.append(self.weight[i] + other.weight[j])
                lab.append(self.labels[i] + other.labels[j])
        return GradedSpace(self.dim * other.dim, tuple(par), tuple(wt), tuple(lab))

    def weight_spaces(self):
        """Map weight -> list of basis indices, in basis order."""
        out = {}
        for i, w in enumerate(self.weight):
            out.setdefault(w, []).append(i)
        return out

    def top_weight(self) -> Scalar:
        return max(self.weight)


def st_sign(i: int, j: int) -> int:
    """The super-transpose sign theta_i theta_j (-1)^{|i||j|+|j|}, so that
    (A^t)_ij = st_sign(i, j) A_{j'i'} for 1-based indices."""
    return theta(i) * theta(j) * (-1) ** (bar(i) * bar(j) + bar(j))


# ---------------------------------------------------------------------------
# The operators P, Q and the R-matrix on C^{1|2} x C^{1|2}.
#
# Everything is stored as a plain rational matrix in the convention where the
# entries of a multi-leg operator are the coefficients relative to the
# standard product basis and a two-leg element x (x) y placed in legs p < q
# carries the sign (-1)^{|x| * (parity of the source indices of the legs
# strictly between p and q)}.  In particular adjacent legs carry no sign.
# The same rule gives the leg-1 sign of T_1(u) used by the RTT verifier.
# This convention was fixed empirically: it is the unique one (up to the
# mirror image) under which the vector representation satisfies RTT.
# ---------------------------------------------------------------------------

def _pair_index(a: int, b: int) -> int:
    return 3 * (a - 1) + (b - 1)


def build_P_Q_R():
    """Return (P, Q, Rc): the permutation-type operator P with
    P[(i,j),(j,i)] = (-1)^{bar i bar j}, its partial super-transpose Q with
    Q[(i,i'),(j,j')] = (-1)^{bar j} theta_i theta_j, and the coefficient list
    of the cleared R-matrix u(u-kappa)R(u) = kappa P + u(-kappa-P+Q) + u^2."""
    P = zeros(9)
    Q = zeros(9)
    for i in range(1, 4):
        for j in range(1, 4):
            P[_pair_index(i, j)][_pair_index(j, i)] += rat((-1) ** (bar(i) * bar(j)))
            Q[_pair_index(i, iprime(i))][_pair_index(j, iprime(j))] += \
                rat((-1) ** bar(j) * theta(i) * theta(j))
    c0 = mat_scale(P, KAPPA)
    c1 = mat_add(mat_sub(mat_scale(eye(9), -KAPPA), P), Q)
    c2 = eye(9)
    return P, Q, [c0, c1, c2]


class OperatorPoly:
    """Operator-valued polynomial in u sharing one operator parity.

    rows[k] holds the u^k coefficient (ascending powers) as sparse rows: one
    {column: entry} dict per row, with no zero ever stored.  The dense forms
    are views at the boundary: the constructor takes dense matrices, and
    `coeffs`, `coeff(k)` and `eval(x)` return them.
    """

    __slots__ = ("rows", "op_parity")

    def __init__(self, coeffs, op_parity: int):
        self.rows = [[sparse_vec(row) for row in M] for M in coeffs]
        self.op_parity = op_parity % 2

    @classmethod
    def from_rows(cls, rows, op_parity: int) -> "OperatorPoly":
        """The operator with these sparse rows, adopted without a copy."""
        op = cls.__new__(cls)
        op.rows = rows
        op.op_parity = op_parity % 2
        return op

    @property
    def dim(self) -> int:
        return len(self.rows[0])

    @property
    def coeffs(self):
        """The coefficients as dense matrices."""
        return [self.coeff(k) for k in range(len(self.rows))]

    def coeff(self, k: int):
        """The u^k coefficient as a dense matrix."""
        out = zeros(self.dim)
        for o, row in zip(out, self.rows[k] if k < len(self.rows) else ()):
            for b, x in row.items():
                o[b] = x
        return out

    def eval(self, u0):
        """The dense matrix sum_k coeff(k) u0^k."""
        u0 = rat(u0)
        return self._combine(1, [(R, [(0, u0 ** k)])
                                 for k, R in enumerate(self.rows)]).coeff(0)

    def _combine(self, n: int, terms):
        """The n coefficients out[k] = sum of c * R over the terms
        (R, [(k, c), ...]) of sparse rows R."""
        out = [[{} for _ in range(self.dim)] for _ in range(n)]
        for R, targets in terms:
            for k, c in targets:
                if c:
                    for o, row in zip(out[k], R):
                        if row:
                            add_multiple(o, c, row)
        return OperatorPoly.from_rows(out, self.op_parity)

    def __add__(self, other):
        return self._combine(max(len(self.rows), len(other.rows)),
                             [(R, [(k, 1)]) for k, R in enumerate(self.rows)]
                             + [(R, [(k, 1)]) for k, R in enumerate(other.rows)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = rat(c)
        return self._combine(len(self.rows),
                             [(R, [(k, c)]) for k, R in enumerate(self.rows)])

    def mul_poly(self, p: UniPoly):
        return self._combine(len(self.rows) + p.degree,
                             [(R, [(k + l, c) for l, c in enumerate(p.coeffs)])
                              for k, R in enumerate(self.rows)])

    def _substitute(self, s: int, a):
        """u -> s u + a: u^m becomes sum_k C(m,k) s^k a^(m-k) u^k."""
        a = rat(a)
        return self._combine(len(self.rows), [
            (R, [(k, comb(m, k) * s ** k * a ** (m - k)) for k in range(m + 1)])
            for m, R in enumerate(self.rows)])

    def shift(self, a):
        """Substitute u -> u + a."""
        return self._substitute(1, a)

    def reflect(self, c0):
        """Substitute u -> c0 - u."""
        return self._substitute(-1, c0)

    def bracket_const(self, M, m_parity: int):
        """[self(u), M] = C M - (-1)^{|C||M|} M C for each coefficient C
        (super-bracket) and M given as sparse rows, formed row by row."""
        sign = 1 if (self.op_parity and m_parity) else -1
        out = []
        for C in self.rows:
            R = [{} for _ in C]
            for left, right, s in ((C, M, 1), (M, C, sign)):
                for o, row in zip(R, left):
                    for j, x in row.items():
                        add_multiple(o, x if s == 1 else -x, right[j])
            out.append(R)
        return OperatorPoly.from_rows(out, (self.op_parity + m_parity) % 2)

    def trim(self):
        rows = list(self.rows)
        while len(rows) > 1 and not any(rows[-1]):
            rows.pop()
        return OperatorPoly.from_rows(rows, self.op_parity)

    def __eq__(self, other):
        return self.trim().rows == other.trim().rows

    def parity_violations(self, space: GradedSpace):
        """List of (a, b) where a nonzero entry breaks the parity grading."""
        return [(a, b) for R in self.rows for a, row in enumerate(R)
                for b in row
                if (space.parity[a] + space.parity[b] + self.op_parity) % 2]
