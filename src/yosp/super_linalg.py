"""Z2-graded linear algebra on C^{1|2} and its tensor powers.

Basis indices run over 1, 2, 3 with parities bar(1)=bar(3)=1, bar(2)=0
(the middle vector is even), signs theta = (1, 1, -1), and the index
involution i -> i' = 4 - i.  An operator polynomial (OperatorPoly) is stored
as integer sparse rows over one least denominator; Fractions only enter and
leave at its boundary.  The Koszul signs live in the tensor product's
Kronecker step (hopf_tensor) and in the two-leg encodings of P, Q and R(u),
so there is exactly one place where sign conventions can go wrong and the
RTT verifier will catch it there.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd, lcm
from typing import Tuple

from .exact_arith import KAPPA, ONE, Scalar, UniPoly, rat
from ._linalg import add_multiple, sparse_vec, zeros

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
# Everything is stored as sparse rational rows in the convention where the
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
    """Return (P, Q, Rc) as sparse rows: the permutation-type operator P with
    P[(i,j),(j,i)] = (-1)^{bar i bar j}, its partial super-transpose Q with
    Q[(i,i'),(j,j')] = (-1)^{bar j} theta_i theta_j, and the coefficient list
    of the cleared R-matrix u(u-kappa)R(u) = kappa P + u(-kappa-P+Q) + u^2."""
    P = [{} for _ in range(9)]
    Q = [{} for _ in range(9)]
    for i in range(1, 4):
        for j in range(1, 4):
            P[_pair_index(i, j)][_pair_index(j, i)] = rat((-1) ** (bar(i) * bar(j)))
            Q[_pair_index(i, iprime(i))][_pair_index(j, iprime(j))] = \
                rat((-1) ** bar(j) * theta(i) * theta(j))
    c0 = [{b: KAPPA * x for b, x in row.items()} for row in P]
    c1 = [{a: -KAPPA} for a in range(9)]
    for row, p, q in zip(c1, P, Q):
        add_multiple(row, -1, p)
        add_multiple(row, 1, q)
    c2 = [{a: ONE} for a in range(9)]
    return P, Q, [c0, c1, c2]


class OperatorPoly:
    """Operator-valued polynomial in u sharing one operator parity.

    The value is rows / den: rows[k] holds den times the u^k coefficient
    (ascending powers) as integer sparse rows, {column: int} dicts that
    never store a zero, over the least such den >= 1, so that equal
    operators store equal rows.  Fractions cross only the boundary: in
    through from_rows, out through sparse_coeff(k) and its dense views.
    """

    __slots__ = ("rows", "den", "op_parity")

    def __init__(self, coeffs, op_parity: int):
        op = self.from_rows([[sparse_vec(r) for r in M] for M in coeffs], op_parity)
        self.rows, self.den, self.op_parity = op.rows, op.den, op.op_parity

    @classmethod
    def from_rows(cls, rows, op_parity: int) -> "OperatorPoly":
        """The operator with these sparse rows of rationals (no zero stored),
        scaled by the lcm of their denominators, which is the least den."""
        L = lcm(*{x.denominator for R in rows for row in R for x in row.values()})
        return cls.from_int_rows(
            [[{c: x.numerator * (L // x.denominator) for c, x in row.items()}
              for row in R] for R in rows], L, op_parity)

    @classmethod
    def from_int_rows(cls, rows, den: int, op_parity: int) -> "OperatorPoly":
        """rows / den for integer sparse rows without zeros and den >= 1,
        divided through by their gcd (the rows are adopted when it is 1)."""
        g = den
        for row in (r for R in rows for r in R):
            if g == 1:
                break
            g = gcd(g, *row.values())
        if g > 1:
            rows = [[{c: x // g for c, x in row.items()} for row in R] for R in rows]
        op = cls.__new__(cls)
        op.rows, op.den, op.op_parity = rows, den // g, op_parity % 2
        return op

    @property
    def dim(self) -> int:
        return len(self.rows[0])

    def sparse_coeff(self, k: int):
        """The u^k coefficient as sparse rows of Fractions: the one view out."""
        if k >= len(self.rows):
            return [{} for _ in range(self.dim)]
        d = self.den
        return [{c: Scalar(x, d) for c, x in row.items()} for row in self.rows[k]]

    @property
    def coeffs(self):
        """The coefficients as dense matrices."""
        return [self.coeff(k) for k in range(len(self.rows))]

    def coeff(self, k: int):
        """The u^k coefficient as a dense matrix."""
        out = zeros(self.dim)
        for o, row in zip(out, self.sparse_coeff(k)):
            for b, x in row.items():
                o[b] = x
        return out

    def eval(self, u0):
        """The dense matrix sum_k coeff(k) u0^k."""
        terms = [(self, [(k, 0, rat(u0) ** k) for k in range(len(self.rows))])]
        return self._combine(1, terms).coeff(0)

    def _combine(self, n: int, terms):
        """The n coefficients out[k] = sum of c * op.rows[m] / op.den over the
        terms (op, [(m, k, c), ...]), summed in integers over Ld Lc, the lcms
        of the ops' dens and of the denominators of the c's."""
        Ld = lcm(*(op.den for op, _ in terms))
        Lc = lcm(*{c.denominator for _, targets in terms for *_, c in targets})
        out = [[{} for _ in range(self.dim)] for _ in range(n)]
        for op, targets in terms:
            for m, k, c in targets:
                if c:
                    c = c.numerator * (Lc // c.denominator) * (Ld // op.den)
                    for o, row in zip(out[k], op.rows[m]):
                        if row:
                            add_multiple(o, c, row)
        return OperatorPoly.from_int_rows(out, Ld * Lc, self.op_parity)

    def __add__(self, other):
        return self._combine(max(len(self.rows), len(other.rows)), [
            (op, [(m, m, 1) for m in range(len(op.rows))]) for op in (self, other)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = rat(c)
        return self._combine(len(self.rows),
                             [(self, [(m, m, c) for m in range(len(self.rows))])])

    def mul_poly(self, p: UniPoly):
        return self._combine(len(self.rows) + p.degree, [(self, [
            (m, m + l, c) for m in range(len(self.rows))
            for l, c in enumerate(p.coeffs)])])

    def _substitute(self, s: int, a):
        """u -> s u + a: u^m becomes sum_k C(m,k) s^k a^(m-k) u^k."""
        a = rat(a)
        return self._combine(len(self.rows), [(self, [
            (m, k, comb(m, k) * s ** k * a ** (m - k))
            for m in range(len(self.rows)) for k in range(m + 1)])])

    def shift(self, a):
        """Substitute u -> u + a."""
        return self._substitute(1, a)

    def reflect(self, c0):
        """Substitute u -> c0 - u."""
        return self._substitute(-1, c0)

    def bracket_const(self, M, m_parity: int):
        """[self(u), M] = C M - (-1)^{|C||M|} M C for each coefficient C
        (super-bracket) and M given as sparse rows of rationals, formed row
        by row in integers over den times the lcm of M's denominators."""
        sign = 1 if (self.op_parity and m_parity) else -1
        Mop = OperatorPoly.from_rows([M], m_parity)
        (M,) = Mop.rows
        out = []
        for C in self.rows:
            R = [{} for _ in C]
            for left, right, s in ((C, M, 1), (M, C, sign)):
                for o, row in zip(R, left):
                    for j, x in row.items():
                        add_multiple(o, x * s, right[j])
            out.append(R)
        return OperatorPoly.from_int_rows(out, self.den * Mop.den,
                                          self.op_parity + m_parity)

    def trim(self):
        """Without its empty top coefficients: den and the gcd stay as they are."""
        k = len(self.rows)
        while k > 1 and not any(self.rows[k - 1]):
            k -= 1
        op = OperatorPoly.__new__(OperatorPoly)
        op.rows, op.den, op.op_parity = self.rows[:k], self.den, self.op_parity
        return op

    def __eq__(self, other):
        a, b = self.trim(), other.trim()
        return a.den == b.den and a.rows == b.rows
