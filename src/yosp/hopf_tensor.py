"""Coproduct-based tensor products, highest-weight extraction, and duals.

The coproduct t_ij(u) -> sum_k t_ik(u) (x) t_kj(u) turns the tensor product
of two modules into a module; the Koszul sign of the second factor is the
only sign involved and it is validated by the RTT verifier on the result.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact_arith import HALF, ONE, RatFunc, UniPoly, ZERO, rat
from ._linalg import add_multiple
from .super_linalg import OperatorPoly, bar, iprime, theta
from .rep_core import Factor, ModuleRep


class NoHighestVector(ValueError):
    """The maximal-weight space is not spanned by a single eigenvector."""


@dataclass(frozen=True)
class HighestWeight:
    """The eigenvalue triple (lambda_1, lambda_2, lambda_3) on the highest vector."""

    l1: RatFunc
    l2: RatFunc
    l3: RatFunc

    def consistency_holds(self) -> bool:
        """lambda_1(u) lambda_3(u+1/2) = lambda_2(u) lambda_2(u+1/2)."""
        return self.l1 * self.l3.shift(HALF) == self.l2 * self.l2.shift(HALF)

    def product(self, other: "HighestWeight") -> "HighestWeight":
        return HighestWeight(self.l1 * other.l1, self.l2 * other.l2,
                             self.l3 * other.l3)


def elementary_hw(alpha, beta) -> HighestWeight:
    """Highest weight of L(alpha,beta):
    ((u+alpha)/(u+beta), 1, (u+beta-1/2)/(u+alpha-1/2))."""
    alpha, beta = rat(alpha), rat(beta)
    return HighestWeight(RatFunc.linear_ratio(alpha, beta),
                         RatFunc.const(1),
                         RatFunc.linear_ratio(beta - HALF, alpha - HALF))


def central_from_hw(hw: HighestWeight) -> RatFunc:
    """c(u) = lambda_1(u) lambda_1(u+1)^{-1} lambda_2(u+1) lambda_2(u+3/2)."""
    return (hw.l1 / hw.l1.shift(1)) * hw.l2.shift(1) * hw.l2.shift(rat(3, 2))


def tensor_modules(a: ModuleRep, b: ModuleRep) -> ModuleRep:
    """Module on the tensor product space via the coproduct; each factor
    keeps its own truncation depth."""
    space = a.space.tensor(b.space)
    denom = a.denom * b.denom
    D = denom.degree
    n = space.dim
    T = [[None] * 3 for _ in range(3)]
    src_par_a = a.space.parity
    for i in range(1, 4):
        for j in range(1, 4):
            rows = [[{} for _ in range(n)] for _ in range(D + 1)]
            for k in range(1, 4):
                op_b = (bar(k) + bar(j)) % 2
                for p, Ap in enumerate(a.op(i, k).rows):
                    for q, Bq in enumerate(b.op(k, j).rows):
                        _kron_accumulate(rows[p + q], Ap, Bq, op_b, src_par_a)
            T[i - 1][j - 1] = OperatorPoly.from_rows(
                rows, (bar(i) + bar(j)) % 2).trim()
    hi = a.highest_index * b.dim + b.highest_index
    return ModuleRep(space, denom, T, a.c * b.c, hi, list(a.factors) + list(b.factors))


def _kron_accumulate(out, A, B, op_parity_b, source_parity_a):
    """out += A (x) B on sparse rows, with the Koszul sign of B passing A's
    source vector: entry ((i,k),(j,l)) gains A[i][j] B[k][l]
    (-1)^{op_parity_b parity(e_j)}."""
    nb = len(B)
    moved = {}  # column j of A -> the rows of B moved to columns (j, l)
    for i, rowa in enumerate(A):
        for j, x in rowa.items():
            if j not in moved:
                moved[j] = [(k, {j * nb + l: y for l, y in rowb.items()})
                            for k, rowb in enumerate(B) if rowb]
            coef = -x if (op_parity_b and source_parity_a[j]) else x
            for k, rowb in moved[j]:
                add_multiple(out[i * nb + k], coef, rowb)
    return out


def highest_weight_of(m: ModuleRep) -> HighestWeight:
    """Read off (lambda_1, lambda_2, lambda_3) from the maximal-weight vector."""
    top = m.space.top_weight()
    idx = [i for i, w in enumerate(m.space.weight) if w == top]
    if len(idx) != 1:
        raise NoHighestVector(f"maximal-weight space has dimension {len(idx)}")
    h = idx[0]
    lams = []
    for i in range(1, 4):
        rows = m.op(i, i).rows
        if any(h in row for R in rows for a, row in enumerate(R) if a != h):
            raise NoHighestVector("top vector is not a t_ii(u) eigenvector")
        lam = UniPoly([R[h].get(h, ZERO) for R in rows])
        lams.append(RatFunc(lam, m.denom))
    hw = HighestWeight(*lams)
    if not hw.consistency_holds():
        raise NoHighestVector("eigenvalue triple fails the consistency condition")
    return hw


def dual_module(m: ModuleRep) -> ModuleRep:
    """Dual via the anti-automorphism omega: t_ij(u) -> t_{i'j'}(-u+1/2) theta_i theta_j,
    acting on the dual basis by transposed matrices."""
    m.require_exact("the dual")
    D = m.denom.degree
    sign = ONE if D % 2 == 0 else -ONE
    denom = m.denom.reflect(HALF) * sign
    T = [[None] * 3 for _ in range(3)]
    par = m.space.parity
    for i in range(1, 4):
        for j in range(1, 4):
            op = m.op(iprime(i), iprime(j)).reflect(HALF)
            flip = sign * theta(i) * theta(j) == -1
            # Transposed, times (-1)^deg d theta_i theta_j; omega reverses
            # products only up to Koszul signs, so an odd series also takes
            # the parity sign of its new row b.
            rows = []
            for R in op.rows:
                Rt = [{} for _ in R]
                for a, row in enumerate(R):
                    for b, x in row.items():
                        Rt[b][a] = -x if flip != bool(op.op_parity and par[b]) else x
                rows.append(Rt)
            T[i - 1][j - 1] = OperatorPoly.from_rows(rows, op.op_parity).trim()
    factors = [Factor(-f.beta, -f.alpha, None) for f in m.factors]
    out = ModuleRep(m.space, denom, T, RatFunc.const(1), m.highest_index, factors)
    out.c = central_from_hw(highest_weight_of(out))
    return out
