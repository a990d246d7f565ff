"""Coproduct-based tensor products, t_ii(u) eigenvalues and highest weights,
and duals.

The coproduct t_ij(u) -> sum_k t_ik(u) (x) t_kj(u) turns the tensor product
of two modules into a module; the Koszul sign of the second factor is the
only sign involved and it is validated by the RTT verifier on the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Dict

from .exact_arith import HALF, ONE, RatFunc, Scalar, UniPoly, ZERO, rat
from ._linalg import columns, mat_vec
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
    keeps its own truncation depth.  The products accumulate in integers:
    T_ij is sum_k T_ik (x) T_kj over the lcm L of the products of their
    denominators, each term scaled by L over its own."""
    space = a.space.tensor(b.space)
    denom = a.denom * b.denom
    D = denom.degree
    n = space.dim
    T = [[None] * 3 for _ in range(3)]
    src_par_a = a.space.parity
    for i in range(1, 4):
        for j in range(1, 4):
            L = lcm(*(a.op(i, k).den * b.op(k, j).den for k in range(1, 4)))
            rows = [[{} for _ in range(n)] for _ in range(D + 1)]
            for k in range(1, 4):
                A, B, op_b = a.op(i, k), b.op(k, j), (bar(k) + bar(j)) % 2
                for p, Ap in enumerate(A.rows):
                    for q, Bq in enumerate(B.rows):
                        _kron_accumulate(rows[p + q], Ap, Bq, op_b, src_par_a,
                                         L // (A.den * B.den))
            rows = [[{c: v for c, v in r.items() if v} for r in R] for R in rows]
            T[i - 1][j - 1] = OperatorPoly.from_int_rows(rows, L, bar(i) + bar(j)).trim()
    hi = a.highest_index * b.dim + b.highest_index
    return ModuleRep(space, denom, T, a.c * b.c, hi, list(a.factors) + list(b.factors))


def _kron_accumulate(out, A, B, op_parity_b, source_parity_a, scale=1):
    """out += scale A (x) B on sparse rows, with the Koszul sign of B passing
    A's source vector: entry ((i,k),(j,l)) gains scale A[i][j] B[k][l]
    (-1)^{op_parity_b parity(e_j)}.  Sums that cancel stay stored as 0."""
    nb = len(B)
    rows_b = [(k, rowb) for k, rowb in enumerate(B) if rowb]
    for i, rowa in enumerate(A):
        for j, x in rowa.items():
            coef = -x * scale if (op_parity_b and source_parity_a[j]) else x * scale
            base = j * nb
            for k, rowb in rows_b:
                r = out[i * nb + k]
                get = r.get
                for l, y in rowb.items():
                    r[base + l] = get(base + l, 0) + coef * y
    return out


def _sparse_input(v) -> Dict[int, Scalar]:
    """A caller's {index: entry} vector as Scalars, its zero entries dropped."""
    return {i: y for i, x in v.items() if (y := rat(x))}


def tii_eigenvalue(m: ModuleRep, v: Dict[int, Scalar], i: int) -> RatFunc:
    """The eigenvalue of t_ii(u) on a common eigenvector v, a sparse
    {basis index: entry} dict, as a RatFunc; ValueError when v is zero or
    not an eigenvector of every coefficient of T_ii(u)."""
    v = _sparse_input(v)
    if not v:
        raise ValueError("eigenvalue of the zero vector")
    pivot = min(v)
    cs = []
    for R in m.op(i, i).rows:  # den times each coefficient: the test is scale-free
        w = mat_vec(columns(R), v)
        c = w.get(pivot, ZERO) / v[pivot]
        if w != ({a: c * x for a, x in v.items()} if c else {}):
            raise ValueError(f"vector is not a t_{i}{i}(u) eigenvector")
        cs.append(c / m.op(i, i).den)
    return RatFunc(UniPoly(cs), m.denom)


def highest_weight_of(m: ModuleRep) -> HighestWeight:
    """Read off (lambda_1, lambda_2, lambda_3) from the maximal-weight vector."""
    idx = m.space.weight_spaces()[m.space.top_weight()]
    if len(idx) != 1:
        raise NoHighestVector(f"maximal-weight space has dimension {len(idx)}")
    try:
        hw = HighestWeight(*(tii_eigenvalue(m, {idx[0]: ONE}, i)
                             for i in range(1, 4)))
    except ValueError as exc:
        raise NoHighestVector("top vector is not a t_ii(u) eigenvector") from exc
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
            T[i - 1][j - 1] = OperatorPoly.from_int_rows(rows, op.den, op.op_parity).trim()
    factors = [Factor(-f.beta, -f.alpha, None) for f in m.factors]
    out = ModuleRep(m.space, denom, T, RatFunc.const(1), m.highest_index, factors)
    out.c = central_from_hw(highest_weight_of(out))
    return out
