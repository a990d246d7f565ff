"""Verifiers and structure analysis for constructed modules.

RTT and central-relation verification by exact sampling with degree-bound
certification; Gauss decomposition checks via Schur complements; singular
vectors, cyclic spans, quotients and irreducibility; the tensor-product
irreducibility criterion; Drinfeld polynomials; characters; and the
decomposition under the embedded osp(1|2).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import lcm
from operator import mul
from typing import Dict, List, Sequence, Tuple

from .exact_arith import (HALF, KAPPA, ONE, RatFunc, Scalar, UniPoly, ZERO,
                          rat, rat_str)
from ._linalg import (SingularMatrix, Span, add_multiple, columns, integral,
                      inverse, mat_mul, mat_scale, mat_sub, mat_vec, nullspace,
                      primitive, rank)
from .super_linalg import (GradedSpace, OperatorPoly, bar, build_P_Q_R, iprime,
                           st_sign)
from .rep_core import ModuleRep, TruncatedInput, to_json_dict
from .hopf_tensor import (HighestWeight, _sparse_input,
                          tii_eigenvalue)  # re-export


class RelationViolation(ArithmeticError):
    """An algebraic relation failed at a sample point; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotInvariant(ValueError):
    """The given subspace is not stable under the module action."""


class NotDominant(ValueError):
    """lambda_2/lambda_1 is not P(u+1)/P(u) for any monic P in Q[u]: the
    degree it forces is not in Z_+, or the gcd dispersion of
    drinfeld_polynomial leaves roots that no string within that degree pairs."""


class WeightMismatch(ArithmeticError):
    """Embedded osp(1|2) eigenvalues disagree with the stored weights."""


@dataclass
class Subspace:
    """A subspace of a module's space; basis vectors are sparse {index: entry} dicts."""

    basis: List[Dict[int, Scalar]]

    @property
    def dim(self) -> int:
        return len(self.basis)


@dataclass
class WeightCharacter:
    """Weight multiplicities, highest weight first."""

    pairs: List[Tuple[Scalar, int]]

    @property
    def total(self) -> int:
        return sum(m for _, m in self.pairs)


@dataclass(frozen=True)
class DrinfeldPoly:
    P: UniPoly


def module_digest(m: ModuleRep) -> str:
    blob = json.dumps(to_json_dict(m)).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Relation verifiers
#
# Both verifiers compare sparse integer matrices.  A point x = a/q is
# evaluated once as q^E L T_ij(x) (E bounds every deg T_ij, L is the lcm of
# their coefficient denominators); R(w) is cleared the same way.  Each side
# of either relation is bilinear in the evaluations of T and linear in R, so
# these nonzero factors scale both sides alike.  Only the checked columns of
# a product are formed.  The sample points are plain progressions that skip
# no point: the cleared sides are polynomials, so distinct points beyond the
# degree bound certify, roots of d(u) included.
# ---------------------------------------------------------------------------

# A truncated module is exact only away from its cut: the relation verifiers
# compare columns RELATION_MARGIN levels below it, and singular vectors are
# sought SINGULAR_MARGIN levels below it.
RELATION_MARGIN = 4
SINGULAR_MARGIN = 2


def _checked_cols(m: ModuleRep, margin: int):
    """The columns a verifier compares; TruncatedInput when there are none."""
    cols = m.interior_indices(margin)
    if not cols:
        raise TruncatedInput(
            f"no column of this dim-{m.dim} module lies {margin} levels below "
            f"its truncation cut; build it deeper to verify it")
    return cols


def _int_rows(coeffs, E, scale=1):
    """scale sum_k coeffs[k] u^k for integer sparse-row coefficients, as
    sparse rows: per row, (column, integer coefficients ascending, padded to
    degree E) for each nonzero entry."""
    out = []
    for r in range(len(coeffs[0])):
        ints = {}
        for k, R in enumerate(coeffs):
            for c, x in R[r].items():
                ints.setdefault(c, [0] * (E + 1))[k] = x * scale
        out.append(list(ints.items()))
    return out


_RC = _int_rows(OperatorPoly.from_rows(build_P_Q_R()[2], 0).rows, 2)  # cleared R


def _eval_rows(rows, E, x):
    """q^E times the _int_rows polynomial at x = a/q, as sparse rows of
    (column, integer value)."""
    a, q = x.numerator, x.denominator
    pw = [a ** k * q ** (E - k) for k in range(E + 1)]
    out = []
    for entries in rows:
        row = []
        for c, ints in entries:
            v = sum(map(mul, ints, pw))
            if v:
                row.append((c, v))
        out.append(row)
    return out


def _int_module(m: ModuleRep):
    """(E, L, ops): E bounds the degree of every T_ij, L is the lcm of their
    denominators, and ops[i][j] is _int_rows of L T_ij."""
    E = max(len(op.rows) for row in m.T for op in row) - 1
    L = lcm(*(op.den for row in m.T for op in row))
    return E, L, [[_int_rows(op.rows, E, L // op.den) for op in row] for row in m.T]


def _eval_T(ops, E, x):
    return [[_eval_rows(rows, E, x) for rows in row] for row in ops]


def _cut(T, colpos):
    """Evaluated T restricted to the checked columns, renumbered by colpos."""
    return [[[[(colpos[c], v) for c, v in r if c in colpos] for r in rows]
             for rows in row] for row in T]


def _prod(A, Bcut, width):
    """A @ B[:, cols] from sparse rows, as {row * width + position: value}."""
    out = {}
    for t, row in enumerate(A):
        base = t * width
        for j, a in row:
            for s, b in Bcut[j]:
                k = base + s
                out[k] = out.get(k, 0) + a * b
    return out


def _combine(terms):
    """The sum of c * X over the (c, X) terms, keeping nonzero entries only."""
    acc = {}
    for c, X in terms:
        for k, x in X.items():
            acc[k] = acc.get(k, 0) + c * x
    return {k: v for k, v in acc.items() if v}


def _require_grading(m: ModuleRep):
    """RelationViolation, with the first offending entry (i, j, a, b) of T_ij
    as witness, when m breaks its weight and parity grading."""
    bad = m.grading_violations()
    if bad:
        i, j, a, b = bad[0]
        raise RelationViolation(
            f"grading fails: T_{i}{j} entry ({a},{b}) breaks the weight or "
            f"parity grading ({len(bad)} such entries)", witness=bad[0])


def verify_rtt(m: ModuleRep, seed: int = 0) -> dict:
    """Certify R(u-v) T_1(u) T_2(v) = T_2(v) T_1(u) R(u-v) on S x S.

    Cleared, both sides have degree <= deg d + 2 in each variable, so
    agreement on S x S, S = {base + 2k : k < deg d + 3}, proves the identity.
    Only pairs (s_i, s_j), i < j, are multiplied out ("by": "product").  For
    even T (the grading check), P Rc(w) P = Rc(w) and Rc(w) Rc(-w) =
    (w^2-1)(w^2-9/4) make the relation at (u, v) imply it at (v, u) when
    (u-v)^2 is not 1 or 9/4; S's differences are nonzero even integers
    ("mirror").  Rc(0) = kappa P makes it hold at u = v ("diagonal").
    Truncated modules are checked on columns a margin below the cut.
    RelationViolation (witness: the first failing pair, row-major) on
    failure or a broken grading; TruncatedInput when no column is left.
    """
    _require_grading(m)
    D = m.denom.degree
    base = random.Random(seed).randint(-6, 6)
    S = [rat(base + 2 * k) for k in range(D + 3)]
    cols = _checked_cols(m, RELATION_MARGIN)
    colpos = {c: k for k, c in enumerate(cols)}
    width = len(cols)
    E, _, ops = _int_module(m)
    # Block (e, f) = ((A,B), (C,D)) of T_1(u) T_2(v), resp. T_2(v) T_1(u),
    # carries the Koszul sign -1 when |A|+|C| and |B|, resp. |D|, are odd.
    idx = [(e // 3 + 1, e % 3 + 1) for e in range(9)]
    sx = [[-1 if (bar(A) + bar(C)) % 2 and bar(B) else 1
           for C, _ in idx] for A, B in idx]
    sy = [[-1 if (bar(A) + bar(C)) % 2 and bar(Dd) else 1
           for C, Dd in idx] for A, _ in idx]
    at = [(T, _cut(T, colpos)) for T in (_eval_T(ops, E, s) for s in S)]
    for i, (u0, (Tu, Tu_cut)) in enumerate(zip(S, at)):
        for v0, (Tv, Tv_cut) in zip(S[i + 1:], at[i + 1:]):
            X, Y = [None] * 81, [None] * 81
            for e, (A, B) in enumerate(idx):
                for f, (C, Dd) in enumerate(idx):
                    X[9 * e + f] = _prod(Tu[A - 1][C - 1], Tv_cut[B - 1][Dd - 1],
                                         width)
                    Y[9 * e + f] = _prod(Tv[B - 1][Dd - 1], Tu_cut[A - 1][C - 1],
                                         width)
            R = _eval_rows(_RC, 2, u0 - v0)
            R_cols = [[] for _ in range(9)]
            for p, row in enumerate(R):
                for e, c in row:
                    R_cols[e].append((p, c))
            for p in range(9):
                for f in range(9):
                    diff = _combine(
                        [(c * sx[e][f], X[9 * e + f]) for e, c in R[p]]
                        + [(-c * sy[p][e], Y[9 * p + e]) for e, c in R_cols[f]])
                    if diff:  # the first differing entry, row-major
                        t, s = divmod(min(diff), width)
                        raise RelationViolation(
                            f"RTT fails at (u,v)=({u0},{v0}) "
                            f"block ({p},{f}) entry ({t},{cols[s]})",
                            witness=(u0, v0, (p, f, t, cols[s])))
    samples = [{"u": rat_str(u0), "v": rat_str(v0), "pass": True,
                "by": "product" if i < j else "mirror" if i > j else "diagonal"}
               for i, u0 in enumerate(S) for j, v0 in enumerate(S)]
    return {"check": "rtt", "module_digest": module_digest(m),
            "degree_bound": [D + 2, D + 2], "grid": [len(S), len(S)],
            "samples": samples, "columns_checked": width,
            "backend": Scalar.__qualname__, "result": "pass"}


def verify_central(m: ModuleRep, seed: int = 0) -> dict:
    """Certify T(u-kappa) T^t(u) = c(u) d(u-kappa) d(u) identity at samples.

    The left side is a polynomial of degree <= 2 deg d, so the right side
    must be one too, and agreement at the 2 deg d + 3 plain points
    base + 1/7 + k proves the identity, roots of d and poles of c included.
    Raises RelationViolation with a witness on failure, when m breaks its
    grading, or when c(u) d(u-kappa) d(u) is not a polynomial, and
    TruncatedInput when no column lies below the margin.
    """
    _require_grading(m)
    D = m.denom.degree
    base = random.Random(seed).randint(-6, 6)
    us = [base + rat(1, 7) + k for k in range(2 * D + 3)]
    target = m.c * RatFunc(m.denom.shift(-KAPPA)) * RatFunc(m.denom)
    if target.den.degree:
        raise RelationViolation(
            f"c(u) d(u-kappa) d(u) = {target} is not a polynomial",
            witness=target)
    cols = _checked_cols(m, RELATION_MARGIN)
    colpos = {c: k for k, c in enumerate(cols)}
    width = len(cols)
    E, L, ops = _int_module(m)
    # (T^t)_kj = st_sign(k, j) T_{j'k'}, 1-based.
    st = [[st_sign(k, j) for j in range(1, 4)] for k in range(1, 4)]
    samples = []
    for u0 in us:
        x = u0 - KAPPA
        Tx = _eval_T(ops, E, x)
        Tu_cut = _cut(_eval_T(ops, E, u0), colpos)
        want = (target.num(u0)
                * L * x.denominator ** E * L * u0.denominator ** E)
        if want.denominator == 1:
            want = want.numerator
        diag = {c * width + k: want for k, c in enumerate(cols)}
        for i in range(3):
            for j in range(3):
                terms = [(st[k][j], _prod(Tx[i][k], Tu_cut[2 - j][2 - k], width))
                         for k in range(3)]
                if i == j:
                    terms.append((-1, diag))
                diff = _combine(terms)
                if diff:  # the first differing entry, row-major
                    t, s = divmod(min(diff), width)
                    raise RelationViolation(
                        f"central relation fails at u={u0} "
                        f"entry ({i+1},{j+1})({t},{cols[s]})",
                        witness=(u0, (i + 1, j + 1, t, cols[s])))
        samples.append({"u": rat_str(u0), "pass": True})
    return {"check": "central", "module_digest": module_digest(m),
            "degree_bound": 2 * D, "samples": samples,
            "columns_checked": width, "backend": Scalar.__qualname__,
            "result": "pass"}


def _t_blocks_at(m: ModuleRep, x) -> List[List[List[List[Scalar]]]]:
    """Matrices of t_ij(x) = T_ij(x)/d(x); SingularMatrix at roots of d."""
    dx = m.denom(x)
    if dx == 0:
        raise SingularMatrix(f"d({x}) = 0; pick another sample point")
    inv = ONE / dx
    return [[mat_scale(m.op(i, j).eval(x), inv) for j in range(1, 4)]
            for i in range(1, 4)]


def _gauss_at(m: ModuleRep, x):
    """Gaussian generators at the point x via Schur complements."""
    t = _t_blocks_at(m, x)
    h1 = t[0][0]
    h1i = inverse(h1)
    e12 = mat_mul(h1i, t[0][1])
    e13 = mat_mul(h1i, t[0][2])
    f21 = mat_mul(t[1][0], h1i)
    h2 = mat_sub(t[1][1], mat_mul(t[1][0], e12))
    h2i = inverse(h2)
    r23 = mat_sub(t[1][2], mat_mul(t[1][0], e13))
    e23 = mat_mul(h2i, r23)
    f32 = mat_mul(mat_sub(t[2][1], mat_mul(t[2][0], e12)), h2i)
    # h3 = t_33 - [t_31 t_32] [[t_11 t_12],[t_21 t_22]]^{-1} [t_13; t_23]
    h3 = mat_sub(mat_sub(t[2][2], mat_mul(t[2][0], e13)), mat_mul(f32, r23))
    return {"h1": h1, "h2": h2, "h3": h3, "e12": e12, "e23": e23,
            "f21": f21, "f32": f32}


def gauss_diagonal_check(m: ModuleRep, u0) -> dict:
    """Check the Gauss-generator relations at the point u0:

    e_12(u0) = -e_23(u0+1/2), f_21(u0) = f_32(u0+1/2),
    h_1(u0) h_3(u0+1/2) = h_2(u0) h_2(u0+1/2), and
    c(u0) = h_1(u0) h_1(u0+1)^{-1} h_2(u0+1) h_2(u0+3/2).
    The relations hold only on an exact module: TruncatedInput otherwise.
    RelationViolation when m breaks its grading.
    """
    _require_grading(m)
    m.require_exact("the Gauss check")
    u0 = rat(u0)
    g0 = _gauss_at(m, u0)
    g_half = _gauss_at(m, u0 + HALF)
    g1 = _gauss_at(m, u0 + 1)
    g32 = _gauss_at(m, u0 + rat(3, 2))
    n = m.dim
    checks = {}
    checks["ef_e"] = g0["e12"] == mat_scale(g_half["e23"], -1)
    checks["ef_f"] = g0["f21"] == g_half["f32"]
    checks["hoht"] = (mat_mul(g0["h1"], g_half["h3"])
                      == mat_mul(g0["h2"], g_half["h2"]))
    cu = mat_mul(mat_mul(g0["h1"], inverse(g1["h1"])),
                 mat_mul(g1["h2"], g32["h2"]))
    c = m.c(u0)
    checks["cu"] = cu == [[c if a == b else ZERO for b in range(n)] for a in range(n)]
    if not all(checks.values()):
        failed = [k for k, v in checks.items() if not v]
        raise RelationViolation(f"Gauss relations fail at u0={u0}: {failed}",
                                witness=(u0, failed))
    return {"check": "gauss", "module_digest": module_digest(m),
            "u0": rat_str(u0), "relations": sorted(checks), "result": "pass"}


# ---------------------------------------------------------------------------
# Submodule structure.  Each entry point refuses a module that breaks its
# grading once, then runs the unchecked _singular_vectors, _cyclic_span, ...
# ---------------------------------------------------------------------------

_RAISING, _LOWERING = ((1, 2), (1, 3), (2, 3)), ((2, 1), (3, 1), (3, 2))


def _coeff_matrices(m: ModuleRep, pairs=None):
    """The u-coefficients of T_ij for (i, j) in pairs (default all nine) as
    the stored integer rows: den times each, which changes no kernel or span."""
    pairs = pairs or [(i, j) for i in range(1, 4) for j in range(1, 4)]
    return [R for i, j in pairs for R in m.op(i, j).rows]


def _restrict(cols, idxs):
    """The nonempty rows of a matrix, given by its sparse columns, cut to the
    columns idxs and renumbered 0, 1, ..., in row order."""
    out = {}
    for k, c in enumerate(idxs):
        for a, x in cols.get(c, {}).items():
            out.setdefault(a, {})[k] = x
    return [out[a] for a in sorted(out)]


def singular_vectors(m: ModuleRep) -> Subspace:
    """Common kernel of all u-coefficients of T_12, T_13, T_23, weight by
    weight, as sparse vectors: one per free index of each weight space."""
    _require_grading(m)
    return _singular_vectors(m)


def _singular_vectors(m):
    raising = columns([row for R in _coeff_matrices(m, _RAISING) for row in R])
    cols_ok = set(m.interior_indices(SINGULAR_MARGIN))
    basis = []
    for _, idxs in sorted(m.space.weight_spaces().items(), reverse=True):
        idxs = [i for i in idxs if i in cols_ok]
        for v in nullspace(_restrict(raising, idxs), len(idxs)):
            basis.append({idxs[k]: x for k, x in v.items()})
    return Subspace(basis)


def _is_highest_vector(m: ModuleRep, v: Dict[int, Scalar]) -> bool:
    """True when m is exact and v is singular and a t_ii(u) eigenvector
    for i = 1, 2, 3."""
    if m.truncated or any(mat_vec(columns(R), v) for R in _coeff_matrices(m, _RAISING)):
        return False
    try:
        for i in range(1, 4):
            tii_eigenvalue(m, v, i)
    except ValueError:
        return False
    return True


def cyclic_span(m: ModuleRep, v: Dict[int, Scalar]) -> Subspace:
    """Closure of span{v} under all coefficient matrices of all nine T_ij,
    with its reduced echelon basis; v is a sparse {basis index: entry} dict.
    ValueError when v is zero.

    When m is exact and v is a highest vector (singular and a t_ii(u)
    eigenvector for i = 1, 2, 3), only the coefficients of T_21, T_31 and
    T_32 are applied.  This assumes m satisfies the RTT relation: then the
    triangular decomposition X = X^- X^0 X^+ of the Yangian holds (Molev,
    Yangians and Classical Lie Algebras, AMS 2007), X^+ and X^0 map v to
    multiples of v, and so X v = X^- v, the span of the lowering
    coefficients applied repeatedly to v.  Every other (m, v) spins all nine
    operators.  The spin runs in integers (each operator's stored integer
    rows, new vectors divided by their gcd); no scaling changes a span, and
    its reduced echelon basis is unique.
    """
    _require_grading(m)
    return _cyclic_span(m, v)


def _cyclic_span(m, v):
    v = _sparse_input(v)
    span = Span()
    if not span.add(v):
        raise ValueError("cyclic span of the zero vector")
    mats = [columns(R) for R in
            _coeff_matrices(m, _LOWERING if _is_highest_vector(m, v) else None)]
    frontier = [primitive(integral(v)[0])]
    while frontier:
        nxt = []
        for x in frontier:
            for C in mats:
                y = mat_vec(C, x)
                if span.add(y):
                    nxt.append(primitive(y))
        frontier = nxt
    return Subspace(span.basis())


def quotient_module(m: ModuleRep, k: Subspace) -> ModuleRep:
    """Induced action on the complement of an invariant subspace."""
    _require_grading(m)
    return _quotient_module(m, k)


def _quotient_module(m, k):
    span = Span()
    for b in k.basis:
        if len({m.space.weight[i] for i in b}) > 1:
            raise ValueError("subspace basis must be weight-homogeneous")
        span.add(b)
    if len(span.pivots()) == m.dim:
        raise ValueError("the subspace is the whole module, so the quotient "
                         "is zero")
    for C in map(columns, _coeff_matrices(m)):
        for b in k.basis:
            if not span.contains(mat_vec(C, b)):
                raise NotInvariant("subspace is not stable under the action")
    pivots = set(span.pivots())
    keep = [i for i in range(m.dim) if i not in pivots]
    pos = {i: a for a, i in enumerate(keep)}
    n = len(keep)
    T = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            op = m.T[i][j]
            rows = []
            for R in map(op.sparse_coeff, range(len(op.rows))):
                cols = columns(R)
                Q = [{} for _ in range(n)]
                # Column b of the quotient is column keep[b] of R modulo k.
                for b, c in enumerate(keep):
                    for a, x in span.reduce(cols.get(c, {})).items():
                        Q[pos[a]][b] = x
                rows.append(Q)
            T[i][j] = OperatorPoly.from_rows(rows, op.op_parity).trim()
    space = GradedSpace(n,
                        tuple(m.space.parity[i] for i in keep),
                        tuple(m.space.weight[i] for i in keep),
                        tuple(m.space.labels[i] for i in keep))
    hi = pos.get(m.highest_index)
    hi = max(range(n), key=lambda a: space.weight[a]) if hi is None else hi
    return ModuleRep(space, m.denom, T, m.c, hi, list(m.factors))


def is_irreducible(m: ModuleRep):
    """Two-sided test: singular space is a line and the highest vector is cyclic.

    Returns (bool, certificate dict).
    """
    m.require_exact("irreducibility")
    _require_grading(m)
    sing = _singular_vectors(m)
    span = _cyclic_span(m, {m.highest_index: ONE})
    ok = sing.dim == 1 and span.dim == m.dim
    cert = {"singular_dim": sing.dim, "cyclic_dim": span.dim, "dim": m.dim}
    if sing.dim > 1:
        wit = next(b for b in sing.basis if b.keys() - {m.highest_index})
        cert["witness"] = [rat_str(wit.get(i, ZERO)) for i in range(m.dim)]
    return ok, cert


# ---------------------------------------------------------------------------
# Tensor-product irreducibility criterion
# ---------------------------------------------------------------------------

def _is_znn(x) -> bool:
    x = rat(x)
    return x >= 0 and x.denominator == 1


def check_tensor_criterion(pairs: Sequence[Tuple]) -> bool:
    """Sufficient criterion for irreducibility of L(a_1,b_1) (x) ... (x) L(a_k,b_k).

    For each h < k, with the multisets over i = h..k:
    (1) if {b_h-a_i, b_i-a_h}_+ is nonempty, then b_h-a_h must be a minimal
        element of {b_h-a_i, b_i-a_h, b_h-a_i+1/2, b_i-a_h+1/2}_+;
    (2) if it is empty but the shifted multiset {b_h-a_i+1/2, b_i-a_h+1/2}_+
        is not, then b_h-a_h+1/2 must be a minimal element of the latter.
    Here {..}_+ keeps the entries lying in Z_+ = {0, 1, 2, ...}.
    """
    ps = [(rat(a), rat(b)) for a, b in pairs]
    k = len(ps)
    for h in range(k - 1):
        ah, bh = ps[h]
        plain = []
        shifted = []
        for i in range(h, k):
            ai, bi = ps[i]
            plain.extend([bh - ai, bi - ah])
            shifted.extend([bh - ai + HALF, bi - ah + HALF])
        plain_p = [x for x in plain if _is_znn(x)]
        shifted_p = [x for x in shifted if _is_znn(x)]
        if plain_p:
            combined = plain_p + shifted_p
            if not (_is_znn(bh - ah) and bh - ah == min(combined)):
                return False
        elif shifted_p:
            if not (_is_znn(bh - ah + HALF) and bh - ah + HALF == min(shifted_p)):
                return False
    return True


# ---------------------------------------------------------------------------
# Drinfeld polynomials
# ---------------------------------------------------------------------------

def drinfeld_polynomial(hw: HighestWeight) -> DrinfeldPoly:
    """The monic P with lambda_2(u)/lambda_1(u) = P(u+1)/P(u), by gcd dispersion.

    With lambda_2/lambda_1 = N/D in lowest terms, deg P = S is the subleading
    coefficient of N minus that of D.  For h = 1, 2, ..., g = gcd(N(u), D(u+h))
    pairs roots n of N with roots n + h of D, and g(u-1)...g(u-h) joins P.  No
    root is computed, so P may have irrational roots.  Unmatched roots of N
    then need strings of length >= h each, so h deg N > S refuses: at most
    S / deg N + 1 steps of one shift and one gcd however small the
    coefficients (a refusal at S = 10^4, deg N = 2 stops after 5,000 gcds).
    """
    mu = hw.l2 / hw.l1
    N, D = mu.num, mu.den
    if N.degree != D.degree or N.leading() != 1:
        raise NotDominant("lambda_2/lambda_1 is not a ratio of equal-degree "
                          "monic polynomials")
    S = N.coeffs[-2] - D.coeffs[-2] if N.degree > 0 else ZERO
    if not _is_znn(S):
        raise NotDominant(f"deg P would be {S}, not in Z_+")
    P, h = UniPoly([ONE]), 1
    while N.degree > 0:
        if h * N.degree > S:
            raise NotDominant(f"{N.degree} unmatched root(s) need strings "
                              f"of length >= {h} each, but deg P = {S}")
        g = N.gcd(D.shift(h))
        if g.degree > 0:
            N, D, S = N // g, D // g.shift(-h), S - h * g.degree
            for j in range(1, h + 1):
                P = P * g.shift(-j)
        h += 1
    return DrinfeldPoly(P)


def classify_finite_dim(hw: HighestWeight) -> bool:
    """Classification rule: finite-dimensional iff a Drinfeld polynomial exists."""
    try:
        drinfeld_polynomial(hw)
        return True
    except NotDominant:
        return False


# ---------------------------------------------------------------------------
# Characters
# ---------------------------------------------------------------------------

def character_of(m: ModuleRep) -> WeightCharacter:
    counts: Dict[Scalar, int] = {}
    for w in m.space.weight:
        counts[w] = counts.get(w, 0) + 1
    return WeightCharacter(sorted(counts.items(), key=lambda p: p[0],
                                  reverse=True))


def closed_character(numer: Dict[int, int], offsets: range) -> List[int]:
    """Coefficients of (sum_j numer[j] q^j) / ((1-q)(1-q^2)) at the offsets;
    1/((1-q)(1-q^2)) = sum_n (n // 2 + 1) q^n."""
    return [sum(c * ((p - j) // 2 + 1) for j, c in numer.items() if p >= j)
            for p in offsets]


# ---------------------------------------------------------------------------
# The embedded osp(1|2)
# ---------------------------------------------------------------------------

def _emb_matrix(m: ModuleRep, i: int, j: int):
    """Sparse rows of F_ij = (t_ij^(1) - st_sign(i,j) t_{j'i'}^(1)) (-1)^{bar i} / 2."""
    sign = HALF if bar(i) == 0 else -HALF
    out = [{} for _ in range(m.dim)]
    for R, c in ((m.t_first(i, j), sign),
                 (m.t_first(iprime(j), iprime(i)), -st_sign(i, j) * sign)):
        for o, row in zip(out, R):
            add_multiple(o, c, row)
    return out


def osp_action(m: ModuleRep):
    """F_11, F_12, F_21 of the embedded osp(1|2) plus the V(mu) decomposition.

    Checks that the F_11-eigenvalues reproduce the stored weights, then counts
    highest vectors per nonnegative weight space.
    """
    m.require_exact("the osp(1|2) decomposition")
    F11 = _emb_matrix(m, 1, 1)
    F12 = _emb_matrix(m, 1, 2)
    F21 = _emb_matrix(m, 2, 1)
    for a, row in enumerate(F11):
        for b in sorted(row.keys() | {a}):
            got, want = row.get(b, ZERO), m.space.weight[a] if a == b else ZERO
            if got != want:
                raise WeightMismatch(
                    f"F_11 entry ({a},{b}) = {got}, expected {want}")
    F12_cols = columns(F12)
    decomp: Dict[Scalar, int] = {}
    for w, idxs in m.space.weight_spaces().items():
        if w < 0:
            continue
        mult = len(idxs) - rank(_restrict(F12_cols, idxs))
        if mult:
            decomp[w] = mult
    total = sum(mult * (2 * int(w) + 1) for w, mult in decomp.items())
    if total != m.dim:
        raise WeightMismatch(f"V(mu) multiplicities sum to {total} != {m.dim}")
    return F11, F12, F21, dict(sorted(decomp.items(), reverse=True))
