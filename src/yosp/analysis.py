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
from collections import Counter, defaultdict
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
from .rep_core import W_SHIFT, ModuleRep, TruncatedInput, to_json_dict
from .hopf_tensor import HighestWeight, _sparse_input, tii_eigenvalue  # re-export


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
# Relation verifiers: one packed-integer kernel.  T is evaluated in integers
# (_kernel) and R(w) as r1 + rP P + rQ Q; the sides are bilinear in T and
# linear in R, so the scalings cancel.  After the grading check, a row of a
# block of either side lies in one weight space, where a checked column's
# K-bit slot is its place in its window (the checked columns of its weight).
# A side's row packs its blocks f side by side, M slots (the largest window)
# each: one multiply-add per nonzero of row t of [T_i1 T_i2 T_i3] (_times)
# forms row t of every block, and a relation row is one int comparison whose
# lowest set bit gives the first failing entry: the lowest block f over the
# rows, then row t, then its slot (cols order).  The points skip none: the
# cleared sides are polynomials, so roots of d(u) are no exception.
# ---------------------------------------------------------------------------

# A truncated module is exact only away from its cut: the relation verifiers
# compare columns RELATION_MARGIN levels below it, and singular vectors are
# sought SINGULAR_MARGIN levels below it.
RELATION_MARGIN = 4
SINGULAR_MARGIN = 2

_P, _Q, _R = build_P_Q_R()  # P swaps legs, Q = alpha beta^T has rank one
_SWAP = [next((f, int(x)) for f, x in row.items()) for row in _P]
_BETA = {f: int(x) for f, x in next(row for row in _Q if row).items()}
_ALPHA = [int(row.get(min(_BETA), 0) / _BETA[min(_BETA)]) for row in _Q]
# 0-based: _TAU[a][b] = (-1)^(|a||b|); _WS[3A + B] = w_A + w_B.
_TAU = [[-1 if bar(a) and bar(b) else 1 for b in (1, 2, 3)] for a in (1, 2, 3)]
_WS = [W_SHIFT[e // 3 + 1] + W_SHIFT[e % 3 + 1] for e in range(9)]


def _checked_cols(m: ModuleRep, margin: int):
    """The columns a verifier compares; TruncatedInput when there are none."""
    cols = m.interior_indices(margin)
    if not cols:
        raise TruncatedInput(
            f"no column of this dim-{m.dim} module lies {margin} levels below "
            f"its truncation cut; build it deeper to verify it")
    return cols


def _int_scale(m: ModuleRep):
    """(E, L): E bounds the degree of every T_ij, L is the lcm of their dens."""
    E = max(len(op.rows) for row in m.T for op in row) - 1
    return E, lcm(*(op.den for row in m.T for op in row))


def _kernel(m: ModuleRep, points, scale: int, target: int = 0):
    """(windows, M, K, shl, at) for m at the points x = a/q: windows {weight:
    its checked columns}, M the largest one's size, shl[c] = 2^(K slot(c)), 0
    for an unchecked c, at(x) = q^E L T_ij(x) by eval_int (E bounds each deg
    T_ij, L is the lcm of their dens), and K = 2 + bitlen(B), B = max(scale
    l^2, |target|), l the largest sum over k of (L/den) A^k Q^(E-k) times the
    largest row l1 norm of the u^k rows of a T_ij, A, Q the largest |a|, q.

    K is wide enough: l bounds the row l1 norms of at(x), so an entry of a
    product of two blocks is at most l^2, and B bounds a slot that sums such
    entries with weights of total size <= scale, or is a target entry.  A
    difference is sum_s d_s 2^(K s), |d_s| <= 2B < 2^(K-1).  Balanced base-2^K
    digits are unique, so it is 0 exactly when every d_s is, and otherwise its
    lowest set bit lies in the slot of its lowest nonzero d_s."""
    E, L = _int_scale(m)
    norms = [(L // op.den, [max(sum(map(abs, r.values())) for r in R)
                            for R in op.rows]) for row in m.T for op in row]
    A, Q = (max(abs(x.numerator) for x in points),
            max(x.denominator for x in points))
    l1 = max(c * sum(n * A ** k * Q ** (E - k) for k, n in enumerate(ns))
             for c, ns in norms)
    K = 2 + max(scale * l1 * l1, abs(target)).bit_length()
    windows, shl = {}, [0] * m.dim
    for c in _checked_cols(m, RELATION_MARGIN):
        win = windows.setdefault(m.space.weight[c], [])
        shl[c] = 1 << K * len(win)
        win.append(c)
    return (windows, max(map(len, windows.values())), K, shl,
            lambda x: [[op.eval_int(x, E, L // op.den) for op in row] for row in m.T])


def _rows(T):
    """Row t of [T_i1 T_i2 T_i3] as {k n + l: value}, for each i and t."""
    return [[{k * len(R) + l: v for k, R in enumerate(row)
              for l, v in R[t].items()} for t in range(len(row[0]))] for row in T]


def _times(rows, ops):
    """Rows times packed operands, one multiply-add per nonzero; shl packs."""
    return [sum(map(mul, r.values(), map(ops.__getitem__, r))) for r in rows]


def _first_failure(diffs, K: int, M: int):
    """(f, t, s): the lowest nonzero slot of the differences, by f, t, s."""
    return min((b // M, t, b % M) for t, d in enumerate(diffs) if d
               for b in [((d & -d).bit_length() - 1) // K])


def _require_grading(m: ModuleRep):
    """RelationViolation, with the first offending entry (i, j, a, b) of T_ij
    as witness, when m breaks its weight and parity grading."""
    bad = m.grading_violations()
    if bad:
        i, j, a, b = bad[0]
        raise RelationViolation(
            f"grading fails: T_{i}{j} entry ({a},{b}) breaks the weight or "
            f"parity grading ({len(bad)} such entries)", witness=bad[0])


def _r_side(pk, W: int):
    """R's right side at u in its parts 1, P, Q: H[part][A][D n + j] packs
    tau(A,D) sum_C tau(C,D) part[(C,D), f] (row j of T_AC(u)) in block f."""
    n, qb = len(pk[0][0]), sum(b << f * W for f, b in _BETA.items())  # Q: beta
    H = [[[0] * (3 * n) for _ in range(3)] for _ in range(3)]
    for A, C, D in ((A, C, D) for A in range(3) for C in range(3) for D in range(3)):
        e, s = 3 * C + D, _TAU[A][D] * _TAU[C][D]
        (f, sp), a = _SWAP[e], _ALPHA[e] * s
        for j, x in enumerate(pk[A][C], D * n):
            H[0][A][j] += s * x << e * W
            H[1][A][j] += s * sp * x << f * W
            if a:
                H[2][A][j] += a * x * qb
    return H


def _rtt_pair(u, v, H, rw, K: int, M: int):
    """RTT at (u, v): None, or the first failing (p, f, t, slot); u, v are T's
    (_rows, packed rows) at the points, H is _r_side at u and rw the (r1, rP,
    rQ) of R(u-v).  Block ((A,B), (C,D)) of T_1(u) T_2(v), resp. T_2(v) T_1(u),
    has the Koszul sign (-1)^((|A|+|C|) |B|), resp. |D|."""
    (ru, _), (rv, pk), W, (r1, rP, rQ) = u, v, K * M, rw
    # G[B][C n + j]: tau(C,B) (row j of [T_B1 T_B2 T_B3](v)) in blocks (C, .)
    G = [[_TAU[C][B] * x << 3 * C * W for C in range(3) for x in
          [a + (b << W) + (c << 2 * W) for a, b, c in zip(*pk[B])]]
         for B in range(3)]
    X = [_times(ru[A], G[B]) for A in range(3) for B in range(3)]  # tau(A,B) X_e
    zb = [b * _TAU[e // 3][e % 3] for e, b in _BETA.items()]
    Z = [sum(map(mul, zb, xs)) for xs in zip(*(X[e] for e in _BETA))]
    F = [[r1 * a + rP * b + rQ * c for a, b, c in zip(*(h[A] for h in H))]
         for A in range(3)]
    for p in range(9):
        (q, sq), (A, B) = _SWAP[p], divmod(p, 3)
        c1, cP, cQ = r1 * _TAU[A][B], rP * sq * _TAU[B][A], rQ * _ALPHA[p]
        diffs = [c1 * x + cP * y + cQ * z - r for x, y, z, r in
                 zip(X[p], X[q], Z, _times(rv[B], F[A]))]
        if any(diffs):
            return (p, *_first_failure(diffs, K, M))


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
    # 2 w(w-kappa) R(w) = 2 r1 + 2 rP P + 2 rQ Q; P has one +-1 per row, Q three
    parts = {w: tuple(int(2 * r(w)) for r in _R) for w in (S[0] - v for v in S)}
    scale = max(abs(a) + abs(b) + 3 * abs(c) for a, b, c in parts.values())
    windows, M, K, shl, at = _kernel(m, S, scale)
    legs = [(_rows(T), [[_times(R, shl) for R in row] for row in T])
            for T in map(at, S)]
    for i, u0 in enumerate(S[:-1]):
        H = _r_side(legs[i][1], K * M)
        for v0, leg in zip(S[i + 1:], legs[i + 1:]):
            if bad := _rtt_pair(legs[i], leg, H, parts[u0 - v0], K, M):
                p, f, t, s = bad
                c = windows[m.space.weight[t] - _WS[p] + _WS[f]][s]
                raise RelationViolation(
                    f"RTT fails at (u,v)=({u0},{v0}) "
                    f"block ({p},{f}) entry ({t},{c})",
                    witness=(u0, v0, (p, f, t, c)))
    samples = [{"u": rat_str(u0), "v": rat_str(v0), "pass": True,
                "by": "product" if i < j else "mirror" if i > j else "diagonal"}
               for i, u0 in enumerate(S) for j, v0 in enumerate(S)]
    return {"check": "rtt", "module_digest": module_digest(m),
            "degree_bound": [D + 2, D + 2], "grid": [len(S), len(S)],
            "samples": samples, "columns_checked": sum(map(len, windows.values())),
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
    # den T(x) T^t(u), x = u - kappa, is compared with num 1, num/den the target
    # scaled as T(x) and T(u) are.
    E, L = _int_scale(m)
    wants = [target.num(u) * L * L
             * ((u - KAPPA).denominator * u.denominator) ** E for u in us]
    windows, M, K, shl, at = _kernel(
        m, [x for u in us for x in (u - KAPPA, u)],
        3 * max(w.denominator for w in wants), max(abs(w.numerator) for w in wants))
    st = [[st_sign(k, j) for j in range(1, 4)] for k in range(1, 4)]  # 1-based
    samples, n, W = [], m.dim, K * M
    for u0, want in zip(us, wants):
        pk = [[_times(R, shl) for R in row] for row in at(u0)]
        # row l of (T^t)_kj = st_sign(k, j) T_{j'k'}(u) in block j, at k n + l
        ops = [want.denominator * sum(st[k][j] * pk[2 - j][2 - k][l] << j * W
                                      for j in range(3))
               for k in range(3) for l in range(n)]
        for i, rows in enumerate(_rows(at(u0 - KAPPA))):
            diffs = [r - (want.numerator * g << i * W)
                     for r, g in zip(_times(rows, ops), shl)]
            if any(diffs):
                j, t, s = _first_failure(diffs, K, M)
                c = windows[m.space.weight[t] - W_SHIFT[i + 1] + W_SHIFT[j + 1]][s]
                raise RelationViolation(
                    f"central relation fails at u={u0} "
                    f"entry ({i+1},{j+1})({t},{c})",
                    witness=(u0, (i + 1, j + 1, t, c)))
        samples.append({"u": rat_str(u0), "pass": True})
    return {"check": "central", "module_digest": module_digest(m),
            "degree_bound": 2 * D, "samples": samples,
            "columns_checked": sum(map(len, windows.values())),
            "backend": Scalar.__qualname__, "result": "pass"}


def _t_blocks_at(m: ModuleRep, x) -> List[List[List[List[Scalar]]]]:
    """Matrices of t_ij(x) = T_ij(x)/d(x); SingularMatrix at roots of d."""
    dx = m.denom(x)
    if dx == 0:
        raise SingularMatrix(f"d({x}) = 0; pick another sample point")
    inv = ONE / dx
    return [[mat_scale(m.op(i, j).eval(x), inv) for j in range(1, 4)]
            for i in range(1, 4)]


def _gauss_at(m: ModuleRep, x, full=True):
    """Gaussian generators at the point x via Schur complements; with full
    False only h_1, its inverse h1i, h_2, e_12 and f_21, so h_2 may be singular."""
    t = _t_blocks_at(m, x)
    h1 = t[0][0]
    h1i = inverse(h1)
    e12 = mat_mul(h1i, t[0][1])
    f21 = mat_mul(t[1][0], h1i)
    h2 = mat_sub(t[1][1], mat_mul(t[1][0], e12))
    if not full:
        return {"h1": h1, "h1i": h1i, "h2": h2, "e12": e12, "f21": f21}
    e13 = mat_mul(h1i, t[0][2])
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
    RelationViolation, with the failed relations as witness, when one fails
    (at a pole of c(u) the last one does) or m breaks its grading.
    """
    _require_grading(m)
    m.require_exact("the Gauss check")
    u0 = rat(u0)
    g0 = _gauss_at(m, u0, full=False)
    g_half = _gauss_at(m, u0 + HALF)
    g1 = _gauss_at(m, u0 + 1, full=False)
    g32 = _gauss_at(m, u0 + rat(3, 2), full=False)
    n = m.dim
    checks = {}
    checks["ef_e"] = g0["e12"] == mat_scale(g_half["e23"], -1)
    checks["ef_f"] = g0["f21"] == g_half["f32"]
    checks["hoht"] = (mat_mul(g0["h1"], g_half["h3"])
                      == mat_mul(g0["h2"], g_half["h2"]))
    cu = mat_mul(mat_mul(g0["h1"], g1["h1i"]),
                 mat_mul(g1["h2"], g32["h2"]))
    c = m.c(u0) if m.c.den(u0) else None  # a pole of c: the finite cu fails
    checks["cu"] = cu == [[c if a == b else ZERO for b in range(n)] for a in range(n)]
    if not all(checks.values()):
        failed = [k for k, v in checks.items() if not v]
        raise RelationViolation(f"Gauss relations fail at u0={u0}: {failed}",
                                witness=(u0, failed))
    return {"check": "gauss", "module_digest": module_digest(m),
            "u0": rat_str(u0), "relations": sorted(checks), "result": "pass"}


# ---------------------------------------------------------------------------
# Submodule structure.  Each public function first refuses a broken grading.
# ---------------------------------------------------------------------------

# T_ij acts by its integer rows (den times each coefficient): kernels and spans agree.
_RAISING = ((1, 2), (1, 3), (2, 3))


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
    raising = columns([row for p in _RAISING for R in m.op(*p).rows for row in R])
    cols_ok = set(m.interior_indices(SINGULAR_MARGIN))
    basis = []
    for _, idxs in sorted(m.space.weight_spaces().items(), reverse=True):
        idxs = [i for i in idxs if i in cols_ok]
        for v in nullspace(_restrict(raising, idxs), len(idxs)):
            basis.append({idxs[k]: x for k, x in v.items()})
    return Subspace(basis)


def cyclic_span(m: ModuleRep, v: Dict[int, Scalar]) -> Subspace:
    """Closure of span{v} under all coefficient matrices of all nine T_ij,
    with its reduced echelon basis; v is a sparse {basis index: entry} dict.
    ValueError when v is zero or has an index outside the module.

    The spin runs in integers (no scaling changes a span or its reduced
    echelon basis) and, for a weight-homogeneous v, skips a product into
    weight mu = wt(x) + w_i - w_j once the span holds dim V_mu vectors of
    weight mu (or m has no weight mu).  Every entry point runs the grading
    check first, so each coefficient of T_ij maps V_mu into V_{mu+w_i-w_j}
    and each frontier vector is homogeneous.  Once the span holds dim V_mu
    independent vectors of weight mu it contains V_mu, so no product landing
    there can enlarge it."""
    _require_grading(m)
    x = primitive(integral(_sparse_input(v, m.dim))[0])
    span = Span()
    span.add(x)
    mats = [(W_SHIFT[i] - W_SHIFT[j], R) for i in range(1, 4)
            for j in range(1, 4) for R in m.op(i, j).rows]
    cols = {}  # t: the columns of mats[t], transposed when first applied
    # room[k]: how many more vectors of weight wt(v) + k the span can take,
    # for each integer k (the shifts w_i - w_j are integers); a v of mixed
    # weight gets room that runs out only once the span is full.
    wt = m.space.weight
    room = (Counter(int(d) for w in wt if (d := w - wt[min(x)]).denominator == 1)
            if len({wt[c] for c in x}) == 1 else defaultdict(lambda: m.dim))
    room[0] -= 1
    frontier = [(0, x)]
    while frontier:
        nxt = []
        for k, x in frontier:
            for t, (s, R) in enumerate(mats):
                if room[k + s]:
                    if t not in cols:
                        cols[t] = columns(R)
                    if span.add(y := mat_vec(cols[t], x)):
                        nxt.append((k + s, primitive(y)))
                        room[k + s] -= 1
        frontier = nxt
    return Subspace(span.basis())


def quotient_module(m: ModuleRep, k: Subspace) -> ModuleRep:
    """Induced action on the complement of an invariant subspace k; ValueError
    when a basis vector of k is zero, has an index that is not an int in
    range(dim) or mixes weights, or when k is the whole module."""
    _require_grading(m)
    basis = [integral(_sparse_input(b, m.dim))[0] for b in k.basis]
    span = Span()
    for b in basis:
        if len({m.space.weight[i] for i in b}) > 1:
            raise ValueError("subspace basis must be weight-homogeneous")
        span.add(b)
    pivots = set(span.pivots())
    if len(pivots) == m.dim:
        raise ValueError("the subspace is the whole module, so the quotient "
                         "is zero")
    keep = [i for i in range(m.dim) if i not in pivots]
    pos = {i: a for a, i in enumerate(keep)}
    n = len(keep)
    T = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            op = m.T[i][j]
            rows = []
            for cols in map(columns, op.rows):  # den times each coefficient
                if not all(span.contains(mat_vec(cols, b)) for b in basis):
                    raise NotInvariant("subspace is not stable under the action")
                Q = [{} for _ in range(n)]
                # Column b of the quotient is column keep[b] modulo k.
                for b, c in enumerate(keep):
                    for a, x in span.reduce(cols.get(c, {})).items():
                        Q[pos[a]][b] = x / op.den
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
    sing = singular_vectors(m)
    span = cyclic_span(m, {m.highest_index: ONE})
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
