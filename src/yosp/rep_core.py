"""Concrete modules: small Verma modules M(alpha,beta), elementary modules
L(alpha,beta), the 3-dimensional vector representation, reconstruction of the
full 3x3 operator matrix T(u) from its generating corner, twists, and JSON
serialization.

Conventions.  The module basis vectors xi_rs (0 <= r <= s) carry parity
(r+s) mod 2 and weight (beta-alpha) - r - s; the highest vector is xi_00.
The stored operators are the polynomial forms T_ij(u) = d(u) t_ij(u) with
d(u) = (u+alpha-1/2)(u+beta); each T_ij has degree <= deg d and the leading
u^{deg d} coefficient of T_ii is the identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd, lcm
from typing import List, Optional

from .exact_arith import (DegreeError, HALF, KAPPA, ONE, RatFunc, Scalar,
                          UniPoly, ZERO, rat, rat_str)
from ._linalg import add_multiple
from .super_linalg import GradedSpace, OperatorPoly, bar, iprime, theta

W_SHIFT = (None, 1, 0, -1)  # weight carried by row/column index i of T


class MissingDepth(ValueError):
    """An infinite-dimensional family was requested without a truncation depth."""


class ReconstructionInconsistent(ArithmeticError):
    """The reconstructed T matrix fails an internal cross-relation."""


class TruncatedInput(ValueError):
    """A truncated module given to an analysis that needs an exact one, or
    with no column far enough below its cut to verify."""


@dataclass(frozen=True)
class Factor:
    """Provenance of one tensor factor: its parameters and truncation depth,
    None when the factor is exact.  The factors are the only record of
    truncation."""

    alpha: Scalar
    beta: Scalar
    depth: Optional[int] = None


@dataclass
class ModuleRep:
    """A representation: graded space, d(u), the 3x3 array T_ij(u), and c(u)."""

    space: GradedSpace
    denom: UniPoly
    T: List[List[OperatorPoly]]
    c: RatFunc
    highest_index: int
    factors: List[Factor]

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def truncated(self) -> bool:
        return any(f.depth is not None for f in self.factors)

    def require_exact(self, what: str):
        """TruncatedInput when a factor is truncated: `what` needs the whole module."""
        if self.truncated:
            depths = [f.depth for f in self.factors]
            raise TruncatedInput(f"{what} needs an exact module; this one is "
                                 f"truncated (factor depths {depths})")

    def op(self, i: int, j: int) -> OperatorPoly:
        """T_ij(u) with 1-based indices."""
        return self.T[i - 1][j - 1]

    def t_first(self, i: int, j: int):
        """Sparse rows of t_ij^{(1)}, the u^{-1} coefficient of T_ij(u)/d(u)."""
        D = self.denom.degree
        M = self.op(i, j).sparse_coeff(D - 1)
        dcoef = self.denom.coeffs[D - 1] if i == j and D else ZERO
        if dcoef:
            for a, row in enumerate(M):
                add_multiple(row, -dcoef, {a: ONE})
        return M

    def interior_indices(self, margin: int) -> List[int]:
        """Basis positions whose truncated-factor labels stay margin levels
        below every truncation cut (everything, when the module is exact)."""
        cuts = [f.depth for f in self.factors]
        return [idx for idx, lab in enumerate(self.space.labels)
                if all(cut is None or lab[m][0] + lab[m][1] <= cut - margin
                       for m, cut in enumerate(cuts))]

    def grading_violations(self):
        """Entries (i, j, a, b) of T_ij breaking w(a) - w(b) = w_i - w_j or
        |a| + |b| = |i| + |j| (mod 2): the key 2 L w(b) + |b| of b, for L the
        lcm of the weight denominators, differs from the one row a expects."""
        bad = []
        L = lcm(*(w.denominator for w in self.space.weight))
        key = [2 * w.numerator * (L // w.denominator) + p
               for w, p in zip(self.space.weight, self.space.parity)]
        for i in range(1, 4):
            for j in range(1, 4):
                shift, odd = 2 * (W_SHIFT[i] - W_SHIFT[j]) * L, (bar(i) + bar(j)) % 2
                want = [(k - shift) ^ odd for k in key]
                for R in self.op(i, j).rows:
                    for a, (row, w) in enumerate(zip(R, want)):
                        for b in row:
                            if key[b] != w:
                                bad.append((i, j, a, b))
        return bad


def small_verma_denominator(alpha, beta) -> UniPoly:
    return UniPoly.x_plus(rat(alpha) - HALF) * UniPoly.x_plus(beta)


def central_ratfunc(alpha, beta) -> RatFunc:
    """c(u) = (u+alpha)(u+beta+1) / ((u+alpha+1)(u+beta))."""
    alpha, beta = rat(alpha), rat(beta)
    num = UniPoly.x_plus(alpha) * UniPoly.x_plus(beta + 1)
    den = UniPoly.x_plus(alpha + 1) * UniPoly.x_plus(beta)
    return RatFunc(num, den)


def _xi_space(alpha, beta, pairs) -> GradedSpace:
    alpha, beta = rat(alpha), rat(beta)
    pairs = sorted(pairs, key=lambda p: (p[0] + p[1], p[0]))
    parity = tuple((r + s) % 2 for r, s in pairs)
    weight = tuple((beta - alpha) - r - s for r, s in pairs)
    labels = tuple(((r, s),) for r, s in pairs)
    return GradedSpace(len(pairs), parity, weight, labels)


def _build_corner(alpha, beta, space: GradedSpace):
    """Populate T_11, T_21, T_12 from the closed-form xi_rs action."""
    alpha, beta = rat(alpha), rat(beta)
    n = space.dim
    index = {lab[0]: i for i, lab in enumerate(space.labels)}
    T11, T21, T12 = ([[{} for _ in range(n)] for _ in range(3)]
                     for _ in range(3))

    def put(T, target, col, *coeffs):  # sets: no (target, col) recurs in T
        idx = index.get(target)
        if idx is None:  # killed by the quotient or the truncation cut
            return
        for R, x in zip(T, coeffs):
            if x:
                R[idx][col] = x

    for (r, s), col in ((lab[0], i) for i, lab in enumerate(space.labels)):
        r_, s_ = rat(r), rat(s)
        # T_11 xi_rs = (u + alpha + r - 1/2)(u + alpha + s) xi_rs
        a1, a2 = alpha + r_ - HALF, alpha + s_
        put(T11, (r, s), col, a1 * a2, a1 + a2, ONE)
        # T_21: raise s or raise r
        c = rat((-1) ** (r + 1) * (s - r + 1), (s + 1) * (2 * s - 2 * r + 1))
        put(T21, (r, s + 1), col, c * (2 * alpha + 2 * r_ - 1), 2 * c)
        c = rat(2, 2 * s - 2 * r + 1)
        put(T21, (r + 1, s), col, c * (alpha + s_), c)
        # T_12: lower r or lower s
        if r >= 1:
            c = -rat(r, 2 * (2 * s - 2 * r + 1)) * (s_ - r_ + 1) \
                * (2 * alpha - 2 * beta + 2 * r_ - 3)
            put(T12, (r - 1, s), col, c * (alpha + s_), c)
        if s >= 1 and s - 1 >= r:
            c = rat((-1) ** (r + 1) * s * (2 * s + 1), 4 * (2 * s - 2 * r + 1)) \
                * (alpha - beta + s_ - 1)
            put(T12, (r, s - 1), col, c * (2 * alpha + 2 * r_ - 1), 2 * c)
    return (OperatorPoly.from_rows(T11, 0), OperatorPoly.from_rows(T21, 1),
            OperatorPoly.from_rows(T12, 1))


def reconstruct_full_T(partial: ModuleRep) -> ModuleRep:
    """Fill T_31, T_22, T_32, T_33, T_23, T_13 from T_11, T_12, T_21.

    The recurrences are super-brackets with the level-one generators
    t_21^{(1)}, t_12^{(1)} and t_23^{(1)} = -t_12^{(1)}; a failed
    cross-relation [t_12^{(1)}, T_11(u)] = T_12(u) raises
    ReconstructionInconsistent (it would mean a sign-convention bug), as
    does a broken weight or parity grading.
    """
    m = partial
    T11, T12, T21 = m.op(1, 1), m.op(1, 2), m.op(2, 1)
    t12 = m.t_first(1, 2)
    t21 = m.t_first(2, 1)
    t23 = [{c: -x for c, x in row.items()} for row in t12]

    T31 = T21.bracket_const(t21, 1)                       # {T_21(u), t_21^(1)}
    T22 = T11 - T21.bracket_const(t12, 1)                 # T_11 - {t_12^(1), T_21(u)}
    T32 = T21 - T22.bracket_const(t21, 1)                 # [t_21^(1), T_22(u)] + T_21
    T33 = T22 + T32.bracket_const(t23, 1)                 # {t_23^(1), T_32(u)} + T_22
    T23 = T33.bracket_const(t23, 1)                       # -[t_23^(1), T_33(u)]
    T13 = -T12.bracket_const(t12, 1)                      # -{T_12(u), t_12^(1)}

    T = [[T11.trim(), T12.trim(), T13.trim()],
         [T21.trim(), T22.trim(), T23.trim()],
         [T31.trim(), T32.trim(), T33.trim()]]
    out = ModuleRep(m.space, m.denom, T, m.c, m.highest_index, m.factors)
    if -T11.bracket_const(t12, 1) != T12:                 # [t_12^(1), T_11(u)]
        raise ReconstructionInconsistent("[t_12^(1), T_11(u)] != T_12(u)")
    if out.grading_violations():
        raise ReconstructionInconsistent("weight or parity grading broken")
    return out


def build_small_verma(alpha, beta, depth: int) -> ModuleRep:
    """Truncated small Verma module: basis {xi_rs : 0 <= r <= s, r+s <= depth}."""
    alpha, beta = rat(alpha), rat(beta)
    pairs = [(r, s) for s in range(depth + 1) for r in range(min(s, depth - s) + 1)]
    return _corner_module(alpha, beta, pairs, depth)


def _corner_module(alpha, beta, pairs, depth: Optional[int]) -> ModuleRep:
    """The quotient of M(alpha,beta) on span{xi_rs : (r,s) in pairs}: the
    closed-form corner T_11, T_12, T_21, then the rest by reconstruction."""
    space = _xi_space(alpha, beta, pairs)
    T11, T21, T12 = _build_corner(alpha, beta, space)
    stub = [[T11, T12, None], [T21, None, None], [None, None, None]]
    m = ModuleRep(space, small_verma_denominator(alpha, beta),
                  stub, central_ratfunc(alpha, beta), 0,
                  [Factor(alpha, beta, depth)])
    return reconstruct_full_T(m)


def build_elementary(alpha, beta, depth: Optional[int] = None) -> ModuleRep:
    """Elementary module L(alpha,beta).

    beta-alpha = k a nonnegative integer: exact quotient with basis
    {xi_rs : 0 <= r <= s <= k}, dimension (k+1)(k+2)/2.
    beta-alpha+1/2 = k a nonnegative integer: infinite-dimensional quotient
    with rows r <= k, truncated at r+s <= depth.
    Otherwise the small Verma module itself is already irreducible.
    """
    alpha, beta = rat(alpha), rat(beta)
    k = beta - alpha
    if k >= 0 and k == int(k):
        k = int(k)
        pairs = [(r, s) for s in range(k + 1) for r in range(s + 1)]
        return _corner_module(alpha, beta, pairs, None)
    kk = k + HALF
    if kk >= 0 and kk == int(kk):
        if depth is None:
            raise MissingDepth("beta-alpha+1/2 in Z_+ gives an infinite-dimensional "
                               "module; supply a truncation depth")
        kk = int(kk)
        pairs = [(r, s) for s in range(depth + 1)
                 for r in range(min(s, depth - s, kk) + 1)]
        return _corner_module(alpha, beta, pairs, depth)
    if depth is None:
        raise MissingDepth("generic parameters give an infinite-dimensional "
                           "module; supply a truncation depth")
    return build_small_verma(alpha, beta, depth)


def vector_representation() -> ModuleRep:
    """The 3-dimensional module on C^{1|2} itself, isomorphic to L(-1,0):

    t_ij(u) = delta_ij + u^{-1} e_ij (-1)^{bar i}
            - (u+kappa)^{-1} e_{j'i'} (-1)^{bar i bar j} theta_i theta_j,
    cleared against d(u) = u(u+kappa) = u(u-3/2).
    """
    space = GradedSpace(3, (1, 0, 1), (rat(1), rat(0), rat(-1)),
                        (((0, 0),), ((0, 1),), ((1, 1),)))
    d = UniPoly([ZERO, KAPPA, ONE])  # u^2 + kappa u = u(u - 3/2)
    T = [[None] * 3 for _ in range(3)]
    for i in range(1, 4):
        for j in range(1, 4):
            c0, c1, c2 = ([{} for _ in range(3)] for _ in range(3))
            if i == j:
                for a in range(3):
                    c2[a][a] = ONE
                    c1[a][a] = KAPPA
            s1 = rat((-1) ** bar(i))
            add_multiple(c1[i - 1], s1, {j - 1: ONE})
            add_multiple(c0[i - 1], s1 * KAPPA, {j - 1: ONE})
            s2 = rat((-1) ** (bar(i) * bar(j)) * theta(i) * theta(j))
            add_multiple(c1[iprime(j) - 1], -s2, {iprime(i) - 1: ONE})
            T[i - 1][j - 1] = OperatorPoly.from_rows(
                [c0, c1, c2], (bar(i) + bar(j)) % 2).trim()
    return ModuleRep(space, d, T, central_ratfunc(-1, 0), 0,
                     [Factor(rat(-1), rat(0), None)])


def apply_twist(m: ModuleRep, f: Optional[RatFunc] = None, a=None) -> ModuleRep:
    """Twist by a multiplier series f(u) with f(inf)=1, or shift u -> u+a."""
    if f is not None:
        if f.num.degree != f.den.degree or f.num.leading() != 1:
            raise DegreeError("multiplier twist needs f(infinity) = 1")
        denom = m.denom * f.den
        T = [[m.T[i][j].mul_poly(f.num).trim() for j in range(3)] for i in range(3)]
        c = m.c * f * f.shift(-KAPPA)
        return ModuleRep(m.space, denom, T, c, m.highest_index, m.factors)
    a = rat(a)
    T = [[m.T[i][j].shift(a).trim() for j in range(3)] for i in range(3)]
    factors = [Factor(fa.alpha + a, fa.beta + a, fa.depth) for fa in m.factors]
    return ModuleRep(m.space, m.denom.shift(a), T, m.c.shift(a),
                     m.highest_index, factors)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

MODULE_FORMAT = 3


class ModuleFormatError(ValueError):
    """A module file that is not a well-formed module of MODULE_FORMAT."""


def to_json_dict(m: ModuleRep) -> dict:
    """Format 3: each factor as ["alpha", "beta", depth or null], and the
    u^0..u^D coefficients of each T_ij, each as the row-major list
    [[row, col, "p/q"], ...] of its nonzero entries."""
    D = m.denom.degree
    return {
        "format": MODULE_FORMAT,
        "factors": [[rat_str(f.alpha), rat_str(f.beta), f.depth]
                    for f in m.factors],
        "denom": [rat_str(c) for c in m.denom.coeffs],
        "basis": [
            {"labels": [[int(r), int(s)] for r, s in m.space.labels[i]],
             "parity": int(m.space.parity[i]),
             "weight": rat_str(m.space.weight[i])}
            for i in range(m.dim)
        ],
        "T": {f"{i}{j}": _triples(m.op(i, j), D)
              for i in range(1, 4) for j in range(1, 4)},
        "c": {"num": [rat_str(c) for c in m.c.num.coeffs],
              "den": [rat_str(c) for c in m.c.den.coeffs]},
        "highest_index": m.highest_index,
    }


def _triples(op: OperatorPoly, D: int):
    """The u^0..u^D coefficients of op, each as its row-major triples."""
    return [[[a, b, _ratio_str(row[b], op.den)]
             for a, row in enumerate(R) for b in sorted(row)]
            for R in op.rows + [[]] * (D + 1 - len(op.rows))]


def _ratio_str(v: int, d: int) -> str:
    """v/d as rat_str writes it, "p/q" in lowest terms or "p"."""
    g = gcd(v, d)
    return str(v // g) if g == d else f"{v // g}/{d // g}"


def from_json_dict(d: dict) -> ModuleRep:
    fmt = d.get("format") if isinstance(d, dict) else None
    if fmt != MODULE_FORMAT:
        raise ModuleFormatError(
            f"module file has format {fmt!r}, not {MODULE_FORMAT}; "
            "rebuild the module with this version of yosp")
    try:
        return _read_module(d)
    except KeyError as exc:
        raise ModuleFormatError(f"module file lacks the key {exc}") from exc
    except ZeroDivisionError as exc:
        raise ModuleFormatError("module file holds a rational p/0") from exc
    except (TypeError, ValueError) as exc:  # ModuleFormatError included
        raise ModuleFormatError(f"malformed module file: {exc}") from exc


def _scalar(x) -> Scalar:
    """A rational of a module file, which must be a string such as "p/q"."""
    if type(x) is not str:
        raise ModuleFormatError(f"{x!r} is not a rational written as a string")
    return rat(x)


def _read_module(d: dict) -> ModuleRep:
    factors = [Factor(_scalar(a), _scalar(b), depth)
               for a, b, depth in d["factors"]]
    for f in factors:
        if f.depth is not None and not (type(f.depth) is int and f.depth >= 0):
            raise ModuleFormatError(f"depth {f.depth!r} is not a natural number")
    basis = d["basis"]
    n = len(basis)
    parity = tuple(b["parity"] for b in basis)
    for p in parity:
        if type(p) is not int or p not in (0, 1):
            raise ModuleFormatError(f"parity {p!r} is not 0 or 1")
    space = GradedSpace(n, parity, tuple(_scalar(b["weight"]) for b in basis),
                        tuple(tuple((r, s) for r, s in b["labels"]) for b in basis))
    if any(len(lab) != len(factors) for lab in space.labels):
        raise ModuleFormatError("a basis label does not hold one pair per factor")
    if any(type(x) is not int for lab in space.labels for pair in lab for x in pair):
        raise ModuleFormatError("a basis label is not a pair of integers")
    denom = UniPoly([_scalar(c) for c in d["denom"]])
    parsed = {}
    T = [[None] * 3 for _ in range(3)]
    for i in range(1, 4):
        for j in range(1, 4):
            sparse = d["T"][f"{i}{j}"]
            if not 0 < len(sparse) <= denom.degree + 1:
                raise ModuleFormatError(f"T_{i}{j} has {len(sparse)} "
                                        f"coefficients; deg d = {denom.degree}")
            rows = [[{} for _ in range(n)] for _ in sparse]
            used = {}  # each distinct string of T_ij -> its rational
            for R, triples in zip(rows, sparse):
                for a, b, x in triples:
                    if not (a in range(n) and b in range(n)):
                        raise ModuleFormatError(
                            f"T_{i}{j} entry ({a}, {b}) outside dimension {n}")
                    if x not in used:
                        if x not in parsed:
                            parsed[x] = _scalar(x)
                            if not parsed[x]:
                                raise ModuleFormatError(
                                    f"T_{i}{j} entry ({a}, {b}) is listed as 0")
                        used[x] = parsed[x]
                    R[a][b] = x
            L = lcm(*{q.denominator for q in used.values()})
            ints = {x: q.numerator * (L // q.denominator) for x, q in used.items()}
            T[i - 1][j - 1] = OperatorPoly.from_int_rows(
                [[{b: ints[x] for b, x in row.items()} for row in R] for R in rows],
                L, (bar(i) + bar(j)) % 2).trim()
    c = RatFunc(UniPoly([_scalar(x) for x in d["c"]["num"]]),
                UniPoly([_scalar(x) for x in d["c"]["den"]]))
    highest = d["highest_index"]
    if type(highest) is not int or highest not in range(n):
        raise ModuleFormatError(f"highest_index {highest!r} outside dimension {n}")
    return ModuleRep(space, denom, T, c, highest, factors)


def save_module(m: ModuleRep, path: str):
    text = json.dumps(to_json_dict(m))
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_module(path: str) -> ModuleRep:
    with open(path) as fh:
        return from_json_dict(json.load(fh))
