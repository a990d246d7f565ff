"""Differential tests: the integer RTT/central kernel against an oracle.

The oracle is the direct formula over exact rationals: every T_ij evaluated
by its own dense sum of coeff(k) x^k (OperatorPoly.eval runs the kernel's
integer evaluator), full products over all columns (sparse rows of the
evaluated matrices for RTT, dense mat_mul for the central relation), the
R-matrix from rc_eval, and the comparison made on the same checked columns.
It shares only the sample points with yosp.analysis: plain progressions that
skip no point, roots of d(u) included.  The RTT oracle multiplies out every
point of S x S, where verify_rtt multiplies only the pairs i < j and certifies
the mirrored pairs and the diagonal by the R-matrix lemma in its docstring.
A disagreement therefore points at the kernel's scaling, sparsity, column
restriction or use of that lemma.
"""

import dataclasses
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from yosp import analysis as an
from yosp.exact_arith import KAPPA, RatFunc, Scalar, UniPoly, ZERO, rat, rat_str
from yosp._linalg import mat_add, mat_mul, mat_scale, zeros
from yosp.rep_core import TruncatedInput
from yosp.super_linalg import OperatorPoly, bar, iprime, theta

from rmatrix import rc_eval
from zoo import M, MODULE_SETTINGS, VECTOR, build, named, product, trees


def _at(op, x):
    """op(x) = sum_k coeff(k) x^k, summed densely here."""
    out = zeros(op.dim)
    for k, C in enumerate(op.coeffs):
        out = mat_add(out, mat_scale(C, x ** k))
    return out


def _rows(M):
    """A dense matrix as sparse rows of (column, nonzero entry) pairs."""
    return [[(c, x) for c, x in enumerate(row) if x != 0] for row in M]


def _product(A, B):
    """A B for matrices given as _rows, as {(row, column): entry}."""
    out = {}
    for t, row in enumerate(A):
        for j, a in row:
            for s, b in B[j]:
                out[t, s] = out.get((t, s), 0) + a * b
    return out


def _accumulate(acc, c, X):
    """acc += c X, visiting the entries X holds."""
    for k, x in X.items():
        acc[k] = acc.get(k, 0) + c * x


def oracle_rtt(m, seed=0, margin=4):
    D = m.denom.degree
    base = random.Random(seed).randint(-6, 6)
    us = vs = [rat(base + 2 * k) for k in range(D + 3)]
    cols = an._checked_cols(m, margin)
    n = m.dim
    at = {x: [[_rows(_at(m.op(i, j), x)) for j in range(1, 4)]
              for i in range(1, 4)] for x in us}
    samples = []
    for u0 in us:
        Mu = at[u0]
        for v0 in vs:
            Mv = at[v0]
            # X[e, f], resp. Y[e, f]: (Koszul sign, product) of block (e, f)
            # of T_1(u) T_2(v), resp. T_2(v) T_1(u).
            X, Y = {}, {}
            for A in range(1, 4):
                for C in range(1, 4):
                    sAC = (bar(A) + bar(C)) % 2
                    for B in range(1, 4):
                        for Dd in range(1, 4):
                            ef = (3 * A + B - 4, 3 * C + Dd - 4)
                            X[ef] = (-1 if sAC and bar(B) else 1,
                                     _product(Mu[A - 1][C - 1], Mv[B - 1][Dd - 1]))
                            Y[ef] = (-1 if sAC and bar(Dd) else 1,
                                     _product(Mv[B - 1][Dd - 1], Mu[A - 1][C - 1]))
            R = rc_eval(u0 - v0)
            for p in range(9):
                for q in range(9):
                    lhs, rhs = {}, {}
                    for e in range(9):
                        if R[p][e] != 0:
                            sign, x = X[e, q]
                            _accumulate(lhs, sign * R[p][e], x)
                        if R[e][q] != 0:
                            sign, y = Y[p, e]
                            _accumulate(rhs, sign * R[e][q], y)
                    for t in range(n):
                        for s in cols:
                            if lhs.get((t, s), 0) != rhs.get((t, s), 0):
                                raise an.RelationViolation(
                                    "oracle", witness=(u0, v0, (p, q, t, s)))
            samples.append({"u": rat_str(u0), "v": rat_str(v0), "pass": True})
    return {"check": "rtt", "module_digest": an.module_digest(m),
            "degree_bound": [D + 2, D + 2], "grid": [len(us), len(vs)],
            "samples": samples, "columns_checked": len(cols),
            "backend": Scalar.__qualname__, "result": "pass"}


def oracle_central(m, seed=0, margin=4):
    D = m.denom.degree
    base = random.Random(seed).randint(-6, 6)
    us = [rat(base) + rat(1, 7) + k for k in range(2 * D + 3)]
    # c(u) d(u-kappa) d(u), a polynomial on a module the relation holds on
    scalar_of = m.c * RatFunc(m.denom.shift(-KAPPA)) * RatFunc(m.denom)
    cols = an._checked_cols(m, margin)
    n = m.dim
    samples = []
    for u0 in us:
        scalar = scalar_of(u0)
        Mu = [[_at(m.op(i, j), u0 - KAPPA) for j in range(1, 4)]
              for i in range(1, 4)]
        # (T^t)_kj = theta_k theta_j (-1)^{|k||j|+|j|} T_{j'k'}
        Mt = [[mat_scale(_at(m.op(iprime(j), iprime(k)), u0),
                         theta(k) * theta(j) * (-1) ** (bar(k) * bar(j) + bar(j)))
               for j in range(1, 4)] for k in range(1, 4)]
        for i in range(3):
            for j in range(3):
                acc = zeros(n)
                for k in range(3):
                    acc = mat_add(acc, mat_mul(Mu[i][k], Mt[k][j]))
                for t in range(n):
                    for s in cols:
                        want = scalar if (i == j and t == s) else ZERO
                        if acc[t][s] != want:
                            raise an.RelationViolation(
                                "oracle", witness=(u0, (i + 1, j + 1, t, s)))
        samples.append({"u": rat_str(u0), "pass": True})
    return {"check": "central", "module_digest": an.module_digest(m),
            "degree_bound": 2 * D, "samples": samples,
            "columns_checked": len(cols), "backend": Scalar.__qualname__,
            "result": "pass"}


# L(-7/3,-4/3) has weights of denominator 3: the windows are keyed by Fractions.
PINNED = ["L(-1,0)xL(-1,0)", "L(-2,0)", "L(-7/3,-4/3)xL(-1,0)", "M(-2/3,0)@6",
          "vector"]


def _without_by(report):
    """An RTT report with each sample's "by" dropped, as the oracle states it."""
    samples = [{k: x for k, x in s.items() if k != "by"}
               for s in report["samples"]]
    return {**report, "samples": samples}


@pytest.mark.parametrize("name", PINNED)
def test_kernel_report_matches_oracle(name):
    m = named(name)
    assert _without_by(an.verify_rtt(m, seed=2)) == oracle_rtt(m, seed=2)
    assert an.verify_central(m, seed=2) == oracle_central(m, seed=2)


def test_reports_state_their_coverage():
    m = named("M(-2/3,0)@6")
    for report in (an.verify_rtt(m), an.verify_central(m)):
        assert report["columns_checked"] == len(m.interior_indices(4)) > 0
        assert report["backend"] == Scalar.__qualname__


def _flip_top_entry(m, i, j):
    """m with the sign of the first nonzero top-degree entry of T_ij flipped."""
    op = m.T[i][j]
    coeffs = [[list(row) for row in M] for M in op.coeffs]
    top = coeffs[-1]
    a, b = next((a, b) for a, row in enumerate(top)
                for b, x in enumerate(row) if x != 0)
    top[a][b] = -top[a][b]
    T = [list(row) for row in m.T]
    T[i][j] = OperatorPoly(coeffs, op.op_parity)
    return dataclasses.replace(m, T=T)


def _flip_operator(m, i, j):
    """m with T_ij negated: many entries of a failing block differ at once,
    which pins the order in which a block's entries are compared."""
    T = [list(row) for row in m.T]
    T[i][j] = T[i][j].scale(-1)
    return dataclasses.replace(m, T=T)


def _witness(verify, m):
    with pytest.raises(an.RelationViolation) as exc:
        verify(m)
    return exc.value.witness


def _flip_entry(m, rng):
    """m with the sign of one stored entry, picked by rng, flipped: the
    zero pattern and so the grading stay as they were."""
    views = [[[op.sparse_coeff(k) for k in range(len(op.rows))] for op in row]
             for row in m.T]
    stored = [(i, j, k, a, b) for i in range(3) for j in range(3)
              for k, R in enumerate(views[i][j])
              for a, row in enumerate(R) for b in row]
    i, j, k, a, b = rng.choice(stored)
    op, rows = m.T[i][j], views[i][j]
    rows[k][a][b] = -rows[k][a][b]
    T = [list(row) for row in m.T]
    T[i][j] = OperatorPoly.from_rows(rows, op.op_parity)
    return dataclasses.replace(m, T=T)


def _rtt_outcome(verify, m, seed=0):
    """The report (without "by"), the witness of the RelationViolation, or
    "truncated" when no column is checked."""
    try:
        return _without_by(verify(m, seed=seed))
    except an.RelationViolation as exc:
        return exc.witness
    except TruncatedInput:
        return "truncated"


# Fixed draws: the cost of an example varies with its dimensions.  None of
# the six draws is a product, so a three-factor one is added.
@settings(MODULE_SETTINGS, max_examples=6, derandomize=True)
@given(tree=trees(27), seed=st.integers(0, 10 ** 6), pick=st.integers(0, 10 ** 6))
@example(tree=build(product([("-1/2", "-1/2"), ("1/3", "1/3"), (-4, -3)])),
         seed=2, pick=7)
def test_symmetric_grid_matches_the_full_grid_oracle(tree, seed, pick):
    """On random zoo modules, clean and with one entry's sign flipped,
    verify_rtt gives the full-grid oracle's verdict: the same report, the
    same witness, or the same refusal of a module with no checked column."""
    m = tree.module
    for mod in (m, _flip_entry(m, random.Random(pick))):
        assert (_rtt_outcome(an.verify_rtt, mod, seed)
                == _rtt_outcome(oracle_rtt, mod, seed))


@pytest.mark.parametrize("corrupt", [_flip_top_entry, _flip_operator])
@pytest.mark.parametrize("i,j", [(i, j) for i in range(3) for j in range(3)])
def test_negative_controls_give_the_oracle_witness(i, j, corrupt):
    """On a product and on a truncated module too, whose windows hold only
    its checked columns."""
    for name in ("L(-2,0)", "L(-1,0)xL(-1,0)", "M(-2/3,0)@6"):
        bad = corrupt(named(name), i, j)
        assert _witness(an.verify_rtt, bad) == _witness(oracle_rtt, bad), name
        assert (_witness(an.verify_central, bad)
                == _witness(oracle_central, bad)), name


def test_a_central_target_that_is_not_an_integer():
    """With c(u) / 11 the scaled target at the first sample has denominator
    11, so no integer entry of the left side equals it."""
    m = named("vector")
    m = dataclasses.replace(m, c=m.c * RatFunc.const(rat(1, 11)))
    assert (_witness(an.verify_central, m) == _witness(oracle_central, m)
            == (rat(1, 7), (1, 1, 0, 0)))


def _digits(x, K):
    """The balanced base-2^K digits of the int x, each in [-2^(K-1), 2^(K-1))."""
    out = []
    while x:
        d = (x + (1 << K - 1)) % (1 << K) - (1 << K - 1)
        out.append(d)
        x = (x - d) >> K
    return out


def _rtt_gap(m, seed=0, margin=4):
    """The largest |LHS - RHS| entry of RTT on the checked columns, by the
    oracle's formula, over the pairs i < j that verify_rtt multiplies out,
    times 2 L^2: the kernel evaluates L T(x) at these integer points, 2 Rc(w)."""
    D = m.denom.degree
    base = random.Random(seed).randint(-6, 6)
    us = [rat(base + 2 * k) for k in range(D + 3)]
    cols = an._checked_cols(m, margin)
    at = {x: [[_rows(_at(m.op(i, j), x)) for j in range(1, 4)]
              for i in range(1, 4)] for x in us}
    top = 0
    for a, u0 in enumerate(us):
        for v0 in us[a + 1:]:
            Mu, Mv, R = at[u0], at[v0], rc_eval(u0 - v0)
            # X[e, f], resp. Y[e, f], as in oracle_rtt
            X = {(e, f): (-1 if (bar(e // 3 + 1) + bar(f // 3 + 1)) % 2
                          and bar(e % 3 + 1) else 1,
                          _product(Mu[e // 3][f // 3], Mv[e % 3][f % 3]))
                 for e in range(9) for f in range(9)}
            Y = {(e, f): (-1 if (bar(e // 3 + 1) + bar(f // 3 + 1)) % 2
                          and bar(f % 3 + 1) else 1,
                          _product(Mv[e % 3][f % 3], Mu[e // 3][f // 3]))
                 for e in range(9) for f in range(9)}
            for p in range(9):
                for q in range(9):
                    acc = {}
                    for e in range(9):
                        sign, x = X[e, q]
                        _accumulate(acc, sign * R[p][e], x)
                        sign, y = Y[p, e]
                        _accumulate(acc, -sign * R[e][q], y)
                    top = max([top] + [abs(x) for (t, s), x in acc.items()
                                       if s in cols])
    return top * 2 * an._int_scale(m)[1] ** 2


def _central_gap(m, seed=0, margin=4):
    """The largest |LHS - RHS| entry of the central relation on the checked
    columns, by the oracle's formula, scaled as verify_central compares it:
    by den L^2 q^(2E), den the denominator of the scaled target and q that of
    the sample."""
    D = m.denom.degree
    base = random.Random(seed).randint(-6, 6)
    us = [rat(base) + rat(1, 7) + k for k in range(2 * D + 3)]
    scalar_of = m.c * RatFunc(m.denom.shift(-KAPPA)) * RatFunc(m.denom)
    cols = an._checked_cols(m, margin)
    E, L = an._int_scale(m)
    top = 0
    for u0 in us:
        scale = L ** 2 * ((u0 - KAPPA).denominator * u0.denominator) ** E
        scale *= (scalar_of(u0) * scale).denominator
        Mu = [[_at(m.op(i, j), u0 - KAPPA) for j in range(1, 4)]
              for i in range(1, 4)]
        Mt = [[mat_scale(_at(m.op(iprime(j), iprime(k)), u0),
                         theta(k) * theta(j) * (-1) ** (bar(k) * bar(j) + bar(j)))
               for j in range(1, 4)] for k in range(1, 4)]
        for i in range(3):
            for j in range(3):
                acc = zeros(m.dim)
                for k in range(3):
                    acc = mat_add(acc, mat_mul(Mu[i][k], Mt[k][j]))
                for t in range(m.dim):
                    for s in cols:
                        want = scalar_of(u0) if (i == j and t == s) else ZERO
                        top = max(top, abs(acc[t][s] - want) * scale)
    return top


@pytest.mark.parametrize("flip", [False, True])
@pytest.mark.parametrize("name", PINNED)
def test_slot_width_bounds_every_slot(name, flip, monkeypatch):
    """The K of _kernel bounds every slot the kernel compares, and every
    packed operand and product it forms.  The compared slots are the scaled
    LHS - RHS entries, 0 on the clean modules, whose oracle reports pass.
    The verifiers run with slots 3K bits wide here, so that decoding gives
    each slot's true value, which must fit K bits."""
    m = _flip_top_entry(named(name), 0, 1) if flip else named(name)
    Ks, packed = [], []
    kernel, times = an._kernel, an._times

    def wide(*args):
        windows, M, K, shl, at = kernel(*args)
        Ks.append(K)
        return windows, M, 3 * K, [x ** 3 for x in shl], at

    monkeypatch.setattr(an, "_kernel", wide)
    monkeypatch.setattr(an, "_times", lambda rows, ops: packed.append(
        ops + (out := times(rows, ops))) or out)
    for verify, gap in ((an.verify_rtt, _rtt_gap), (an.verify_central, _central_gap)):
        del Ks[:], packed[:]
        assert isinstance(_rtt_outcome(verify, m), tuple) == flip
        (K,) = Ks
        assert (gap(m) if flip else 0) < 2 ** (K - 1)
        assert max(abs(d) for xs in packed for x in xs
                   for d in _digits(x, 3 * K)) < 2 ** (K - 1)


def test_no_checked_column_is_refused():
    m = build(M("-1/3", 0, 3)).module
    assert m.interior_indices(4) == []
    with pytest.raises(an.TruncatedInput):
        an.verify_rtt(m)
    with pytest.raises(an.TruncatedInput):
        an.verify_central(m)


@settings(MODULE_SETTINGS, max_examples=15)
@given(tree=trees(16),
       c=st.fractions(min_value=-30, max_value=30, max_denominator=30)
       .filter(lambda c: c != 0))
@example(tree=build(VECTOR), c=rat(-7, 3))
@example(tree=build(M("-2/3", 0, 5)), c=rat(29, 30))
def test_rescaled_module_still_certifies(tree, c):
    """T -> cT, d -> cd scales both sides of each relation by c^2."""
    module, c = tree.module, rat(c.numerator, c.denominator)
    if not module.interior_indices(an.RELATION_MARGIN):
        with pytest.raises(TruncatedInput):
            an.verify_rtt(module)
        return
    m = dataclasses.replace(
        module, T=[[op.scale(c) for op in row] for row in module.T],
        denom=module.denom * UniPoly.const(c))
    assert an.verify_rtt(m)["result"] == "pass"
    assert an.verify_central(m)["result"] == "pass"
