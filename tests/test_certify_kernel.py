"""Differential tests: the integer RTT/central kernel against an oracle.

The oracle is the direct formula over exact rationals: every T_ij evaluated
with OperatorPoly.eval, full products over all columns (sparse rows of the
evaluated matrices for RTT, dense mat_mul for the central relation), the
R-matrix from rc_eval, and the comparison made on the same checked columns.
It shares only the sample grid with yosp.analysis: plain progressions that
skip no point, roots of d(u) included.  A disagreement therefore points at
the kernel's scaling, sparsity or column restriction.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from yosp import analysis as an
from yosp.exact_arith import KAPPA, RatFunc, Scalar, UniPoly, ZERO, rat, rat_str
from yosp._linalg import mat_add, mat_mul, mat_scale, zeros
from yosp.hopf_tensor import tensor_modules
from yosp.rep_core import (build_elementary, build_small_verma,
                           vector_representation)
from yosp.super_linalg import OperatorPoly, bar, build_P_Q_R, iprime, theta

from dense import dense_rows
from rmatrix import rc_eval


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
    us = [rat(base + k) for k in range(D + 3)]
    vs = [u0 + rat(1, 3) for u0 in us]
    cols = an._checked_cols(m, margin)
    Rc = [dense_rows(C, 9) for C in build_P_Q_R()[2]]
    n = m.dim
    samples = []
    for u0 in us:
        Mu = [[_rows(m.op(i, j).eval(u0)) for j in range(1, 4)]
              for i in range(1, 4)]
        for v0 in vs:
            Mv = [[_rows(m.op(i, j).eval(v0)) for j in range(1, 4)]
                  for i in range(1, 4)]
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
            R = rc_eval(Rc, u0 - v0)
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
        Mu = [[m.op(i, j).eval(u0 - KAPPA) for j in range(1, 4)]
              for i in range(1, 4)]
        # (T^t)_kj = theta_k theta_j (-1)^{|k||j|+|j|} T_{j'k'}
        Mt = [[mat_scale(m.op(iprime(j), iprime(k)).eval(u0),
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


def _modules():
    L1 = build_elementary(rat(-1), rat(0))
    return {"vector": vector_representation(),
            "L(-2,0)": build_elementary(rat(-2), rat(0)),
            "L(-1,0)xL(-1,0)": tensor_modules(L1, L1),
            "M(-2/3,0)@6": build_small_verma(rat(-2, 3), rat(0), depth=6)}


MODULES = _modules()


@pytest.mark.parametrize("name", sorted(MODULES))
def test_kernel_report_matches_oracle(name):
    m = MODULES[name]
    assert an.verify_rtt(m, seed=2) == oracle_rtt(m, seed=2)
    assert an.verify_central(m, seed=2) == oracle_central(m, seed=2)


def test_reports_state_their_coverage():
    m = MODULES["M(-2/3,0)@6"]
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


@pytest.mark.parametrize("corrupt", [_flip_top_entry, _flip_operator])
@pytest.mark.parametrize("i,j", [(i, j) for i in range(3) for j in range(3)])
def test_negative_controls_give_the_oracle_witness(i, j, corrupt):
    bad = corrupt(MODULES["L(-2,0)"], i, j)
    assert _witness(an.verify_rtt, bad) == _witness(oracle_rtt, bad)
    assert _witness(an.verify_central, bad) == _witness(oracle_central, bad)


def test_no_checked_column_is_refused():
    m = build_small_verma(rat(-1, 3), rat(0), depth=3)
    assert m.interior_indices(4) == []
    with pytest.raises(an.TruncatedInput):
        an.verify_rtt(m)
    with pytest.raises(an.TruncatedInput):
        an.verify_central(m)


RESCALED = [vector_representation(),
            build_small_verma(rat(-2, 3), rat(0), depth=5)]


@settings(max_examples=15, deadline=None)
@given(module=st.sampled_from(RESCALED),
       c=st.fractions(min_value=-30, max_value=30, max_denominator=30)
       .filter(lambda c: c != 0))
def test_rescaled_module_still_certifies(module, c):
    """T -> cT, d -> cd scales both sides of each relation by c^2."""
    c = rat(c.numerator, c.denominator)
    m = dataclasses.replace(
        module, T=[[op.scale(c) for op in row] for row in module.T],
        denom=module.denom * UniPoly.const(c))
    assert an.verify_rtt(m)["result"] == "pass"
    assert an.verify_central(m)["result"] == "pass"
