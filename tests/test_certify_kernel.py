"""Differential tests: the integer RTT/central kernel against an oracle.

The oracle is the direct formula over exact rationals: every T_ij evaluated
with OperatorPoly.eval, full products over all columns (sparse rows of the
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
from hypothesis import Phase, given, settings, strategies as st

from yosp import analysis as an
from yosp.exact_arith import KAPPA, RatFunc, Scalar, UniPoly, ZERO, rat, rat_str
from yosp._linalg import mat_add, mat_mul, mat_scale, zeros
from yosp.hopf_tensor import tensor_modules
from yosp.rep_core import (build_elementary, build_small_verma,
                           vector_representation)
from yosp.super_linalg import OperatorPoly, bar, build_P_Q_R, iprime, theta

from dense import dense_rows
from rmatrix import rc_eval
from test_cyclic_span import _pairs, _tensor


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
    Rc = [dense_rows(C, 9) for C in build_P_Q_R()[2]]
    n = m.dim
    at = {x: [[_rows(m.op(i, j).eval(x)) for j in range(1, 4)]
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


def _without_by(report):
    """An RTT report with each sample's "by" dropped, as the oracle states it."""
    samples = [{k: x for k, x in s.items() if k != "by"}
               for s in report["samples"]]
    return {**report, "samples": samples}


@pytest.mark.parametrize("name", sorted(MODULES))
def test_kernel_report_matches_oracle(name):
    m = MODULES[name]
    assert _without_by(an.verify_rtt(m, seed=2)) == oracle_rtt(m, seed=2)
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


def _rtt_outcome(verify, m, seed):
    """The report (without "by"), or the witness of the RelationViolation."""
    try:
        return _without_by(verify(m, seed=seed))
    except an.RelationViolation as exc:
        return exc.witness


# Two factors up to dim 18 (k <= 2, not both 2), three up to dim 27 (k <= 1).
_tuples = st.one_of(
    st.lists(_pairs(2), min_size=2, max_size=2)
    .filter(lambda ps: sum(b - a for a, b in ps) < 4),
    st.lists(_pairs(1), min_size=3, max_size=3))


# No shrink phase: shrinking a failure through module builds takes minutes.
# Fixed draws: the cost of an example varies with its dimensions.
@settings(max_examples=6, deadline=None, derandomize=True,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(pairs=_tuples, seed=st.integers(0, 10 ** 6), pick=st.integers(0, 10 ** 6))
def test_symmetric_grid_matches_the_full_grid_oracle(pairs, seed, pick):
    """On random products of elementary modules, clean and with one entry's
    sign flipped, verify_rtt gives the full-grid oracle's verdict: the same
    report, or the same witness."""
    m = _tensor(pairs)
    for mod in (m, _flip_entry(m, random.Random(pick))):
        assert (_rtt_outcome(an.verify_rtt, mod, seed)
                == _rtt_outcome(oracle_rtt, mod, seed))


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
