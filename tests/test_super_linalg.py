"""Tests for the graded linear algebra and R-matrix layer."""

from fractions import Fraction
from math import comb
from unittest import mock

from hypothesis import given, settings, strategies as st

from yosp.exact_arith import KAPPA, ONE, UniPoly, ZERO, rat
from yosp._linalg import mat_add, mat_mul, mat_scale, zeros
from yosp.super_linalg import (GradedSpace, OperatorPoly, bar, build_P_Q_R,
                               iprime, st_sign, theta)

from dense import dense_rows, eye, is_canonical, sparse_rows
from rmatrix import rc_coeffs, rc_eval, ybe_holds_at

P, Q, _ = build_P_Q_R()
P, Q, RC = dense_rows(P, 9), dense_rows(Q, 9), rc_coeffs()


def test_index_conventions():
    assert [bar(i) for i in (1, 2, 3)] == [1, 0, 1]
    assert [theta(i) for i in (1, 2, 3)] == [1, 1, -1]
    assert [iprime(i) for i in (1, 2, 3)] == [3, 2, 1]


def test_p_q_r_are_sparse_rows_without_zeros():
    """P and Q are sparse rows that store no zero; R is three UniPolys."""
    p, q, r = build_P_Q_R()
    for M in (p, q):
        assert len(M) == 9
        assert all(isinstance(row, dict) and all(row.values()) for row in M)
    assert len(r) == 3 and all(isinstance(x, UniPoly) for x in r)


def test_p_is_an_involution():
    assert mat_mul(P, P) == eye(9)


def test_q_is_scaled_idempotent():
    assert mat_mul(Q, Q) == mat_scale(Q, -1)


def test_p_fixes_q():
    assert mat_mul(P, Q) == Q
    assert mat_mul(Q, P) == Q


def _poly_mat_mul(A, B):
    """The product of two matrix polynomials given by coefficient lists."""
    out = [zeros(9, 9) for _ in range(len(A) + len(B) - 1)]
    for a, X in enumerate(A):
        for b, Y in enumerate(B):
            out[a + b] = mat_add(out[a + b], mat_mul(X, Y))
    return out


def test_r_matrix_crossing_scalar():
    """Rc(u) Rc(-u) = (u^2-1)(u^2-kappa^2) 1 as polynomials, kappa^2 = 9/4:
    the identity verify_rtt's mirrored pairs rest on."""
    assert KAPPA ** 2 == rat(9, 4)
    rc_minus = [mat_scale(C, (-1) ** k) for k, C in enumerate(RC)]
    scalar = UniPoly([-ONE, ZERO, ONE]) * UniPoly([-KAPPA ** 2, ZERO, ONE])
    want = [mat_scale(eye(9), c) for c in scalar.coeffs]
    assert _poly_mat_mul(RC, rc_minus) == want
    assert _poly_mat_mul(rc_minus, RC) == want


def test_r_matrix_is_p_symmetric():
    """P Rc(u) P = Rc(u), coefficient by coefficient."""
    for C in RC:
        assert mat_mul(mat_mul(P, C), P) == C


def test_r_matrix_at_zero_is_kappa_p():
    """Rc(0) = kappa P: the relation holds on the diagonal u = v."""
    assert RC[0] == mat_scale(P, KAPPA)
    assert rc_eval(0) == mat_scale(P, KAPPA)


def test_yang_baxter_equation():
    assert ybe_holds_at(5, 2)
    assert ybe_holds_at(rat(7, 2), rat(4, 3))
    assert ybe_holds_at(rat(-1, 3), rat(11, 5))


def test_super_transpose_is_involutive_on_scalars():
    def supertr(A):
        return [[st_sign(i, j) * A[iprime(j) - 1][iprime(i) - 1]
                 for j in range(1, 4)] for i in range(1, 4)]
    A = [[rat(i * 3 + j + 1) for j in range(3)] for i in range(3)]
    assert supertr(A) != A
    assert supertr(supertr(A)) == A


def _space2():
    return GradedSpace(2, (0, 1), (rat(1), rat(0)), (("a",), ("b",)))


def test_graded_space_tensor():
    s = _space2()
    t = s.tensor(s)
    assert t.dim == 4
    assert t.parity == (0, 1, 1, 0)
    assert t.weight == (rat(2), rat(1), rat(1), rat(0))
    assert t.top_weight() == rat(2)
    assert t.weight_spaces()[rat(1)] == [1, 2]


def _op(coeffs, parity=0):
    return OperatorPoly(coeffs, parity)


def test_operator_poly_eval_and_arith():
    # A(u) = [[u, 1], [0, 2]]
    A = _op([[[ZERO, ONE], [ZERO, rat(2)]], [[ONE, ZERO], [ZERO, ZERO]]])
    at3 = A.eval(rat(3))
    assert at3 == [[rat(3), ONE], [ZERO, rat(2)]]
    S = A + A
    assert S.eval(rat(3)) == mat_scale(at3, 2)
    assert (A - A).eval(rat(1)) == zeros(2)


def test_operator_poly_shift_reflect():
    A = _op([[[ZERO, ONE], [ZERO, rat(2)]], [[ONE, ZERO], [ZERO, ZERO]]])
    assert A.shift(rat(2)).eval(rat(1)) == A.eval(rat(3))
    assert A.reflect(rat(1)).eval(rat(4)) == A.eval(rat(-3))


def test_operator_poly_mul_poly():
    A = _op([[[ONE]]])
    p = UniPoly([rat(1), rat(1)])
    B = A.mul_poly(p)
    assert B.eval(rat(4)) == [[rat(5)]]


def test_operator_poly_bracket_const():
    # [A(u), M] with everything even = AM - MA coefficientwise
    A = _op([[[ZERO, ONE], [ZERO, ZERO]]])
    M = [[ZERO, ZERO], [ONE, ZERO]]
    B = A.bracket_const(sparse_rows(M), 0)
    assert B.eval(rat(0)) == [[ONE, ZERO], [ZERO, -ONE]]


def test_bracket_const_odd_odd_is_anticommutator():
    X = _op([[[ZERO, ONE], [ZERO, ZERO]]], parity=1)
    Y = [[ZERO, ZERO], [ONE, ZERO]]
    B = X.bracket_const(sparse_rows(Y), 1)
    assert B.op_parity == 0
    assert B.coeffs[0][0][0] == 1 and B.coeffs[0][1][1] == 1


# ---------------------------------------------------------------------------
# Differential tests: the sparse operator algebra against a dense oracle, the
# direct formulas on mat_add / mat_scale / mat_mul that visit every entry.
# ---------------------------------------------------------------------------

def _dense_sum(n, dim, terms):
    out = [zeros(dim) for _ in range(n)]
    for M, k, c in terms:
        out[k] = mat_add(out[k], mat_scale(M, c))
    return out


def oracle_add(A, B, s=1):
    n = max(len(A.coeffs), len(B.coeffs))
    return [mat_add(A.coeff(k), mat_scale(B.coeff(k), s)) for k in range(n)]


def oracle_scale(A, c):
    return [mat_scale(M, c) for M in A.coeffs]


def oracle_mul_poly(A, p):
    return _dense_sum(len(A.coeffs) + p.degree, A.dim,
                      [(M, k + l, c) for k, M in enumerate(A.coeffs)
                       for l, c in enumerate(p.coeffs)])


def oracle_shift(A, a):
    return _dense_sum(len(A.coeffs), A.dim,
                      [(M, k, comb(m, k) * a ** (m - k))
                       for m, M in enumerate(A.coeffs) for k in range(m + 1)])


def oracle_reflect(A, c0):
    return _dense_sum(len(A.coeffs), A.dim,
                      [(M, k, comb(m, k) * c0 ** (m - k) * (-1) ** k)
                       for m, M in enumerate(A.coeffs) for k in range(m + 1)])


def oracle_bracket(A, M, m_parity):
    s = -1 if (A.op_parity and m_parity) else 1
    return [mat_add(mat_mul(C, M), mat_scale(mat_mul(M, C), -s))
            for C in A.coeffs]


def oracle_trim(A):
    cs = list(A.coeffs)
    while len(cs) > 1 and all(x == 0 for row in cs[-1] for x in row):
        cs.pop()
    return cs


_scalars = st.builds(rat, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def sparse_matrix(draw, dim):
    """A dim x dim matrix with at most a fifth of its entries nonzero."""
    M = zeros(dim)
    cells = draw(st.lists(st.tuples(st.integers(0, dim - 1),
                                    st.integers(0, dim - 1)),
                          max_size=dim * dim // 5))
    for a, b in cells:
        M[a][b] = draw(_scalars)
    return M


@st.composite
def sparse_ops(draw, count=2):
    dim = draw(st.integers(1, 7))
    ops = []
    for _ in range(count):
        degree = draw(st.integers(0, 3))
        ops.append(OperatorPoly([draw(sparse_matrix(dim))
                                 for _ in range(degree + 1)],
                                draw(st.integers(0, 1))))
    return dim, ops


@settings(max_examples=60, deadline=None)
@given(sparse_ops(), _scalars)
def test_linear_algebra_matches_dense_oracle(dim_ops, c):
    _, (A, B) = dim_ops
    assert (A + B).coeffs == oracle_add(A, B)
    assert (A - B).coeffs == oracle_add(A, B, -1)
    assert (-A).coeffs == oracle_scale(A, -1)
    assert A.scale(c).coeffs == oracle_scale(A, c)
    assert A.scale(0).coeffs == oracle_scale(A, 0)
    assert A.trim().coeffs == oracle_trim(A)


@settings(max_examples=60, deadline=None)
@given(sparse_ops(count=1), st.lists(_scalars, min_size=1, max_size=3),
       _scalars)
def test_substitutions_match_dense_oracle(dim_ops, p, a):
    _, (A,) = dim_ops
    p = UniPoly(p) if any(p) else UniPoly([ONE])
    assert A.mul_poly(p).coeffs == oracle_mul_poly(A, p)
    assert A.shift(a).coeffs == oracle_shift(A, a)
    assert A.reflect(a).coeffs == oracle_reflect(A, a)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bracket_const_matches_dense_oracle(data):
    dim, (A,) = data.draw(sparse_ops(count=1))
    M = data.draw(sparse_matrix(dim))
    m_parity = data.draw(st.integers(0, 1))
    B = A.bracket_const(sparse_rows(M), m_parity)
    assert B.coeffs == oracle_bracket(A, M, m_parity)
    assert B.op_parity == (A.op_parity + m_parity) % 2


# ---------------------------------------------------------------------------
# The representation's invariant: an operator stores integer sparse rows
# over its least denominator and never a zero, whatever cancels.
# ---------------------------------------------------------------------------

def stores_no_zero(op):
    """Every stored entry is a nonzero int, den >= 1 shares no factor with
    all of them, and the dense view is entry / den: the integer kernels
    behind _combine and bracket_const leave no zero and no common factor."""
    return is_canonical(op)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_no_operation_stores_a_zero(data):
    dim, (A, B) = data.draw(sparse_ops())
    c = data.draw(_scalars)
    p = data.draw(st.lists(_scalars, min_size=1, max_size=3))
    p = UniPoly(p) if any(p) else UniPoly([ONE])
    Md = data.draw(sparse_matrix(dim))
    M = sparse_rows(Md)
    results = [(A + B, oracle_add(A, B)), (A - B, oracle_add(A, B, -1)),
               (-A, oracle_scale(A, -1)), (A.scale(c), oracle_scale(A, c)),
               (A.scale(0), oracle_scale(A, 0)),
               (A.mul_poly(p), oracle_mul_poly(A, p)),
               (A.shift(c), oracle_shift(A, c)),
               (A.reflect(c), oracle_reflect(A, c)),
               (A.bracket_const(M, 1), oracle_bracket(A, Md, 1)),
               (A.bracket_const(M, 0), oracle_bracket(A, Md, 0)),
               (A.trim(), oracle_trim(A)),
               ((A + B).trim(), oracle_trim(A + B))]
    assert stores_no_zero(A) and stores_no_zero(B)
    # each result keeps the invariant, and its view is the Fraction oracle's
    assert all(stores_no_zero(op) and op.coeffs == want for op, want in results)
    # A - A cancels every entry: nothing is left stored
    assert (A - A).rows == [[{} for _ in range(dim)] for _ in A.rows]
    assert len((A - A).trim().rows) == 1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sparse_ops(count=1), st.integers(1, 3))
def test_trim_copies_den_and_rows(dim_ops, pad):
    """trim drops empty top coefficients without a second gcd scan: it
    calls no constructor, keeps den and the rows, and stays canonical."""
    dim, (A,) = dim_ops
    padded = OperatorPoly.from_int_rows(
        A.rows + [[{} for _ in range(dim)] for _ in range(pad)], A.den,
        A.op_parity)
    with mock.patch.object(OperatorPoly, "from_int_rows",
                           side_effect=AssertionError("trim rebuilt")):
        T, want = padded.trim(), A.trim()
    assert is_canonical(T) and T.coeffs == oracle_trim(A)
    assert (T.rows, T.den, T.op_parity) == (want.rows, A.den, A.op_parity)
    assert T.rows is not padded.rows


@settings(max_examples=60, deadline=None)
@given(sparse_ops(count=1))
def test_dense_view_round_trips(dim_ops):
    _, (A,) = dim_ops
    assert OperatorPoly(A.coeffs, A.op_parity).coeffs == A.coeffs
    assert OperatorPoly(A.coeffs, A.op_parity).rows == A.rows
    # the sparse Fraction rows of the view construct the same operator
    B = OperatorPoly.from_rows([sparse_rows(M) for M in A.coeffs], A.op_parity)
    assert (B.rows, B.den, B.op_parity) == (A.rows, A.den, A.op_parity)
    assert B.coeffs == A.coeffs


# ---------------------------------------------------------------------------
# The one evaluation: eval_int's integer rows against the Fraction sum, and
# eval as their dense view.
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(sparse_ops(count=1), st.integers(-9, 9), st.integers(1, 6),
       st.integers(0, 2), st.integers(-5, 5))
def test_eval_int_is_the_scaled_fraction_sum(dim_ops, a, q, extra, scale):
    """eval_int(a/q, E, scale) = scale q^E den sum_k sparse_coeff(k) x^k for
    every E from the degree up, stores no zero, and eval(x) is its dense
    form over den q^E (E = the degree)."""
    dim, (A,) = dim_ops
    x, E = Fraction(a, q), len(A.rows) - 1 + extra
    want = [{} for _ in range(dim)]
    for k in range(len(A.rows)):
        for w, row in zip(want, A.sparse_coeff(k)):
            for c, y in row.items():
                w[c] = w.get(c, 0) + y * x ** k
    factor = scale * x.denominator ** E * A.den
    got = A.eval_int(rat(a, q), E, scale)
    assert all(type(v) is int and v for row in got for v in row.values())
    assert got == [{c: v * factor for c, v in w.items() if v * factor}
                   for w in want]
    assert A.eval(rat(a, q)) == [[w.get(c, 0) for c in range(dim)]
                                 for w in want]
