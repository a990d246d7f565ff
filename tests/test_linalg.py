"""The integer echelon Span and the column-driven product against
independent oracles: sympy's rref over the rationals, the dense Fraction
product of tests/dense.py and a row-wise cut.  The structure outputs of
three modules are pinned as order-independent digests, so that a change of
kernel cannot silently change an answer."""

import hashlib
import json
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from yosp import analysis as an
from yosp.exact_arith import Scalar, rat
from yosp.hopf_tensor import tensor_modules
from yosp.rep_core import TruncatedInput, build_elementary, build_small_verma
from yosp._linalg import (SingularMatrix, Span, columns, inverse, mat_vec,
                          nullspace, rank, rref)

from dense import mat_vec as dense_mat_vec, sparse, sparse_rows

# Mostly zero, like the operators of a weight module; the nonzero entries
# are plain ints or Fractions, as Span's callers pass them.
entries = st.one_of(
    st.just(0), st.just(0), st.just(0), st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=5).map(rat))
coefficients = st.one_of(st.integers(-3, 3),
                         st.fractions(min_value=-3, max_value=3,
                                      max_denominator=4).map(rat))


@st.composite
def matrices(draw, square=False):
    """A sparse matrix of mixed int and Fraction entries in which some rows
    are planted combinations of two earlier rows."""
    n = draw(st.integers(1, 7))
    m = n if square else draw(st.integers(1, 7))
    A = [draw(st.lists(entries, min_size=m, max_size=m)) for _ in range(n)]
    for r in range(2, n):
        if draw(st.booleans()):
            i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
            a, b = draw(coefficients), draw(coefficients)
            A[r] = [a * x + b * y for x, y in zip(A[i], A[j])]
    return A


def to_sympy(A):
    return sympy.Matrix([[sympy.Rational(rat(x).numerator, rat(x).denominator)
                          for x in row] for row in A])


def from_sympy(M):
    return [[Scalar(int(x.p), int(x.q)) for x in M.row(i)] for i in range(M.rows)]


def sympy_rref(A):
    """(nonzero rref rows as sparse Fraction dicts, pivots) from sympy."""
    R, pivots = to_sympy(A).rref()
    return sparse_rows(from_sympy(R)[:len(pivots)]), list(pivots)


def assert_rows_are_primitive(span):
    """Each stored row is a primitive integer vector, positive at its pivot
    (its first column), with no entry at another row's pivot."""
    rows = span._rows
    for p, row in rows.items():
        assert all(type(x) is int and x for x in row.values())
        assert min(row) == p and row[p] > 0
        assert gcd(*row.values()) == 1
        assert not (row.keys() & rows.keys()) - {p}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrices(), st.randoms(use_true_random=False))
def test_span_matches_sympy_rref(A, rnd):
    """rref, rank and nullspace agree with sympy, and a Span built in any
    row order keeps primitive integer rows whose basis is sympy's rref."""
    want, pivots = sympy_rref(A)
    rows = sparse_rows(A)
    assert rref(rows) == (want, pivots)
    assert rank(rows) == len(pivots)
    kernel = [[Scalar(int(x.p), int(x.q)) for x in v]
              for v in to_sympy(A).nullspace()]
    assert nullspace(rows, len(A[0])) == sparse_rows(kernel)
    rnd.shuffle(rows)
    span = Span()
    assert sum(span.add(r) for r in rows) == len(pivots)
    assert_rows_are_primitive(span)
    assert span.basis() == want and span.pivots() == pivots
    assert all(type(x) is Scalar for b in span.basis() for x in b.values())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrices(square=True))
def test_inverse_of_mixed_entries_matches_sympy(A):
    M = to_sympy(A)
    if M.det() == 0:
        with pytest.raises(SingularMatrix):
            inverse(A)
    else:
        assert inverse(A) == from_sympy(M.inv())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrices(), st.lists(entries, min_size=7, max_size=7), st.booleans())
def test_reduce_is_the_exact_remainder(A, coeffs, planted):
    """reduce(v) is v minus v[p] times the rref row of each pivot p, computed
    here in Fractions; contains(v) says whether v leaves the rank alone."""
    width = len(A[0])
    v = coeffs[:width]
    if planted:  # a vector of the row space, plus a multiple of a row
        v = [x + 2 * y for x, y in zip(A[-1], A[0])]
    want, pivots = sympy_rref(A)
    remainder = {c: rat(x) for c, x in sparse(v).items()}
    for p, row in zip(pivots, want):
        f = remainder.get(p, 0)
        if f:
            for c, y in row.items():
                remainder[c] = remainder.get(c, 0) - f * y
    remainder = {c: x for c, x in remainder.items() if x}
    span = Span()
    for r in sparse_rows(A):
        span.add(r)
    assert span.reduce(sparse(v)) == remainder
    in_span = to_sympy(A + [v]).rank() == len(pivots)
    assert span.contains(sparse(v)) == in_span == (remainder == {})
    assert_rows_are_primitive(span)


def test_span_basis_holds_fractions_of_its_integer_rows():
    """A row is stored as its primitive integer multiple and returned
    divided by its pivot entry."""
    span = Span()
    span.add({1: rat(2, 3), 2: rat(-4, 9)})
    span.add({0: 6, 1: 3})
    assert span._rows == {0: {0: 3, 2: 1}, 1: {1: 3, 2: -2}}
    assert span.basis() == [{0: 1, 2: rat(1, 3)}, {1: 1, 2: rat(-2, 3)}]
    assert span.reduce({0: 1, 1: 1, 2: 1}) == {2: rat(4, 3)}


# ---------------------------------------------------------------------------
# The column-driven product and the column-based _restrict
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrices(), st.lists(entries, min_size=7, max_size=7), st.booleans())
def test_mat_vec_is_the_dense_product(A, coeffs, cancel):
    """M v through the columns of M is the dense Fraction product, and keeps
    no zero where terms cancel."""
    v = coeffs[:len(A[0])]
    if cancel and len(v) > 1:  # columns 0 and 1 equal, v[1] = -v[0]
        for row in A:
            row[1] = row[0]
        v[1] = -v[0]
    got = mat_vec(columns(sparse_rows(A)), sparse(v))
    assert got == sparse(dense_mat_vec(A, v))
    assert all(got.values())


def test_mat_vec_drops_cancelled_entries():
    cols = columns([{0: 1, 1: -1}, {0: rat(1, 2), 1: rat(1, 2)}])
    assert cols == {0: {0: 1, 1: rat(1, 2)}, 1: {0: -1, 1: rat(1, 2)}}
    assert mat_vec(cols, {0: 3, 1: 3}) == {1: 3}
    assert mat_vec(cols, {0: 2, 1: -2}) == {0: 4}
    assert mat_vec(cols, {2: 5}) == {}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(matrices(), st.lists(st.integers(0, 6), unique=True))
def test_restrict_is_the_row_wise_cut(A, idxs):
    """The rows read from the columns are the rows cut to idxs, renumbered,
    empty rows dropped, in row order."""
    rows = sparse_rows(A)
    pos = {c: k for k, c in enumerate(idxs)}
    cut = [{pos[c]: x for c, x in row.items() if c in pos} for row in rows]
    assert an._restrict(columns(rows), idxs) == [r for r in cut if r]


# ---------------------------------------------------------------------------
# Pinned structure outputs
# ---------------------------------------------------------------------------

def _digest(value) -> str:
    """A digest of a list of sparse vectors (each as its sorted items) or of
    a plain value: the order of keys inside a dict does not enter."""
    def canon(x):
        if isinstance(x, dict):
            return [[str(k), canon(v)] for k, v in sorted(x.items())]
        if isinstance(x, list):
            return [canon(y) for y in x]
        return str(x)
    return hashlib.sha256(json.dumps(canon(value)).encode()).hexdigest()[:16]


def structure_pins(m):
    """Singular basis; cyclic basis and quotient by the first proper singular
    vector (as `yosp quotient` takes them); the osp(1|2) decomposition."""
    sing = an.singular_vectors(m)
    proper = next(v for v in sing.basis if v.keys() - {m.highest_index})
    span = an.cyclic_span(m, proper)
    q = an.quotient_module(m, span)
    try:
        osp = _digest(an.osp_action(m)[3])
    except TruncatedInput:
        osp = "truncated"
    return {"dims": [m.dim, sing.dim, span.dim, q.dim],
            "singular": _digest(sing.basis), "cyclic": _digest(span.basis),
            "quotient": an.module_digest(q), "osp": osp}


MODULES = {
    "L(-1,0)xL(-5/2,-3/2)": lambda: tensor_modules(
        build_elementary(rat(-1), rat(0)), build_elementary(rat(-5, 2), rat(-3, 2))),
    "L(-2,0)xL(-3,-1)": lambda: tensor_modules(
        build_elementary(rat(-2), rat(0)), build_elementary(rat(-3), rat(-1))),
    "M(-2,0)@8": lambda: build_small_verma(rat(-2), rat(0), 8),
}


# Recorded with the row-driven product and the Fraction Span they replaced.
PINS = {
    "L(-1,0)xL(-5/2,-3/2)": {"dims": [9, 2, 1, 8],
        "singular": "f50d61b890a38b83", "cyclic": "c451a0b3bc4387dc",
        "quotient": "2c5bdc70a902", "osp": "cbbd05c9076b8468"},
    "L(-2,0)xL(-3,-1)": {"dims": [36, 2, 6, 30],
        "singular": "25f60c5ce7c3341e", "cyclic": "f53c2c7bffc54ef6",
        "quotient": "3b5200ee277b", "osp": "55cae34958edff76"},
    "M(-2,0)@8": {"dims": [25, 2, 19, 6],
        "singular": "c57e08c6433b3154", "cyclic": "905a48f5c867f69f",
        "quotient": "eb6ef9ccff8d", "osp": "truncated"},
}


@pytest.mark.parametrize("name", PINS)
def test_structure_outputs_are_pinned(name):
    assert structure_pins(MODULES[name]()) == PINS[name]
