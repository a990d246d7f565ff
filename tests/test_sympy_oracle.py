"""Differential tests against sympy: the row-reduction engine (rref, rank,
nullspace, inverse and Span), rational root finding and Drinfeld
polynomials, on random exact inputs."""

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from yosp import analysis as an
from yosp.exact_arith import HALF, ONE, RatFunc, UniPoly, rat
from yosp.hopf_tensor import HighestWeight
from yosp._linalg import SingularMatrix, Span, inverse, nullspace, rank, rref

from dense import sparse, sparse_rows

U = sympy.Symbol("u")

# Mostly zero, like the operators of a weight module.
entries = st.one_of(
    st.just(0), st.just(0), st.just(0),
    st.fractions(min_value=-4, max_value=4, max_denominator=5).map(rat))


@st.composite
def matrices(draw, square=False):
    """A sparse rational matrix; a drawn row is sometimes a combination of
    two others, so that singular inputs are common."""
    n = draw(st.integers(1, 6))
    m = n if square else draw(st.integers(1, 6))
    A = [[rat(x) for x in draw(st.lists(entries, min_size=m, max_size=m))]
         for _ in range(n)]
    if n >= 3 and draw(st.booleans()):
        c = draw(entries)
        A[0] = [x + c * y for x, y in zip(A[1], A[2])]
    return A


def to_sympy(A):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in row] for row in A])


def from_sympy(M):
    return [[rat(int(x.p), int(x.q)) for x in M.row(i)] for i in range(M.rows)]


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_rref_rank_nullspace_match_sympy(A):
    R, pivots = to_sympy(A).rref()
    rows, piv = rref(sparse_rows(A))
    assert piv == list(pivots)
    assert rows == sparse_rows(from_sympy(R)[:len(pivots)])
    assert rank(sparse_rows(A)) == len(pivots)
    want = [[rat(int(x.p), int(x.q)) for x in v] for v in to_sympy(A).nullspace()]
    assert nullspace(sparse_rows(A), len(A[0])) == sparse_rows(want)


@given(matrices(square=True))
@settings(max_examples=150, deadline=None)
def test_inverse_matches_sympy(A):
    M = to_sympy(A)
    if M.det() == 0:
        with pytest.raises(SingularMatrix):
            inverse(A)
    else:
        assert inverse(A) == from_sympy(M.inv())


@given(matrices(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_span_basis_is_the_rref_in_any_order(A, rnd):
    """The Span basis is the RREF of its rows whatever order they came in."""
    R, pivots = to_sympy(A).rref()
    rows = list(A)
    rnd.shuffle(rows)
    span = Span()
    grew = [span.add(sparse(r)) for r in rows]
    assert sum(grew) == len(span.pivots()) == len(pivots)
    assert span.basis() == sparse_rows(from_sympy(R)[:len(pivots)])
    assert span.pivots() == list(pivots)
    for r in map(sparse, A):
        assert span.contains(r) and not span.add(r)
        assert span.reduce(r) == {}


def test_span_basis_is_a_copy():
    """add edits its rows in place; a basis taken earlier keeps its values."""
    span = Span()
    span.add({0: ONE, 1: ONE})
    before = span.basis()
    span.add({1: ONE})
    assert before == [{0: ONE, 1: ONE}]
    assert span.basis() == [{0: ONE}, {1: ONE}]


@given(matrices(), st.lists(entries, min_size=6, max_size=6))
@settings(max_examples=100, deadline=None)
def test_span_reduce_is_the_remainder(A, coeffs):
    """reduce(v) is v minus a combination of the basis, with no entry at a
    pivot; it is empty exactly when sympy puts v in the row space."""
    v = [rat(x) for x in coeffs[:len(A[0])]]
    span = Span()
    for r in A:
        span.add(sparse(r))
    red = span.reduce(sparse(v))
    assert not set(red) & set(span.pivots())
    diff = [x - red.get(c, 0) for c, x in enumerate(v)]
    assert rank(sparse_rows(A + [diff])) == len(span.pivots())
    in_rowspace = to_sympy(A + [v]).rank() == to_sympy(A).rank()
    assert (red == {}) == in_rowspace == span.contains(sparse(v))


small = st.fractions(min_value=-3, max_value=3, max_denominator=4).map(rat)


@given(st.lists(small, max_size=4), st.lists(st.integers(-3, 3), min_size=1,
                                             max_size=3))
@settings(max_examples=100, deadline=None)
def test_poly_rational_roots_match_sympy(roots, cofactor):
    """Rational roots with multiplicities, and the rootless cofactor."""
    if not any(cofactor):
        cofactor = [1]
    p = UniPoly.from_roots(roots) * UniPoly([rat(c) for c in cofactor])
    expr = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p.coeffs)], U)
    want = {}
    for f, mult in expr.factor_list()[1]:
        if f.degree() == 1:
            a, b = f.all_coeffs()
            r = -b / a
            want[rat(int(r.p), int(r.q))] = mult
    got, rest = an._poly_rational_roots(p)
    assert got == want
    assert UniPoly.from_roots(an._expand(got)) * rest == p


def _sympy_drinfeld(num_roots, den_roots):
    """The monic P with P(u+1) den(u) = P(u) num(u), solved as a linear
    system over Q after cancelling; None when there is none."""
    num, den = sympy.fraction(sympy.cancel(
        sympy.prod([U - sympy.Rational(r.numerator, r.denominator)
                    for r in num_roots])
        / sympy.prod([U - sympy.Rational(r.numerator, r.denominator)
                      for r in den_roots])))
    num, den = sympy.Poly(num, U), sympy.Poly(den, U)
    # P(u+1)/P(u) = 1 + deg(P)/u + ..., which fixes the degree of P.
    d = num.degree()
    N = (num.nth(d - 1) - den.nth(d - 1)) / num.LC() if d > 0 else 0
    if not (N >= 0 and N == int(N)):
        return None
    cs = sympy.symbols(f"p0:{int(N) + 1}")
    P = sum(c * U ** k for k, c in enumerate(cs))
    eqs = sympy.Poly(sympy.expand(P.subs(U, U + 1) * den.as_expr()
                                  - P * num.as_expr()), U).all_coeffs()
    sol = sympy.linear_eq_to_matrix(eqs, cs)[0].nullspace()
    if not sol:
        return None
    v = sol[0] / sol[0][-1]
    return UniPoly([rat(int(x.p), int(x.q)) for x in v])


roots_near = st.lists(st.integers(-2, 2).map(rat) | st.sampled_from(
    [HALF, rat(-1, 2), rat(1, 3)]), min_size=1, max_size=3)


@given(roots_near, roots_near)
@settings(max_examples=80, deadline=None)
def test_drinfeld_polynomial_matches_sympy(num_roots, den_roots):
    den_roots = (den_roots * 3)[:len(num_roots)]
    mu = RatFunc(UniPoly.from_roots(num_roots), UniPoly.from_roots(den_roots))
    hw = HighestWeight(RatFunc.const(1), mu, mu * mu.shift(HALF))
    want = _sympy_drinfeld(num_roots, den_roots)
    if want is None:
        with pytest.raises(an.NotDominant):
            an.drinfeld_polynomial(hw)
    else:
        assert an.drinfeld_polynomial(hw).P == want

