"""Differential tests against sympy: rational root finding, and Drinfeld
polynomials whose roots are mostly irrational, on random exact inputs.
tests/test_linalg.py compares the row reduction with sympy, and
test_analysis.py checks Drinfeld polynomials on rational roots against a
brute-force matching."""

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from yosp import analysis as an
from yosp.cli import _poly_rational_roots
from yosp.exact_arith import ONE, RatFunc, UniPoly, rat

from polys import from_roots, hw_from_mu

U = sympy.Symbol("u")


def to_sympy_poly(p):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p.coeffs)], U)


small = st.fractions(min_value=-3, max_value=3, max_denominator=4).map(rat)


@given(st.lists(small, max_size=4), st.lists(st.integers(-3, 3), min_size=1,
                                             max_size=3))
@settings(max_examples=100, deadline=None)
def test_poly_rational_roots_match_sympy(roots, cofactor):
    """Rational roots with multiplicities, and the rootless cofactor."""
    if not any(cofactor):
        cofactor = [1]
    p = from_roots(roots) * UniPoly([rat(c) for c in cofactor])
    want = {}
    for f, mult in to_sympy_poly(p).factor_list()[1]:
        if f.degree() == 1:
            a, b = f.all_coeffs()
            r = -b / a
            want[rat(int(r.p), int(r.q))] = mult
    got, rest = _poly_rational_roots(p)
    assert got == want
    assert from_roots(r for r, k in got.items() for _ in range(k)) * rest == p


def _sympy_drinfeld(N, D):
    """The monic P with P(u+1) D(u) = P(u) N(u), for monic N and D of equal
    degree, solved as a linear system over Q after cancelling; None when
    there is none."""
    num, den = sympy.fraction(sympy.cancel(to_sympy_poly(N).as_expr()
                                           / to_sympy_poly(D).as_expr()))
    num, den = sympy.Poly(num, U), sympy.Poly(den, U)
    # P(u+1)/P(u) = 1 + deg(P)/u + ..., which fixes the degree of P.
    d = num.degree()
    S = (num.nth(d - 1) - den.nth(d - 1)) / num.LC() if d > 0 else 0
    if not (S >= 0 and S == int(S)):
        return None
    cs = sympy.symbols(f"p0:{int(S) + 1}")
    P = sum(c * U ** k for k, c in enumerate(cs))
    eqs = sympy.Poly(sympy.expand(P.subs(U, U + 1) * den.as_expr()
                                  - P * num.as_expr()), U).all_coeffs()
    sol = sympy.linear_eq_to_matrix(eqs, cs)[0].nullspace()
    if not sol:
        return None
    v = sol[0] / sol[0][-1]
    return UniPoly([rat(int(x.p), int(x.q)) for x in v])


@st.composite
def quadratic_strings(draw):
    """(N, D, P): N/D = P(u+1)/P(u) for P a product of strings
    q(u) q(u-1) ... of random monic quadratics q, whose roots are mostly
    irrational.  Sometimes one nonzero coefficient of N has its sign flipped
    (P is then None), which is mostly not dominant."""
    P = UniPoly([ONE])
    for length in (draw(st.integers(1, 2)), draw(st.integers(0, 1))):
        q = UniPoly([draw(small), draw(small), ONE])
        for j in range(length):
            P = P * q.shift(-j)
    N, D = P.shift(1), P
    flips = [k for k, c in enumerate(N.coeffs[:-1]) if c]
    if flips and draw(st.booleans()):
        k = draw(st.sampled_from(flips))
        N = UniPoly(-c if i == k else c for i, c in enumerate(N.coeffs))
        P = None
    return N, D, P


@given(quadratic_strings())
@settings(max_examples=25, deadline=None)
def test_drinfeld_polynomial_of_quadratic_strings_matches_sympy(NDP):
    """drinfeld_polynomial on l2/l1 = N/D agrees with the sympy oracle,
    which finds P itself where the draw made one."""
    N, D, P = NDP
    hw = hw_from_mu(RatFunc(N, D))
    want = _sympy_drinfeld(N, D)
    if want is None:
        with pytest.raises(an.NotDominant):
            an.drinfeld_polynomial(hw)
    else:
        assert an.drinfeld_polynomial(hw).P == want
    if P is not None:
        assert want == P
