"""Tests for the exact scalar, polynomial, and rational-function layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yosp.exact_arith import (HALF, KAPPA, ONE, PoleError, RatFunc, UniPoly,
                              ZERO, rat, rat_str)


def test_rat_basics():
    assert rat(1, 2) + rat(1, 3) == rat(5, 6)
    assert rat("-5/2") == rat(-5, 2)
    assert rat_str(rat(-5, 2)) == "-5/2"
    assert rat_str(rat(3)) == "3"
    assert KAPPA == rat(-3, 2)
    assert HALF + HALF == ONE


def test_rat_accepts_fraction():
    assert rat(Fraction(2, 4)) == HALF


small_rats = st.fractions(min_value=-5, max_value=5, max_denominator=6).map(rat)
polys = st.lists(small_rats, min_size=0, max_size=5).map(UniPoly)


def test_unipoly_construction_and_trim():
    p = UniPoly([rat(1), rat(0), rat(0)])
    assert p.degree == 0
    assert UniPoly([]).is_zero()
    assert UniPoly.const(7).coeffs == (rat(7),)
    assert UniPoly.x_plus(rat(2))(rat(3)) == 5


def test_unipoly_from_roots():
    p = UniPoly.from_roots([rat(1), rat(2)])
    assert p(rat(1)) == 0 and p(rat(2)) == 0
    assert p.leading() == 1
    assert p.coeffs == (rat(2), rat(-3), rat(1))


def test_unipoly_shift_reflect():
    p = UniPoly([rat(0), rat(0), rat(1)])  # u^2
    assert p.shift(rat(1))(rat(2)) == 9
    assert p.reflect(rat(1))(rat(3)) == 4  # (1-u)^2 at u=3


def test_unipoly_divmod_gcd():
    p = UniPoly.from_roots([rat(1), rat(2), rat(3)])
    q = UniPoly.from_roots([rat(2), rat(3)])
    quo, rem = p.divmod(q)
    assert rem.is_zero()
    assert quo == UniPoly.from_roots([rat(1)])
    g = p.gcd(UniPoly.from_roots([rat(2), rat(5)]))
    assert g == UniPoly.from_roots([rat(2)])


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_unipoly_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a


@given(polys, small_rats, small_rats)
@settings(max_examples=60, deadline=None)
def test_unipoly_shift_is_substitution(p, a, x):
    assert p.shift(a)(x) == p(x + a)
    assert p.reflect(a)(x) == p(a - x)


def test_ratfunc_canonical_form():
    f = RatFunc(UniPoly([rat(2), rat(2)]), UniPoly([ZERO, rat(4), rat(4)]))
    # (2u+2)/(4u+4u^2) = 1/(2u): denominator made monic
    assert f == RatFunc(UniPoly([HALF]), UniPoly([ZERO, ONE]))


def test_ratfunc_arithmetic_and_inverse():
    f = RatFunc.linear_ratio(rat(-1), rat(0))  # (u-1)/u
    g = RatFunc.const(1) / f
    assert f * g == RatFunc.const(1)


def test_ratfunc_pole():
    f = RatFunc.linear_ratio(rat(-1), rat(0))
    with pytest.raises(PoleError):
        f(rat(0))
    assert f(rat(2)) == HALF


def test_ratfunc_shift_and_infinity():
    f = RatFunc.linear_ratio(rat(-1), rat(0))
    assert f.shift(rat(1)) == RatFunc.linear_ratio(rat(0), rat(1))


@given(st.lists(small_rats, min_size=1, max_size=4).map(UniPoly),
       st.lists(small_rats, min_size=1, max_size=4).map(UniPoly))
@settings(max_examples=40, deadline=None)
def test_ratfunc_field_axioms(p, q):
    if p.is_zero() or q.is_zero():
        return
    f = RatFunc(p, q)
    g = RatFunc(q, p)
    assert f * g == RatFunc.const(1)
