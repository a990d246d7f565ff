"""cyclic_span against a plain Fraction spin, and the paper's tensor-product
irreducibility criterion as a property of is_irreducible."""

import dataclasses
from functools import reduce

import pytest
from hypothesis import assume, example, given, settings

from yosp.exact_arith import ONE, RatFunc, UniPoly, rat
from yosp._linalg import Span, columns, mat_vec
from yosp.super_linalg import OperatorPoly
from yosp.hopf_tensor import highest_weight_of
from yosp import analysis as an

from zoo import L, M, MODULE_SETTINGS, build, named, product, trees


def fraction_spin(m, v):
    """The oracle: the reduced echelon basis of the closure of span{v} under
    every coefficient of all nine T_ij, spun in Fractions."""
    span = Span()
    span.add(v)
    mats = [columns(op.sparse_coeff(k)) for row in m.T for op in row
            for k in range(len(op.rows))]
    frontier = [v]
    while frontier:
        nxt = []
        for x in frontier:
            for R in mats:
                y = mat_vec(R, x)
                if span.add(y):
                    nxt.append(y)
        frontier = nxt
    return span.basis()


# Criterion 9's negative tuple, reversed, and with a trivial factor in front.
_REDUCIBLE = [[(rat(-1), rat(0)), (rat(-5, 2), rat(-3, 2))],
              [(rat(-5, 2), rat(-3, 2)), (rat(-1), rat(0))],
              [(rat(0), rat(0)), (rat(-1), rat(0)), (rat(-5, 2), rat(-3, 2))]]


@settings(MODULE_SETTINGS, max_examples=20)
@given(trees(36))
@example(build(product(_REDUCIBLE[0])))
@example(build(product(_REDUCIBLE[1])))
@example(build(product(_REDUCIBLE[2])))
def test_highest_vector_span_matches_the_fraction_spin(tree):
    """The span of the highest vector of a zoo module has the oracle's
    basis, reducible products included."""
    m = tree.module
    v = {m.highest_index: ONE}
    assert an.cyclic_span(m, v).basis == fraction_spin(m, v)


def _other_cases():
    """(m, v): a proper singular vector, a singular vector that is not a
    t_ii eigenvector, a vector that is neither (both of mixed weight), the
    lowest vector (an eigenvector, not singular), and two vectors of a
    truncated module."""
    tp = named("L(-1,0)xL(-5/2,-3/2)")  # zeta: its proper singular vector
    zeta = next(b for b in an.singular_vectors(tp).basis
                if b.keys() - {tp.highest_index})
    L2 = named("L(-2,0)")
    m = named("M(-2,0)@8")
    xi = m.space.labels.index(((0, 3),))
    return [(tp, zeta),
            (tp, {**zeta, tp.highest_index: ONE}),
            (L2, {0: ONE, 1: rat(2, 3)}),
            (L2, {L2.dim - 1: ONE}),
            (m, {m.highest_index: ONE}),
            (m, {xi: rat(5, 7)})]


def test_other_vectors_match_the_fraction_spin():
    """The weight-homogeneous starts spin with the room rule and the two of
    mixed weight without it.  All match the oracle."""
    cases = _other_cases()
    weights = [len({m.space.weight[c] for c in v}) for m, v in cases]
    assert weights == [1, 2, 2, 1, 1, 1]
    for m, v in cases:
        assert an.cyclic_span(m, v).basis == fraction_spin(m, v)


def _fraction_eigenvalue(m, v, i):
    """The oracle: t_ii(u)'s eigenvalue on v from each coefficient applied
    in Fractions, or None when some coefficient does not map v to a multiple
    of v."""
    op, p, cs = m.op(i, i), min(v), []
    for k in range(len(op.rows)):
        w = mat_vec(columns(op.sparse_coeff(k)), v)
        c = w.get(p, 0) / v[p]
        if w != {a: c * x for a, x in v.items() if c}:
            return None
        cs.append(c)
    return RatFunc(UniPoly(cs), m.denom)


def test_tii_eigenvalue_matches_the_fraction_check():
    """tii_eigenvalue gives the oracle's eigenvalue where v is an eigenvector
    and ValueError where it is not; the cases have both outcomes."""
    seen = set()
    for m, v in _other_cases():
        for i in range(1, 4):
            want = _fraction_eigenvalue(m, v, i)
            seen.add(want is None)
            if want is None:
                with pytest.raises(ValueError, match="eigenvector"):
                    an.tii_eigenvalue(m, v, i)
            else:
                assert an.tii_eigenvalue(m, v, i) == want
    assert seen == {True, False}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_room_rule_on_the_all_operator_spin(k):
    """xi_{0,k+1} in the truncated M(-k,0)@8 spins with the room rule,
    skipping filled weight spaces, and its basis is the oracle's."""
    m = build(M(-k, 0, 8)).module
    v = {m.space.labels.index(((0, k + 1),)): ONE}
    assert an.cyclic_span(m, v).basis == fraction_spin(m, v)


@pytest.mark.parametrize("pairs", _REDUCIBLE)
def test_room_rule_on_reducible_products(pairs):
    """The highest vector and the proper singular vectors of each reducible
    product (the reversed pair has none: its highest vector spans a proper
    submodule) spin with the room rule to the oracle's basis."""
    m = build(product(pairs)).module
    zetas = [b for b in an.singular_vectors(m).basis
             if b.keys() - {m.highest_index}]
    assert len(zetas) == (pairs != _REDUCIBLE[1])
    for v in [{m.highest_index: ONE}] + zetas:
        assert len({m.space.weight[c] for c in v}) == 1
        assert an.cyclic_span(m, v).basis == fraction_spin(m, v)


def test_room_rule_skips_products(monkeypatch):
    """On L(-2,0)(x)L(-2,0) the spin of the highest vector makes 52 products,
    far fewer than one per basis vector and coefficient matrix of the nine
    T_ij (36 x 39 = 1404), the count of a spin without the room rule.  The
    exact count also catches a rule that skips only some of the products it
    should.  No coefficient matrix is transposed twice."""
    m = build(product([(-2, 0), (-2, 0)])).module
    calls, transposed = [], []
    real_mat_vec, real_columns = an.mat_vec, an.columns
    monkeypatch.setattr(an, "mat_vec",
                        lambda C, x: calls.append(1) or real_mat_vec(C, x))
    monkeypatch.setattr(an, "columns",
                        lambda R: transposed.append(id(R)) or real_columns(R))
    span = an.cyclic_span(m, {m.highest_index: ONE})
    mats = sum(len(op.rows) for row in m.T for op in row)
    assert span.dim == m.dim == 36 and mats == 39
    assert len(calls) == 52
    assert len(transposed) == len(set(transposed)) <= mats


def test_spin_is_the_closure_on_a_module_that_breaks_rtt():
    """The reversed pair with den added to entry (2, 5) of the u^0
    coefficient of T_12 keeps its grading and breaks RTT.  Its span is still
    the closure under all nine T_ij, so no triangular decomposition is
    assumed: the highest vector is cyclic (dim 9), although a spin by T_21,
    T_31, T_32 alone reaches dim 8."""
    m = build(product(_REDUCIBLE[1])).module
    op = m.T[0][1]
    rows = [[dict(r) for r in R] for R in op.rows]
    rows[0][2][5] = rows[0][2].get(5, 0) + op.den
    T = [list(r) for r in m.T]
    T[0][1] = OperatorPoly.from_int_rows(rows, op.den, op.op_parity)
    m = dataclasses.replace(m, T=T)
    assert m.grading_violations() == []
    with pytest.raises(an.RelationViolation):
        an.verify_rtt(m)
    v = {m.highest_index: ONE}
    span = an.cyclic_span(m, v)
    assert span.basis == fraction_spin(m, v) and span.dim == m.dim == 9
    assert an.is_irreducible(m) == (True, {"singular_dim": 1, "cyclic_dim": 9,
                                           "dim": 9})


def _drinfeld(m):
    return an.drinfeld_polynomial(highest_weight_of(m)).P


@settings(MODULE_SETTINGS, max_examples=25)
@given(trees(36, leaves=("L",), nodes=("tensor",)))
@example(build(product([(-1, 0), (-2, 0)])))
@example(build(product([(-1, 0), (-1, 0), (-2, 0)])))
def test_criterion_implies_irreducible(tree):
    """Where the paper's criterion holds on the factor pairs of a product of
    elementary modules, the product is irreducible, and its Drinfeld
    polynomial is the product of the factors' polynomials."""
    m = tree.module
    pairs = [(f.alpha, f.beta) for f in m.factors]
    assume(an.check_tensor_criterion(pairs))
    ok, cert = an.is_irreducible(m)
    assert ok, (pairs, cert)
    factors = [_drinfeld(build(L(a, b)).module) for a, b in pairs]
    assert _drinfeld(m) == reduce(UniPoly.__mul__, factors)


def test_threefold_tensor_of_l_minus_2_0_is_irreducible():
    """L(-2,0)^{(x)3}, dim 216: the highest vector spans it all."""
    m = build(product([(-2, 0)] * 3)).module
    ok, cert = an.is_irreducible(m)
    assert ok
    assert cert == {"singular_dim": 1, "cyclic_dim": 216, "dim": 216}
