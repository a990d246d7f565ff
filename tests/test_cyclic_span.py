"""cyclic_span against a plain Fraction spin, and the paper's tensor-product
irreducibility criterion as a property of is_irreducible."""

from functools import reduce

import pytest
from hypothesis import (Phase, assume, example, given, settings,
                        strategies as st)

from yosp.exact_arith import ONE, UniPoly, rat
from yosp._linalg import Span, columns, integral, mat_vec, primitive
from yosp.rep_core import build_elementary, build_small_verma
from yosp.hopf_tensor import highest_weight_of, tensor_modules
from yosp import analysis as an


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


def _is_highest(m, v):
    """_is_highest_vector on v's primitive integer multiple."""
    return an._is_highest_vector(m, primitive(integral(v)[0]))


def _tensor(pairs):
    return reduce(tensor_modules, (build_elementary(a, b) for a, b in pairs))


# L(a, a+k) with a = p/q: dimension (k+1)(k+2)/2.  Integer and half-integer
# a make the factors' roots meet, so reducible products come up often.
def _pairs(k_max):
    return st.builds(lambda p, q, k: (rat(p, q), rat(p, q) + k),
                     st.integers(-4, 2), st.integers(1, 3),
                     st.integers(0, k_max))


# Two factors up to dim 36, three up to dim 27.
_tuples = st.one_of(st.lists(_pairs(2), min_size=2, max_size=2),
                    st.lists(_pairs(1), min_size=3, max_size=3))

# Criterion 9's negative tuple, reversed, and with a trivial factor in front.
_REDUCIBLE = [[(rat(-1), rat(0)), (rat(-5, 2), rat(-3, 2))],
              [(rat(-5, 2), rat(-3, 2)), (rat(-1), rat(0))],
              [(rat(0), rat(0)), (rat(-1), rat(0)), (rat(-5, 2), rat(-3, 2))]]


# No shrink phase: shrinking a failure through module builds takes minutes.
@settings(max_examples=20, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(_tuples)
@example(_REDUCIBLE[0])
@example(_REDUCIBLE[1])
@example(_REDUCIBLE[2])
def test_highest_vector_span_matches_the_fraction_spin(pairs):
    """The highest vector of a product takes the lowering-only spin, and its
    span has the oracle's basis, reducible products included."""
    m = _tensor(pairs)
    v = {m.highest_index: ONE}
    assert _is_highest(m, v)
    assert an.cyclic_span(m, v).basis == fraction_spin(m, v)


def _other_cases():
    """(m, v, whether v takes the lowering-only spin).  A proper singular
    vector takes it.  A singular vector that is not a t_ii eigenvector, a
    vector that is neither (both of mixed weight), the lowest vector (an
    eigenvector, not singular) and any vector of a truncated module take
    the all-operator spin."""
    tp = _tensor(_REDUCIBLE[0])  # zeta: its proper singular vector
    zeta = next(b for b in an.singular_vectors(tp).basis
                if b.keys() - {tp.highest_index})
    L2 = build_elementary(-2, 0)
    M = build_small_verma(-2, 0, 8)
    xi = M.space.labels.index(((0, 3),))
    return [(tp, zeta, True),
            (tp, {**zeta, tp.highest_index: ONE}, False),
            (L2, {0: ONE, 1: rat(2, 3)}, False),
            (L2, {L2.dim - 1: ONE}, False),
            (M, {M.highest_index: ONE}, False),
            (M, {xi: rat(5, 7)}, False)]


def test_other_vectors_match_the_fraction_spin():
    """Each case takes the spin it should; the weight-homogeneous starts
    spin with the room rule and the two of mixed weight without it.  All
    match the oracle."""
    cases = _other_cases()
    weights = [len({m.space.weight[c] for c in v}) for m, v, _ in cases]
    assert weights == [1, 2, 2, 1, 1, 1]
    for m, v, lowering in cases:
        assert _is_highest(m, v) == lowering
        assert an.cyclic_span(m, v).basis == fraction_spin(m, v)


def test_the_eigenvector_routines_agree():
    """_is_highest_vector holds exactly when m is exact, v is singular and
    tii_eigenvalue succeeds for i = 1, 2, 3; the cases cover all four
    combinations of singular and eigenvector."""
    seen = set()
    for m, v, _ in _other_cases():
        singular = not any(mat_vec(columns(m.op(i, j).sparse_coeff(k)), v)
                           for i, j in ((1, 2), (1, 3), (2, 3))
                           for k in range(len(m.op(i, j).rows)))
        try:
            for i in range(1, 4):
                an.tii_eigenvalue(m, v, i)
            eigen = True
        except ValueError:
            eigen = False
        seen.add((singular, eigen))
        assert _is_highest(m, v) == (not m.truncated and singular and eigen)
    assert len(seen) == 4


@pytest.mark.parametrize("k", [1, 2, 3])
def test_room_rule_on_the_all_operator_spin(k):
    """xi_{0,k+1} in the truncated M(-k,0)@8 takes the all-operator spin,
    skipping filled weight spaces, and its basis is the oracle's."""
    m = build_small_verma(-k, 0, 8)
    v = {m.space.labels.index(((0, k + 1),)): ONE}
    assert not _is_highest(m, v)
    assert an.cyclic_span(m, v).basis == fraction_spin(m, v)


@pytest.mark.parametrize("pairs", _REDUCIBLE)
def test_room_rule_on_reducible_products(pairs):
    """The highest vector and the proper singular vectors of each reducible
    product (the reversed pair has none: its highest vector spans a proper
    submodule): the lowering-only spin with the room rule."""
    m = _tensor(pairs)
    zetas = [b for b in an.singular_vectors(m).basis
             if b.keys() - {m.highest_index}]
    assert len(zetas) == (pairs != _REDUCIBLE[1])
    for v in [{m.highest_index: ONE}] + zetas:
        assert len({m.space.weight[c] for c in v}) == 1 and _is_highest(m, v)
        assert an.cyclic_span(m, v).basis == fraction_spin(m, v)


def test_room_rule_skips_products(monkeypatch):
    """On L(-2,0)(x)L(-2,0) the highest-vector spin makes 52 products, far
    fewer than one per basis vector and lowering coefficient (36 x 12 = 432),
    the count of a spin without the room rule.  The exact count also catches
    a rule that skips only some of the products it should.  Testing that the
    start vector is singular takes one more product per raising coefficient."""
    L2 = build_elementary(-2, 0)
    m = tensor_modules(L2, L2)
    calls = []
    real = an.mat_vec
    monkeypatch.setattr(an, "mat_vec", lambda C, x: calls.append(1) or real(C, x))
    span = an.cyclic_span(m, {m.highest_index: ONE})
    lowering = sum(len(m.op(i, j).rows) for i, j in an._LOWERING)
    raising = sum(len(m.op(i, j).rows) for i, j in an._RAISING)
    assert span.dim == m.dim == 36 and lowering == raising == 12
    assert len(calls) == raising + 52


def _drinfeld(m):
    return an.drinfeld_polynomial(highest_weight_of(m)).P


# No shrink phase, as above.
@settings(max_examples=25, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(_tuples)
@example([(rat(-1), rat(0)), (rat(-2), rat(0))])
@example([(rat(-1), rat(0)), (rat(-1), rat(0)), (rat(-2), rat(0))])
def test_criterion_implies_irreducible(pairs):
    """Where the paper's criterion holds the product is irreducible, and its
    Drinfeld polynomial is the product of the factors' polynomials."""
    assume(an.check_tensor_criterion(pairs))
    m = _tensor(pairs)
    ok, cert = an.is_irreducible(m)
    assert ok, (pairs, cert)
    factors = [_drinfeld(build_elementary(a, b)) for a, b in pairs]
    assert _drinfeld(m) == reduce(UniPoly.__mul__, factors)


def test_threefold_tensor_of_l_minus_2_0_is_irreducible():
    """L(-2,0)^{(x)3}, dim 216: the highest vector spans it all."""
    L2 = build_elementary(-2, 0)
    m = tensor_modules(tensor_modules(L2, L2), L2)
    ok, cert = an.is_irreducible(m)
    assert ok
    assert cert == {"singular_dim": 1, "cyclic_dim": 216, "dim": 216}
