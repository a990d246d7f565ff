"""The module zoo of tests/zoo.py: its draws and fixed trees, and invariants
that hold across the analyses on every module it builds."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from yosp import analysis as an
from yosp.exact_arith import rat
from yosp.rep_core import Factor, TruncatedInput

from zoo import (BY_KIND, EXACT, L, M, MODULE_SETTINGS, NAMED, VECTOR, build,
                 each_kind, name, product, trees)


@settings(MODULE_SETTINGS, max_examples=40)
@given(st.integers(1, 40).flatmap(lambda cap: st.tuples(st.just(cap), trees(cap))))
def test_draws_keep_the_cap_and_the_grading_and_rebuild(drawn):
    """Every draw has dim <= cap and keeps its grading, and its recipe
    builds the same module again."""
    cap, tree = drawn
    m = tree.module
    assert m.dim <= cap
    assert m.grading_violations() == []
    assert build(tree.recipe).module == m


# (name, recipe, factors): one fixed tree of each leaf and node kind.
FIXED = [
    ("L(-2,0)", L(-2, 0), [Factor(-2, 0)]),
    ("L(-1/2,0)@6", L("-1/2", 0, 6), [Factor(rat(-1, 2), 0, 6)]),
    ("M(-1/3,0)@5", M("-1/3", 0, 5), [Factor(rat(-1, 3), 0, 5)]),
    ("vector", VECTOR, [Factor(-1, 0)]),
    ("M(-1/3,0)@5xM(-2/5,0)@7", ("tensor", M("-1/3", 0, 5), M("-2/5", 0, 7)),
     [Factor(rat(-1, 3), 0, 5), Factor(rat(-2, 5), 0, 7)]),
    ("dual(L(-1,0)xL(-5/2,-3/2))", ("dual", product([(-1, 0), ("-5/2", "-3/2")])),
     [Factor(0, 1), Factor(rat(3, 2), rat(5, 2))]),
    ("shift(M(-1/3,0)@6,1/2)", ("shift", M("-1/3", 0, 6), rat(1, 2)),
     [Factor(rat(1, 6), rat(1, 2), 6)]),
    ("twist(L(-1/2,0)@6,1,3)", ("twist", L("-1/2", 0, 6), rat(1), rat(3)),
     [Factor(rat(-1, 2), 0, 6)]),
    ("quotient(M(-2,0)@8)", ("quotient", M(-2, 0, 8)), [Factor(-2, 0, 8)]),
]


@pytest.mark.parametrize("want, recipe, factors", FIXED, ids=[f[0] for f in FIXED])
def test_one_tree_per_kind_has_its_name_and_factors(want, recipe, factors):
    """Depths are kept by tensor, shift, twist and quotient; the dual
    reflects the exact factors' parameters."""
    assert name(recipe) == want
    assert build(recipe).module.factors == factors


def test_dual_and_quotient_refuse_what_they_cannot_take():
    with pytest.raises(TruncatedInput):
        build(("dual", M("-1/3", 0, 4)))
    with pytest.raises(ValueError, match="no proper singular vector"):
        build(("quotient", L(-2, 0)))


def test_named_trees_are_keyed_by_their_names():
    assert all(name(r) == n for n, r in NAMED.items())
    assert all(NAMED[n][0] == kind for kind, n in BY_KIND.items())
    assert sorted(BY_KIND) == sorted(("L", "Lhalf", "M", "vector", "tensor",
                                      "dual", "shift", "twist", "quotient"))


# ---------------------------------------------------------------------------
# Invariants over the zoo, each with an explicit example of every kind.  The
# file round trip is test_rep_core.test_file_round_trip_keeps_every_factor,
# and the criterion and Drinfeld products test_cyclic_span's
# test_criterion_implies_irreducible.
# ---------------------------------------------------------------------------

@settings(MODULE_SETTINGS, max_examples=30)
@given(trees(36))
@each_kind()
def test_rtt_and_central_relations_hold(tree):
    """Both verifiers pass; they refuse a module only when it has no column
    RELATION_MARGIN levels below its cuts."""
    m = tree.module
    for verify in (an.verify_rtt, an.verify_central):
        if m.interior_indices(an.RELATION_MARGIN):
            assert verify(m)["result"] == "pass"
        else:
            with pytest.raises(TruncatedInput):
                verify(m)


@settings(MODULE_SETTINGS, max_examples=20)
@given(trees(36, leaves=EXACT))
@each_kind(exact=True)
def test_gauss_relations_hold_at_a_generic_point(tree):
    assert an.gauss_diagonal_check(tree.module, 7 + rat(1, 11))["result"] == "pass"


def _osp_character(decomposition):
    """The weights of the sum of n V(w): V(w) has the weights w, w-1, ..., -w."""
    counts = Counter()
    for w, n in decomposition.items():
        for i in range(2 * int(w) + 1):
            counts[w - i] += n
    return sorted(counts.items(), reverse=True)


@settings(MODULE_SETTINGS, max_examples=20)
@given(trees(36, leaves=EXACT))
@each_kind(exact=True)
def test_character_is_that_of_the_osp_decomposition(tree):
    m = tree.module
    assert an.character_of(m).pairs == _osp_character(an.osp_action(m)[3])
