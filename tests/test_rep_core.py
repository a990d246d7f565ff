"""Tests for module construction: small Verma, elementary, vector, twists, IO."""

import dataclasses
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from yosp.exact_arith import HALF, KAPPA, ONE, RatFunc, UniPoly, ZERO, rat
from yosp.hopf_tensor import tensor_modules
from yosp.rep_core import (Factor, MissingDepth, ModuleRep,
                           ReconstructionInconsistent, apply_twist,
                           build_elementary, build_small_verma,
                           central_ratfunc, from_json_dict, load_module,
                           reconstruct_full_T, save_module,
                           small_verma_denominator, to_json_dict,
                           vector_representation)
from yosp.super_linalg import GradedSpace, bar

from dense import dense, mat_vec


def _label_index(m, label):
    return m.space.labels.index(label)


def _unit(m, label):
    v = [ZERO] * m.dim
    v[_label_index(m, label)] = ONE
    return v


# ---------------------------------------------------------------------------
# dimensions and basic invariants
# ---------------------------------------------------------------------------

def test_elementary_dimension_formula():
    for k in range(7):
        m = build_elementary(rat(-k), rat(0))
        assert m.dim == (k + 1) * (k + 2) // 2


def test_elementary_trivial_module():
    m = build_elementary(rat(2), rat(2))
    assert m.dim == 1
    assert m.space.weight == (ZERO,)


def test_elementary_half_family_needs_depth():
    with pytest.raises(MissingDepth):
        build_elementary(rat(-3, 2), rat(0))
    m = build_elementary(rat(-3, 2), rat(0), depth=6)
    assert m.truncated and m.factors == [Factor(rat(-3, 2), rat(0), 6)]


def test_generic_verma_needs_depth():
    with pytest.raises(MissingDepth):
        build_elementary(rat(-1, 3), rat(0))


def test_small_verma_basis_shape():
    m = build_small_verma(rat(-1), rat(0), depth=5)
    # pairs 0 <= r <= s with r+s <= 5
    assert m.dim == len([(r, s) for s in range(6) for r in range(s + 1)
                         if r + s <= 5])
    assert m.space.labels[0] == ((0, 0),)
    assert m.highest_index == 0


def test_weights_and_parities():
    m = build_elementary(rat(-2), rat(0))
    for i, ((r, s),) in enumerate(m.space.labels):
        assert m.space.weight[i] == rat(2) - r - s
        assert m.space.parity[i] == (r + s) % 2


def _graded_modules():
    """L(-3,0), M(-1/3,0)@6 and a two-factor tensor product."""
    return [build_elementary(rat(-3), rat(0)),
            build_small_verma(rat(-1, 3), rat(0), 6),
            tensor_modules(build_elementary(rat(-1), rat(0)),
                           build_elementary(rat(-5, 2), rat(-3, 2)))]


def _regraded(m, k, parity_flip=0, weight_shift=0):
    """m with basis vector k's parity flipped and/or its weight moved."""
    s = m.space
    parity = tuple(p ^ parity_flip if a == k else p for a, p in enumerate(s.parity))
    weight = tuple(w + weight_shift if a == k else w for a, w in enumerate(s.weight))
    return dataclasses.replace(m, space=GradedSpace(s.dim, parity, weight, s.labels))


def test_grading_holds_on_constructed_modules():
    for m in [vector_representation()] + _graded_modules():
        assert m.grading_violations() == []


def _fraction_violations(m):
    """The grading check with Fraction weight differences, entry by entry."""
    shift = (None, 1, 0, -1)
    wt, par = m.space.weight, m.space.parity
    return [(i, j, a, b) for i in range(1, 4) for j in range(1, 4)
            for R in m.op(i, j).rows for a, row in enumerate(R) for b in row
            if wt[a] - wt[b] != shift[i] - shift[j]
            or par[a] ^ par[b] != (bar(i) + bar(j)) % 2]


@pytest.mark.parametrize("change", [{"parity_flip": 1}, {"weight_shift": 1},
                                    {"weight_shift": HALF}],
                         ids=["parity", "weight", "half-weight"])
def test_grading_violations_flag_one_regraded_basis_vector(change):
    """Each entry flagged touches the regraded vector; a flipped parity alone,
    with every weight intact, is flagged too.  A weight moved by 1/2 changes
    the lcm the integer check scales by; the list, in order, is the one a
    Fraction comparison gives."""
    for m in _graded_modules():
        k = m.dim - 1
        regraded = _regraded(m, k, **change)
        bad = regraded.grading_violations()
        assert bad and all(k in (a, b) for _, _, a, b in bad)
        assert bad == _fraction_violations(regraded)


def test_reconstruction_refuses_a_broken_parity():
    """The corner T_11, T_12, T_21 of L(-3,0) on a space with one parity
    flipped passes the cross-relation but not the grading check."""
    m = _regraded(build_elementary(rat(-3), rat(0)), 0, parity_flip=1)
    stub = [[m.T[0][0], m.T[0][1], None], [m.T[1][0], None, None], [None] * 3]
    with pytest.raises(ReconstructionInconsistent, match="parity"):
        reconstruct_full_T(dataclasses.replace(m, T=stub))


# ---------------------------------------------------------------------------
# action formulas on distinguished vectors
# ---------------------------------------------------------------------------

def test_t11_eigenvalue_on_basis():
    alpha, beta = rat(-2), rat(0)
    m = build_elementary(alpha, beta)
    u0 = rat(4)
    M = m.op(1, 1).eval(u0)
    for i, ((r, s),) in enumerate(m.space.labels):
        w = mat_vec(M, _unit(m, ((r, s),)))
        expect = (u0 + alpha + r - HALF) * (u0 + alpha + s)
        assert w[i] == expect
        assert all(x == 0 for j, x in enumerate(w) if j != i)


def test_t21_on_highest_vector():
    alpha = rat(-2)
    m = build_elementary(alpha, rat(0))
    u0 = rat(3)
    w = mat_vec(m.op(2, 1).eval(u0), _unit(m, ((0, 0),)))
    # T_21(u) xi = -(2u+2alpha-1) xi_01 (the r=s=0 case has a single target)
    j = _label_index(m, ((0, 1),))
    assert w[j] == -(2 * u0 + 2 * alpha - 1)
    assert all(x == 0 for i, x in enumerate(w) if i != j)


def test_t12_kills_highest_vector():
    m = build_elementary(rat(-3), rat(0))
    for M in m.op(1, 2).coeffs:
        assert all(x == 0 for x in mat_vec(M, _unit(m, ((0, 0),))))


def test_denominator_and_central_series():
    alpha, beta = rat(-1), rat(0)
    m = build_elementary(alpha, beta)
    assert m.denom == small_verma_denominator(alpha, beta)
    assert m.denom == UniPoly.from_roots([-alpha + HALF, -beta])
    assert m.c == central_ratfunc(alpha, beta)
    # c(u) = (u+alpha)(u+beta+1)/((u+alpha+1)(u+beta)) = (u-1)(u+1)/u^2
    assert m.c == RatFunc(UniPoly.from_roots([rat(1), rat(-1)]),
                          UniPoly.from_roots([ZERO, ZERO]))


def test_vector_representation_shape():
    m = vector_representation()
    assert m.dim == 3
    assert m.space.parity == (1, 0, 1)
    assert m.space.weight == (rat(1), rat(0), rat(-1))
    assert m.denom == UniPoly([ZERO, KAPPA, ONE])
    # lambda_1(u) = (u-1)/u, so the cleared T_11 e_1 = (u-1)(u+kappa) e_1
    w = mat_vec(m.op(1, 1).eval(rat(5)), [ONE, ZERO, ZERO])
    assert w[0] == (rat(5) - 1) * (rat(5) + KAPPA)


def test_reconstruction_bracket_consistency():
    """-[T_11(u), t_12^(1)] = T_12(u) on a freshly built module."""
    m = build_elementary(rat(-2), rat(0))
    lhs = m.op(1, 1).bracket_const(m.t_first(1, 2), 1).scale(-1)
    assert lhs == m.op(1, 2)


@pytest.mark.parametrize("m", [
    build_elementary(rat(-2), rat(0)), vector_representation(),
    # d(u) = u^2 - 9/4: no u^1 term to subtract on the diagonal
    build_elementary(rat(-1), rat(3, 2), depth=4)])
def test_t_first_is_the_u_inverse_coefficient(m):
    """t_ij^(1) = coeff_{D-1}(T_ij) - delta_ij d_{D-1}, as sparse rows
    without a stored zero."""
    D = m.denom.degree
    for i in range(1, 4):
        for j in range(1, 4):
            rows = m.t_first(i, j)
            want = m.op(i, j).coeff(D - 1)
            for a in range(m.dim):
                want[a][a] -= m.denom.coeffs[D - 1] if i == j else 0
            assert [dense(r, m.dim) for r in rows] == want
            assert all(x for r in rows for x in r.values())


def test_interior_indices():
    m = build_small_verma(rat(-1, 3), rat(0), depth=6)
    inner = m.interior_indices(2)
    assert all(sum(m.space.labels[i][0]) <= 4 for i in inner)
    full = build_elementary(rat(-2), rat(0))
    assert full.interior_indices(2) == list(range(full.dim))


# ---------------------------------------------------------------------------
# twists
# ---------------------------------------------------------------------------

def test_multiplier_twist_scales_central_series():
    m = build_elementary(rat(-1), rat(0))
    f = RatFunc.linear_ratio(rat(2), rat(3))
    t = apply_twist(m, f=f)
    assert t.c == m.c * f * f.shift(-KAPPA)
    assert t.denom == m.denom * f.den


def test_identity_twist_is_noop():
    m = build_elementary(rat(-1), rat(0))
    t = apply_twist(m, f=RatFunc.const(1))
    assert t.c == m.c
    assert t.denom == m.denom


def test_shift_twist_moves_parameters():
    m = build_elementary(rat(-1), rat(0))
    t = apply_twist(m, a=rat(-3, 2))
    assert t.factors == [Factor(rat(-5, 2), rat(-3, 2), None)]
    assert t.op(1, 1).eval(rat(4)) == m.op(1, 1).eval(rat(5, 2))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_json_roundtrip_is_byte_identical(tmp_path):
    m = build_elementary(rat(-5, 2), rat(-3, 2))
    p1 = tmp_path / "m.json"
    p2 = tmp_path / "m2.json"
    save_module(m, p1)
    save_module(load_module(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_json_roundtrip_preserves_action(tmp_path):
    m = build_small_verma(rat(-1, 3), rat(0), depth=5)
    p = tmp_path / "m.json"
    save_module(m, p)
    m2 = load_module(p)
    assert m2.dim == m.dim
    assert m2.factors == [Factor(rat(-1, 3), rat(0), 5)]
    assert m2.c == m.c
    for i in range(1, 4):
        for j in range(1, 4):
            assert m2.op(i, j) == m.op(i, j)


def test_json_dict_round_trip_in_memory():
    m = vector_representation()
    d = json.loads(json.dumps(to_json_dict(m)))
    m2 = from_json_dict(d)
    assert m2.op(2, 1) == m.op(2, 1)
    assert m2.space == m.space


_ALPHAS = st.sampled_from([rat(-2), rat(-1, 3), rat(1, 2)])
_DEPTHS = st.integers(0, 4)
_FACTOR = st.one_of(
    # beta - alpha an integer, a half-integer and generic
    st.builds(lambda a, gap, d: build_small_verma(a, a + gap, d), _ALPHAS,
              st.sampled_from([rat(2), rat(1, 2), rat(1, 3)]), _DEPTHS),
    st.builds(lambda a, k: build_elementary(a, a + k), _ALPHAS, st.integers(0, 2)),
    st.builds(lambda a, k, d: build_elementary(a, a + k - HALF, depth=d),
              _ALPHAS, st.integers(0, 2), _DEPTHS))
_MODULES = st.one_of(_FACTOR, st.tuples(_FACTOR, _FACTOR).map(
    lambda pair: tensor_modules(*pair)))


@settings(max_examples=30, deadline=None)
@given(m=_MODULES)
def test_file_round_trip_keeps_every_factor(m):
    """Each factor's depth is written and read back as it is, exact or not,
    and a second save writes the same bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        p1, p2 = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
        save_module(m, p1)
        back = load_module(p1)
        save_module(back, p2)
        assert back.factors == m.factors
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()
