"""Tests for tensor products, highest weights, and duals."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from yosp import analysis as an
from yosp.exact_arith import HALF, ONE, RatFunc, UniPoly, ZERO, rat
from yosp._linalg import zeros
from yosp.rep_core import (Factor, ModuleRep, TruncatedInput, apply_twist,
                           build_elementary, build_small_verma, load_module,
                           save_module, to_json_dict, vector_representation)
from yosp.hopf_tensor import (HighestWeight, NoHighestVector, _kron_accumulate,
                              central_from_hw, dual_module, elementary_hw,
                              highest_weight_of, tensor_modules, tii_eigenvalue)
from yosp.super_linalg import GradedSpace, OperatorPoly, bar, iprime, theta

from dense import is_canonical, sparse
from polys import from_roots
from zoo import EXACT, L, M, MODULE_SETTINGS, build, named, trees


def test_elementary_hw_formula():
    hw = elementary_hw(rat(-1), rat(0))
    assert hw.l1 == RatFunc.linear_ratio(rat(-1), rat(0))
    assert hw.l2 == RatFunc.const(1)
    assert hw.l3 == RatFunc.linear_ratio(rat(-1, 2), rat(-3, 2))


def test_hw_consistency_condition():
    for a, b in [(rat(-1), rat(0)), (rat(-5, 2), rat(-3, 2)),
                 (rat(1, 3), rat(7, 3))]:
        assert elementary_hw(a, b).consistency_holds()


def test_shifted_parameters_give_shifted_hw():
    hw = elementary_hw(rat(-1) + rat(-3, 2), rat(0) + rat(-3, 2))
    assert hw.l1 == RatFunc.linear_ratio(rat(-5, 2), rat(-3, 2))


def test_highest_weight_of_elementary():
    m = build_elementary(rat(-2), rat(0))
    assert highest_weight_of(m) == elementary_hw(rat(-2), rat(0))


def test_vector_representation_hw():
    hw = highest_weight_of(vector_representation())
    assert hw.l1 == RatFunc.linear_ratio(rat(-1), rat(0))


def test_tensor_dim_and_hw_product():
    a = build_elementary(rat(-1), rat(0))
    b = build_elementary(rat(-5, 2), rat(-3, 2))
    tp = tensor_modules(a, b)
    assert tp.dim == 9
    hw = highest_weight_of(tp)
    want = elementary_hw(rat(-1), rat(0)).product(
        elementary_hw(rat(-5, 2), rat(-3, 2)))
    assert hw.l1 == want.l1 and hw.l2 == want.l2 and hw.l3 == want.l3
    # the known worked value: lambda_1(u) = (u-1)(u-5/2)/(u(u-3/2))
    assert hw.l1 == RatFunc(from_roots([rat(1), rat(5, 2)]),
                            from_roots([rat(0), rat(3, 2)]))


def test_tensor_central_series_multiplies():
    a = build_elementary(rat(-1), rat(0))
    b = build_elementary(rat(-2), rat(0))
    assert tensor_modules(a, b).c == a.c * b.c


def test_tensor_associativity():
    a = build_elementary(rat(-1), rat(0))
    b = build_elementary(rat(-2), rat(0))
    c = build_elementary(rat(-5, 2), rat(-3, 2))
    left = tensor_modules(tensor_modules(a, b), c)
    right = tensor_modules(a, tensor_modules(b, c))
    for i in range(1, 4):
        for j in range(1, 4):
            assert left.op(i, j) == right.op(i, j)


def test_tensor_of_different_depths_certifies():
    """Each factor keeps its own cut: the verifiers compare the 2 x 6 columns
    lying 4 levels below depth 5 in the first factor and depth 7 in the
    second, and a copy with T_12 negated fails both."""
    tp = tensor_modules(build_small_verma(rat(-1, 3), rat(0), depth=5),
                        build_small_verma(rat(-2, 5), rat(0), depth=7))
    assert [f.depth for f in tp.factors] == [5, 7]
    assert an.verify_rtt(tp)["columns_checked"] == 12
    assert an.verify_central(tp)["columns_checked"] == 12
    T = [list(row) for row in tp.T]
    T[0][1] = T[0][1].scale(-1)
    bad = dataclasses.replace(tp, T=T)
    with pytest.raises(an.RelationViolation):
        an.verify_rtt(bad)
    with pytest.raises(an.RelationViolation):
        an.verify_central(bad)


def test_no_highest_vector_on_degenerate_top():
    """A hand-built action with a two-dimensional top weight space is rejected."""
    space = GradedSpace(2, (0, 0), (rat(1), rat(1)), (("x",), ("y",)))
    zero_op = OperatorPoly([[[ZERO, ZERO], [ZERO, ZERO]]], 0)
    T = [[zero_op] * 3 for _ in range(3)]
    m = ModuleRep(space, UniPoly([ONE]), T, RatFunc.const(1), 0, [])
    with pytest.raises(NoHighestVector):
        highest_weight_of(m)


@pytest.mark.parametrize("name", ["L(-1,0)xL(-5/2,-3/2)", "L(-2,0)",
                                  "M(-2/3,0)@6", "vector"])
def test_highest_weight_is_the_tii_eigenvalue_triple(name):
    m = named(name)
    h = {m.highest_index: ONE}
    assert highest_weight_of(m) == HighestWeight(
        *(tii_eigenvalue(m, h, i) for i in range(1, 4)))
    assert an.tii_eigenvalue is tii_eigenvalue


def test_no_highest_vector_when_the_top_is_not_an_eigenvector():
    """A T_33 entry from the top vector to another row: NoHighestVector."""
    m = build_elementary(rat(-2), rat(0))
    h = m.highest_index
    op = m.op(3, 3)
    rows = [op.sparse_coeff(k) for k in range(len(op.rows))]
    rows[0][h + 1][h] = ONE
    T = [list(r) for r in m.T]
    T[2][2] = OperatorPoly.from_rows(rows, 0)
    with pytest.raises(NoHighestVector, match="eigenvector"):
        highest_weight_of(dataclasses.replace(m, T=T))


def test_central_from_hw_matches_stored_series():
    m = build_elementary(rat(-1), rat(0))
    assert central_from_hw(highest_weight_of(m)) == m.c


def _dual(m):
    """dual_module(m), checked: its c(u), built as c(-1-u), is the series its
    highest weight gives, and the central relation holds on it."""
    d = dual_module(m)
    assert d.c == central_from_hw(highest_weight_of(d))
    assert an.verify_central(d)["result"] == "pass"
    return d


@pytest.mark.parametrize("name", [
    "L(-1,0)", "L(-2,0)", "L(-5/2,-3/2)", "L(1/3,7/3)", "vector",
    "L(-2,0)xL(-1,0)",
    pytest.param("shift(L(-2,0)xL(-1,0),1/2)", id="twist a=1/2"),
    "L(-1,0)xL(-5/2,-3/2)",
    pytest.param("twist(L(-1,0),2,5)", id="multiplier twist")])
def test_dual_central_series_is_the_reflected_one(name):
    """omega maps z(u) to z(-1-u): the dual's c(u) is c(-1-u), and also the
    series central_from_hw reads off the dual's highest weight."""
    m = named(name)
    d = _dual(m)
    assert d.c(rat(2, 7)) == m.c(-1 - rat(2, 7))
    assert _dual(d).c == m.c


def test_dual_hw_swaps_and_negates_parameters():
    m = build_elementary(rat(-1), rat(0))
    d = _dual(m)
    assert d.dim == m.dim
    assert highest_weight_of(d) == elementary_hw(rat(0), rat(1))


def test_double_dual_restores_hw():
    m = tensor_modules(build_elementary(rat(-1), rat(0)),
                       build_elementary(rat(-2), rat(0)))
    dd = _dual(_dual(m))
    assert highest_weight_of(dd) == highest_weight_of(m)


def test_dual_of_truncated_raises():
    m = build_small_verma(rat(-1, 3), rat(0), depth=4)
    with pytest.raises(TruncatedInput):
        dual_module(m)


def test_dual_of_tensor_factors():
    a = build_elementary(rat(-1), rat(0))
    b = build_elementary(rat(-5, 2), rat(-3, 2))
    d = _dual(tensor_modules(a, b))
    want = elementary_hw(rat(0), rat(1)).product(
        elementary_hw(rat(3, 2), rat(5, 2)))
    got = highest_weight_of(d)
    assert got.l1 == want.l1 and got.l2 == want.l2 and got.l3 == want.l3


def test_kron_accumulate_koszul_sign():
    """Odd (x) odd acquires a sign on the odd source column of the first leg."""
    X = [{1: ONE}, {0: ONE}]
    K = _kron_accumulate([{} for _ in range(4)], X, X, 1, (0, 1))
    # columns whose first slot is the odd vector pick up the sign
    assert K[1][2] == -1
    assert K[0][3] == -1
    assert K[2][1] == 1
    assert K[3][0] == 1


@st.composite
def _graded_ops(draw, count):
    """Source parities of a space of dim <= 4, and `count` homogeneous
    integer sparse matrices on it: (parity, rows), entry (r, c) nonzero only
    where parity(e_r) + parity(e_c) = parity (mod 2)."""
    par = draw(st.lists(st.integers(0, 1), min_size=1, max_size=4))
    n = len(par)
    ops = []
    for _ in range(count):
        p = draw(st.integers(0, 1))
        cells = [(r, c) for r in range(n) for c in range(n)
                 if (par[r] + par[c]) % 2 == p]
        rows = [{} for _ in range(n)]
        for (r, c), x in zip(cells, draw(st.lists(st.integers(-3, 3),
                                                  min_size=len(cells),
                                                  max_size=len(cells)))):
            if x:
                rows[r][c] = x
        ops.append((p, rows))
    return tuple(par), ops


def _int_matmul(A, B):
    out = [{} for _ in A]
    for o, row in zip(out, A):
        for j, x in row.items():
            for l, y in B[j].items():
                o[l] = o.get(l, 0) + x * y
    return [{c: v for c, v in r.items() if v} for r in out]


def _kron(A, B, op_parity_b, par_a, scale):
    out = _kron_accumulate([{} for _ in range(len(A) * len(B))], A, B,
                           op_parity_b, par_a, scale)
    return [{c: v for c, v in r.items() if v} for r in out]


@settings(max_examples=60, deadline=None)
@given(_graded_ops(2), _graded_ops(2), st.integers(1, 4), st.integers(1, 4))
def test_kron_accumulate_is_the_graded_kronecker_product(V, W, s, t):
    """(A (x) B)(C (x) D) = (-1)^{|B||C|} AC (x) BD for homogeneous A, C on V
    and B, D on W, with _kron_accumulate's scale multiplying through."""
    par_a, ((pa, A), (pc, C)) = V
    _, ((pb, B), (pd, D)) = W
    left = _int_matmul(_kron(A, B, pb, par_a, s), _kron(C, D, pd, par_a, t))
    sign = -1 if pb and pc else 1
    right = _kron(_int_matmul(A, C), _int_matmul(B, D), (pb + pd) % 2, par_a,
                  sign * s * t)
    assert left == right


# ---------------------------------------------------------------------------
# Differential tests: tensor_modules against a dense Kronecker oracle, and the
# verifiers on modules built by dual_module and apply_twist.
# ---------------------------------------------------------------------------

def oracle_tensor_coeffs(a, b, i, j):
    """Coefficients of T_ij(u) on a (x) b = sum_k T_ik (x) T_kj, where entry
    ((r,t),(c,w)) of A (x) B is A[r][c] B[t][w] (-1)^{|B| parity(e_c)}; the
    nonzero entries of each dense coefficient are listed by scanning it, and
    products are summed in place."""
    nb = b.dim
    coeffs = [zeros(a.dim * nb)
              for _ in range(a.denom.degree + b.denom.degree + 1)]
    for k in range(1, 4):
        odd_b = (bar(k) + bar(j)) % 2
        for p, Ap in enumerate(a.op(i, k).coeffs):
            for q, Bq in enumerate(b.op(k, j).coeffs):
                out = coeffs[p + q]
                nonzero_b = [(t, w, y) for t, rowb in enumerate(Bq)
                             for w, y in enumerate(rowb) if y != 0]
                for r, rowa in enumerate(Ap):
                    for c, x in enumerate(rowa):
                        if x == 0:
                            continue
                        sgn = -1 if (odd_b and a.space.parity[c]) else 1
                        for t, w, y in nonzero_b:
                            out[r * nb + t][c * nb + w] += sgn * x * y
    return coeffs


@pytest.mark.parametrize("a, b", [(L(-1, 0), L(-2, 0)),
                                  (M("-1/3", 0, 4), M("-2/5", 0, 4))],
                         ids=["L(-1,0)xL(-2,0)", "M(-1/3,0)@4xM(-2/5,0)@4"])
def test_tensor_matches_dense_kron_oracle(a, b):
    _assert_tensor_matches_oracle(build(a).module, build(b).module)


def _assert_tensor_matches_oracle(a, b):
    tp = tensor_modules(a, b)
    for i in range(1, 4):
        for j in range(1, 4):
            want = oracle_tensor_coeffs(a, b, i, j)
            got = tp.op(i, j)
            assert got.op_parity == (bar(i) + bar(j)) % 2
            assert [got.coeff(k) for k in range(len(want))] == want
    assert _stores_no_zero(tp)


@settings(MODULE_SETTINGS, max_examples=40)
@given(trees(9), trees(9))
def test_tensor_matches_dense_kron_oracle_on_random_pairs(a, b):
    """The integer Kronecker kernel against the dense Fraction oracle on
    random pairs of zoo modules, truncated ones among them."""
    _assert_tensor_matches_oracle(a.module, b.module)


# module_digest values recorded with the Fraction kernels that the integer
# kernels replaced: the module files they write are byte-identical.
GOLDEN_DIGESTS = {"M(-2/3,0)@16": "2139a0dafc18",
                  "L(-2,0)xL(-2,0)xL(-1,0)": "3f5658328e63",
                  "dual": "13bedb0e0676",
                  "twist a=1/2": "e1b9e6f5cec2"}


def test_module_digests_are_pinned():
    t = named("L(-2,0)xL(-2,0)xL(-1,0)")
    got = {"M(-2/3,0)@16": named("M(-2/3,0)@16"),
           "L(-2,0)xL(-2,0)xL(-1,0)": t, "dual": _dual(t),
           "twist a=1/2": apply_twist(t, a=HALF)}
    assert {k: an.module_digest(m) for k, m in got.items()} == GOLDEN_DIGESTS


def test_dual_is_the_signed_transpose_of_the_reflected_action():
    """T*_ij(u) = s theta_i theta_j P T_{i'j'}(1/2 - u)^t, where s = (-1)^{deg d}
    and P negates the odd rows when T_ij is odd, checked at sample points."""
    m = named("L(-2,0)xL(-1,0)")
    d = _dual(m)
    s = (-1) ** m.denom.degree
    for i in range(1, 4):
        for j in range(1, 4):
            odd = (bar(i) + bar(j)) % 2
            for u0 in (rat(2), rat(-7, 3)):
                A = m.op(iprime(i), iprime(j)).eval(HALF - u0)
                want = [[s * theta(i) * theta(j) * A[b][a]
                         * (-1 if odd and m.space.parity[a] else 1)
                         for b in range(m.dim)] for a in range(m.dim)]
                assert d.op(i, j).eval(u0) == want


@pytest.mark.parametrize("name", ["dual(L(-2,0)xL(-1,0))",
                                  "shift(L(-2,0)xL(-1,0),-3/2)"],
                         ids=["dual", "shift-twist"])
def test_verifiers_pass_on_derived_modules(name):
    m = named(name)
    assert an.verify_rtt(m)["result"] == "pass"
    assert an.verify_central(m)["result"] == "pass"


def test_truncated_tensor_file_round_trip(tmp_path):
    tp = tensor_modules(build_small_verma(rat(-1, 3), 0, 4),
                        build_small_verma(rat(-2, 5), 0, 4))
    p1, p2 = tmp_path / "t.json", tmp_path / "t2.json"
    save_module(tp, p1)
    back = load_module(p1)
    save_module(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert back.factors == [Factor(rat(-1, 3), 0, 4), Factor(rat(-2, 5), 0, 4)]
    assert back.dim == tp.dim
    for i in range(1, 4):
        for j in range(1, 4):
            assert back.op(i, j).coeffs == tp.op(i, j).coeffs
            assert back.op(i, j).op_parity == tp.op(i, j).op_parity


def _stores_no_zero(m):
    """Every operator stores nonzero ints over a den >= 1 sharing no factor
    with all of them, and its dense view is entry / den."""
    return all(is_canonical(op) for row in m.T for op in row)


@settings(MODULE_SETTINGS, max_examples=15)
@given(trees(36, leaves=EXACT), st.integers(0, 35))
def test_tensor_dual_and_quotient_store_no_zero(tree, i):
    """No zero and no common factor in the operators of an exact zoo module,
    its dual, its u -> u + 1/2 twist and its quotient by the submodule a
    basis vector generates, nor a zero in their files, which list entries in
    row-major order."""
    t = tree.module
    results = [t, _dual(t), apply_twist(t, a=HALF)]
    span = an.cyclic_span(t, sparse([ONE if k == i % t.dim else ZERO
                                     for k in range(t.dim)]))
    if span.dim < t.dim:
        results.append(an.quotient_module(t, span))
    for m in results:
        assert _stores_no_zero(m)
        coeffs = [c for cs in to_json_dict(m)["T"].values() for c in cs]
        # each coefficient lists its nonzero entries in row-major order
        assert all(c == sorted(c, key=lambda x: x[:2]) for c in coeffs)
        assert any(coeffs) and all(x[2] != "0" for c in coeffs for x in c)
