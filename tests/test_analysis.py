"""Tests for verifiers, submodule structure, criteria, and invariants."""

import dataclasses
import itertools
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from yosp.exact_arith import HALF, RatFunc, UniPoly, ZERO, ONE, rat
from yosp._linalg import SingularMatrix, Span, inverse, mat_mul, mat_sub
from yosp.cli import main
from yosp.rep_core import (ModuleRep, build_elementary, build_small_verma,
                           save_module, vector_representation)
from yosp.hopf_tensor import (elementary_hw, highest_weight_of,
                              tensor_modules)
from yosp import analysis as an

from characters import char_elementary_int, character_prefix, multiplicity
from dense import dense, mat_vec, sparse, unit
from polys import from_roots, hw_from_mu
from zoo import MODULE_SETTINGS, named, regraded

# The paper's worked example: reducible, with the proper singular vector zeta.
EXAMPLE = "L(-1,0)xL(-5/2,-3/2)"


def _zeta(tp):
    z = [ZERO] * tp.dim
    z[tp.space.labels.index(((1, 1), (0, 0)))] = rat(1)
    z[tp.space.labels.index(((0, 1), (0, 1)))] = rat(3)
    z[tp.space.labels.index(((0, 0), (1, 1)))] = rat(-1)
    return z


# ---------------------------------------------------------------------------
# relation verifiers
# ---------------------------------------------------------------------------

def test_rtt_vector_representation():
    report = an.verify_rtt(vector_representation(), seed=1)
    assert report["result"] == "pass"
    # deg d = 2: S x S for the deg d + 3 points S = {-4, -2, 0, 2, 4}
    assert report["grid"] == [5, 5] and len(report["samples"]) == 25
    assert [s["u"] for s in report["samples"][::5]] == ["-4", "-2", "0", "2", "4"]
    assert [s["v"] for s in report["samples"][:5]] == ["-4", "-2", "0", "2", "4"]


def test_rtt_samples_a_root_of_d():
    """The grid skips no point: seed 0 puts u = 0, a root of
    d(u) = (u-5/2)u, into S = {0, 2, 4, 6, 8} for L(-2,0), and the relation
    holds there, multiplied out at the pairs (0, s) with s > 0."""
    m = build_elementary(rat(-2), rat(0))
    assert m.denom(ZERO) == 0
    report = an.verify_rtt(m, seed=0)
    assert report["result"] == "pass"
    assert [s["u"] for s in report["samples"][::5]] == ["0", "2", "4", "6", "8"]
    assert [s["by"] for s in report["samples"][:5]] == ["diagonal"] + ["product"] * 4


def test_rtt_elementary_and_truncated():
    assert an.verify_rtt(build_elementary(rat(-2), rat(0)))["result"] == "pass"
    m = build_small_verma(rat(-1, 3), rat(0), depth=8)
    assert an.verify_rtt(m)["result"] == "pass"


def test_rtt_negative_control_flipped_sign():
    """Flipping the sign of T_12 must break the RTT relation."""
    m = build_elementary(rat(-1), rat(0))
    m.T[0][1] = m.T[0][1].scale(-1)
    with pytest.raises(an.RelationViolation) as exc:
        an.verify_rtt(m)
    assert exc.value.witness is not None


def test_central_relation():
    for m in (vector_representation(), build_elementary(rat(-1), rat(0)),
              named(EXAMPLE)):
        assert an.verify_central(m)["result"] == "pass"


def test_central_negative_control():
    m = build_elementary(rat(-1), rat(0))
    m.c = m.c * RatFunc.linear_ratio(rat(1), rat(2))
    with pytest.raises(an.RelationViolation):
        an.verify_central(m)


def test_central_refuses_a_non_polynomial_target():
    """c(u) d(u-kappa) d(u) must be a polynomial, as the left side is one."""
    m = build_elementary(rat(-1), rat(0))
    m.c = m.c * RatFunc.linear_ratio(rat(1, 5), rat(2, 7))
    with pytest.raises(an.RelationViolation, match="not a polynomial"):
        an.verify_central(m)


def test_gauss_diagonal_check():
    m = build_elementary(rat(-1), rat(0))
    assert an.gauss_diagonal_check(m, rat(7))["result"] == "pass"
    m2 = build_elementary(rat(-2), rat(0))
    for u0 in (rat(4), rat(13, 3), rat(-6), rat(17, 5), rat(23, 7)):
        assert an.gauss_diagonal_check(m2, u0)["result"] == "pass"


@pytest.mark.parametrize("name,u0", [
    pytest.param("vector", rat(5, 2), id="vector-5/2"),
    pytest.param("L(-1,0)xL(-1,0)", rat(5, 2), id="L(-1,0)xL(-1,0)-5/2"),
    pytest.param("L(-2,0)", rat(7, 2), id="L(-2,0)-7/2")])
def test_gauss_passes_where_h2_is_singular_at_u0(name, u0):
    """h_2(u0) is singular here, but only h_2(u0 + 1/2) is inverted."""
    m = named(name)
    with pytest.raises(SingularMatrix):
        inverse(an._gauss_at(m, u0, full=False)["h2"])
    assert an.gauss_diagonal_check(m, u0)["result"] == "pass"


def test_gauss_rejects_denominator_roots():
    m = build_elementary(rat(-1), rat(0))
    with pytest.raises(SingularMatrix):
        an.gauss_diagonal_check(m, rat(0))  # d(0) = 0


def test_gauss_eigenvalues_on_highest_vector():
    """h_1(u0) fixes the highest vector with eigenvalue lambda_1(u0)."""
    m = build_elementary(rat(-2), rat(0))
    u0 = rat(5)
    g = an._gauss_at(m, u0)
    hw = highest_weight_of(m)
    xi = unit(m, ((0, 0),))
    assert mat_vec(g["h1"], xi)[0] == hw.l1(u0)
    assert mat_vec(g["h2"], xi)[0] == hw.l2(u0)
    # (hoht) on eigenvalues reproduces the consistency condition at u0
    assert hw.l1(u0) * hw.l3(u0 + HALF) == hw.l2(u0) * hw.l2(u0 + HALF)


def _gauss_reference(m, x):
    """The Gaussian generators with each Schur complement formed afresh and
    h_3 = t_33 - [t_31 t_32] [[t_11 t_12], [t_21 t_22]]^{-1} [t_13; t_23]
    from the inverse of the whole 2n x 2n block matrix."""
    t = an._t_blocks_at(m, x)
    n = m.dim
    h1i = inverse(t[0][0])
    h2 = mat_sub(t[1][1], mat_mul(t[1][0], mat_mul(h1i, t[0][1])))
    h2i = inverse(h2)
    big = [t[0][0][a] + t[0][1][a] for a in range(n)] + \
          [t[1][0][a] + t[1][1][a] for a in range(n)]
    right = [t[0][2][a] for a in range(n)] + [t[1][2][a] for a in range(n)]
    left = [t[2][0][a] + t[2][1][a] for a in range(n)]
    return {"h1": t[0][0], "h2": h2,
            "h3": mat_sub(t[2][2], mat_mul(left, mat_mul(inverse(big), right))),
            "e12": mat_mul(h1i, t[0][1]),
            "e23": mat_mul(h2i, mat_sub(t[1][2], mat_mul(t[1][0],
                                                         mat_mul(h1i, t[0][2])))),
            "f21": mat_mul(t[1][0], h1i),
            "f32": mat_mul(mat_sub(t[2][1], mat_mul(t[2][0],
                                                    mat_mul(h1i, t[0][1]))), h2i)}


@pytest.mark.parametrize("name,x", [
    ("vector", rat(7)), ("L(-2,0)", rat(13, 3)), ("L(-2,0)", rat(-5)),
    pytest.param(EXAMPLE, rat(7), id="example-x3"),
    pytest.param(EXAMPLE, rat(22, 7), id="example-x4")])
def test_gauss_schur_complements_match_the_block_inverse(name, x):
    m = named(name)
    assert an._gauss_at(m, x) == _gauss_reference(m, x)


# ---------------------------------------------------------------------------
# singular vectors, spans, quotients
# ---------------------------------------------------------------------------

def test_singular_space_of_irreducible_module():
    sub = an.singular_vectors(build_elementary(rat(-2), rat(0)))
    assert sub.dim == 1


def test_singular_space_of_example_tensor():
    tp = named(EXAMPLE)
    sub = an.singular_vectors(tp)
    assert sub.dim == 2
    z = _zeta(tp)
    # zeta lies in the singular space
    s = Span()
    for b in sub.basis:
        s.add(b)
    assert s.contains(sparse(z))


def test_singular_space_invariant_under_t11():
    tp = named(EXAMPLE)
    sub = an.singular_vectors(tp)
    s = Span()
    for b in sub.basis:
        s.add(b)
    for M in tp.op(1, 1).coeffs:
        for b in sub.basis:
            assert s.contains(sparse(mat_vec(M, dense(b, tp.dim))))


def test_tii_eigenvalues_on_zeta():
    tp = named(EXAMPLE)
    z = _zeta(tp)
    target = RatFunc(from_roots([rat(1, 2), rat(5, 2)]),
                     from_roots([rat(3, 2), rat(3, 2)]))
    assert an.tii_eigenvalue(tp, sparse(z), 1) == target
    assert an.tii_eigenvalue(tp, sparse(z), 2) == target


def test_tii_eigenvalue_rejects_a_non_eigenvector():
    """xi_00 + xi_01 mixes two t_11 eigenvalues; so does zeta plus the
    highest vector of the example tensor.  t_11 maps the unit vector at
    (xi_01, xi_00) off its own line."""
    m = build_elementary(rat(-2), rat(0))
    v = [a + b for a, b in zip(unit(m, ((0, 0),)), unit(m, ((0, 1),)))]
    with pytest.raises(ValueError, match="eigenvector"):
        an.tii_eigenvalue(m, sparse(v), 1)
    tp = named(EXAMPLE)
    z = _zeta(tp)
    z[tp.highest_index] += ONE
    for i in (1, 2):
        with pytest.raises(ValueError, match="eigenvector"):
            an.tii_eigenvalue(tp, sparse(z), i)
    with pytest.raises(ValueError, match="eigenvector"):
        an.tii_eigenvalue(tp, {tp.space.labels.index(((0, 1), (0, 0))): ONE}, 1)


def test_cyclic_span_of_highest_vector_fills_irreducible():
    m = build_elementary(rat(-2), rat(0))
    assert an.cyclic_span(m, sparse(unit(m, ((0, 0),)))).dim == 6


def test_structure_vectors_are_coerced_and_zero_is_refused():
    """cyclic_span and tii_eigenvalue coerce entries with rat and drop
    zero entries; the zero vector is refused."""
    m = build_elementary(rat(-2), rat(0))
    assert (an.cyclic_span(m, {0: "1", 3: 0}).basis
            == an.cyclic_span(m, {0: ONE}).basis)
    assert an.tii_eigenvalue(m, {0: "2", 4: 0}, 1) == highest_weight_of(m).l1
    for zero in ({}, {2: 0}):
        with pytest.raises(ValueError):
            an.cyclic_span(m, zero)
        with pytest.raises(ValueError):
            an.tii_eigenvalue(m, zero, 1)


def test_structure_vectors_with_an_index_outside_the_module_are_refused():
    """cyclic_span and tii_eigenvalue refuse an index outside range(dim),
    even one whose entry is zero, and one that is not an int: a float, a
    string, or a bool, which would otherwise read as 0 or 1."""
    m = build_elementary(rat(-2), rat(0))
    for v in ({99: 1}, {-1: 1}, {m.dim: 1}, {0: 1, m.dim: 0}, {2.0: 1},
              {True: 1}, {0: 1, "1": 1}):
        with pytest.raises(ValueError, match="outside"):
            an.cyclic_span(m, v)
        with pytest.raises(ValueError, match="outside"):
            an.tii_eigenvalue(m, v, 1)


def test_structure_vectors_with_a_float_or_bool_entry_are_refused():
    """A float entry would be read as its binary value (0.1 is not 1/10)
    and a bool as 0 or 1: cyclic_span, tii_eigenvalue and quotient_module
    refuse both, while the same line written as "p/q" strings is accepted."""
    m = build_elementary(rat(-2), rat(0))
    for v in ({0: 0.1}, {0: 1.0}, {0: True}, {0: 1, 3: False}):
        with pytest.raises(ValueError, match="float or bool"):
            an.cyclic_span(m, v)
        with pytest.raises(ValueError, match="float or bool"):
            an.tii_eigenvalue(m, v, 1)
        with pytest.raises(ValueError, match="float or bool"):
            an.quotient_module(m, an.Subspace([v]))
    tp = named(EXAMPLE)
    tenth = {i: x / 10 for i, x in sparse(_zeta(tp)).items()}
    assert an.quotient_module(
        tp, an.Subspace([{i: str(x) for i, x in tenth.items()}])).dim == 8
    with pytest.raises(ValueError, match="float or bool"):
        an.quotient_module(tp, an.Subspace([{i: float(x) for i, x in tenth.items()}]))


def test_gauss_check_fails_at_a_pole_of_c():
    """c(u) = 1/(u-7) has a pole at 7, where the generator product is
    finite: the last relation fails there, with a witness, not a PoleError."""
    m = dataclasses.replace(build_elementary(rat(-2), rat(0)),
                            c=RatFunc(UniPoly([ONE]), UniPoly([rat(-7), ONE])))
    with pytest.raises(an.RelationViolation) as exc:
        an.gauss_diagonal_check(m, 7)
    assert exc.value.witness == (rat(7), ["cu"])


def test_cyclic_span_of_zeta_is_a_line():
    tp = named(EXAMPLE)
    assert an.cyclic_span(tp, sparse(_zeta(tp))).dim == 1


def test_quotient_of_example_tensor():
    tp = named(EXAMPLE)
    k = an.cyclic_span(tp, sparse(_zeta(tp)))
    q = an.quotient_module(tp, k)
    assert q.dim == 8
    ok, cert = an.is_irreducible(q)
    assert ok and cert["singular_dim"] == 1 and cert["cyclic_dim"] == 8


def test_quotient_of_truncated_verma_gives_elementary():
    m = build_small_verma(rat(-1), rat(0), depth=8)
    big = [i for i, ((r, s),) in enumerate(m.space.labels) if s > 1]
    basis = []
    for i in big:
        v = [ZERO] * m.dim
        v[i] = ONE
        basis.append(sparse(v))
    q = an.quotient_module(m, an.Subspace(basis))
    assert q.dim == 3
    assert highest_weight_of(q) == elementary_hw(rat(-1), rat(0))


def test_quotient_by_zero_subspace_is_identity():
    m = build_elementary(rat(-1), rat(0))
    q = an.quotient_module(m, an.Subspace([]))
    assert q.dim == m.dim
    for i in range(1, 4):
        for j in range(1, 4):
            assert q.op(i, j) == m.op(i, j)


def test_quotient_by_the_whole_module_is_refused():
    """The top vector of the example tensor spans the whole module: the
    quotient would be zero, and the call says so before building it."""
    tp = named(EXAMPLE)
    k = an.cyclic_span(tp, {tp.highest_index: ONE})
    assert k.dim == tp.dim
    with pytest.raises(ValueError, match="whole module, so the quotient is zero"):
        an.quotient_module(tp, k)


def test_quotient_rejects_non_invariant_subspace():
    m = build_elementary(rat(-2), rat(0))
    with pytest.raises(an.NotInvariant):
        an.quotient_module(m, an.Subspace([sparse(unit(m, ((0, 1),)))]))


def test_is_irreducible_on_elementary_and_example():
    ok, _ = an.is_irreducible(build_elementary(rat(-2), rat(0)))
    assert ok
    ok, cert = an.is_irreducible(named(EXAMPLE))
    assert not ok
    assert cert["singular_dim"] == 2 and "witness" in cert


def _column(A, c, n):
    """The nonzero entries of column c of A (None stands for zero)."""
    return {} if A is None else {r: A[r][c] for r in range(n) if A[r][c]}


@given(st.fractions(min_value=-3, max_value=3, max_denominator=5).map(rat),
       st.fractions(min_value=-3, max_value=3, max_denominator=5).map(rat),
       st.integers(4, 6), st.integers(1, 3))
@settings(MODULE_SETTINGS, max_examples=12)
def test_truncation_margins_are_sound(alpha, beta, depth, extra):
    """M(alpha,beta) built at depth d and at d+k agree on every coefficient
    of every T_ij in the columns SINGULAR_MARGIN (so also RELATION_MARGIN)
    levels below the cut, and on every product T_ab(x) T_cd(y), the RTT
    verifier's operands, in the columns RELATION_MARGIN levels below it."""
    small = build_small_verma(alpha, beta, depth)
    big = build_small_verma(alpha, beta, depth + extra)
    pos = [big.space.labels.index(lab) for lab in small.space.labels]
    n, N = small.dim, big.dim

    def same(A, B, margin):
        cols = small.interior_indices(margin)
        assert cols
        for c in cols:
            want = {pos[r]: x for r, x in _column(A, c, n).items()}
            assert want == _column(B, pos[c], N)

    ops = list(itertools.product(range(1, 4), repeat=2))
    for i, j in ops:
        for A, B in itertools.zip_longest(small.op(i, j).coeffs,
                                          big.op(i, j).coeffs):
            same(A, B, an.SINGULAR_MARGIN)

    def at(m, v):
        return [m.op(i, j).eval(v) for i, j in ops]

    x, y = rat(2, 7), rat(-5, 3)
    for (Sx, Bx), (Sy, By) in itertools.product(
            zip(at(small, x), at(big, x)), zip(at(small, y), at(big, y))):
        same(mat_mul(Sx, Sy), mat_mul(Bx, By), an.RELATION_MARGIN)


def test_is_irreducible_rejects_truncated():
    with pytest.raises(an.TruncatedInput):
        an.is_irreducible(build_small_verma(rat(-1, 3), rat(0), depth=4))


def test_structure_entry_points_refuse_a_broken_grading():
    L2 = build_elementary(rat(-2), rat(0))
    bad = regraded(L2, L2.dim - 1, parity_flip=1)
    span = an.Subspace([{bad.highest_index: ONE}])
    for call in (lambda: an.singular_vectors(bad),
                 lambda: an.cyclic_span(bad, {bad.highest_index: ONE}),
                 lambda: an.quotient_module(bad, span),
                 lambda: an.is_irreducible(bad)):
        with pytest.raises(an.RelationViolation, match="grading fails"):
            call()


def _count_grading_checks(monkeypatch):
    calls = []
    check = ModuleRep.grading_violations
    monkeypatch.setattr(ModuleRep, "grading_violations",
                        lambda m: calls.append(m) or check(m))
    return calls


def _count_analyses(monkeypatch):
    """Counts the calls of the three public structure analyses, made through
    the module attribute as is_irreducible and the CLI make them."""
    calls = Counter()
    for name in ("singular_vectors", "cyclic_span", "quotient_module"):
        f = getattr(an, name)
        monkeypatch.setattr(an, name, lambda *a, f=f, name=name:
                            calls.update([name]) or f(*a))
    return calls


def test_structure_entry_points_compose_the_public_analyses(monkeypatch,
                                                            tmp_path):
    """is_irreducible is one singular_vectors and one cyclic_span, and `yosp
    quotient` adds one quotient_module: each runs the grading check once, so
    they make two and three checks."""
    tp = named(EXAMPLE)
    checks = _count_grading_checks(monkeypatch)
    calls = _count_analyses(monkeypatch)
    an.is_irreducible(tp)
    assert calls == {"singular_vectors": 1, "cyclic_span": 1}
    assert len(checks) == 2
    src, out = str(tmp_path / "t.json"), str(tmp_path / "q.json")
    save_module(tp, src)
    calls.clear()
    del checks[:]
    assert main(["quotient", src, "--out", out]) == 0
    assert calls == {"singular_vectors": 1, "cyclic_span": 1,
                     "quotient_module": 1}
    assert len(checks) == 3


def test_quotient_refuses_malformed_subspace_vectors():
    """Each basis vector of the subspace is read like a cyclic_span start:
    an index outside the module or not an int, and a zero vector, are
    refused, and explicit zeros are dropped before the weight test."""
    m = build_elementary(rat(-2), rat(0))
    for v in ({-1: 1}, {99: 1}, {m.dim: 1}, {0: 0}, {}, {2.0: 1}, {True: 1}):
        with pytest.raises(ValueError) as exc:
            an.quotient_module(m, an.Subspace([v]))
        assert not isinstance(exc.value, an.NotInvariant)
    # zeta with an explicit 0 at the top vector, of another weight
    tp = named(EXAMPLE)
    zeta = sparse(_zeta(tp))
    padded = {**zeta, tp.highest_index: 0}
    assert (an.module_digest(an.quotient_module(tp, an.Subspace([padded])))
            == an.module_digest(an.quotient_module(tp, an.Subspace([zeta]))))


# ---------------------------------------------------------------------------
# tensor criterion
# ---------------------------------------------------------------------------

def test_criterion_single_factor_is_vacuous():
    assert an.check_tensor_criterion([(rat(-7, 5), rat(3))])


def test_criterion_example_tensor_fails():
    assert not an.check_tensor_criterion([(rat(-1), rat(0)),
                                          (rat(-5, 2), rat(-3, 2))])


def test_criterion_cross_coset_pairs_pass():
    assert an.check_tensor_criterion([(rat(-1), rat(0)),
                                      (rat(-7, 3), rat(-4, 3))])
    assert an.check_tensor_criterion([(rat(-1), rat(0)), (rat(-2), rat(0))])


def test_criterion_bad_ordering_fails():
    # same parameters as a passing pair but in the reverse order
    assert not an.check_tensor_criterion([(rat(-5, 2), rat(-3, 2)),
                                          (rat(-1), rat(0))])


# ---------------------------------------------------------------------------
# Drinfeld polynomials and classification
# ---------------------------------------------------------------------------

def test_drinfeld_elementary_examples():
    P1 = an.drinfeld_polynomial(elementary_hw(rat(-1), rat(0)))
    assert P1.P == from_roots([rat(1)])
    P2 = an.drinfeld_polynomial(elementary_hw(rat(-2), rat(0)))
    assert P2.P == from_roots([rat(1), rat(2)])
    assert RatFunc(P2.P.shift(1), P2.P) == elementary_hw(rat(-2), rat(0)).l2 / \
        elementary_hw(rat(-2), rat(0)).l1


def test_drinfeld_trivial_ratio():
    hw = elementary_hw(rat(3), rat(3))
    assert an.drinfeld_polynomial(hw).P == UniPoly([ONE])


def test_drinfeld_not_dominant_cases():
    with pytest.raises(an.NotDominant):
        an.drinfeld_polynomial(elementary_hw(rat(0), rat(-1)))
    with pytest.raises(an.NotDominant):
        an.drinfeld_polynomial(elementary_hw(rat(-3, 2), rat(-1)))


def test_classify_finite_dim():
    assert an.classify_finite_dim(elementary_hw(rat(-1), rat(0)).product(
        elementary_hw(rat(-3), rat(-1))))
    assert not an.classify_finite_dim(elementary_hw(rat(0), rat(-1)))
    assert not an.classify_finite_dim(elementary_hw(rat(-3, 2), rat(-1)))


def _brute_force_drinfeld(num_roots, den_roots):
    """The unique monic P with P(u+1)/P(u) = prod(u - n) / prod(u - d) over
    the given roots, by trying every matching of the roots left after
    cancelling; None when no matching pairs each n with a d in n + Z_+."""
    ns = list((Counter(num_roots) - Counter(den_roots)).elements())
    ds = list((Counter(den_roots) - Counter(num_roots)).elements())
    if len(ns) != len(ds):
        return None
    for perm in itertools.permutations(ds):
        if all(d - n >= 0 and (d - n).denominator == 1
               for n, d in zip(ns, perm)):
            return from_roots(d - j for n, d in zip(ns, perm)
                              for j in range(int(d - n)))
    return None


NEAR = [rat(n) for n in range(-2, 3)] + [HALF, rat(-1, 2), rat(1, 3)]


def test_drinfeld_dispersion_agrees_with_brute_force():
    """Dominant products of random strings, random rational roots that are
    mostly not dominant, and 1-3 roots each from NEAR, so that they repeat
    and cancel, against every matching of the roots."""
    rng = random.Random(7)
    for trial in range(130):
        if trial >= 50:
            num_roots = [rng.choice(NEAR) for _ in range(rng.randint(1, 3))]
            den_roots = [rng.choice(NEAR) for _ in range(rng.randint(1, 3))]
            den_roots = (den_roots * 3)[:len(num_roots)]
        elif trial % 2 == 0:
            proots = []
            for _ in range(rng.randint(1, 4)):
                base = rat(rng.randint(-3, 3)) + rat(rng.randint(0, 2), 3)
                proots.extend(base - j for j in range(rng.randint(0, 3)))
            num_roots, den_roots = [r - 1 for r in proots], proots
        else:
            k = rng.randint(1, 4)
            num_roots, den_roots = (
                [rat(rng.randint(-6, 6), rng.choice([1, 2, 3]))
                 for _ in range(k)] for _ in range(2))
        mu = RatFunc(from_roots(num_roots), from_roots(den_roots))
        brute = _brute_force_drinfeld(num_roots, den_roots)
        if brute is None:
            assert trial % 2 == 1 or trial >= 50
            with pytest.raises(an.NotDominant):
                an.drinfeld_polynomial(hw_from_mu(mu))
        else:
            assert an.drinfeld_polynomial(hw_from_mu(mu)).P == brute
            assert RatFunc(brute.shift(1), brute) == mu


def test_drinfeld_irrational_roots():
    """P = (u^2 - 2)(u - 1) is monic in Q[u] with irrational roots."""
    P = UniPoly([-2, 0, 1]) * UniPoly([-1, 1])
    hw = hw_from_mu(RatFunc(P.shift(1), P))
    assert an.drinfeld_polynomial(hw).P == P
    assert an.classify_finite_dim(hw)


def test_drinfeld_terminates_on_large_coefficients():
    """L(a,a+1) x L(b,b+1) x L(c,c+1) with seven-digit numerators, and a
    non-dominant weight whose roots lie 1000 apart, each well under 1 s."""
    a, b, c = rat(1000003, 7), rat(2000003, 11), rat(3000017, 13)
    m = tensor_modules(tensor_modules(build_elementary(a, a + 1),
                                      build_elementary(b, b + 1)),
                       build_elementary(c, c + 1))
    hw = highest_weight_of(m)
    start = time.perf_counter()
    assert m.dim == 27 and an.classify_finite_dim(hw)
    assert an.drinfeld_polynomial(hw).P.degree == 3
    assert time.perf_counter() - start < 1
    mu = RatFunc(from_roots([0, HALF]), from_roots([2000, HALF - 1000]))
    start = time.perf_counter()
    with pytest.raises(an.NotDominant):
        an.drinfeld_polynomial(hw_from_mu(mu))
    assert time.perf_counter() - start < 1


def test_drinfeld_degree_counts_strings():
    hw = elementary_hw(rat(-1), rat(0)).product(elementary_hw(rat(-3), rat(0)))
    P = an.drinfeld_polynomial(hw)
    assert P.P.degree == 4


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

def test_character_of_elementary():
    m = build_elementary(rat(-2), rat(0))
    ch = an.character_of(m)
    assert ch.total == 6
    assert ch.pairs[0] == (rat(2), 1)
    assert multiplicity(ch, 0) == 2 and multiplicity(ch, 3) == 0
    assert character_prefix(m, 4) == char_elementary_int(2, 4)


def test_character_of_tensor_is_convolution():
    a = build_elementary(rat(-1), rat(0))
    b = build_elementary(rat(-2), rat(0))
    tp = tensor_modules(a, b)
    pa = character_prefix(a, 2)
    pb = character_prefix(b, 4)
    pt = character_prefix(tp, 6)
    conv = [sum(pa[i] * pb[p - i] for i in range(max(0, p - 4), min(p, 2) + 1))
            for p in range(7)]
    assert pt == conv


# ---------------------------------------------------------------------------
# osp(1|2) restriction
# ---------------------------------------------------------------------------

def test_osp_f11_is_the_weight_grading():
    m = build_elementary(rat(-3), rat(0))
    F11, F12, F21, dec = an.osp_action(m)
    assert sum(n * (2 * int(w) + 1) for w, n in dec.items()) == m.dim
    for i in range(m.dim):
        assert F11[i].get(i, ZERO) == m.space.weight[i]


def test_osp_checks_the_f11_diagonal_where_it_is_zero():
    """A weight-0 vector whose stored weight is 1: F_11 has no entry on that
    diagonal, and the check must still compare it."""
    m = build_elementary(rat(-2), rat(0))
    a = m.space.labels.index(((1, 1),))
    weight = list(m.space.weight)
    weight[a] = ONE
    bad = dataclasses.replace(m, space=dataclasses.replace(
        m.space, weight=tuple(weight)))
    with pytest.raises(an.WeightMismatch,
                       match=rf"F_11 entry \({a},{a}\) = 0, expected 1"):
        an.osp_action(bad)


def test_osp_rejects_truncated():
    with pytest.raises(an.TruncatedInput):
        an.osp_action(build_small_verma(rat(-1, 3), rat(0), depth=4))
