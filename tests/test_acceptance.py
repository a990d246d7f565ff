"""Acceptance suite: one criterion per test, one PASS/FAIL line per criterion."""

import json
import random

import pytest

from yosp.exact_arith import HALF, RatFunc, ZERO, rat
from yosp._linalg import Span
from yosp.cli import main
from yosp.rep_core import (build_elementary, build_small_verma, save_module,
                           vector_representation)
from yosp.hopf_tensor import (elementary_hw, highest_weight_of,
                              tensor_modules)
from yosp import analysis as an

from characters import (char_elementary_half, char_elementary_int,
                        char_small_verma, character_prefix)
from dense import mat_vec, sparse, unit
from polys import from_roots


def _report(num, desc, ok):
    from conftest import ACCEPTANCE_LOG
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    ACCEPTANCE_LOG.append(line)
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def rtt_suite():
    """The module set shared by the RTT and central-relation criteria."""
    mods = {"vector": vector_representation()}
    for k in range(5):
        mods[f"L(-{k},0)"] = build_elementary(rat(-k), rat(0))
    small = [("L(-1,0)", build_elementary(rat(-1), rat(0))),
             ("L(-2,0)", build_elementary(rat(-2), rat(0))),
             ("L(-5/2,-3/2)", build_elementary(rat(-5, 2), rat(-3, 2)))]
    for i, (na, a) in enumerate(small):
        for nb, b in small[i:]:
            mods[f"{na}(x){nb}"] = tensor_modules(a, b)
    return mods


def test_criterion_1_dimension_formula():
    ok = all(build_elementary(rat(-k), rat(0)).dim == (k + 1) * (k + 2) // 2
             for k in range(7))
    _report(1, "dim L(a,a+k) = (k+1)(k+2)/2 for k=0..6", ok)


def test_criterion_2_rtt_certification(rtt_suite):
    ok = True
    for name, m in rtt_suite.items():
        report = an.verify_rtt(m, seed=3)
        ok = ok and report["result"] == "pass"
        ok = ok and len(report["samples"]) > m.denom.degree + 2
    _report(2, "RTT holds on vector rep, L(-k,0) k<=4, pairwise tensors", ok)


def _assert_covers_s_x_s(report, n):
    """The report lists all n^2 points of S x S, row-major: the pairs i < j
    multiplied out, each mirror (s_j, s_i) of one of them, and the diagonal."""
    samples = report["samples"]
    assert report["grid"] == [n, n] and len(samples) == n * n
    S = [s["v"] for s in samples[:n]]
    assert [(s["u"], s["v"]) for s in samples] == [(u, v) for u in S for v in S]
    by = {(s["u"], s["v"]): s["by"] for s in samples}
    assert list(by.values()).count("product") == n * (n - 1) // 2
    assert list(by.values()).count("mirror") == n * (n - 1) // 2
    for (u, v), how in by.items():
        assert how == ("diagonal" if u == v else
                       "product" if S.index(u) < S.index(v) else "mirror")
        if how == "mirror":
            assert by[v, u] == "product"


def test_criterion_2_reports_cover_s_x_s(rtt_suite, monkeypatch, tmp_path,
                                         capsys):
    """Criterion 2's RTT reports, from the library and from
    `yosp verify rtt --json`, cover S x S, and verify_rtt multiplies out
    only the (D+3)(D+2)/2 pairs i < j, one kernel step each, row-major."""
    steps = []
    step = an._rtt_pair
    monkeypatch.setattr(an, "_rtt_pair", lambda u, v, *args: steps.append(
        (id(u), id(v))) or step(u, v, *args))
    path = str(tmp_path / "m.json")
    for name, m in rtt_suite.items():
        n = m.denom.degree + 3
        del steps[:]
        _assert_covers_s_x_s(an.verify_rtt(m, seed=3), n)
        legs = list(dict.fromkeys(leg for pair in steps for leg in pair))
        assert steps == [(legs[i], legs[j]) for i in range(n)
                         for j in range(i + 1, n)], name
        save_module(m, path)
        assert main(["verify", "rtt", path, "--seed", "3", "--json"]) == 0
        _assert_covers_s_x_s(json.loads(capsys.readouterr().out), n)


def test_criterion_3_central_and_consistency(rtt_suite):
    ok = True
    for name, m in rtt_suite.items():
        ok = ok and an.verify_central(m)["result"] == "pass"
        hw = highest_weight_of(m)
        ok = ok and hw.l1 * hw.l3.shift(HALF) == hw.l2 * hw.l2.shift(HALF)
    _report(3, "central relation and l1(u)l3(u+1/2)=l2(u)l2(u+1/2)", ok)


def test_criterion_4_gauss_relations():
    pts = [rat(7), rat(4), rat(-5), rat(13, 3), rat(22, 7)]
    ok = True
    for m in (build_elementary(rat(-1), rat(0)),
              build_elementary(rat(-2), rat(0))):
        for u0 in pts:
            ok = ok and an.gauss_diagonal_check(m, u0)["result"] == "pass"
    _report(4, "Gauss e/f, h-product, and c(u) relations at 5 points", ok)


def test_criterion_5_example_tensor_product():
    tp = tensor_modules(build_elementary(rat(-1), rat(0)),
                        build_elementary(rat(-5, 2), rat(-3, 2)))
    sing = an.singular_vectors(tp)
    zeta = [ZERO] * tp.dim
    zeta[tp.space.labels.index(((1, 1), (0, 0)))] = rat(1)
    zeta[tp.space.labels.index(((0, 1), (0, 1)))] = rat(3)
    zeta[tp.space.labels.index(((0, 0), (1, 1)))] = rat(-1)
    zeta = sparse(zeta)
    span = Span()
    for b in sing.basis:
        span.add(b)
    mu = RatFunc(from_roots([rat(1, 2), rat(5, 2)]),
                 from_roots([rat(3, 2), rat(3, 2)]))
    k = an.cyclic_span(tp, zeta)
    q = an.quotient_module(tp, k)
    irred, _ = an.is_irreducible(q)
    ok = (sing.dim == 2 and span.contains(zeta)
          and an.tii_eigenvalue(tp, zeta, 1) == mu
          and an.tii_eigenvalue(tp, zeta, 2) == mu
          and k.dim == 1 and q.dim == 8 and irred)
    _report(5, "worked tensor example: dims 2/1/8, mu1=mu2, quotient irreducible", ok)


def test_criterion_6_characters():
    ok = True
    for depth in (8, 10):
        m = build_small_verma(rat(-1, 3), rat(0), depth=depth)
        ok = ok and character_prefix(m, depth - 2) == char_small_verma(depth - 2)
    for k in range(5):
        m = build_elementary(rat(-k), rat(0))
        ok = ok and character_prefix(m, 2 * k) == char_elementary_int(k, 2 * k)
    for k in range(1, 4):
        for depth in (9, 10):
            m = build_elementary(rat(-k) + HALF, rat(0), depth=depth)
            ok = ok and (character_prefix(m, depth - 3)
                         == char_elementary_half(k, depth - 3))
    _report(6, "characters match the three closed forms", ok)


def test_criterion_7_osp_decomposition():
    ok = True
    for k in range(5):
        m = build_elementary(rat(-k), rat(0))
        _, _, _, dec = an.osp_action(m)
        want = {rat(k - 2 * p): 1 for p in range(k // 2 + 1)}
        ok = ok and dec == want
        ok = ok and sum(2 * int(w) + 1 for w in dec) == m.dim
    _report(7, "L(-k,0) = sum of V(k-2p) under the embedded osp(1|2), k<=4", ok)


def test_criterion_8_drinfeld_round_trip():
    rng = random.Random(11)
    ok = True
    for _ in range(10):
        k = rng.randint(1, 2)
        pairs = []
        for _ in range(k):
            alpha = rat(rng.randint(-4, 2)) + rat(rng.randint(0, 4), 5)
            pairs.append((alpha, alpha + rng.randint(0, 3)))
        hw = elementary_hw(*pairs[0])
        for a, b in pairs[1:]:
            hw = hw.product(elementary_hw(a, b))
        P = an.drinfeld_polynomial(hw)
        ok = ok and P.P.degree == sum(int(b - a) for a, b in pairs)
        ok = ok and RatFunc(P.P.shift(1), P.P) == hw.l2 / hw.l1
    bad = [(rat(0), rat(-1)), (rat(-3, 2), rat(-1)), (rat(1), rat(3, 2)),
           (rat(0), rat(-3)), (rat(-1, 2), rat(1))]
    for a, b in bad:
        ok = ok and not an.classify_finite_dim(elementary_hw(a, b))
    _report(8, "Drinfeld round trip on 10 dominant tuples, 5 negatives", ok)


def test_criterion_9_criterion_cross_validation():
    tuples = [
        [(rat(-1), rat(0)), (rat(-7, 3), rat(-4, 3))],
        [(rat(-2), rat(0)), (rat(-7, 3), rat(-4, 3))],
        [(rat(-1), rat(0)), (rat(-2), rat(0))],
        [(rat(-1), rat(0)), (rat(-3), rat(0))],
        [(rat(-1), rat(0)), (rat(-1), rat(0))],
        [(rat(-5, 3), rat(-2, 3)), (rat(-1), rat(0))],
        [(rat(-1), rat(0)), (rat(-4, 3), rat(-1, 3))],
        [(rat(-2), rat(0)), (rat(-7, 5), rat(-2, 5))],
        [(rat(0), rat(0)), (rat(-1), rat(0))],
        [(rat(0), rat(0)), (rat(-7, 3), rat(-4, 3))],
    ]
    ok = True
    for pairs in tuples:
        ok = ok and an.check_tensor_criterion(pairs)
        tp = tensor_modules(build_elementary(*pairs[0]),
                            build_elementary(*pairs[1]))
        irred, _ = an.is_irreducible(tp)
        ok = ok and irred
    bad = [(rat(-1), rat(0)), (rat(-5, 2), rat(-3, 2))]
    tp = tensor_modules(build_elementary(*bad[0]), build_elementary(*bad[1]))
    irred, _ = an.is_irreducible(tp)
    ok = ok and not an.check_tensor_criterion(bad) and not irred
    _report(9, "tensor criterion agrees with is_irreducible on 10+1 tuples", ok)


def test_criterion_10_lowering_lemma():
    a1, b1, a2 = rat(-1), rat(0), rat(-4)
    tp = tensor_modules(build_elementary(a1, b1), build_elementary(a2, rat(0)))
    ok = True
    for s in range(4):
        u0 = -a2 - s
        eta = unit(tp, ((0, 0), (0, s)))
        w = mat_vec(tp.op(2, 1).eval(u0), eta)
        coeff = (b1 - a2 - s) * (a1 - a2 - s - HALF)
        j = tp.space.labels.index(((0, 0), (0, s + 1)))
        ok = ok and w[j] == coeff
        ok = ok and all(x == 0 for i, x in enumerate(w) if i != j)
    _report(10, "T_21(-a2-s) eta_s = (b1-a2-s)(a1-a2-s-1/2) eta_{s+1}", ok)


def test_criterion_11_closing_example():
    depth = 10
    ok = True
    for k in (1, 2):
        m = build_small_verma(rat(-k), rat(0), depth)
        v = sparse(unit(m, ((0, k + 1),)))
        l1 = an.tii_eigenvalue(m, v, 1)
        l2 = an.tii_eigenvalue(m, v, 2)
        ok = ok and l1 == RatFunc.linear_ratio(rat(1), rat(0))
        ok = ok and l2 == RatFunc(
            from_roots([rat(-1, 2), rat(k + 1)]),
            from_roots([rat(0), rat(k) + HALF]))
        span = an.cyclic_span(m, v)
        counts = {}
        for b in span.basis:
            w = m.space.weight[min(b)]
            counts[w] = counts.get(w, 0) + 1
        got = [counts.get(rat(-p), 0) for p in range(1, depth - 1)]
        want = an.closed_character({1: 1, 2: 1, k + 3: -1},
                                   range(1, depth - 1))
        ok = ok and got == want
    _report(11, "submodule generated by xi_{0,k+1} in M(-k,0), k=1,2", ok)
