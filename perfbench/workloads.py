"""The benchmark's workloads: set-up, job lists and output checks.

A workload is a closed loop with one client: run.py calls the jobs of a pass
one after another, each only after the previous one returned.  A job is a
timed call into yosp plus an untimed check that turns the call's result into
an outcome, a JSON value compared with reference.json.  Outcomes of seeded
jobs are invariants (closed-form characters, round-trip digests, entry
counts) that do not depend on the seed, so one reference serves every seed.

`build(workload, seed, tmpdir)` is the set-up: it builds every input a
workload only reads and returns the job list.  The seed picks the verifiers'
grid seeds, the alpha values (all with denominator 3, so the height of the
numbers does not change with the seed) and the Drinfeld tuples.  It never
changes how big a job is.

Jobs reach yosp through module attributes (an.verify_rtt, ...) at call time,
so the wrappers the tracer installs on those modules see every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import os
import random
from typing import Any, Callable, List

from yosp import analysis as an
from yosp import cli
from yosp import hopf_tensor as ht
from yosp import rep_core as rc
from yosp.exact_arith import HALF, RatFunc, rat
from yosp.super_linalg import OperatorPoly

# The verifiers' default safety margin below a truncation cut.
VERIFY_MARGIN = 4
ALPHA_NUMERATORS = (1, 2, 4, 5, 7, 8)
GAUSS_POINT = 7


@dataclasses.dataclass
class Job:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], Any]


def entries_checked(kind: str, m, report: dict) -> int:
    """Relation entries a verifier compared: points x blocks x rows x columns.

    RTT compares 81 blocks per grid point, the central relation 9 per point;
    truncated modules are compared only on columns VERIFY_MARGIN levels
    below the cut.
    """
    cols = len(m.interior_indices(VERIFY_MARGIN)) if m.truncated else m.dim
    blocks = 81 if kind == "rtt" else 9
    return len(report["samples"]) * blocks * m.dim * cols


def digest(m) -> str:
    """Hash of a module's content, independent of the JSON file format.

    Entries are divided by the leading coefficient of d(u), so a rescaled
    representation T -> cT, d -> cd of the same module hashes the same.
    """
    lead = m.denom.leading()
    norm = (lambda x: x) if lead == 1 else (lambda x: x / lead)
    h = hashlib.sha256()
    h.update(repr((m.dim, m.highest_index, m.space.parity, m.space.labels,
                   [str(w) for w in m.space.weight])).encode())
    h.update(",".join(str(norm(c)) for c in m.denom.coeffs).encode())
    for i in range(1, 4):
        for j in range(1, 4):
            op = m.op(i, j)
            for k in range(m.denom.degree + 1):
                for row in op.coeff(k):
                    h.update(",".join(str(norm(x)) for x in row).encode())
                    h.update(b";")
    h.update(f"{m.c.num.coeffs}/{m.c.den.coeffs}".encode())
    return h.hexdigest()[:16]


def _module_outcome(m):
    return {"dim": m.dim, "digest": digest(m)}


def _seeded_alpha(rng):
    return -rat(rng.choice(ALPHA_NUMERATORS), 3)


def _flipped_copy(m):
    """m with the sign of the first nonzero top-degree entry of T_12 flipped."""
    op = m.T[0][1]
    coeffs = [[list(row) for row in M] for M in op.coeffs]
    top = coeffs[-1]
    a, b = next((a, b) for a, row in enumerate(top)
                for b, x in enumerate(row) if x != 0)
    top[a][b] = -top[a][b]
    T = [list(row) for row in m.T]
    T[0][1] = OperatorPoly(coeffs, op.op_parity)
    return dataclasses.replace(m, T=T)


def _capture(argv):
    """Run the CLI in-process; return (exit code, printed text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _prefix(m, levels):
    """Weight multiplicities at offsets 0..levels below the top weight."""
    top = max(m.space.weight)
    counts = {}
    for w in m.space.weight:
        counts[top - w] = counts.get(top - w, 0) + 1
    return [counts.get(p, 0) for p in range(levels + 1)]


def _closed_form(numer, levels):
    """Coefficients of (sum_j numer[j] q^j) / ((1-q)(1-q^2)), offsets 0..levels."""
    return [sum(c * ((p - j) // 2 + 1) for j, c in numer.items() if p >= j)
            for p in range(levels + 1)]


# ---------------------------------------------------------------------------
# Job constructors
# ---------------------------------------------------------------------------

def _verify_jobs(label, m, rng):
    rtt_seed, central_seed = rng.randrange(10 ** 6), rng.randrange(10 ** 6)
    return [
        Job(f"rtt.{label}", lambda: an.verify_rtt(m, seed=rtt_seed),
            lambda r: {"result": r["result"],
                       "entries_checked": entries_checked("rtt", m, r)}),
        Job(f"central.{label}", lambda: an.verify_central(m, seed=central_seed),
            lambda r: {"result": r["result"],
                       "entries_checked": entries_checked("central", m, r)}),
    ]


def _no_raise(report):
    return {"raised": None}


def _negative_control_jobs(label, m):
    """Both verifiers must raise RelationViolation on a corrupted copy of m."""
    bad = _flipped_copy(m)
    return [Job(f"negcontrol.rtt.{label}", lambda: an.verify_rtt(bad), _no_raise),
            Job(f"negcontrol.central.{label}", lambda: an.verify_central(bad),
                _no_raise)]


def _gauss_job(label, m):
    return Job(f"gauss.{label}",
               lambda: an.gauss_diagonal_check(m, rat(GAUSS_POINT)),
               lambda r: {"result": r["result"], "relations": r["relations"]})


def _build_job(name, fn):
    return Job(name, fn, _module_outcome)


def _roundtrip_jobs(label, get_module, state, tmpdir):
    """save then load; the load job checks the digest against the source."""
    path = os.path.join(tmpdir, f"{label}.json")

    def saved(_):
        state[label] = digest(get_module())
        return {"written": os.path.getsize(path) > 0}

    return [Job(f"save.{label}", lambda: rc.save_module(get_module(), path),
                saved),
            Job(f"load.{label}", lambda: rc.load_module(path),
                lambda m: {"dim": m.dim, "round_trip": digest(m) == state[label]})]


def _irreducible_job(name, m):
    def check(r):
        ok, cert = r
        return {"irreducible": ok, "singular_dim": cert["singular_dim"],
                "cyclic_dim": cert["cyclic_dim"], "dim": cert["dim"]}
    return Job(name, lambda: an.is_irreducible(m), check)


def _criterion_job(name, pairs, tp):
    def check(r):
        crit, (ok, cert) = r
        return {"criterion": crit, "irreducible": ok,
                "singular_dim": cert["singular_dim"], "dim": cert["dim"]}
    return Job(name, lambda: (an.check_tensor_criterion(pairs),
                              an.is_irreducible(tp)), check)


def _osp_job(k, m):
    return Job(f"osp.L(-{k},0)", lambda: an.osp_action(m),
               lambda r: {str(w): n for w, n in r[3].items()})


def _drinfeld_job(index, rng):
    """A dominant tuple: factor count and string lengths fixed by index."""
    lengths = [1 + (index + j) % 3 for j in range(1 + index % 2)]
    pairs = []
    for length in lengths:
        alpha = rat(rng.randint(-4, 2)) + rat(rng.randint(0, 4), 5)
        pairs.append((alpha, alpha + length))
    hw = ht.elementary_hw(*pairs[0])
    for a, b in pairs[1:]:
        hw = hw.product(ht.elementary_hw(a, b))

    def check(P):
        return {"degree": P.P.degree,
                "round_trip": RatFunc(P.P.shift(1), P.P) == hw.l2 / hw.l1}
    return Job(f"drinfeld.{index}", lambda: an.drinfeld_polynomial(hw), check)


def _demo_job(which, marker):
    def check(r):
        code, text = r
        return {"code": code,
                "lines": [ln.strip() for ln in text.splitlines() if marker in ln]}
    return Job(f"demo.{which}", lambda: _capture(["demo", which]), check)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

CRITERION_9_PAIRS = [
    [(-1, 0), ("-7/3", "-4/3")],
    [(-2, 0), ("-7/3", "-4/3")],
    [(-1, 0), (-2, 0)],
    [(-1, 0), (-3, 0)],
    [(-1, 0), (-1, 0)],
    [("-5/3", "-2/3"), (-1, 0)],
    [(-1, 0), ("-4/3", "-1/3")],
    [(-2, 0), ("-7/5", "-2/5")],
    [(0, 0), (-1, 0)],
    [(0, 0), ("-7/3", "-4/3")],
    [(-1, 0), ("-5/2", "-3/2")],
]


def certify(rng, tmpdir) -> List[Job]:
    """RTT and central certification on a ladder of prebuilt modules."""
    L1 = rc.build_elementary(-1, 0)
    L2 = rc.build_elementary(-2, 0)
    ladder = [("vector", rc.vector_representation()),
              ("L(-2,0)", L2),
              ("L(-1,0)xL(-1,0)", ht.tensor_modules(L1, L1)),
              ("L(-3,0)", rc.build_elementary(-3, 0)),
              ("M(a,0)@5", rc.build_small_verma(_seeded_alpha(rng), 0, 5))]
    jobs = []
    for label, m in ladder:
        jobs += _verify_jobs(label, m, rng)
    jobs.append(_gauss_job("L(-1,0)xL(-1,0)", ladder[2][1]))
    jobs += _negative_control_jobs("L(-2,0)", L2)
    return jobs


def construct(rng, tmpdir) -> List[Job]:
    """Build, tensor, dualize, twist and serialize modules; no verifier."""
    L1 = rc.build_elementary(-1, 0)
    L2 = rc.build_elementary(-2, 0)
    t36 = ht.tensor_modules(L2, L2)
    verma_alpha, half_alpha = _seeded_alpha(rng), _seeded_alpha(rng)
    state = {}

    def verma():
        return rc.build_small_verma(verma_alpha, 0, 16)

    def half():
        return rc.build_elementary(half_alpha, half_alpha + rat(3, 2), depth=10)

    def tensor108():
        state.pop("t108", None)  # one dim-108 module alive, however many passes
        state["t108"] = ht.tensor_modules(t36, L1)
        return state["t108"]

    cli_a = os.path.join(tmpdir, "cli-L(-2,0).json")
    cli_t = os.path.join(tmpdir, "cli-tensor.json")
    jobs = [Job("build.M(a,0)@16", verma,
                lambda m: {"dim": m.dim,
                           "character": _prefix(m, 16) == _closed_form({0: 1}, 16)}),
            Job("build.L(a,a+3/2)@10", half,
                lambda m: {"dim": m.dim,
                           "character": _prefix(m, 7) == _closed_form({0: 1, 6: -1}, 7)})]
    for k in range(7):
        jobs.append(_build_job(f"build.L(-{k},0)",
                               lambda k=k: rc.build_elementary(-k, 0)))
    jobs += [_build_job("tensor.L(-2,0)xL(-2,0)", lambda: ht.tensor_modules(L2, L2)),
             _build_job("tensor.dim36xL(-1,0)", tensor108),
             _build_job("dual.dim36", lambda: ht.dual_module(t36)),
             _build_job("twist.dim36", lambda: rc.apply_twist(t36, a=HALF))]
    jobs += _roundtrip_jobs("dim36", lambda: t36, state, tmpdir)
    jobs += _roundtrip_jobs("dim108", lambda: state["t108"], state, tmpdir)
    jobs += [Job("cli.elementary",
                 lambda: _capture(["elementary", "--alpha=-2", "--beta=0",
                                   "--out", cli_a]),
                 lambda r: {"code": r[0], **_module_outcome(rc.load_module(cli_a))}),
             Job("cli.tensor",
                 lambda: _capture(["tensor", "--in", cli_a, "--in", cli_a,
                                   "--out", cli_t]),
                 lambda r: {"code": r[0], **_module_outcome(rc.load_module(cli_t))})]
    return jobs


def structure(rng, tmpdir) -> List[Job]:
    """Singular vectors, spans, quotients, irreducibility, osp, Drinfeld."""
    L2 = rc.build_elementary(-2, 0)
    Lk = [rc.build_elementary(-k, 0) for k in range(7)]
    jobs = [_demo_job("example-tpr", "dim"),
            _demo_job("closing-example", "match:"),
            _irreducible_job("irreducible.L(-2,0)xL(-2,0)",
                             ht.tensor_modules(L2, L2)),
            _irreducible_job("irreducible.L(-6,0)", Lk[6])]
    for i, pairs in enumerate(CRITERION_9_PAIRS):
        pairs = [(rat(a), rat(b)) for a, b in pairs]
        tp = ht.tensor_modules(rc.build_elementary(*pairs[0]),
                               rc.build_elementary(*pairs[1]))
        jobs.append(_criterion_job(f"criterion9.{i}", pairs, tp))
    jobs += [_osp_job(k, m) for k, m in enumerate(Lk)]
    jobs += [_drinfeld_job(i, rng) for i in range(10)]
    return jobs


def smoke(rng, tmpdir) -> List[Job]:
    """A tiny job list touching every layer, for the benchmark's self-test."""
    L1 = rc.build_elementary(-1, 0)
    L11 = ht.tensor_modules(L1, L1)
    state = {}
    cli_a = os.path.join(tmpdir, "cli-L(-1,0).json")
    jobs = _verify_jobs("vector", rc.vector_representation(), rng)
    jobs += [_gauss_job("L(-1,0)", L1),
             *_negative_control_jobs("L(-1,0)", L1),
             _build_job("build.L(-1,0)", lambda: rc.build_elementary(-1, 0)),
             _build_job("tensor.L(-1,0)xL(-1,0)", lambda: ht.tensor_modules(L1, L1)),
             _build_job("dual.dim9", lambda: ht.dual_module(L11)),
             *_roundtrip_jobs("dim9", lambda: L11, state, tmpdir),
             Job("cli.elementary",
                 lambda: _capture(["elementary", "--alpha=-1", "--beta=0",
                                   "--out", cli_a]),
                 lambda r: {"code": r[0], **_module_outcome(rc.load_module(cli_a))}),
             _irreducible_job("irreducible.L(-1,0)xL(-1,0)", L11),
             _osp_job(2, rc.build_elementary(-2, 0)),
             _drinfeld_job(0, rng),
             _demo_job("example-tpr", "dim")]
    return jobs


WORKLOADS = {"certify": certify, "construct": construct,
             "structure": structure, "smoke": smoke}


def build(workload: str, seed: int, tmpdir: str) -> List[Job]:
    return WORKLOADS[workload](random.Random(seed), tmpdir)
