"""yosp's layers as the traced run sees them: which public functions are
wrapped, under which span name, and the per-layer metrics computed from the
spans, counters and two kernels timed from outside.

A layer is a module of the package: exact_arith, _linalg, super_linalg,
rep_core, hopf_tensor, analysis and cli.  Metric names spell _linalg as
`linalg`, because a metric name must start with a letter or a digit.
"""

from __future__ import annotations

import os
import random
import statistics
import time

import yosp
from yosp import _linalg, analysis, cli, exact_arith, hopf_tensor, rep_core
from yosp import super_linalg

import workloads


def _dense_probe(counters, args, kwargs, result):
    """Nonzero operand entries against entries touched by a dense op."""
    for A in args:
        if isinstance(A, list) and A:
            for row in A:
                counters["linalg.dense_touched"] += len(row)
                counters["linalg.dense_nnz"] += len(row) - row.count(0)


def _tensor_probe(counters, args, kwargs, m):
    for row in m.T:
        for op in row:
            for M in op.coeffs:
                for r in M:
                    counters["hopf_tensor.out_entries"] += len(r)
                    counters["hopf_tensor.out_nnz"] += len(r) - r.count(0)


def _save_probe(counters, args, kwargs, result):
    counters["rep_core.json_bytes"] += os.path.getsize(args[1])


def _span_add_probe(counters, args, kwargs, grew):
    counters["linalg.span_add.calls"] += 1
    counters["linalg.span_add.useful"] += bool(grew)


def _verify_probe(kind):
    def probe(counters, args, kwargs, report):
        counters["analysis.grid_points"] += len(report["samples"])
        counters["analysis.entries_checked"] += workloads.entries_checked(
            kind, args[0], report)
    return probe


OperatorPoly = super_linalg.OperatorPoly
Span = _linalg.Span

# (owner, attribute, span name, probe).  Module-level functions are rebound
# in every yosp module that imported them; methods are replaced on the class.
WRAPPED = [
    (_linalg, "mat_mul", "linalg.mat_mul", _dense_probe),
    (_linalg, "mat_add", "linalg.mat_addscale", _dense_probe),
    (_linalg, "mat_sub", "linalg.mat_addscale", _dense_probe),
    (_linalg, "mat_scale", "linalg.mat_addscale", _dense_probe),
    (_linalg, "rref", "linalg.elim", None),
    (_linalg, "rank", "linalg.elim", None),
    (_linalg, "nullspace", "linalg.elim", None),
    (_linalg, "inverse", "linalg.elim", None),
    (Span, "add", "linalg.elim", _span_add_probe),
    (Span, "contains", "linalg.elim", None),
    (OperatorPoly, "eval", "super_linalg.opoly_eval", None),
    *[(OperatorPoly, name, "super_linalg.opoly_algebra", None)
      for name in ("bracket_const", "shift", "reflect", "mul_poly", "scale",
                   "__add__", "__sub__", "__neg__", "trim")],
    (rep_core, "build_small_verma", "rep_core.build", None),
    (rep_core, "build_elementary", "rep_core.build", None),
    (rep_core, "vector_representation", "rep_core.build", None),
    (rep_core, "apply_twist", "rep_core.build", None),
    (rep_core, "reconstruct_full_T", "rep_core.reconstruct", None),
    (rep_core, "save_module", "rep_core.save", _save_probe),
    (rep_core, "to_json_dict", "rep_core.save", None),
    (rep_core, "load_module", "rep_core.load", None),
    (rep_core, "from_json_dict", "rep_core.load", None),
    (hopf_tensor, "tensor_modules", "hopf_tensor.tensor", _tensor_probe),
    (hopf_tensor, "dual_module", "hopf_tensor.dual", None),
    (analysis, "verify_rtt", "analysis.verify_rtt", _verify_probe("rtt")),
    (analysis, "verify_central", "analysis.verify_central",
     _verify_probe("central")),
    (analysis, "gauss_diagonal_check", "analysis.gauss", None),
    (analysis, "singular_vectors", "analysis.singular", None),
    (analysis, "cyclic_span", "analysis.cyclic", None),
    (analysis, "quotient_module", "analysis.quotient", None),
    (analysis, "is_irreducible", "analysis.irreducible", None),
    (analysis, "osp_action", "analysis.osp", None),
    (cli, "main", "cli.main", None),
]

# (metric name, unit).  Each names the end-to-end metric it should move in
# README.md; `.calls` and `.self_s` come from spans of the same name.
PER_LAYER = [
    ("exact_arith.muladd_ns", "ns"),
    ("linalg.mat_mul.calls", "count"),
    ("linalg.mat_mul.self_s", "s"),
    ("linalg.mat_addscale.self_s", "s"),
    ("linalg.dense_nnz_frac", "fraction"),
    ("linalg.matmul36_ms", "ms"),
    ("linalg.elim.calls", "count"),
    ("linalg.elim.self_s", "s"),
    ("linalg.span_add.useful_frac", "fraction"),
    ("super_linalg.opoly_eval.calls", "count"),
    ("super_linalg.opoly_eval.self_s", "s"),
    ("super_linalg.opoly_algebra.self_s", "s"),
    ("rep_core.build.self_s", "s"),
    ("rep_core.reconstruct.self_s", "s"),
    ("rep_core.save.self_s", "s"),
    ("rep_core.load.self_s", "s"),
    ("rep_core.json_bytes", "bytes"),
    ("hopf_tensor.tensor.calls", "count"),
    ("hopf_tensor.tensor.self_s", "s"),
    ("hopf_tensor.out_nnz_frac", "fraction"),
    ("hopf_tensor.dual.self_s", "s"),
    ("analysis.verify_rtt.self_s", "s"),
    ("analysis.verify_central.self_s", "s"),
    ("analysis.gauss.self_s", "s"),
    ("analysis.grid_points", "count"),
    ("analysis.entries_checked", "count"),
    ("analysis.singular.self_s", "s"),
    ("analysis.cyclic.self_s", "s"),
    ("analysis.quotient.self_s", "s"),
    ("analysis.irreducible.self_s", "s"),
    ("analysis.osp.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace_overhead_frac", "fraction"),
]


def install(tracer):
    for owner, attr, name, probe in WRAPPED:
        package = None if isinstance(owner, type) else yosp.__name__
        tracer.install(owner, attr, name, probe, package=package)


def _ratio(num, den):
    return num / den if den else 0.0


def muladd_ns(seed: int, ops: int = 60000, reps: int = 5) -> float:
    """Median ns per Scalar a*b+c on entries of a certify-sized operator.

    The operands are the nonzero entries of T_ij(u) on a truncated M(alpha,0)
    at a grid point, as verify_rtt multiplies them.
    """
    rng = random.Random(seed)
    m = rep_core.build_small_verma(-exact_arith.rat(
        rng.choice(workloads.ALPHA_NUMERATORS), 3), 0, 5)
    pool = [x for i in range(1, 4) for j in range(1, 4)
            for row in m.op(i, j).eval(exact_arith.rat(rng.randint(-6, 6)))
            for x in row if x != 0]
    triples = [(rng.choice(pool), rng.choice(pool), rng.choice(pool))
               for _ in range(1000)]
    rounds = ops // len(triples)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(rounds):
            for a, b, c in triples:
                a * b + c
        times.append((time.perf_counter() - t0) / (rounds * len(triples)))
    return statistics.median(times) * 1e9


def matmul36_ms(reps: int = 5) -> float:
    """Median ms per 36x36 mat_mul T_ij(u0) T_ji(v0) on L(-2,0)xL(-2,0)."""
    L2 = rep_core.build_elementary(-2, 0)
    m = hopf_tensor.tensor_modules(L2, L2)
    u0, v0 = exact_arith.rat(2), exact_arith.rat(7, 3)
    pairs = [(m.op(i, j).eval(u0), m.op(j, i).eval(v0))
             for i in range(1, 4) for j in range(1, 4)]
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for A, B in pairs:
            _linalg.mat_mul(A, B)
        times.append((time.perf_counter() - t0) / len(pairs))
    return statistics.median(times) * 1e3


def metrics(tracer, traced_wall, untraced_wall, seed):
    """Every PER_LAYER metric for one traced pass."""
    totals = tracer.totals()
    c = tracer.counters
    values = {
        "exact_arith.muladd_ns": muladd_ns(seed),
        "linalg.dense_nnz_frac": _ratio(c["linalg.dense_nnz"],
                                        c["linalg.dense_touched"]),
        "linalg.matmul36_ms": matmul36_ms(),
        "linalg.span_add.useful_frac": _ratio(c["linalg.span_add.useful"],
                                              c["linalg.span_add.calls"]),
        "rep_core.json_bytes": c["rep_core.json_bytes"],
        "hopf_tensor.out_nnz_frac": _ratio(c["hopf_tensor.out_nnz"],
                                           c["hopf_tensor.out_entries"]),
        "analysis.grid_points": c["analysis.grid_points"],
        "analysis.entries_checked": c["analysis.entries_checked"],
        "trace_overhead_frac": traced_wall / untraced_wall - 1,
    }
    for name, _ in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if kind in ("calls", "self_s"):
            calls, self_s = totals.get(span, (0, 0.0))
            values[name] = calls if kind == "calls" else self_s
    return values
