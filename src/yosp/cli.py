"""Command-line front end: build modules, verify relations, analyze structure."""

from __future__ import annotations

import argparse
import json
import sys
from math import isqrt, lcm
from typing import Dict, Optional

from .exact_arith import ONE, ZERO, RatFunc, Scalar, UniPoly, rat, rat_str
from ._linalg import SingularMatrix
from .rep_core import (build_elementary, build_small_verma, load_module,
                       save_module)
from .hopf_tensor import (NoHighestVector, highest_weight_of, tensor_modules)
from . import analysis as an


def _poly_rational_roots(p: UniPoly):
    """All rational roots with multiplicities plus the rootless cofactor."""
    roots: Dict[Scalar, int] = {}
    while p.degree > 0:  # a zero constant term gives the root 0 first
        root = _find_rational_root(p)
        if root is None:
            break
        roots[root] = roots.get(root, 0) + 1
        p = p // UniPoly([-root, ONE])
    return roots, p


def _find_rational_root(p: UniPoly) -> Optional[Scalar]:
    L = lcm(*(c.denominator for c in p.coeffs))
    ints = [c.numerator * (L // c.denominator) for c in p.coeffs]
    a0, top = ints[0], ints[-1]
    if a0 == 0:
        return ZERO
    for pn in _divisors(abs(a0)):
        for qn in _divisors(abs(top)):
            for cand in (rat(pn, qn), rat(-pn, qn)):
                if p(cand) == 0:
                    return cand
    return None


def _divisors(n: int):
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted({*small, *(n // d for d in small)})


def _fmt_poly(p: UniPoly) -> str:
    """Factored display, e.g. (u-1)(u-2); falls back to coefficient form."""
    if p.degree == 0:
        return rat_str(p.coeffs[0]) if p.coeffs else "0"
    roots, rest = _poly_rational_roots(p)
    parts = []
    lead = rest.leading() if rest.degree > 0 else rest.coeffs[0]
    if lead != 1:
        parts.append(rat_str(lead))
    for r in sorted(roots, reverse=True):
        m = roots[r]
        t = f"(u{'-' if r > 0 else '+'}{rat_str(abs(r))})" if r else "u"
        parts.append(t if m == 1 else f"{t}^{m}")
    if rest.degree > 0:
        parts.append(f"[{rest.monic()}]")
    return "".join(parts) or "1"


def _fmt_ratfunc(f: RatFunc) -> str:
    if f.den.degree == 0 and f.den.coeffs and f.den.coeffs[0] == 1:
        return _fmt_poly(f.num)
    return f"{_fmt_poly(f.num)} / {_fmt_poly(f.den)}"


def _rational(text: str):
    try:
        return rat(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _natural(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"not a natural number: {text!r}")
    return int(text)


def _emit(args, payload: dict, text: str):
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=1))
    else:
        print(text)


def cmd_elementary(args):
    m = build_elementary(args.alpha, args.beta, depth=args.depth)
    save_module(m, args.out)
    print(f"wrote L({args.alpha},{args.beta}) dim {m.dim} to {args.out}")
    return 0


def cmd_small_verma(args):
    m = build_small_verma(args.alpha, args.beta, depth=args.depth)
    save_module(m, args.out)
    print(f"wrote M({args.alpha},{args.beta}) depth {args.depth} "
          f"dim {m.dim} to {args.out}")
    return 0


def cmd_tensor(args):
    if len(args.inputs) < 2:
        raise ValueError("tensor needs at least two modules (--in twice)")
    m = load_module(args.inputs[0])
    for path in args.inputs[1:]:
        m = tensor_modules(m, load_module(path))
    save_module(m, args.out)
    print(f"wrote tensor product dim {m.dim} to {args.out}")
    return 0


def cmd_verify(args):
    m = load_module(args.module)
    if args.relation == "rtt":
        report = an.verify_rtt(m, seed=args.seed)
    elif args.relation == "central":
        report = an.verify_central(m, seed=args.seed)
    else:
        report = an.gauss_diagonal_check(m, args.at)
    _emit(args, report, f"{report['check']}: {report['result']} "
                        f"(module {report['module_digest']})")
    return 0


def cmd_character(args):
    m = load_module(args.module)
    ch = an.character_of(m)
    payload = {"pairs": [[rat_str(w), n] for w, n in ch.pairs],
               "total": ch.total}
    lines = [f"  q^{rat_str(-w)}: {n}" for w, n in ch.pairs]
    _emit(args, payload, "character (weight multiplicities):\n" +
          "\n".join(lines))
    return 0


def cmd_drinfeld(args):
    P = an.drinfeld_polynomial(highest_weight_of(load_module(args.module)))
    # Factoring P for display can take a divisor search: only for the text.
    _emit(args, {"P": [rat_str(c) for c in P.P.coeffs]},
          None if args.json else f"P(u) = {_fmt_poly(P.P)}")
    return 0


def cmd_classify(args):
    m = load_module(args.module)
    hw = highest_weight_of(m)
    fd = an.classify_finite_dim(hw)
    _emit(args, {"finite_dimensional": fd},
          "finite-dimensional" if fd else "infinite-dimensional")
    return 0


def cmd_irreducible(args):
    m = load_module(args.module)
    ok, cert = an.is_irreducible(m)
    _emit(args, {"irreducible": ok, "certificate": cert},
          f"irreducible: {ok} "
          f"(singular dim {cert['singular_dim']}, "
          f"cyclic dim {cert['cyclic_dim']} of {cert['dim']})")
    return 0 if ok else 1


def cmd_singular(args):
    m = load_module(args.module)
    sub = an.singular_vectors(m)
    basis = [[rat_str(v.get(i, ZERO)) for i in range(m.dim)] for v in sub.basis]
    _emit(args, {"dim": sub.dim, "basis": basis}, f"singular space dim {sub.dim}")
    if not getattr(args, "json", False):
        for v in basis:
            print("  [" + ", ".join(v) + "]")
    return 0


def cmd_quotient(args):
    m = load_module(args.module)
    an._require_grading(m)  # once, for the three unchecked steps below
    sing = an._singular_vectors(m)
    proper = [v for v in sing.basis if v.keys() - {m.highest_index}]
    if not proper:
        print("no proper singular vector; module already irreducible-like")
        return 1
    span = an._cyclic_span(m, proper[0])
    q = an._quotient_module(m, span)
    save_module(q, args.out)
    print(f"wrote quotient dim {q.dim} (by submodule dim {span.dim}) "
          f"to {args.out}")
    return 0


def cmd_osp(args):
    _, _, _, decomp = an.osp_action(load_module(args.module))
    text = " + ".join(f"V({rat_str(w)})" + (f"x{n}" if n > 1 else "")
                      for w, n in decomp.items())
    _emit(args, {"decomposition": {rat_str(w): n for w, n in decomp.items()}},
          f"osp(1|2) decomposition: {text}")
    return 0


def cmd_demo(args):
    if args.which == "example-tpr":
        return _demo_example_tpr()
    return _demo_closing_example()


def _demo_example_tpr():
    a = build_elementary(rat(-1), rat(0))
    b = build_elementary(rat(-5, 2), rat(-3, 2))
    tp = tensor_modules(a, b)
    print(f"L(-1,0) (x) L(-5/2,-3/2): dim {tp.dim}")
    an._require_grading(tp)  # once, for the unchecked steps below
    sing = an._singular_vectors(tp)
    print(f"singular space dim {sing.dim}")
    zeta = next(v for v in sing.basis if v.keys() - {tp.highest_index})
    mu1 = an.tii_eigenvalue(tp, zeta, 1)
    mu2 = an.tii_eigenvalue(tp, zeta, 2)
    print(f"mu1(u) = {_fmt_ratfunc(mu1)}")
    print(f"mu2(u) = {_fmt_ratfunc(mu2)}")
    span = an._cyclic_span(tp, zeta)
    print(f"cyclic span of zeta: dim {span.dim}")
    q = an._quotient_module(tp, span)
    ok, _ = an.is_irreducible(q)
    print(f"quotient: dim {q.dim}, irreducible: {ok}")
    return 0


def _demo_closing_example():
    depth = 10
    for k in (1, 2):
        m = build_small_verma(rat(-k), rat(0), depth)
        v = {m.space.labels.index(((0, k + 1),)): rat(1)}
        l1 = an.tii_eigenvalue(m, v, 1)
        l2 = an.tii_eigenvalue(m, v, 2)
        span = an.cyclic_span(m, v)
        counts = {}
        for b in span.basis:
            w = m.space.weight[min(b)]
            counts[w] = counts.get(w, 0) + 1
        expect = an.closed_character({1: 1, 2: 1, k + 3: -1},
                                     range(1, depth - 1))
        got = [counts.get(rat(-p), 0) for p in range(1, depth - 1)]
        print(f"submodule of M(-{k},0) generated by xi_(0,{k + 1}):")
        print(f"  lambda_1(u) = {_fmt_ratfunc(l1)}")
        print(f"  lambda_2(u) = {_fmt_ratfunc(l2)}")
        print(f"  multiplicities at q^1..q^{depth - 2}: {got}")
        print(f"  closed form (q+q^2-q^{k + 3})/((1-q)(1-q^2)): {expect}")
        print(f"  match: {got == expect}")
        if got != expect:
            return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yosp",
        description="Exact computations with highest-weight modules over "
                    "the extended Yangian X(osp(1|2)).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("elementary", help="build L(alpha,beta)")
    p.add_argument("--alpha", type=_rational, required=True)
    p.add_argument("--beta", type=_rational, required=True)
    p.add_argument("--depth", type=_natural, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_elementary)

    p = sub.add_parser("small-verma", help="build truncated M(alpha,beta)")
    p.add_argument("--alpha", type=_rational, required=True)
    p.add_argument("--beta", type=_rational, required=True)
    p.add_argument("--depth", type=_natural, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_small_verma)

    p = sub.add_parser("tensor", help="tensor product of saved modules")
    p.add_argument("--in", dest="inputs", action="append", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("verify", help="check a defining relation")
    relations = p.add_subparsers(dest="relation", required=True)
    for name in ("rtt", "central", "gauss"):
        q = relations.add_parser(name)
        q.add_argument("module")
        if name == "gauss":
            q.add_argument("--at", type=_rational, default="7", help="sample point")
        else:
            q.add_argument("--seed", type=int, default=0, help="grid seed")
        q.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    for name, func in [("character", cmd_character),
                       ("drinfeld", cmd_drinfeld),
                       ("classify", cmd_classify),
                       ("irreducible", cmd_irreducible),
                       ("singular", cmd_singular),
                       ("osp", cmd_osp)]:
        p = sub.add_parser(name)
        p.add_argument("module")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=func)

    p = sub.add_parser("quotient",
                       help="quotient by the first proper singular submodule")
    p.add_argument("module")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("demo")
    p.add_argument("which", choices=["example-tpr", "closing-example"])
    p.set_defaults(func=cmd_demo)

    return parser


# A check that ran and failed exits 1; any other ValueError (bad flags or
# files, truncated input, a missing depth) and any OSError (a module file
# that cannot be read or written) is a usage error and exits 2.
CHECK_FAILURES = (an.RelationViolation, SingularMatrix, NoHighestVector,
                  an.NotDominant, an.WeightMismatch)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CHECK_FAILURES as exc:
        print(f"FAIL: {exc}")
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
