"""The module zoo: the one place the tests get modules from.

A recipe is a nested tuple.  Its leaves are

    ("L", a, b)         the exact elementary module L(a, b), b - a in Z_+;
    ("Lhalf", a, b, d)  L(a, b) with b - a + 1/2 in Z_+, truncated at depth d;
    ("M", a, b, d)      the small Verma module M(a, b) truncated at depth d;
    ("vector",)         vector_representation(), which is L(-1,0);

and its nodes are

    ("tensor", r, s)    the tensor product of r and s;
    ("dual", r)         the dual of r (exact r only);
    ("shift", r, a)     the twist u -> u + a;
    ("twist", r, p, q)  the multiplier twist by f(u) = (u + p) / (u + q);
    ("quotient", r)     r by the cyclic span of its first proper singular
                        vector, as `yosp quotient` takes them.

`build(recipe)` gives a Tree: the recipe and its module, so a test can read
the recipe (say the factor pairs of a product) beside the module.  `trees(cap)`
is the hypothesis strategy of random trees of dim <= cap, and NAMED holds the
recipes of the hand-picked modules tests pin, each keyed by its name(recipe).
"""

import dataclasses
from functools import reduce
from typing import NamedTuple

from hypothesis import Phase, example, settings, strategies as st

from yosp import analysis as an
from yosp.exact_arith import RatFunc, rat, rat_str
from yosp.hopf_tensor import dual_module, tensor_modules
from yosp.rep_core import (ModuleRep, apply_twist, build_elementary,
                           build_small_verma, vector_representation)
from yosp.super_linalg import GradedSpace

# For property tests that build modules.  No shrink phase: shrinking a
# failure through module builds takes minutes.
MODULE_SETTINGS = settings(deadline=None,
                           phases=[Phase.explicit, Phase.reuse, Phase.generate])

LEAVES = ("L", "Lhalf", "M", "vector")
EXACT = ("L", "vector")
NODES = ("tensor", "dual", "shift", "twist", "quotient")


class Tree(NamedTuple):
    recipe: tuple
    module: ModuleRep

    def __repr__(self):
        return f"build({self.recipe!r})"


# Recipe constructors, taking ints and "p/q" strings.
def L(a, b, depth=None):
    a, b = rat(a), rat(b)
    return ("L", a, b) if depth is None else ("Lhalf", a, b, depth)


def M(a, b, depth):
    return ("M", rat(a), rat(b), depth)


VECTOR = ("vector",)


def product(pairs):
    """The recipe of L(a1,b1) x L(a2,b2) x ..., nested to the left."""
    return reduce(lambda r, s: ("tensor", r, s), (L(a, b) for a, b in pairs))


def _quotient(m):
    """m by the cyclic span of its first proper singular vector, or None when
    m has none or that span is all of m."""
    proper = next((v for v in an.singular_vectors(m).basis
                   if v.keys() - {m.highest_index}), None)
    if proper is None:
        return None
    span = an.cyclic_span(m, proper)
    return an.quotient_module(m, span) if span.dim < m.dim else None


def _leaf(kind, *args):
    if kind == "vector":
        return vector_representation()
    if kind == "M":
        return build_small_verma(*args)
    a, b, *depth = args
    return build_elementary(a, b, *depth)


def _node(kind, ms, args):
    if kind == "tensor":
        return tensor_modules(*ms)
    (m,) = ms
    if kind == "dual":
        return dual_module(m)
    if kind == "shift":
        return apply_twist(m, a=args[0])
    if kind == "twist":
        return apply_twist(m, f=RatFunc.linear_ratio(*args))
    q = _quotient(m)
    if q is None:
        raise ValueError("no proper singular vector spans a proper submodule")
    return q


def build(recipe) -> Tree:
    kind, *rest = recipe
    if kind in LEAVES:
        return Tree(recipe, _leaf(kind, *rest))
    n = 2 if kind == "tensor" else 1
    ms = [build(r).module for r in rest[:n]]
    return Tree(recipe, _node(kind, ms, rest[n:]))


def named(name) -> ModuleRep:
    """A fresh build of NAMED[name]: tests may change what they get."""
    return build(NAMED[name]).module


def name(recipe) -> str:
    """L(a,b), L(a,b)@d, M(a,b)@d, vector, AxB (a right-hand product in
    parentheses), dual(A), shift(A,a), twist(A,p,q), quotient(A)."""
    kind, *rest = recipe
    if kind == "vector":
        return kind
    if kind in LEAVES:
        a, b, *d = rest
        return f"{kind[0]}({rat_str(a)},{rat_str(b)})" + "".join(f"@{x}" for x in d)
    if kind == "tensor":
        r, s = rest
        right = name(s)
        return f"{name(r)}x" + (f"({right})" if s[0] == "tensor" else right)
    r, *args = rest
    return f"{kind}({','.join([name(r)] + [rat_str(x) for x in args])})"


# ---------------------------------------------------------------------------
# The strategy
# ---------------------------------------------------------------------------

# Two thirds of the alphas are half-integers in -3..1, so that the factors'
# roots meet and products are reducible often enough to quotient.
_HALVES = st.integers(-6, 2).map(lambda n: rat(n, 2))
_ALPHA = st.one_of(_HALVES, _HALVES,
                   st.builds(rat, st.integers(-5, 3), st.integers(1, 5)))
_SMALL = st.builds(rat, st.integers(-5, 5), st.integers(1, 6))


def _max_depth(cap):
    """The largest d with dim M(a,b)@d = floor((d+2)^2 / 4) <= cap, which
    bounds dim L(a,b)@d too."""
    d = 0
    while (d + 3) ** 2 // 4 <= cap:
        d += 1
    return d


def _max_k(cap):
    """The largest k with dim L(a,a+k) = (k+1)(k+2)/2 <= cap."""
    k = 0
    while (k + 2) * (k + 3) // 2 <= cap:
        k += 1
    return k


def trees(cap, leaves=LEAVES, nodes=NODES):
    """The strategy of random Trees of dim <= cap, at most three nodes deep,
    with leaves and nodes of the given kinds."""
    return _trees(cap, leaves, nodes, 3)


@st.composite
def _trees(draw, cap, leaves, nodes, height, top=None):
    """A Tree as trees() draws it, at most height nodes deep, its top node of
    a kind in top when it can be.  Alphas are p/q with p in -5..3 and q in
    1..5, or half-integers in -3..1; M's beta is alpha + 0..3 or, like the
    shifts and the twists' p and q, a/r with a in -5..5 and r in 1..6.  A product's left factor has dim
    <= cap/2.  A dual's input has exact leaves.  A quotient's input is a
    product or an M, drawn up to four times until it has a proper singular
    vector spanning a proper submodule; failing that the tree is the last
    input drawn."""
    exact = tuple(k for k in leaves if k in EXACT)
    kinds = [k for k in leaves if k != "vector" or cap >= 3]
    if height:
        kinds += [k for k in nodes if k != "dual" or "L" in exact]
    kind = draw(st.sampled_from([k for k in kinds if k in (top or kinds)] or kinds))
    if kind == "vector":
        return build(VECTOR)
    if kind == "L":
        a = draw(_ALPHA)
        return build(L(a, a + draw(st.integers(0, _max_k(cap)))))
    if kind == "Lhalf":
        a, k = draw(_ALPHA), draw(st.integers(0, 3))
        return build(L(a, a + k - rat(1, 2), draw(st.integers(0, _max_depth(cap)))))
    if kind == "M":
        a = draw(_ALPHA)
        b = draw(st.one_of(st.integers(0, 3).map(lambda k: a + k), _SMALL))
        return build(M(a, b, draw(st.integers(0, _max_depth(cap)))))
    if kind == "tensor":
        t = draw(_trees(max(1, cap // 2), leaves, nodes, height - 1))
        s = draw(_trees(cap // t.module.dim, leaves, nodes, height - 1))
        return Tree((kind, t.recipe, s.recipe),
                    _node(kind, [t.module, s.module], []))
    if kind == "quotient":
        for _ in range(4):
            t = draw(_trees(cap, leaves, nodes, height - 1, ("tensor", "M")))
            q = _quotient(t.module)
            if q is not None:
                return Tree((kind, t.recipe), q)
        return t
    t = draw(_trees(cap, exact if kind == "dual" else leaves, nodes, height - 1))
    args = {"dual": [], "shift": [draw(_SMALL)],
            "twist": [draw(_SMALL), draw(_SMALL)]}[kind]
    return Tree((kind, t.recipe, *args), _node(kind, [t.module], args))


# ---------------------------------------------------------------------------
# The hand-picked modules
# ---------------------------------------------------------------------------

# The paper's worked example: reducible, with a proper singular vector zeta.
_EXAMPLE = product([(-1, 0), ("-5/2", "-3/2")])
_L2_L1 = product([(-2, 0), (-1, 0)])

NAMED = {name(r): r for r in [
    VECTOR, L(-1, 0), L(-2, 0), L(-3, 0), L("-5/2", "-3/2"), L("1/3", "7/3"),
    L("-1/2", 0, 6), M("-1/3", 0, 6), M("-2/3", 0, 6), M(-2, 0, 8),
    M("-2/3", 0, 16),
    product([(-1, 0), (-1, 0)]), product([("-7/3", "-4/3"), (-1, 0)]),
    product([(-2, 0), (-3, -1)]), product([(-2, 0), (-2, 0), (-1, 0)]),
    product([("-5/2", "-3/2"), (-1, 0)]),
    product([(0, 0), (-1, 0), ("-5/2", "-3/2")]),
    _EXAMPLE, ("dual", _EXAMPLE), ("shift", _EXAMPLE, rat(1, 2)),
    ("twist", _EXAMPLE, rat(1), rat(3)), ("quotient", _EXAMPLE),
    _L2_L1, ("dual", _L2_L1), ("shift", _L2_L1, rat(1, 2)),
    ("shift", _L2_L1, rat(-3, 2)), ("twist", L(-1, 0), rat(2), rat(5)),
]}

# One NAMED tree of each leaf and node kind; the nodes' trees are exact.
BY_KIND = {"L": "L(-3,0)", "Lhalf": "L(-1/2,0)@6", "M": "M(-1/3,0)@6",
           "vector": "vector", "tensor": name(_EXAMPLE),
           "dual": name(("dual", _EXAMPLE)),
           "shift": name(("shift", _EXAMPLE, rat(1, 2))),
           "twist": name(("twist", _EXAMPLE, rat(1), rat(3))),
           "quotient": name(("quotient", _EXAMPLE))}


def each_kind(exact=False):
    """A decorator adding an explicit example, the BY_KIND tree of each leaf
    and node kind (only the exact ones when exact), to a test of one tree."""
    def add(test):
        for n in BY_KIND.values():
            t = build(NAMED[n])
            if not (exact and t.module.truncated):
                test = example(t)(test)
        return test
    return add


def regraded(m, k, parity_flip=0, weight_shift=0):
    """m with basis vector k's parity flipped and/or its weight moved."""
    s = m.space
    parity = tuple(p ^ parity_flip if a == k else p for a, p in enumerate(s.parity))
    weight = tuple(w + weight_shift if a == k else w for a, w in enumerate(s.weight))
    return dataclasses.replace(m, space=GradedSpace(s.dim, parity, weight, s.labels))
