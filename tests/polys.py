"""Test-only polynomial helper: the package never builds a polynomial from
its roots, the tests build their inputs that way."""

from yosp.exact_arith import ONE, UniPoly, rat


def from_roots(roots):
    """The monic polynomial prod (u - r) over the roots, with multiplicity."""
    p = UniPoly([ONE])
    for r in roots:
        p = p * UniPoly([-rat(r), ONE])
    return p
