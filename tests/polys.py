"""Test-only polynomial helpers: the package never builds a polynomial from
its roots, nor a highest weight from the ratio l2/l1 alone; the tests build
their inputs that way."""

from yosp.exact_arith import HALF, ONE, RatFunc, UniPoly, rat
from yosp.hopf_tensor import HighestWeight


def from_roots(roots):
    """The monic polynomial prod (u - r) over the roots, with multiplicity."""
    p = UniPoly([ONE])
    for r in roots:
        p = p * UniPoly([-rat(r), ONE])
    return p


def hw_from_mu(mu):
    """A formal HighestWeight whose l2/l1 equals mu."""
    return HighestWeight(RatFunc.const(1), mu, mu * mu.shift(HALF))
