"""Test-only R-matrix helpers: the cleared R(u) at a point, placed into two
legs of (C^{1|2})^{(x)3}, and the Yang-Baxter equation at a sample point.
The RTT oracle in test_certify_kernel.py and the R-matrix tests use them."""

from typing import Tuple

from yosp.exact_arith import rat
from yosp._linalg import mat_add, mat_mul, mat_scale, zeros
from yosp.super_linalg import _pair_index, bar, build_P_Q_R

from dense import dense_rows


def rc_eval(Rc, w):
    """Evaluate a dense cleared R-matrix coefficient list at w."""
    w = rat(w)
    return mat_add(Rc[0], mat_add(mat_scale(Rc[1], w), mat_scale(Rc[2], w * w)))


def embed_two_leg(R9, legs: Tuple[int, int], nlegs: int = 3):
    """Place a two-leg operator into legs p < q of (C^{1|2})^{(x) nlegs}."""
    p, q = legs
    dim = 3 ** nlegs
    out = zeros(dim, dim)
    mids = [m for m in range(nlegs) if p < m < q]
    free = [m for m in range(nlegs) if m != p and m != q]
    for a in range(1, 4):
        for d in range(1, 4):
            for b in range(1, 4):
                for e in range(1, 4):
                    val = R9[_pair_index(a, b)][_pair_index(d, e)]
                    if val == 0:
                        continue
                    for mask in range(3 ** len(free)):
                        src = [0] * nlegs
                        tgt = [0] * nlegs
                        mm = mask
                        for m in free:
                            src[m] = tgt[m] = mm % 3 + 1
                            mm //= 3
                        tgt[p], src[p] = a, d
                        tgt[q], src[q] = b, e
                        sgn = 1
                        if (bar(a) + bar(d)) % 2 and sum(bar(src[m]) for m in mids) % 2:
                            sgn = -1
                        r = sum((tgt[m] - 1) * 3 ** (nlegs - 1 - m) for m in range(nlegs))
                        c = sum((src[m] - 1) * 3 ** (nlegs - 1 - m) for m in range(nlegs))
                        out[r][c] += sgn * val
    return out


def ybe_holds_at(u, v) -> bool:
    """Yang-Baxter on (C^{1|2})^{(x)3} at a sample point, denominators cleared."""
    u, v = rat(u), rat(v)
    Rc = [dense_rows(C, 9) for C in build_P_Q_R()[2]]
    r12 = embed_two_leg(rc_eval(Rc, u - v), (0, 1))
    r13 = embed_two_leg(rc_eval(Rc, u), (0, 2))
    r23 = embed_two_leg(rc_eval(Rc, v), (1, 2))
    lhs = mat_mul(mat_mul(r12, r13), r23)
    rhs = mat_mul(mat_mul(r23, r13), r12)
    return lhs == rhs
