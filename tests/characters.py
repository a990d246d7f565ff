"""Test-only character oracles: weight multiplicities of a constructed module
read off by offset below its top weight, and the paper's closed forms for
L(-k,0), L(-k+1/2,0) and the small Verma module, as q-series prefixes."""

from yosp.analysis import character_of, closed_character
from yosp.exact_arith import rat


def multiplicity(ch, w) -> int:
    """The multiplicity of the weight w in the WeightCharacter ch (0 if absent)."""
    return dict(ch.pairs).get(rat(w), 0)


def character_prefix(m, levels):
    """Multiplicities by integer offset p below the top weight, p = 0..levels."""
    top = m.space.top_weight()
    ch = character_of(m)
    return [multiplicity(ch, top - p) for p in range(levels + 1)]


def char_elementary_int(k, levels):
    """ch L(-k) offsets 0..levels: q^{-k}(1-q^{k+1})(1-q^{k+2})/((1-q)(1-q^2))."""
    numer = {0: 1, k + 1: -1, k + 2: -1, 2 * k + 3: 1}
    return closed_character(numer, range(levels + 1))


def char_elementary_half(k, levels):
    """ch L(-k+1/2) offsets 0..levels: q^{-k+1/2}(1-q^{2k+2})/((1-q)(1-q^2))."""
    return closed_character({0: 1, 2 * k + 2: -1}, range(levels + 1))


def char_small_verma(levels):
    """ch M(alpha) offsets 0..levels: 1/((1-q)(1-q^2))."""
    return closed_character({0: 1}, range(levels + 1))
