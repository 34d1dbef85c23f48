"""Tour of the skein engine: braid words in, Alexander-Conway values out."""
import sys
from pathlib import Path

try:
    import linksgould
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from linksgould import (
    BraidWord,
    braid_closure,
    canonical_key,
    component_count,
    is_split,
    parse_braid,
    smooth_crossing,
    switch_crossing,
)
from linksgould.conway import conway

# Links enter as braid closures.  "1 1 1" is the trefoil: three positive
# crossings of the two-strand generator.
trefoil = braid_closure(parse_braid("1 1 1"))
print("trefoil components:", component_count(trefoil))
print("trefoil Delta:", conway(trefoil).render("t"))

# The famous test pair: the figure-eight knot from (s1 s2^-1)^2.
fig8 = braid_closure(parse_braid("1 -2 1 -2"))
print("figure-eight Delta:", conway(fig8).render("t"))

# Links can need half-integer powers of t, so the native variable is
# s = t^(1/2).
hopf = braid_closure(parse_braid("1 1"))
print("Hopf link Delta in s:", conway(hopf).render("s"))

# Split diagrams vanish; the skein relation forces it.
far_apart = braid_closure(parse_braid("1 1 1", strands=3))
print("trefoil + far unknot: split =", is_split(far_apart),
      " Delta =", conway(far_apart).render("s"))

# Crossing surgery is how the engine works internally: switching the
# first "bad" crossing plus the oriented smoothing.
print("\nsurgery on the trefoil:")
print("  switch crossing 0 ->", conway(switch_crossing(trefoil, 0)).render("s"))
sm = smooth_crossing(trefoil, 0)
print("  smooth crossing 0 -> components", component_count(sm),
      "value", conway(sm).render("s"))
# The engine memoizes on bytes: each component's passage count, then one
# byte per passage (4*label + 2*over + positive sign).
print("  memo key of the trefoil:", list(canonical_key(trefoil)))

# Invariance spot checks: Markov moves do not change the closure.
w = parse_braid("1 -2 1 1", strands=3)
print("\nMarkov moves on", w.render())
print("  base        ", conway(braid_closure(w)).render("s"))
print("  conjugated  ", conway(braid_closure(w.conjugated(2))).render("s"))
print("  stabilized  ", conway(braid_closure(w.stabilized(-1))).render("s"))

# The substitution s -> t^m feeds the spectral comparisons: Delta(t^(2m)).
print("\ntrefoil Delta with s -> t^2:", conway(trefoil).substitute_power(2))

big = BraidWord(2, ((1, 1),) * 12)
print("12-crossing torus link:", conway(braid_closure(big)).render("s"))
