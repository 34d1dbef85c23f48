"""The projector-spectral calculus and its root-of-unity reduction.

The braiding on the tensor square splits over m+1 projectors with unit
monomial eigenvalues, so closed 2-braids have exact two-variable values.
``reduce_at_root`` evaluates them exactly at q = exp(i*pi*r/m) for any
integer r.  At the paper's roots, gcd(r, m) = 1, those values collapse to
Alexander-Conway values: the inner projector traces vanish and the two
surviving eigenvalues straddle an order-two skein relation.
"""
import sys
from pathlib import Path

try:
    import linksgould
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from linksgould import (
    BraidWord,
    braid_closure,
    braiding_eigenvalue,
    lg_closed_2braid,
    projector_trace,
    reduce_at_root,
    skein_coefficient_report,
)
from linksgould.conway import conway

m = 2
print(f"eigenvalues for m = {m}:",
      ", ".join(str(braiding_eigenvalue(m, i)) for i in range(m + 1)))
print("projector traces:")
for i in range(m + 1):
    print(f"  cl(P_{i}) =", projector_trace(m, i))

# The normalization that pins everything down: weighted trace of the
# braiding and its inverse are 1, of the identity 0.  A closed 2-braid
# sigma^k is the trace of R^k.
print("trace of R:    ", lg_closed_2braid(m, 1))
print("trace of R^-1: ", lg_closed_2braid(m, -1))
print("trace of id:   ", lg_closed_2braid(m, 0))

# Generic-q value of a closed 2-braid, then its reduction at q = i.
k = 3
value = lg_closed_2braid(m, k)
print(f"\nLG^({m},1) of the closed 2-braid sigma^{k}:")
print("  generic q:", value)
reduced = reduce_at_root(value, m, 1)
print("  at q = i: ", reduced, " (mod", str(reduced.modulus()) + ")")
alexander = conway(braid_closure(BraidWord(2, ((1, 1),) * k))).substitute_power(m)
print("  Alexander side:", alexander)
print("  equal exactly:", reduced == alexander)

# Why that works: at the root, every inner projector trace is zero...
print("\nreduced traces at q = i:")
for i in range(m + 1):
    print(f"  cl(P_{i}) ->", reduce_at_root(projector_trace(m, i), m, 1))

# ...so only the endpoint eigenvalues matter, and their skein coefficients
# vanish.  For m >= 2 an inner raw coefficient survives, which is exactly
# why no order-two identity holds before taking traces.
print("\nskein coefficient report (m = 2, r = 1):")
for row in skein_coefficient_report(m, 1):
    raw = "0" if row.raw.is_zero() else str(row.raw)
    prod = "0" if row.product.is_zero() else str(row.product)
    print(f"  i={row.i}: raw = {raw:>12}   raw * trace = {prod}")
