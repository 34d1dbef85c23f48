"""Evaluating sliced-diagram brackets from a matrix fixture.

The tensor engine knows nothing about any particular invariant: it takes
matrices for the eight elementary pieces, checks the invariance axioms,
and contracts rows.  The shipped fixture is the two-dimensional one
computing LG^(1,1), whose closed-braid scalars are Alexander-Conway
values at t_classical = t^2.
"""
import sys
import tempfile
from pathlib import Path

try:
    import linksgould
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from linksgould import (
    braid_bracket,
    braid_closure,
    bracket,
    dump_fixture,
    lg11_fixture,
    load_fixture,
    parse_braid,
    scalar_of,
    to_sliced,
    validate_assignment,
)
from linksgould.conway import conway

fx = lg11_fixture()
# The validator maps each failing axiom to a witness entry, so a valid
# fixture gives an empty map.
print("failing axioms of the LG^(1,1) fixture:", validate_assignment(fx))

# A braid closure sliced as a (1,1)-tangle has a scalar bracket, and that
# scalar is the invariant of the closure.
word = parse_braid("1 1 1")
sliced = to_sliced(word, keep_open=True)
print("\ntrefoil sliced (top row last):")
print(sliced)
print("trefoil scalar:", scalar_of(bracket(sliced, fx)))

# Cross-check against the skein engine, exactly.
for text in ["1 1", "1 -2 1 -2", "1 2 1 2", "-1 -1 -1"]:
    w = parse_braid(text)
    lhs = scalar_of(braid_bracket(w, fx))
    rhs = conway(braid_closure(w)).substitute_power(1)
    print(f"braid {text!r}: bracket = {lhs}  skein = {rhs}  equal = {lhs == rhs}")

# Fully closing every strand traces against a weight vector that sums to
# zero, so full closures are useless scalars; that is why one strand is
# left open.
print("\nfully closed unknot evaluates to:",
      scalar_of(bracket(to_sliced(parse_braid("", strands=1)), fx)))

# Fixtures round-trip through a small JSON format and are re-validated on
# load, so a corrupted file is refused rather than silently miscomputing.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "lg11.json"
    dump_fixture(fx, path)
    print("\nfixture file:", path.read_text()[:160], "...")
    again = load_fixture(path)
    print("reloaded fixture matches:", again.R == fx.R)
