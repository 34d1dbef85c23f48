"""The fraction operators that RationalFn and CycloFraction share, checked by hypothesis.

Every operand has a denominator with at least two terms, so no operation
takes the denominator-1 shortcut, and pairs often share a denominator,
so the equal-denominator branch of ``+`` runs as well.
"""
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from linksgould.cyclotomic import reduce_at_root, root_order  # noqa: E402
from linksgould.errors import PoleAtRootError  # noqa: E402
from linksgould.laurent import Laurent2  # noqa: E402
from linksgould.rational import RationalFn  # noqa: E402

given = hypothesis.given
# Deterministic and without an example database, so the suite is
# repeatable and leaves nothing behind.  Each example runs a dozen gcds.
laws = hypothesis.settings(deadline=None, derandomize=True, database=None, max_examples=50)

# RationalFn's constructor always cancels the gcd of a pair with this
# many terms or fewer, which makes its normal form unique.  The operands
# below are small enough that every pair built from them stays within it.
GCD_ALWAYS_RUNS = 80

exponents = st.integers(-2, 2)
coeffs = st.integers(-5, 5)
nums = st.dictionaries(st.tuples(exponents, exponents), coeffs, max_size=6).map(Laurent2)
dens = st.dictionaries(
    st.tuples(exponents, exponents),
    st.sampled_from([c for c in range(-5, 6) if c]),
    min_size=2,
    max_size=4,
).map(Laurent2)


def fraction_pair(n1, n2, d1, d2, shared):
    return RationalFn(n1, d1), RationalFn(n2, d1 if shared else d2)


pairs = st.builds(fraction_pair, nums, nums, dens, dens, st.booleans()).filter(
    lambda pair: all(len(f.den) > 1 for f in pair)
)


@laws
@given(pairs, st.integers(1, 4), st.integers(-4, 8))
def test_reduce_at_root_is_a_ring_map(pair, m, r):
    a, b = pair
    try:
        x, y = reduce_at_root(a, m, r), reduce_at_root(b, m, r)
    except PoleAtRootError:
        hypothesis.reject()
    # Each result's denominator divides the product of the operands' ones,
    # which does not vanish in the domain Z[t^+-1][q]/Phi_d: no pole.
    d = root_order(m, r)
    for value, image in [(a + b, x + y), (a - b, x - y), (a * b, x * y), (-a, -x)]:
        reduced = reduce_at_root(value, m, r)
        assert image.d == reduced.d == d
        assert reduced == image


@laws
@given(pairs)
def test_operators_match_the_cross_multiplied_fraction(pair):
    a, b = pair
    cases = [
        (a + b, a.num * b.den + b.num * a.den, a.den * b.den),
        (a - b, a.num * b.den - b.num * a.den, a.den * b.den),
        (a * b, a.num * b.num, a.den * b.den),
    ]
    for got, num, den in cases:
        want = RationalFn(num, den)
        assert got == want
        # ``got`` came from the constructor on the cross-multiplied pair
        # or, for a shared denominator, on (a.num +- b.num, a.den); both
        # were fully cancelled, so the normal forms agree field for field.
        sizes = (len(num) + len(den), len(a.num) + len(b.num) + len(a.den))
        assert max(sizes) <= GCD_ALWAYS_RUNS
        assert (got.num, got.den) == (want.num, want.den)
