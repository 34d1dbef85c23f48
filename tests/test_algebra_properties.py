"""Algebraic laws of the sparse Laurent core, checked by hypothesis."""
from functools import reduce
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from linksgould.laurent import HalfLaurent, Laurent2  # noqa: E402
from linksgould.rational import laurent_gcd  # noqa: E402

given = hypothesis.given
# Deterministic and without an example database, so the suite is
# repeatable and leaves nothing behind.
laws = hypothesis.settings(deadline=None, derandomize=True, database=None)

coeffs = st.integers(-30, 30)
laurent2 = st.dictionaries(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)), coeffs, max_size=6
).map(Laurent2)
half = st.dictionaries(st.integers(-6, 6), coeffs, max_size=6).map(HalfLaurent)
ints = st.integers(-5, 5)


def check_ring_laws(cls, a, b, c, n):
    zero, one = cls.zero(), cls.one()
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + zero == a
    assert (a + (-a)).is_zero()
    assert a - b == a + (-b)
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * one == a
    assert a * (b + c) == a * b + a * c
    assert a + n == n + a == a + cls.const(n)
    assert a * n == n * a == a * cls.const(n)
    assert n - a == cls.const(n) - a
    assert a ** 0 == one
    assert a ** 3 == a * a * a
    assert hash((a + b) - b) == hash(a)


@laws
@given(laurent2, laurent2, laurent2, ints)
def test_laurent2_ring_laws(a, b, c, n):
    check_ring_laws(Laurent2, a, b, c, n)


@laws
@given(half, half, half, ints)
def test_half_laurent_ring_laws(a, b, c, n):
    check_ring_laws(HalfLaurent, a, b, c, n)


@laws
@given(st.one_of(laurent2, half), st.integers())
def test_constants_hash_as_their_int(a, n):
    for cls in (Laurent2, HalfLaurent):
        assert hash(cls.const(n)) == hash(n)
        assert len({n, cls.const(n)}) == 1
    assert hash(Laurent2.zero()) == hash(HalfLaurent.zero()) == 0
    if a == n:
        assert hash(a) == hash(n)


@laws
@given(st.integers(-6, 6), st.integers(-6, 6), st.sampled_from((1, -1)), st.integers(-3, 3))
def test_unit_monomial_inverse(et, eq, sign, n):
    for u in (Laurent2.term(sign, et, eq), sign * HalfLaurent.s(et)):
        assert u * u.monomial_inverse() == 1
        assert u ** -n == u.monomial_inverse() ** n


@laws
@given(half, half, st.integers(1, 4))
def test_substitute_power_is_ring_homomorphism(a, b, m):
    assert (a + b).substitute_power(m) == a.substitute_power(m) + b.substitute_power(m)
    assert (a * b).substitute_power(m) == a.substitute_power(m) * b.substitute_power(m)
    assert (-a).substitute_power(m) == -a.substitute_power(m)
    assert HalfLaurent.one().substitute_power(m) == Laurent2.one()


@laws
@given(laurent2, laurent2.filter(lambda p: not p.is_zero()))
def test_exact_division_round_trip(a, b):
    assert (a * b).exact_div(b) == a


@laws
@given(st.one_of(laurent2, half), ints)
def test_content_is_gcd_of_coefficients(p, n):
    values = [c for _, c in p.terms()]
    assert p.content() == reduce(gcd, values, 0)
    assert (p * n).content() == abs(n) * p.content()


small_laurent2 = (
    st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.integers(-9, 9), max_size=4)
    .map(Laurent2)
    .filter(lambda p: not p.is_zero())
)


@laws
@given(small_laurent2, small_laurent2, small_laurent2)
def test_gcd_of_common_multiples(a, b, c):
    f, h = a * c, b * c
    g = laurent_gcd(f, h)
    # exact_div raises ValueError unless the division is exact.
    f.exact_div(g)
    h.exact_div(g)
    # Monomials are units, and exact division ignores them.
    g.exact_div(c)
    assert g.min_exponents() == (0, 0)
    assert g.leading_term()[1] > 0
    assert g.content() == gcd(f.content(), h.content())
