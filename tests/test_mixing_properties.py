"""The mixing rule of the exact scalar types, checked by hypothesis.

Each binary operation returns NotImplemented for an operand its type
cannot lift, so a mixed operation lands in the wider type whichever side
that type is on, and an operand that no type lifts raises TypeError.
"""
import operator

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from linksgould.cyclotomic import CycloFraction  # noqa: E402
from linksgould.laurent import HalfLaurent, Laurent2  # noqa: E402
from linksgould.rational import RationalFn  # noqa: E402

given = hypothesis.given
# Deterministic and without an example database, so the suite is
# repeatable and leaves nothing behind.
laws = hypothesis.settings(deadline=None, derandomize=True, database=None)

coeffs = st.integers(-9, 9)
exponents = st.integers(-3, 3)
laurent2 = st.dictionaries(st.tuples(exponents, exponents), coeffs, max_size=5).map(Laurent2)
q_free = st.dictionaries(st.tuples(exponents, st.just(0)), coeffs, max_size=4).map(Laurent2)


def nonzero(polys):
    return polys.filter(lambda p: not p.is_zero())


rational = st.builds(RationalFn, laurent2, nonzero(laurent2))
q_free_scalars = st.one_of(q_free, st.builds(RationalFn, q_free, nonzero(q_free)))
# A q-free denominator times a power of q never vanishes modulo Phi_d.
cyclo = st.builds(
    lambda d, num, den, j: CycloFraction(d, num, den * Laurent2.q(j)),
    st.integers(1, 12),
    laurent2,
    nonzero(q_free),
    exponents,
)


def check_mixed(a, b, lifted):
    """a op b in either order matches lifted op b, in b's type."""
    assert type(a + b) is type(b + a) is type(b)
    assert a + b == b + a == lifted + b
    assert a - b == lifted - b
    assert b - a == b - lifted == -(a - b)
    assert a * b == b * a == lifted * b


@laws
@given(laurent2, rational)
def test_laurent2_mixes_with_rationalfn(a, b):
    check_mixed(a, b, RationalFn(a))


@laws
@given(q_free_scalars, cyclo)
def test_q_free_values_mix_with_cyclofraction(a, c):
    lifted = RationalFn(a) if isinstance(a, Laurent2) else a
    check_mixed(a, c, CycloFraction(c.d, lifted.num, lifted.den))
    check_mixed(a, c, lifted)


@pytest.mark.parametrize(
    "a, b",
    [
        (Laurent2.t(), 1.5),
        (RationalFn(Laurent2.t()), 1.5),
        (HalfLaurent.s(), Laurent2.t()),
        (CycloFraction(4, Laurent2.q()), HalfLaurent.s()),
    ],
    ids=[
        "Laurent2-float",
        "RationalFn-float",
        "HalfLaurent-Laurent2",
        "CycloFraction-HalfLaurent",
    ],
)
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_unliftable_operands_raise_type_error(a, b, op):
    with pytest.raises(TypeError, match="unsupported operand"):
        op(a, b)
    with pytest.raises(TypeError, match="unsupported operand"):
        op(b, a)
