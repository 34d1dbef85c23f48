"""Differential check of reduce_at_root against the direct substitution.

``reduce_at_root`` reduces a value modulo Phi_d at the generating root
exp(2*pi*i/d) and reaches exp(i*pi*r/m) = exp(2*pi*i/d)^e as a Galois
conjugate.  The oracle below is the direct route: send q^j to q^(j*e mod d)
in the unreduced value, then reduce.  Both must give the same unique reduced
representative, term for term, and agree on where a pole is.
"""
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from linksgould.cyclotomic import _reduce_laurent, reduce_at_root  # noqa: E402
from linksgould.errors import PoleAtRootError  # noqa: E402
from linksgould.laurent import Laurent2  # noqa: E402
from linksgould.rational import RationalFn  # noqa: E402

given = hypothesis.given
laws = hypothesis.settings(deadline=None, derandomize=True, database=None)

q = Laurent2.q
laurent2 = st.dictionaries(
    st.tuples(st.integers(-4, 4), st.integers(-6, 6)), st.integers(-9, 9), max_size=6
).map(Laurent2)
# Denominators carry a factor q^j +- 1, so some roots are poles.
rational = st.builds(
    lambda num, den, j, sign: RationalFn(num, den * (q(j) + sign), cancel=False),
    laurent2,
    laurent2.filter(lambda p: not p.is_zero()),
    st.integers(1, 8),
    st.sampled_from((1, -1)),
)


def twisted_reduction(p: Laurent2, m: int, r: int) -> tuple[int, Laurent2]:
    rr = r % (2 * m)
    g = gcd(rr, 2 * m)
    d, e = (2 * m) // g, rr // g
    out: dict = {}
    for (et, eq), c in p.terms():
        key = (et, eq * e % d)
        out[key] = out.get(key, 0) + c
    return d, _reduce_laurent(Laurent2({k: c for k, c in out.items() if c}), d)


def oracle(x, m: int, r: int):
    num, den = (x, Laurent2.one()) if isinstance(x, Laurent2) else (x.num, x.den)
    d, num = twisted_reduction(num, m, r)
    _, den = twisted_reduction(den, m, r)
    if den.is_zero():
        raise PoleAtRootError(f"denominator vanishes in the quotient by Phi_{d}(q)")
    return d, num, den


def outcome(route, x, m, r):
    try:
        return route(x, m, r)
    except PoleAtRootError as exc:
        return str(exc)


@laws
@hypothesis.example(RationalFn(Laurent2.t(), q(1) + 1))
@given(st.one_of(laurent2, rational))
def test_reduce_at_root_matches_direct_substitution(x):
    for m in range(1, 9):
        for r in range(-2 * m, 2 * m + 1):
            expected = outcome(oracle, x, m, r)
            got = outcome(reduce_at_root, x, m, r)
            if isinstance(expected, str):
                assert got == expected
                continue
            d, num, den = expected
            assert got.d == d
            assert dict(got.num.terms()) == dict(num.terms())
            assert dict(got.den.terms()) == dict(den.terms())
