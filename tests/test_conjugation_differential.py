"""Differential check of reduce_at_root against the direct substitution.

``reduce_at_root`` reduces a value modulo Phi_d at the generating root
exp(2*pi*i/d) and reaches exp(i*pi*r/m) = exp(2*pi*i/d)^e as a Galois
conjugate.  The oracle below is the direct route: send q^j to q^(j*e mod d)
in the unreduced value, then reduce each power of q through a table of the
residues of q^0, ..., q^(d-1) modulo Phi_d, built by repeated multiplication
by q.  The library folds and divides by Phi_d in one routine,
``_reduce_laurent``, and keeps no such table, so the two routes share only
``cyclotomic_poly``.  Both must give the same unique reduced representative,
term for term, and agree on where a pole is.
"""
from functools import lru_cache
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from linksgould.cyclotomic import (  # noqa: E402
    _reduce_laurent,
    cyclotomic_poly,
    reduce_at_root,
)
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


@lru_cache(maxsize=None)
def power_table(d: int) -> tuple[tuple[int, ...], ...]:
    """Residues of q^j mod Phi_d for j in [0, d), as coefficient tuples."""
    phi = [cyclotomic_poly(d).coefficient(0, j) for j in range(d + 1)]
    deg = max(j for j, c in enumerate(phi) if c)
    rows = []
    cur = [1] + [0] * (deg - 1)
    for _ in range(d):
        rows.append(tuple(cur))
        nxt = [0] + cur
        lead = nxt.pop()
        # q^deg == -(Phi_d - q^deg), since Phi_d is monic.
        cur = [c - lead * a for c, a in zip(nxt, phi)]
    return tuple(rows)


def table_reduction(p: Laurent2, d: int, e: int = 1) -> Laurent2:
    """p under q -> q^e modulo Phi_d, one power of q at a time."""
    out: dict = {}
    for (et, eq), c in p.terms():
        for j, a in enumerate(power_table(d)[eq * e % d]):
            out[et, j] = out.get((et, j), 0) + c * a
    return Laurent2(out)


def twisted_reduction(p: Laurent2, m: int, r: int) -> tuple[int, Laurent2]:
    rr = r % (2 * m)
    g = gcd(rr, 2 * m)
    d, e = (2 * m) // g, rr // g
    return d, table_reduction(p, d, e)


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


def test_reduction_matches_power_table_on_every_power_of_q():
    for d in range(1, 33):
        for e in range(1, d + 1):
            if gcd(e, d) != 1:
                continue
            for j in range(-3 * d, 3 * d + 1):
                x = Laurent2.term(2, 1, j)
                assert dict(_reduce_laurent(x, d, e).terms()) == dict(
                    table_reduction(x, d, e).terms()
                ), (d, e, j)


@laws
@given(laurent2, laurent2, st.integers(1, 32), st.integers(-64, 64))
def test_reduction_is_a_ring_map(a, b, d, e):
    # q -> q^e sends q^d to 1 for every integer e, so folding then dividing
    # by Phi_d is a ring map into the quotient, whatever gcd(e, d) is.
    product = _reduce_laurent(a, d, e) * _reduce_laurent(b, d, e)
    assert _reduce_laurent(a * b, d, e) == _reduce_laurent(product, d)
