from fractions import Fraction
from math import gcd

import pytest

from linksgould.cyclotomic import CycloFraction, reduce_at_root
from linksgould.laurent import Laurent2
from linksgould.rational import RationalFn
from linksgould.spectral import (
    MAX_LG_M,
    _trace_parts,
    braiding_eigenvalue,
    lg_closed_2braid,
    projector_trace,
    quantum_trace,
    skein_coefficient_report,
)

t = Laurent2.t
q = Laurent2.q

ONE = RationalFn.one()
ZERO = RationalFn.zero()


def valid_roots(m):
    return [r for r in range(1, 2 * m + 1) if gcd(r, m) == 1]


def test_eigenvalue_examples():
    assert braiding_eigenvalue(2, 0) == t(2)
    assert braiding_eigenvalue(2, 1) == Laurent2.const(-1)
    assert braiding_eigenvalue(2, 2) == t(-2) * q(2)
    assert braiding_eigenvalue(1, 0) == t(1)
    assert braiding_eigenvalue(1, 1) == -t(-1)
    assert braiding_eigenvalue(3, 1) == -t(1)
    with pytest.raises(IndexError):
        braiding_eigenvalue(2, 3)


def test_eigenvalue_set_invariants():
    for m in range(1, 9):
        xi = [braiding_eigenvalue(m, i) for i in range(m + 1)]
        for i in range(m + 1):
            assert braiding_eigenvalue(m, i) * braiding_eigenvalue(m, i) ** -1 == Laurent2.one()
            for j in range(i + 1, m + 1):
                assert xi[i] != xi[j]


def test_trace_m1():
    expected = RationalFn(Laurent2.one(), t(1) + t(-1))
    assert projector_trace(1, 0) == expected
    assert projector_trace(1, 1) == -expected


def trace_product_oracle(m: int, i: int, tv: Fraction, qv: Fraction) -> Fraction:
    """The trace product formula evaluated directly over Fractions,
    sharing no code with the symbolic implementation."""
    tv, qv = Fraction(tv), Fraction(qv)
    total = Fraction(-1 if i % 2 else 1)
    for j in range(1, i + 1):
        total *= (qv ** (m - j + 1) - qv ** -(m - j + 1)) / (
            qv ** (i - j + 1) - qv ** -(i - j + 1)
        )
        total *= (tv * qv ** -(j - 1) - tv**-1 * qv ** (j - 1)) / (
            tv**2 * qv ** -(i + j - 2) - tv**-2 * qv ** (i + j - 2)
        )
    for j in range(i + 1, m + 1):
        total *= (tv * qv ** -(j - 1) - tv**-1 * qv ** (j - 1)) / (
            tv**2 * qv ** -(i + j - 1) - tv**-2 * qv ** (i + j - 1)
        )
    return total


def test_trace_m2_frozen_values():
    # direct numeric evaluation of the product formula at (t, q) = (2, 3)
    assert projector_trace(2, 0).evaluate(2, 3) == Fraction(-4, 7)
    assert projector_trace(2, 1).evaluate(2, 3) == Fraction(-8, 13)
    assert projector_trace(2, 2).evaluate(2, 3) == Fraction(108, 91)
    assert trace_product_oracle(2, 0, 2, 3) == Fraction(-4, 7)
    assert trace_product_oracle(2, 1, 2, 3) == Fraction(-8, 13)
    assert trace_product_oracle(2, 2, 2, 3) == Fraction(108, 91)
    # and the scaling contract holds at the same point
    total = sum(
        (
            braiding_eigenvalue(2, i).evaluate(2, 3)
            * projector_trace(2, i).evaluate(2, 3)
            for i in range(3)
        ),
        Fraction(0),
    )
    assert total == 1


@pytest.mark.parametrize("point", [(2, 3), (3, 2), (Fraction(5, 2), 7), (7, Fraction(2, 5))])
def test_traces_match_fraction_oracle(point):
    tv, qv = point
    for m in range(1, 6):
        for i in range(m + 1):
            assert projector_trace(m, i).evaluate(tv, qv) == trace_product_oracle(
                m, i, tv, qv
            ), (m, i, point)


@pytest.mark.parametrize("m", range(1, 9))
def test_scaling_contract_symbolic(m):
    assert lg_closed_2braid(m, 1) == ONE
    assert lg_closed_2braid(m, -1) == ONE
    assert lg_closed_2braid(m, 0) == ZERO


def test_caches_are_bounded_and_hold_every_cli_m():
    # Bounded, so a long-lived process cannot grow them without limit, and
    # large enough that no m the CLI accepts is ever evicted.
    pairs = sum(m + 1 for m in range(1, MAX_LG_M + 1))
    for fn, need in (
        (_trace_parts, pairs),
        (projector_trace, pairs),
    ):
        maxsize = fn.cache_info().maxsize
        assert maxsize is not None and maxsize >= need, fn.__name__


def test_compose_is_pointwise():
    # Composing R with R^-1 multiplies their coefficient vectors entry by
    # entry, which gives the identity's vector of ones, whose trace is 0.
    one = Laurent2.one()
    composed = [braiding_eigenvalue(2, i) * braiding_eigenvalue(2, i) ** -1 for i in range(3)]
    assert composed == [one] * 3
    assert quantum_trace(2, composed) == ZERO
    assert quantum_trace(2, [t(1), Laurent2.const(2), q(1)]) == sum(
        (RationalFn(c) * projector_trace(2, i) for i, c in enumerate([t(1), 2, q(1)])),
        ZERO,
    )
    with pytest.raises(ValueError):
        quantum_trace(2, [one] * 4)


@pytest.mark.parametrize("m", [0, -1])
def test_nonpositive_m_rejected(m):
    # Every entry point refuses m < 1 alike.  At m = -1 the projector sum
    # has no terms, so no projector index is ever checked on the way.
    calls = (
        lambda: quantum_trace(m, [Laurent2.one()] * (m + 1)),
        lambda: lg_closed_2braid(m, 3),
        lambda: skein_coefficient_report(m),
        lambda: braiding_eigenvalue(m, 0),
        lambda: projector_trace(m, 0),
    )
    for call in calls:
        with pytest.raises(ValueError, match="m must be a positive integer"):
            call()


@pytest.mark.parametrize("k", [2, 3, 5, -2])
def test_braiding_powers_m2(k):
    assert braiding_eigenvalue(2, 0) ** k == t(2 * k)
    assert braiding_eigenvalue(2, 1) ** k == (-1) ** (k % 2)
    assert braiding_eigenvalue(2, 2) ** k == t(-2 * k) * q(2 * k)


def test_power_composition_symmetry():
    for m in (1, 2, 3):
        for k in (2, 5):
            for i in range(m + 1):
                fwd = braiding_eigenvalue(m, i) ** k
                bwd = braiding_eigenvalue(m, i) ** -k
                assert fwd * bwd == Laurent2.one()
                assert bwd == (braiding_eigenvalue(m, i) ** -1) ** k


def test_closed_2braid_values():
    for m in (1, 2, 3):
        assert lg_closed_2braid(m, 1) == ONE
        assert lg_closed_2braid(m, 0) == ZERO
    for k in range(-8, 9):
        num = t(k) - (Laurent2.const(-1) ** (k % 2)) * t(-k)
        assert lg_closed_2braid(1, k) == RationalFn(num, t(1) + t(-1))


def inverted(f: RationalFn, st: int, sq: int) -> RationalFn:
    """f under t -> t^st and q -> q^sq, each sign +-1."""

    def sub(p: Laurent2) -> Laurent2:
        return Laurent2({(st * et, sq * eq): c for (et, eq), c in p.terms()})

    return RationalFn(sub(f.num), sub(f.den))


def test_mirror_inverts_t_and_q():
    # The closure of sigma^-k is the mirror image of that of sigma^k, and
    # mirroring sends LG^(m,1)(t, q) to LG^(m,1)(t^-1, q^-1).
    for m in range(1, 5):
        for k in range(-5, 6):
            assert lg_closed_2braid(m, -k) == inverted(lg_closed_2braid(m, k), -1, -1), (m, k)


def test_mirror_needs_both_inversions():
    # For m >= 2 the value depends on q, so inverting t alone or q alone is
    # a different value: the rule above is not satisfied by chance.
    for m in range(2, 5):
        for k in (*range(-5, -1), *range(2, 6)):
            value, mirrored = lg_closed_2braid(m, k), lg_closed_2braid(m, -k)
            assert mirrored != inverted(value, -1, 1), (m, k)
            assert mirrored != inverted(value, 1, -1), (m, k)


def test_q_minus_one_square_identity():
    for k in range(-10, 11):
        lhs = reduce_at_root(lg_closed_2braid(2, k), 1, 1)
        num = t(k) - (Laurent2.const(-1) ** (k % 2)) * t(-k)
        delta = RationalFn(num, t(1) + t(-1))
        assert lhs == reduce_at_root(delta * delta, 1, 1)


@pytest.mark.parametrize("m", range(1, 9))
def test_trace_vanishing_at_roots(m):
    for r in valid_roots(m):
        for i in range(m + 1):
            value = reduce_at_root(projector_trace(m, i), m, r)  # no pole
            if 0 < i < m:
                assert value.is_zero()
        assert not reduce_at_root(projector_trace(m, 0), m, r).is_zero()
        assert not reduce_at_root(projector_trace(m, m), m, r).is_zero()


@pytest.mark.parametrize("m", range(1, 9))
def test_eigenvalue_endpoints_at_roots(m):
    for r in valid_roots(m):
        assert reduce_at_root(braiding_eigenvalue(m, 0), m, r) == t(m)
        assert -reduce_at_root(braiding_eigenvalue(m, m) ** -1, m, r) == t(m)


def test_endpoint_trace_closed_forms():
    # at i = 0 the trace is prod_j (t q^(1-j) - t^-1 q^(j-1)) over
    # (t^2 q^(1-j) - t^-2 q^(j-1)); at i = m the q-ratio cancels entirely
    # and the second-factor shift moves to m+j-2
    def tf(j):
        return Laurent2({(1, -(j - 1)): 1, (-1, j - 1): -1})

    def t2f(w):
        return Laurent2({(2, -w): 1, (-2, w): -1})

    for m in range(1, 6):
        num = Laurent2.one()
        den0 = Laurent2.one()
        denm = Laurent2.one()
        for j in range(1, m + 1):
            num = num * tf(j)
            den0 = den0 * t2f(j - 1)
            denm = denm * t2f(m + j - 2)
        assert projector_trace(m, 0) == RationalFn(num, den0)
        sign = 1 if m % 2 == 0 else -1
        assert projector_trace(m, m) == RationalFn(sign * num, denm)


def test_trace_ratios_at_q_minus_one():
    # reducing at q = -1: the endpoint traces agree and the middle one is
    # -2 times them (for m = 2), all equal to powers of 1/(t + t^-1)^2
    c0 = reduce_at_root(projector_trace(2, 0), 1, 1)
    c1 = reduce_at_root(projector_trace(2, 1), 1, 1)
    c2 = reduce_at_root(projector_trace(2, 2), 1, 1)
    assert c0 == c2
    assert c0 * (-2) == c1
    square = RationalFn(Laurent2.one(), (t(1) + t(-1)) * (t(1) + t(-1)))
    assert c0 == reduce_at_root(square, 1, 1)


def test_traces_at_fourth_root():
    # q = i (m = 2, r = 1): endpoint traces are +-1/(t^2 + t^-2)
    inv = RationalFn(Laurent2.one(), t(2) + t(-2))
    assert reduce_at_root(projector_trace(2, 0), 2, 1) == reduce_at_root(inv, 2, 1)
    assert reduce_at_root(projector_trace(2, 2), 2, 1) == CycloFraction(
        4, -Laurent2.one(), t(2) + t(-2)
    )


@pytest.mark.parametrize("m", range(1, 9))
def test_skein_coefficient_report(m):
    for r in valid_roots(m):
        rows = skein_coefficient_report(m, r)
        assert len(rows) == m + 1
        assert all(product.is_zero() for _, product in rows)
        if m == 1:
            assert all(raw.is_zero() for raw, _ in rows)
        else:
            assert any(not raw.is_zero() for raw, _ in rows[1:m])


def test_skein_coefficient_m2_values():
    (raw0, _), (raw1, _), (raw2, _) = skein_coefficient_report(2, 1)
    # xi_1 = -1 is self-inverse, so its raw coefficient is -(t^2 - t^-2)
    assert raw1 == -(t(2) - t(-2))
    assert raw0.is_zero()
    assert raw2.is_zero()


def test_involution_on_eigenvalue():
    assert braiding_eigenvalue(2, 2).invert_q() == t(-2) * q(-2)


def test_symmetry_dual():
    v = lg_closed_2braid(2, 3)
    assert v.invert_q().invert_q() == v
    v1 = lg_closed_2braid(1, 4)
    assert v1.invert_q() == v1  # m = 1 values are q-free
    # the dual value at r = 1 is the original at r = -1
    for m in (2, 3):
        for k in (2, 3):
            x = lg_closed_2braid(m, k)
            assert reduce_at_root(x.invert_q(), m, 1) == reduce_at_root(x, m, -1)


def test_corollary_route():
    # LG^(1,m) at exp(i*pi/m) equals the Alexander value: go through the
    # q -> q^-1 symmetry and the r = -1 evaluation.
    for m in (2, 3, 4):
        for k in (-3, 2, 5):
            dual = lg_closed_2braid(m, k).invert_q()
            num = t(m * k) - (Laurent2.const(-1) ** (k % 2)) * t(-m * k)
            delta = RationalFn(num, t(m) + t(-m))
            assert reduce_at_root(dual, m, 1) == reduce_at_root(delta, m, 1)
