import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from linksgould.laurent import Laurent2
from linksgould.rational import RationalFn, laurent_gcd

t = Laurent2.t
q = Laurent2.q


def random_laurent(rng, terms=3, span=3, coeff=5):
    return Laurent2(
        {
            (rng.randint(-span, span), rng.randint(-span, span)): rng.randint(
                -coeff, coeff
            )
            for _ in range(terms)
        }
    )


def assert_normalized(f: RationalFn):
    assert not f.den.is_zero()
    assert f.den.min_exponents() == (0, 0)
    from math import gcd

    c = 0
    for _, v in f.num.terms():
        c = gcd(c, abs(v))
    for _, v in f.den.terms():
        c = gcd(c, abs(v))
    assert c in (0, 1)
    assert f.den.leading_term()[1] > 0


def test_exact_quotient():
    f = RationalFn(t(2) - t(-2), t(1) - t(-1))
    assert f == RationalFn(t(1) + t(-1))
    assert f.den.is_one()


def test_zero_fraction_normal_form():
    f = RationalFn(Laurent2.zero(), t(1) + t(-1))
    assert f.is_zero()
    assert f.den.is_one()


def test_common_factor_cancellation():
    # -(q+q^-1)(tq^-1 - t^-1 q) / [(t+t^-1)(t^2 q^-2 - t^-2 q^2)]
    # reduces by the factor (tq^-1 - t^-1 q).
    shared = t(1) * q(-1) - t(-1) * q(1)
    num = -(q(1) + q(-1)) * shared
    den = (t(1) + t(-1)) * (t(2) * q(-2) - t(-2) * q(2))
    f = RationalFn(num, den)
    expected = RationalFn(
        -(q(1) + q(-1)), (t(1) + t(-1)) * (t(1) * q(-1) + t(-1) * q(1))
    )
    assert f == expected
    assert f.evaluate(2, 3) == Fraction(-8, 13)
    assert expected.evaluate(2, 3) == Fraction(-8, 13)
    # the factor really is gone, not just equal in value
    assert len(f.num) == 2
    assert len(f.den) == 4
    assert_normalized(f)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFn(t(1), Laurent2.zero())


def test_normalization_idempotent():
    rng = random.Random(33)
    for _ in range(40):
        num = random_laurent(rng)
        den = random_laurent(rng)
        if den.is_zero():
            continue
        f = RationalFn(num, den)
        g = RationalFn(f.num, f.den)
        assert f.num == g.num and f.den == g.den
        assert_normalized(f)


def test_cross_multiplication_equality():
    rng = random.Random(34)
    for _ in range(40):
        num, den = random_laurent(rng), random_laurent(rng)
        scale = random_laurent(rng)
        if den.is_zero() or scale.is_zero() or num.is_zero():
            continue
        a = RationalFn(num, den)
        b = RationalFn(num * scale, den * scale)
        assert a == b
        c = RationalFn(num + den, den)
        assert a != c
        # normal-form equality implies value equality at a sample point
        if a.num == b.num and a.den == b.den:
            try:
                assert a.evaluate(3, 5) == b.evaluate(3, 5)
            except ZeroDivisionError:
                pass


def test_field_arithmetic():
    a = RationalFn(t(1), t(1) + 1)
    b = RationalFn(1, t(1) - 1)
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a - a == RationalFn.zero()
    assert (a / a).is_one()
    assert -(-a) == a
    assert a**3 == a * a * a
    assert a**-2 == (a.reciprocal()) ** 2
    with pytest.raises(ZeroDivisionError):
        RationalFn.zero().reciprocal()


def test_product_by_one_is_the_other_operand(monkeypatch):
    from linksgould import rational
    from linksgould.cyclotomic import CycloFraction

    # Neither operand is a monomial, so a product through the constructor
    # would run the gcd; a product by one never reaches it.
    def no_gcd(a, b):
        raise AssertionError("a product by one ran the gcd")

    monkeypatch.setattr(rational, "laurent_gcd", no_gcd)
    fractions = (
        RationalFn(t(1) + q(1), t(1) - 2, cancel=False),
        CycloFraction(5, t(1) + q(1), t(1) + 3),
    )
    for f in fractions:
        unreduced_one = f._make(t(1) + 1, t(1) + 1)
        for one in (1, Laurent2.one(), f._coerce(1), unreduced_one):
            assert f * one is f and one * f is f
        for x in (3, t(2) - t(-1)):
            lifted = f._coerce(x)
            for product in (f._coerce(1) * x, x * f._coerce(1)):
                assert type(product) is type(f) and product == lifted


def test_invert_q():
    f = RationalFn(t(1) * q(2) - 1, t(1) + q(1))
    g = f.invert_q()
    assert g.invert_q() == f
    assert g == RationalFn(t(1) * q(-2) - 1, t(1) + q(-1))


def test_render():
    assert RationalFn(t(1) + t(-1)).render() == "t + t^-1"
    # the denominator's monomial content moves into the numerator
    f = RationalFn(Laurent2.one(), t(1) + t(-1))
    assert f.render() == "(t)/(t^2 + 1)"


def test_gcd_of_products():
    rng = random.Random(35)
    for _ in range(25):
        a, b, c = (random_laurent(rng, terms=2) for _ in range(3))
        if a.is_zero() or b.is_zero() or c.is_zero():
            continue
        g = laurent_gcd(a * c, b * c)
        # c divides the gcd (up to monomial): gcd / c must be exact after
        # clearing monomial parts.
        prod = (a * c).exact_div(g)
        assert (a * c) == prod * g


def test_gcd_coprime_is_trivial():
    g = laurent_gcd(t(1) + 1, q(1) + 1)
    assert g.is_monomial()
    assert g.content() == 1


def test_gcd_sign_follows_leading_term():
    # With q as the main variable, the sign must still come from the
    # lexicographic leading term, whose t-power is the largest.
    g = laurent_gcd((q(1) - t(1)) * (q(1) + 1), (q(1) - t(1)) * (q(1) + 2))
    assert g == t(1) - q(1)
    assert g.leading_term() == ((1, 0), 1)
    assert laurent_gcd(q(1) + 1, -q(1) - 1) == q(1) + 1


# Counts the Laurent2 products made inside laurent_gcd during the
# theorem-grid report, in a fresh interpreter so that no cache is warm, and
# how many of those with a one-term operand (a unit or a monomial) did not
# go through the shift loop, ``_SparseLaurent._shifted``.
_COUNT_GCD_PRODUCTS = """
import contextlib, hashlib, io, json
from linksgould import rational
from linksgould.cli import main
from linksgould.laurent import Laurent2, _SparseLaurent

counts = {"products": 0, "one_term": 0, "unshifted": 0, "shifts": 0}
depth = 0
mul, gcd, shifted = Laurent2.__mul__, rational.laurent_gcd, _SparseLaurent._shifted

def counting_shifted(self, *args):
    counts["shifts"] += 1
    return shifted(self, *args)

def counting_mul(a, b):
    if not depth:
        return mul(a, b)
    counts["products"] += 1
    before = counts["shifts"]
    out = mul(a, b)
    if min(len(a), len(a._coerce(b))) < 2:
        counts["one_term"] += 1
        counts["unshifted"] += counts["shifts"] == before
    return out

def counting_gcd(a, b):
    global depth
    depth += 1
    try:
        return gcd(a, b)
    finally:
        depth -= 1

Laurent2.__mul__ = counting_mul
_SparseLaurent._shifted = counting_shifted
rational.laurent_gcd = counting_gcd
out = io.StringIO()
with contextlib.redirect_stdout(out):
    main(["verify", "theorem2", "--max-m", "8", "--max-k", "8", "--format", "json"])
counts["digest"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
print(json.dumps(counts))
"""


def test_gcd_makes_no_unit_products():
    # A product by a unit or a monomial is a shift: none of the gcd's
    # products with a one-term operand runs the general product loop.
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", _COUNT_GCD_PRODUCTS],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    counts = json.loads(done.stdout)
    assert counts["digest"] == (
        "6c435f2e4b0e3a68e140092f7314551c4d9bffd7a157d56cdf98213fcc0509ff"
    )
    assert counts["products"] > 500  # the grid's gcds really ran
    assert counts["one_term"] > 500
    assert counts["unshifted"] == 0
