import random

import pytest

from linksgould.errors import BudgetError, ParseError
from linksgould.laurent import HalfLaurent, Laurent2
from linksgould.rational import RationalFn
from linksgould.textform import (
    MAX_EXPRESSION_DEPTH,
    MAX_EXPRESSION_TERMS,
    MAX_INTEGER_DIGITS,
    parse_half,
    parse_laurent2,
    parse_rational,
)

t = Laurent2.t
q = Laurent2.q


def test_spec_grammar_examples():
    assert parse_laurent2("t^2 - 1 + t^-2") == t(2) - 1 + t(-2)
    assert parse_laurent2("3tq^-1") == Laurent2.term(3, 1, -1)
    assert parse_rational("(t^2 - t^-2)/(t - t^-1)") == RationalFn(t(1) + t(-1))


def test_laurent_round_trip_randomized():
    rng = random.Random(61)
    for _ in range(60):
        p = Laurent2(
            {
                (rng.randint(-4, 4), rng.randint(-4, 4)): rng.randint(-9, 9)
                for _ in range(rng.randint(0, 5))
            }
        )
        assert parse_laurent2(p.render()) == p


def test_rational_round_trip_randomized():
    rng = random.Random(62)
    for _ in range(40):
        num = Laurent2(
            {
                (rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(-5, 5)
                for _ in range(3)
            }
        )
        den = Laurent2(
            {
                (rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(-5, 5)
                for _ in range(2)
            }
        )
        if den.is_zero():
            continue
        f = RationalFn(num, den)
        assert parse_rational(f.render()) == f


def test_half_round_trip():
    rng = random.Random(63)
    for _ in range(40):
        p = HalfLaurent(
            {rng.randint(-5, 5): rng.randint(-9, 9) for _ in range(rng.randint(0, 5))}
        )
        assert parse_half(p.render("s")) == p
        if p.all_even_powers():
            assert parse_half(p.render("t")) == p


def test_parser_flexibility():
    assert parse_rational("2*t^2") == parse_rational("2t^2")
    assert parse_rational("(t+1)(t-1)") == parse_rational("t^2 - 1")
    assert parse_rational("((t + t^-1))^2") == parse_rational("t^2 + 2 + t^-2")
    assert parse_rational("-(q+q^-1)/((t+t^-1)(tq^-1+t^-1q))") is not None
    assert parse_half("t - 1 + t^-1") == parse_half("s^2 - 1 + s^-2")


def test_parse_errors():
    # Numbers are ASCII decimal: no other digits, no underscores.
    for bad in ["", "t +", "t^", "t^x", "(t", "t)", "1 $ 2", "y + 1", "t^\u0662", "\u0661", "1_0", "t^1_0"]:
        with pytest.raises(ParseError):
            parse_rational(bad)
    with pytest.raises(ParseError):
        parse_laurent2("1/(t+1)")
    with pytest.raises(ParseError):
        parse_half("s/(s+1)")
    with pytest.raises(ParseError):
        parse_rational("1/(t - t)")


def test_expression_size_bound():
    # (t+1)^n has n+1 terms: the largest power within the bound parses, the
    # next is refused before it is computed, whatever the route to it.
    n = MAX_EXPRESSION_TERMS - 1
    assert len(parse_laurent2(f"(t+1)^{n}")) == MAX_EXPRESSION_TERMS
    assert parse_rational(f"(t+1)^{n}/(q+1)^{n}").evaluate(1, 1) == 1
    for text in [
        f"(t+1)^{n + 1}",
        f"(t+1)^-{n + 1}",
        f"1/(t+1)^{n + 1}",
        f"(t+1)^{n}*(t+1)",
        f"(t+1)^{n} + t^{n + 1}",
        f"1/(t+1)^{n} + 1/(t+1)",
        f"(t+1)^{n}/(1/(t+1))",
        "((t+q+1)^8)^16",
        "(t+1)^99999999999999999999",
    ]:
        with pytest.raises(BudgetError):
            parse_rational(text)
    with pytest.raises(BudgetError):
        parse_half(f"(s+1)^{n + 1}")
    assert parse_rational("t^99999999999999999999") == RationalFn(t(10**20 - 1))


def test_expression_depth_bound():
    # Each parenthesis and each unary minus is one level; the deepest
    # expression within the bound parses, and one level more is refused
    # before the parser recurses into it, however deep the input goes.
    d = MAX_EXPRESSION_DEPTH
    assert parse_rational("(" * d + "t" + ")" * d) == RationalFn(t())
    assert parse_rational("-" * d + "t") == RationalFn(t())
    assert parse_rational("-(" * (d // 2) + "t" + ")" * (d // 2)) == RationalFn(-t())
    assert parse_half("(" * d + "s" + ")" * d) == HalfLaurent.s()
    for text in [
        "(" * (d + 1) + "t" + ")" * (d + 1),
        "-" * (d + 1) + "t",
        "-(" * (d // 2) + "-t" + ")" * (d // 2),
        "(" * 200 + "t" + ")" * 200,
        "-" * 5000 + "t",
    ]:
        with pytest.raises(BudgetError, match="nests deeper than the bound of"):
            parse_rational(text)
    with pytest.raises(BudgetError):
        parse_half("(" * (d + 1) + "s" + ")" * (d + 1))


def test_integer_digit_bound():
    # An integer literal, coefficient or exponent, of more digits than the
    # bound is refused before int() reads it: on every Python version, and
    # below the 4 300 digits past which Python 3.11 and later refuse it
    # with a ValueError of their own.
    n = MAX_INTEGER_DIGITS
    assert n < 4300
    big = 10**n - 1
    assert parse_rational("9" * n + "t") == RationalFn(Laurent2({(1, 0): big}))
    assert parse_rational("0" * (n - 1) + "7") == RationalFn(Laurent2.const(7))
    assert parse_half("9" * n) == HalfLaurent.const(big)
    for text in ["9" * (n + 1), "t^" + "1" * (n + 1), "(t+1)/" + "3" * 5000, "0" * (n + 1)]:
        with pytest.raises(BudgetError, match=f"exceeds the bound of {n} digits"):
            parse_rational(text)
    with pytest.raises(BudgetError):
        parse_half("s^-" + "2" * (n + 1))


def test_power_digit_bound():
    # A constant's exponent box is one point, so the term bound passes any
    # power of it; a power whose coefficients could pass the digit bound is
    # refused before it runs, for either exponent sign, in the numerator
    # or the denominator.  Unbounded, 3^10000000 took seconds.
    huge = "9" * MAX_INTEGER_DIGITS
    for text in ["3^1000000000", "3^-1000000000", "(3t)^1000000000", "(1/3)^1000000000", "3^" + huge]:
        with pytest.raises(BudgetError, match="could exceed the bound of 10000 digits"):
            parse_rational(text)
    for text in ["3^1000000000", "3^-1000000000", "(2s^3)^1000000000"]:
        with pytest.raises(BudgetError, match="could exceed the bound of 10000 digits"):
            parse_half(text)
    assert parse_rational("3^20000") == RationalFn(Laurent2.const(3**20000))
    assert parse_half("(-3)^20000") == HalfLaurent.const(3**20000)
    # A power of a unit monomial is still unbounded.
    assert parse_rational("(-t)^99999999999999999999") == RationalFn(-t(10**20 - 1))
    assert parse_rational("t^" + huge) == RationalFn(t(10**MAX_INTEGER_DIGITS - 1))
    assert parse_half("(-1)^-99999999999999999999") == HalfLaurent.const(-1)
    # The measured fixture: caps divided by (t + Nq + 3)^4, N of the most
    # digits an integer may have.
    x = parse_rational(f"t + {huge}q + 3")
    assert parse_rational(f"t/(t + {huge}q + 3)^4") == RationalFn(t()) / (x * x * x * x)


def test_half_grammar_variables():
    with pytest.raises(ParseError):
        parse_half("q + 1")
    assert parse_half("t^2") == HalfLaurent.s(4)
