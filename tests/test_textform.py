import random

import pytest

from linksgould.errors import BudgetError, ParseError
from linksgould.laurent import HalfLaurent, Laurent2
from linksgould.rational import RationalFn
from linksgould.textform import (
    MAX_EXPRESSION_TERMS,
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
    for bad in ["", "t +", "t^", "t^x", "(t", "t)", "1 $ 2", "y + 1"]:
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


def test_half_grammar_variables():
    with pytest.raises(ParseError):
        parse_half("q + 1")
    assert parse_half("t^2") == HalfLaurent.s(4)
