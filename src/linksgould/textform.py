"""
Text grammar for exact values, round-tripping with the renderers.

Terms are rendered in descending (t, q) exponent order, juxtaposition is
multiplication, ``^`` takes an optionally negative integer, and fractions
are written ``(num)/(den)``; e.g. ``t^2 - 1 + t^-2``, ``3tq^-1``,
``(-t^2q^2 - t^2)/(t^4 + t^2q^2 + t^2 + q^2)``.  The parser additionally
accepts explicit ``*``, arbitrary parentheses and powers of grouped
expressions, so hand-written fixture entries stay readable.

Alexander-Conway values use the variables ``s`` and ``t`` with t = s^2.

Every operation is bounded: before it runs, the parser bounds the size of
its result by the operands' lowest and highest exponents, and refuses it
with BudgetError when that size exceeds ``MAX_EXPRESSION_TERMS``.  So is
the nesting: an expression deeper than ``MAX_EXPRESSION_DEPTH`` levels of
parentheses and unary minus signs is refused with BudgetError before the
parser recurses past it, and so is an integer of more than
``MAX_INTEGER_DIGITS`` digits, before ``int()`` reads it.  Numbers are
ASCII decimal digits.
"""
from __future__ import annotations

import operator
import re
from math import prod

from .errors import BudgetError, ParseError
from .laurent import HalfLaurent, Laurent2
from .rational import RationalFn

__all__ = ["parse_rational", "parse_laurent2", "parse_half"]

# A numerator or denominator that an operation could produce has at most
# as many terms as there are exponent points in the box spanned by the
# operands' lowest and highest exponents.  Two of at most 200 terms stay
# within RationalFn's 400-term limit for gcd cancellation; past it, common
# factors stay uncancelled and every later product grows.  Measured
# without the bound, with each entry e of the LG^(1,1) fixture written as
# e*X^n/X^n, `tensor eval --fixture` on "1 1 1" takes 0.10 s for
# X = (t+1)(q+1), n = 12 (at most 195 points), but 29 s for n = 14 (256
# points); with only R[0][0] written so for X = t+q+1, it takes 0.35 s at
# n = 20 and 1.7 s at n = 32 (2-core x86, Python 3.11.7).
MAX_EXPRESSION_TERMS = 200
# The parser recurses once per unary minus and about five times per
# parenthesis; unbounded, 200 parentheses overflowed Python's stack.  The
# renderers write at most two levels.
MAX_EXPRESSION_DEPTH = 50
# An integer literal (a coefficient or an exponent) of more digits is
# refused before int() reads it.  Python 3.11 and later refuse more than
# 4 300 digits with their own message, and 3.10 reads any length at a
# quadratic cost (10^6 digits: 7.7 s).  The LG^(1,1) fixture with its caps
# divided by (t + Nq + 3)^4 and its cups multiplied by it loads in 0.03 s
# for a 1 000-digit N and in 0.15 s for 4 000 digits (2-core x86, Python
# 3.11.7).
MAX_INTEGER_DIGITS = 1000

_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

Box = tuple[tuple[int, int], ...]  # (lowest, highest) exponent of each variable


def _box(p) -> Box | None:
    """The exponent box of a polynomial's terms; None for zero."""
    keys = [e for e, _ in p.terms()]
    return tuple((min(c), max(c)) for c in zip(*keys)) if keys else None


def _fraction_boxes(v) -> tuple[Box | None, Box | None]:
    """Exponent boxes of a value's numerator and denominator."""
    if isinstance(v, RationalFn):
        return _box(v.num), _box(v.den)
    return _box(v), _box(v.one())


def _product_box(a: Box | None, b: Box | None) -> Box | None:
    if a is None or b is None:
        return None
    return tuple((la + lb, ha + hb) for (la, ha), (lb, hb) in zip(a, b))


def _sum_box(a: Box | None, b: Box | None) -> Box | None:
    if a is None or b is None:
        return a or b
    return tuple((min(la, lb), max(ha, hb)) for (la, ha), (lb, hb) in zip(a, b))


def _power_box(a: Box | None, n: int) -> Box | None:
    return None if a is None else tuple((n * lo, n * hi) for lo, hi in a)


def _check_size(num: Box | None, den: Box | None) -> None:
    size = max(
        prod(hi - lo + 1 for lo, hi in box) if box else 0 for box in (num, den)
    )
    if size > MAX_EXPRESSION_TERMS:
        raise BudgetError(
            f"an expression could reach {size} terms, "
            f"above the bound of {MAX_EXPRESSION_TERMS}"
        )


_TOKEN = re.compile(r"\s*(?:([0-9]+)|([a-zA-Z])|(\^|\*|/|\+|-|\(|\)))")


def _tokenize(text: str) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos:].lstrip()[0]!r}")
            break
        if m.group(1):
            if len(m.group(1)) > MAX_INTEGER_DIGITS:
                raise BudgetError(
                    f"an integer of {len(m.group(1))} digits exceeds the bound of "
                    f"{MAX_INTEGER_DIGITS} digits"
                )
            out.append(("int", m.group(1)))
        elif m.group(2):
            out.append(("var", m.group(2)))
        else:
            out.append(("op", m.group(3)))
        pos = m.end()
    return out


class _Parser:
    """Recursive descent over +, -, *, /, ^, juxtaposition and parens."""

    def __init__(self, tokens, variables, const, allow_div: bool):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables
        self.const = const
        self.allow_div = allow_div
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self):
        value = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input near token {self.peek()[1]!r}")
        return value

    def expr(self):
        value = self.term()
        while True:
            tok = self.peek()
            if tok in (("op", "+"), ("op", "-")):
                self.take()
                value = self.apply(tok[1], value, self.term())
            else:
                return value

    def term(self):
        value = self.unary()
        while True:
            tok = self.peek()
            if tok == ("op", "*"):
                self.take()
                value = self.apply("*", value, self.unary())
            elif tok == ("op", "/"):
                self.take()
                if not self.allow_div:
                    raise ParseError("division is not part of this grammar")
                value = self.apply("/", value, self.unary())
            elif tok is not None and (tok[0] in ("int", "var") or tok == ("op", "(")):
                value = self.apply("*", value, self.unary())
            else:
                return value

    def nested(self, inner):
        """inner(), one level deeper, refused before it runs past MAX_EXPRESSION_DEPTH."""
        if self.depth == MAX_EXPRESSION_DEPTH:
            raise BudgetError(
                f"an expression nests deeper than the bound of {MAX_EXPRESSION_DEPTH} "
                "levels of parentheses and signs"
            )
        self.depth += 1
        value = inner()
        self.depth -= 1
        return value

    def unary(self):
        tok = self.peek()
        if tok == ("op", "-"):
            self.take()
            return -self.nested(self.unary)
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            neg = False
            if self.peek() == ("op", "-"):
                self.take()
                neg = True
            tok = self.take()
            if tok is None or tok[0] != "int":
                raise ParseError("exponent must be an integer")
            e = int(tok[1])
            # A negative power swaps numerator and denominator, which
            # leaves the larger of the two as it is.
            num, den = _fraction_boxes(base)
            _check_size(_power_box(num, e), _power_box(den, e))
            return base ** (-e if neg else e)
        return base

    def apply(self, op: str, a, b):
        """a op b, refused before it runs if its result could be too large."""
        (an, ad), (bn, bd) = _fraction_boxes(a), _fraction_boxes(b)
        if op == "*":
            num, den = _product_box(an, bn), _product_box(ad, bd)
        elif op == "/":
            num, den = _product_box(an, bd), _product_box(ad, bn)
        else:
            num = _sum_box(_product_box(an, bd), _product_box(bn, ad))
            den = _product_box(ad, bd)
        _check_size(num, den)
        return _OPS[op](a, b)

    def atom(self):
        tok = self.take()
        if tok is None:
            raise ParseError("unexpected end of input")
        kind, text = tok
        if kind == "int":
            return self.const(int(text))
        if kind == "var":
            if text not in self.variables:
                raise ParseError(f"unknown variable {text!r}")
            return self.variables[text]()
        if tok == ("op", "("):
            value = self.nested(self.expr)
            if self.take() != ("op", ")"):
                raise ParseError("missing closing parenthesis")
            return value
        raise ParseError(f"unexpected token {text!r}")


def parse_rational(text: str) -> RationalFn:
    """
    Parse an expression in t and q into a RationalFn.

    >>> parse_rational("(t^2 - t^-2)/(t - t^-1)") == RationalFn(Laurent2.t() + Laurent2.t(-1))
    True
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    parser = _Parser(
        tokens,
        variables={
            "t": lambda: RationalFn(Laurent2.t()),
            "q": lambda: RationalFn(Laurent2.q()),
        },
        const=lambda n: RationalFn(Laurent2.const(n)),
        allow_div=True,
    )
    try:
        return parser.parse()
    except ZeroDivisionError:
        raise ParseError("division by zero in expression") from None


def parse_laurent2(text: str) -> Laurent2:
    """Parse an expression that must reduce to a Laurent polynomial."""
    value = parse_rational(text)
    if not value.den.is_one():
        raise ParseError(f"{text!r} is not a Laurent polynomial")
    return value.num


def parse_half(text: str) -> HalfLaurent:
    """
    Parse an Alexander-Conway value in s (and/or t, read as s^2).

    >>> parse_half("t - 1 + t^-1") == parse_half("s^2 - 1 + s^-2")
    True
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    parser = _Parser(
        tokens,
        variables={
            "s": HalfLaurent.s,
            "t": lambda: HalfLaurent.s(2),
        },
        const=HalfLaurent.const,
        allow_div=False,
    )
    return parser.parse()
