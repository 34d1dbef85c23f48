"""
Normalized quotients of two-variable Laurent polynomials.

A ``RationalFn`` is a pair num/den of ``Laurent2`` values kept in a
normal form: the denominator is a genuine polynomial (minimal exponent 0
in each variable) with positive lexicographically-leading coefficient,
the pair has integer content 1, and common polynomial factors are
cancelled whenever the operands are small enough for an exact gcd to be
cheap.  Value equality is always decided by cross-multiplication, so
correctness never depends on how much cancellation happened; the normal
form only keeps printed output and intermediate sizes sane.

``RationalFn`` lifts an ``int`` or a ``Laurent2`` operand to a fraction
with denominator 1 and returns ``NotImplemented`` for any other type, as
the mixing rule in ``laurent`` says; ``CycloFraction`` lifts through this
same lift.  Both fraction types share one set of fraction operators,
``_Quotient``, over their own ``_coerce`` and ``_make``; a product by one
is the other operand, after that lift, and never reaches ``_make``.

The gcd itself is one subresultant polynomial remainder sequence whose
coefficients are ``Laurent2`` values: a polynomial is split by powers of
its main variable (t or q, whichever has the smaller span), the
coefficients' contents come from the same gcd in the other variable
(where the coefficients are integers and ``math.gcd`` suffices), and
every division is ``Laurent2.exact_div``, which returns a quotient by one
(a content of 1, say) at once.  Its many products by a unit or a
monomial, such as a leading coefficient of 1, are shifts.
"""
from __future__ import annotations

from math import gcd

from .laurent import Laurent2, _square_and_multiply

__all__ = ["RationalFn", "laurent_gcd"]

# Constructor-time gcd cancellation is skipped when the remainder-sequence
# cost estimate below is too high; cheap normalization (monomials, content,
# sign) still runs, and equality stays cross-multiplication either way.
_CANCEL_TERM_LIMIT = 400
_CANCEL_COST_LIMIT = 30_000


def _cancel_affordable(num: Laurent2, den: Laurent2) -> bool:
    if len(num) + len(den) <= 80:
        return True
    if len(num) + len(den) > _CANCEL_TERM_LIMIT:
        return False
    nt, nq = num.min_exponents()
    xt, xq = num.max_exponents()
    dt, dq = den.min_exponents()
    yt, yq = den.max_exponents()
    span_t = max(xt - nt, yt - dt)
    span_q = max(xq - nq, yq - dq)
    main, other = sorted((span_t, span_q))
    # PRS length scales with the main-variable span, coefficient work with
    # the other span; this product tracks observed runtimes well enough.
    return (main + 1) ** 2 * (other + 1) <= _CANCEL_COST_LIMIT


# ---------------------------------------------------------------------------
# the gcd: one subresultant remainder sequence over Laurent2 coefficients
# ---------------------------------------------------------------------------

def _split(p: Laurent2, main: int) -> list[Laurent2]:
    """
    The coefficients of p as a polynomial in variable ``main`` (0 for t,
    1 for q), lowest power first, after shifting p's lowest power of
    ``main`` to 0; each coefficient is free of ``main``.
    """
    low = p.min_exponents()[main]
    rows: list[dict[tuple[int, int], int]] = [
        {} for _ in range(p.max_exponents()[main] - low + 1)
    ]
    for e, c in p.terms():
        rows[e[main] - low][(0, e[1]) if main == 0 else (e[0], 0)] = c
    return [Laurent2(row) for row in rows]


def _join(coeffs: list[Laurent2], main: int) -> Laurent2:
    """The sum of coeffs[i] * main^i, the inverse of ``_split``."""
    terms: dict[tuple[int, int], int] = {}
    for i, c in enumerate(coeffs):
        for (et, eq), v in c.terms():
            terms[(i, eq) if main == 0 else (et, i)] = v
    return Laurent2(terms)


def _content(values: list[Laurent2], var: int) -> Laurent2:
    """
    A gcd, up to units, of values that involve no variable but ``var``.
    Constants need only the integer gcd.
    """
    values = [v for v in values if not v.is_zero()]
    if all(len(v) == 1 and v.coefficient(0, 0) for v in values):
        return Laurent2.const(gcd(*(v.coefficient(0, 0) for v in values)))
    g = values[0]
    for v in values[1:]:
        g = _gcd(g, v, var)
        if g.is_monomial() and g.content() == 1:
            break
    return g


def _prem(a: list[Laurent2], b: list[Laurent2]) -> list[Laurent2]:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b."""
    db = len(b) - 1
    lc = b[-1]
    r = a[:]
    e = len(a) - db
    while len(r) > db:
        top = r.pop()
        shift = len(r) - db
        r = [c * lc for c in r]
        for j in range(db):
            if not b[j].is_zero():
                r[shift + j] = r[shift + j] - top * b[j]
        while r and r[-1].is_zero():
            r.pop()
        e -= 1
    if e > 0:
        lc = lc**e
        r = [c * lc for c in r]
    return r


def _gcd(a: Laurent2, b: Laurent2, main: int) -> Laurent2:
    """
    A gcd of two nonzero Laurent polynomials, up to units, by the
    subresultant remainder sequence in the variable ``main``; the
    coefficients' contents come from the same gcd in the other variable.
    """
    other = 1 - main
    f, g = _split(a, main), _split(b, main)
    cf, cg = _content(f, other), _content(g, other)
    d = _content([cf, cg], other)
    f, g = [c.exact_div(cf) for c in f], [c.exact_div(cg) for c in g]
    if len(f) < len(g):
        f, g = g, f
    lead = h = Laurent2.one()
    while len(g) > 1:
        delta = len(f) - len(g)
        r = _prem(f, g)
        if not r:
            break
        if len(r) == 1:
            g = [Laurent2.one()]
            break
        div = lead * h**delta
        f, g = g, [c.exact_div(div) for c in r]
        lead = f[-1]
        if delta == 1:
            h = lead
        elif delta > 1:
            h = (lead**delta).exact_div(h ** (delta - 1))
    content = _content(g, other)
    return _join([c.exact_div(content) * d for c in g], main)


def laurent_gcd(a: Laurent2, b: Laurent2) -> Laurent2:
    """
    A gcd of two Laurent polynomials, up to monomials.

    The result has minimal exponent 0 in each variable, integer content
    equal to the content gcd, and positive leading coefficient.
    Monomial factors are units of the Laurent ring, so they never count
    as common content.

    >>> t, q = Laurent2.t, Laurent2.q
    >>> print(laurent_gcd((q() - t()) * (q() + 1), (q() - t()) * (q() + 2)))
    t - q
    """
    if a.is_zero() and b.is_zero():
        return Laurent2.zero()
    if a.is_zero() or b.is_zero():
        g = b if a.is_zero() else a
    elif a.is_monomial() or b.is_monomial():
        return Laurent2.const(gcd(a.content(), b.content()))
    else:
        # Main variable: the one with the smaller combined degree span, so
        # the remainder sequence is short.
        at, aq = a.max_exponents()
        amt, amq = a.min_exponents()
        bt, bq = b.max_exponents()
        bmt, bmq = b.min_exponents()
        span_t = max(at - amt, bt - bmt)
        span_q = max(aq - amq, bq - bmq)
        g = _gcd(a, b, 0 if span_t <= span_q else 1)
    mt, mq = g.min_exponents()
    g = g.shifted(-mt, -mq)
    (_, lc) = g.leading_term()
    return -g if lc < 0 else g


# ---------------------------------------------------------------------------
# the fraction types
# ---------------------------------------------------------------------------

class _Quotient:
    """
    The ring-free part of an immutable quotient ``num/den`` of ``Laurent2``
    values, ``+``, ``-`` and ``*`` included.  A subclass supplies ``_coerce``
    (the other operand in its own type, or NotImplemented), ``_make(num,
    den)`` (its own normalized value of num/den) and ``__neg__``.  The
    benchmark's tracer wraps none of these operators, so they are
    inherited, not bound again in each subclass.
    """

    __slots__ = ("num", "den")

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def is_zero(self) -> bool:
        return not self.num._terms

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den._terms == other.den._terms:
            return self._make(self.num + other.num, self.den)
        return self._make(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # A product by one is the other operand: no constructor, and no gcd.
        if self.num._terms == self.den._terms:
            return other
        if other.num._terms == other.den._terms:
            return self
        return self._make(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def render(self) -> str:
        if self.den.is_one():
            return self.num.render()
        return f"({self.num.render()})/({self.den.render()})"

    def __str__(self) -> str:
        return self.render()


class RationalFn(_Quotient):
    """
    A normalized quotient of two ``Laurent2`` values.

    >>> t = Laurent2.t
    >>> f = RationalFn(t(2) - t(-2), t(1) - t(-1))
    >>> print(f)
    t + t^-1
    >>> f == RationalFn(t(1) + t(-1))
    True
    """

    __slots__ = ()

    def __init__(
        self,
        num: Laurent2 | int,
        den: Laurent2 | int = 1,
        *,
        cancel: bool = True,
    ):
        num = num if isinstance(num, Laurent2) else Laurent2.const(num)
        den = den if isinstance(den, Laurent2) else Laurent2.const(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            object.__setattr__(self, "num", Laurent2.zero())
            object.__setattr__(self, "den", Laurent2.one())
            return
        if num == den:
            object.__setattr__(self, "num", Laurent2.one())
            object.__setattr__(self, "den", Laurent2.one())
            return
        if num == -den:
            object.__setattr__(self, "num", Laurent2.const(-1))
            object.__setattr__(self, "den", Laurent2.one())
            return
        if cancel and not den.is_monomial() and not num.is_monomial():
            if _cancel_affordable(num, den):
                g = laurent_gcd(num, den)
                if not g.is_monomial() or g.content() > 1:
                    num = num.exact_div(g)
                    den = den.exact_div(g)
        # Monomial part: pull the denominator's monomial content into num.
        mt, mq = den.min_exponents()
        if (mt, mq) != (0, 0):
            num = num.shifted(-mt, -mq)
            den = den.shifted(-mt, -mq)
        c = gcd(num.content(), den.content())
        if c > 1:
            num = Laurent2({e: v // c for e, v in num.terms()})
            den = Laurent2({e: v // c for e, v in den.terms()})
        (_, lc) = den.leading_term()
        if lc < 0:
            num = -num
            den = -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def _coerce(x):
        """x as a RationalFn, or NotImplemented when x is not an int or a Laurent2."""
        if isinstance(x, RationalFn):
            return x
        if isinstance(x, Laurent2):
            return _polynomial(x)
        if isinstance(x, int):
            return _polynomial(Laurent2.const(x))
        return NotImplemented

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls) -> RationalFn:
        return cls(0)

    @classmethod
    def one(cls) -> RationalFn:
        return cls(1)

    # -- predicates ----------------------------------------------------

    def is_one(self) -> bool:
        return self.num == self.den

    # -- arithmetic ------------------------------------------------------

    @staticmethod
    def _make(num: Laurent2, den: Laurent2) -> RationalFn:
        return _polynomial(num) if den._terms == _UNIT_TERMS else RationalFn(num, den)

    def __neg__(self) -> RationalFn:
        f = RationalFn.__new__(RationalFn)
        object.__setattr__(f, "num", -self.num)
        object.__setattr__(f, "den", self.den)
        return f

    def __truediv__(self, other) -> RationalFn:
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else self * other.reciprocal()

    def __rtruediv__(self, other) -> RationalFn:
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else other * self.reciprocal()

    def __pow__(self, n: int) -> RationalFn:
        return _square_and_multiply(self, n, RationalFn.one, RationalFn.reciprocal)

    def reciprocal(self) -> RationalFn:
        if self.is_zero():
            raise ZeroDivisionError("reciprocal of zero")
        return RationalFn(self.den, self.num)

    # -- substitutions ---------------------------------------------------

    def invert_q(self) -> RationalFn:
        """Substitute q -> q^-1 in numerator and denominator."""
        return RationalFn(self.num.invert_q(), self.den.invert_q(), cancel=False)

    def evaluate(self, t: Fraction | int, q: Fraction | int) -> Fraction:
        d = self.den.evaluate(t, q)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at (t, q)=({t}, {q})")
        return self.num.evaluate(t, q) / d

    # -- text --------------------------------------------------------------

    def __repr__(self) -> str:
        return f"RationalFn({self.render()!r})"

    # -- comparison --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.num == other.num and self.den == other.den:
            return True
        # Values may carry different (uncancelled) representations.
        return self.num * other.den == other.num * self.den

    # Equal values can be stored with different amounts of cancellation, so
    # there is no cheap value-respecting hash.
    __hash__ = None


_UNIT_TERMS = {(0, 0): 1}
_DEN_ONE = Laurent2.one()


def _polynomial(num: Laurent2) -> RationalFn:
    """
    num / 1 without the constructor: a denominator of 1 leaves nothing to
    cancel or shift, the pair's content is 1 and its sign is positive, so
    these are the fields ``RationalFn(num)`` would store.
    """
    f = RationalFn.__new__(RationalFn)
    object.__setattr__(f, "num", num)
    object.__setattr__(f, "den", _DEN_ONE)
    return f
