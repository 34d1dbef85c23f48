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

The gcd itself is a subresultant polynomial-remainder-sequence
computation, run on Z[q][t] (or Z[t][q], whichever main variable has the
smaller degree) with the classic content/primitive-part bookkeeping.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from .laurent import Laurent2

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
# univariate integer polynomials, dense ascending coefficient lists
# ---------------------------------------------------------------------------

def _trim(f: list[int]) -> list[int]:
    n = len(f)
    while n and f[n - 1] == 0:
        n -= 1
    return f[:n]


def _z_add(f: list[int], g: list[int]) -> list[int]:
    if len(f) < len(g):
        f, g = g, f
    out = f[:]
    for i, c in enumerate(g):
        out[i] += c
    return _trim(out)


def _z_neg(f: list[int]) -> list[int]:
    return [-c for c in f]


def _z_mul(f: list[int], g: list[int]) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] += a * b
    return _trim(out)


def _z_scale(f: list[int], c: int) -> list[int]:
    return [] if c == 0 else _trim([a * c for a in f])


def _z_exact_div_scalar(f: list[int], c: int) -> list[int]:
    out = []
    for a in f:
        if a % c:
            raise ArithmeticError("inexact scalar division in Z[x]")
        out.append(a // c)
    return out


def _z_exact_div(f: list[int], g: list[int]) -> list[int]:
    """Exact division in Z[x]; raises ArithmeticError if inexact."""
    f = _trim(f)
    g = _trim(g)
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    if not f:
        return []
    if len(f) < len(g):
        raise ArithmeticError("inexact division in Z[x]")
    rem = f[:]
    quo = [0] * (len(f) - len(g) + 1)
    lc = g[-1]
    for i in range(len(quo) - 1, -1, -1):
        c = rem[len(g) - 1 + i]
        if c % lc:
            raise ArithmeticError("inexact division in Z[x]")
        t = c // lc
        quo[i] = t
        if t:
            for j, b in enumerate(g):
                rem[i + j] -= t * b
    if any(rem):
        raise ArithmeticError("inexact division in Z[x]")
    return _trim(quo)


def _z_prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b."""
    da, db = len(a) - 1, len(b) - 1
    lc = b[-1]
    r = a[:]
    e = da - db + 1
    while True:
        r = _trim(r)
        dr = len(r) - 1
        if dr < db or not r:
            break
        coef = r[-1]
        r = [c * lc for c in r]
        for j, bb in enumerate(b):
            r[dr - db + j] -= coef * bb
        e -= 1
    if e > 0:
        r = _z_scale(r, lc**e)
    return _trim(r)


def _z_gcd(f: list[int], g: list[int]) -> list[int]:
    """gcd in Z[x]: primitive, positive leading coefficient, times content gcd."""
    f, g = _trim(f), _trim(g)
    if not f:
        f, g = g, f
    if not g:
        if not f:
            return []
        c = 1 if f[-1] > 0 else -1
        return _z_scale(f, c)
    cf, cg = gcd(*f), gcd(*g)
    d = gcd(cf, cg)
    a = _z_exact_div_scalar(f, cf)
    b = _z_exact_div_scalar(g, cg)
    if len(a) < len(b):
        a, b = b, a
    gg, h = 1, 1
    while True:
        delta = len(a) - len(b)
        r = _z_prem(a, b)
        if not r:
            break
        if len(b) == 1:
            b = [1]
            break
        a, b = b, _z_exact_div_scalar(r, gg * h**delta)
        gg = a[-1]
        if delta == 1:
            h = gg
        elif delta > 1:
            h = gg**delta // h ** (delta - 1)
    b = _z_exact_div_scalar(b, gcd(*b))
    if b[-1] < 0:
        b = _z_neg(b)
    return _z_scale(b, d)


# ---------------------------------------------------------------------------
# bivariate polynomials: dense in the main variable, Z[x] coefficients
# ---------------------------------------------------------------------------

def _b_trim(f: list[list[int]]) -> list[list[int]]:
    n = len(f)
    while n and not f[n - 1]:
        n -= 1
    return f[:n]


def _b_content(f: list[list[int]]) -> list[int]:
    g: list[int] = []
    for c in f:
        g = _z_gcd(g, c)
        if g == [1]:
            break
    return g


def _b_div_coeffs(f: list[list[int]], d: list[int]) -> list[list[int]]:
    return [_z_exact_div(c, d) if c else [] for c in f]


def _b_prem(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    da, db = len(a) - 1, len(b) - 1
    lc = b[-1]
    r = [c[:] for c in a]
    e = da - db + 1
    while True:
        r = _b_trim(r)
        dr = len(r) - 1
        if not r or dr < db:
            break
        coef = r[-1]
        r = [_z_mul(c, lc) for c in r]
        for j, bb in enumerate(b):
            r[dr - db + j] = _z_add(r[dr - db + j], _z_neg(_z_mul(coef, bb)))
        e -= 1
    if e > 0:
        lce = lc
        for _ in range(e - 1):
            lce = _z_mul(lce, lc)
        r = [_z_mul(c, lce) for c in r]
    return _b_trim(r)


def _b_gcd(f: list[list[int]], g: list[list[int]]) -> list[list[int]]:
    """Subresultant gcd in (Z[x])[y]; result primitive over Z[x]."""
    f, g = _b_trim(f), _b_trim(g)
    if not f:
        f, g = g, f
    if not g:
        return f
    cf, cg = _b_content(f), _b_content(g)
    d = _z_gcd(cf, cg)
    a = _b_div_coeffs(f, cf)
    b = _b_div_coeffs(g, cg)
    if len(a) < len(b):
        a, b = b, a
    gg, h = [1], [1]
    while True:
        delta = len(a) - len(b)
        r = _b_prem(a, b)
        if not r:
            break
        if len(b) == 1:
            b = [[1]]
            break
        div = gg
        for _ in range(delta):
            div = _z_mul(div, h)
        a, b = b, [_z_exact_div(c, div) if c else [] for c in r]
        gg = a[-1]
        if delta == 1:
            h = gg
        elif delta > 1:
            num = gg
            for _ in range(delta - 1):
                num = _z_mul(num, gg)
            den = h
            for _ in range(delta - 2):
                den = _z_mul(den, h)
            h = _z_exact_div(num, den)
    cb = _b_content(b)
    b = _b_div_coeffs(b, cb)
    return _b_trim([_z_mul(c, d) if c else [] for c in b])


# ---------------------------------------------------------------------------
# Laurent2 <-> dense conversion and the public gcd
# ---------------------------------------------------------------------------

def _to_dense(p: Laurent2, main_is_t: bool) -> list[list[int]]:
    mt, mq = p.min_exponents()
    xt, xq = p.max_exponents()
    if main_is_t:
        rows, cols, mr, mc = xt - mt, xq - mq, mt, mq
    else:
        rows, cols, mr, mc = xq - mq, xt - mt, mq, mt
    out: list[list[int]] = [[0] * (cols + 1) for _ in range(rows + 1)]
    for (et, eq), c in p.terms():
        if main_is_t:
            out[et - mr][eq - mc] = c
        else:
            out[eq - mr][et - mc] = c
    return _b_trim([_trim(row) for row in out])


def _from_dense(f: list[list[int]], main_is_t: bool) -> Laurent2:
    terms: dict[tuple[int, int], int] = {}
    for i, row in enumerate(f):
        for j, c in enumerate(row):
            if c:
                terms[(i, j) if main_is_t else (j, i)] = c
    return Laurent2(terms)


def laurent_gcd(a: Laurent2, b: Laurent2) -> Laurent2:
    """
    A gcd of two Laurent polynomials, up to monomials.

    The result has minimal exponent 0 in each variable, integer content
    equal to the content gcd, and positive leading coefficient.
    Monomial factors are units of the Laurent ring, so they never count
    as common content.
    """
    if a.is_zero() and b.is_zero():
        return Laurent2.zero()
    if a.is_zero() or b.is_zero():
        p = b if a.is_zero() else a
        mt, mq = p.min_exponents()
        p = p.shifted(-mt, -mq)
        (_, lc) = p.leading_term()
        return -p if lc < 0 else p
    if a.is_monomial() or b.is_monomial():
        return Laurent2.const(gcd(a.content(), b.content()))
    # Main variable: the one with the smaller combined degree span, so the
    # remainder sequence is short.
    at, aq = a.max_exponents()
    amt, amq = a.min_exponents()
    bt, bq = b.max_exponents()
    bmt, bmq = b.min_exponents()
    span_t = max(at - amt, bt - bmt)
    span_q = max(aq - amq, bq - bmq)
    main_is_t = span_t <= span_q
    g = _b_gcd(_to_dense(a, main_is_t), _to_dense(b, main_is_t))
    return _from_dense(g, main_is_t)


# ---------------------------------------------------------------------------
# the fraction type
# ---------------------------------------------------------------------------

class RationalFn:
    """
    A normalized quotient of two ``Laurent2`` values.

    >>> t = Laurent2.t
    >>> f = RationalFn(t(2) - t(-2), t(1) - t(-1))
    >>> print(f)
    t + t^-1
    >>> f == RationalFn(t(1) + t(-1))
    True
    """

    __slots__ = ("num", "den")

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

    def __setattr__(self, *_):
        raise AttributeError("RationalFn is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls) -> RationalFn:
        return cls(0)

    @classmethod
    def one(cls) -> RationalFn:
        return cls(1)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num == self.den

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other) -> RationalFn:
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return RationalFn(self.num + other.num, self.den)
        return RationalFn(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other) -> RationalFn:
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> RationalFn:
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> RationalFn:
        f = RationalFn.__new__(RationalFn)
        object.__setattr__(f, "num", -self.num)
        object.__setattr__(f, "den", self.den)
        return f

    def __mul__(self, other) -> RationalFn:
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> RationalFn:
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other) -> RationalFn:
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.reciprocal()

    def __pow__(self, n: int) -> RationalFn:
        if n < 0:
            return self.reciprocal() ** (-n)
        out = RationalFn.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

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

    def render(self) -> str:
        if self.den.is_one():
            return self.num.render()
        return f"({self.num.render()})/({self.den.render()})"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"RationalFn({self.render()!r})"

    # -- comparison --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        other = _coerce_rat(other)
        if other is NotImplemented:
            return NotImplemented
        if self.num == other.num and self.den == other.den:
            return True
        # Values may carry different (uncancelled) representations.
        return self.num * other.den == other.num * self.den

    # Equal values can be stored with different amounts of cancellation, so
    # there is no cheap value-respecting hash.
    __hash__ = None


def _coerce_rat(x):
    if isinstance(x, RationalFn):
        return x
    if isinstance(x, (Laurent2, int)):
        return RationalFn(x)
    return NotImplemented
