"""
Exact Laurent polynomials over the integers.

Two value types live here, both thin subclasses of one sparse core that
maps exponent pairs to nonzero integer coefficients and does the arithmetic:

- ``Laurent2``: a Laurent polynomial in the two commuting variables ``t``
  and ``q`` (both invertible), keyed by exponent pairs.  This is the
  ambient ring for the whole spectral calculus.
- ``HalfLaurent``: a Laurent polynomial in a single variable ``s`` with
  the convention ``s^2 = t``, storing ``s^e`` under ``(e, 0)``; it carries
  Alexander-Conway values, where half-integer powers of ``t`` are
  unavoidable for links.

All values are immutable and hashable; arithmetic always returns
canonical forms (no explicit zero coefficients are ever stored), so two
values are equal exactly when their term maps are equal.

The exact scalar types mix by one rule.  Each binary operation lifts the
other operand into its own type when it can, and otherwise returns
``NotImplemented``, so Python calls the wider type's reflected method.
For q-free values the types nest as ``int`` in ``Laurent2`` in
``RationalFn`` in ``CycloFraction``; ``HalfLaurent`` lifts only ``int``.
An operand that no type can lift gets Python's own ``TypeError``.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping

__all__ = ["Laurent2", "HalfLaurent"]


def _join_terms(parts: list[tuple[int, str]]) -> str:
    """Join (coefficient, monomial-text) pairs into a signed sum."""
    if not parts:
        return "0"
    out: list[str] = []
    for coeff, mono in parts:
        mag = abs(coeff)
        body = mono if (mag == 1 and mono) else (f"{mag}{mono}" if mono else str(mag))
        if not out:
            out.append(f"-{body}" if coeff < 0 else body)
        else:
            out.append(f" - {body}" if coeff < 0 else f" + {body}")
    return "".join(out)


def _square_and_multiply(x, n: int, one, invert):
    """x ** n by square and multiply; a negative n powers invert(x)."""
    if n < 0:
        x, n = invert(x), -n
    result = None
    while n:
        if n & 1:
            result = x if result is None else result * x
        n >>= 1
        if n:
            x = x * x
    return one() if result is None else result


def _var_power(name: str, e: int) -> str:
    if e == 0:
        return ""
    if e == 1:
        return name
    return f"{name}^{e}"


_ORIGIN = (0, 0)  # the stored key of the constant term


def _pair(et, eq) -> tuple[int, int]:
    """The stored key of t^et q^eq; TypeError for a non-int exponent."""
    if isinstance(et, int) and isinstance(eq, int):
        return (et, eq)
    bad = eq if isinstance(et, int) else et
    raise TypeError(f"exponent {bad!r} is not an integer")


class _SparseLaurent:
    """
    A sparse integer Laurent polynomial keyed by exponent pairs, with the
    one product loop, ``_mul``.  A subclass supplies its key normalizer
    ``_key`` (a constructor key to a pair, through ``_pair``), its
    constant term's constructor key ``_UNIT``, and ``render``.  It binds
    ``__mul__ = __rmul__ = _SparseLaurent._mul`` in its own body because
    the benchmark's tracer looks each type's product up in its ``__dict__``.
    """

    __slots__ = ("_terms",)

    _UNIT: object

    def __init__(self, terms: Mapping | None = None):
        clean = {}
        if terms:
            key = self._key
            for e, c in terms.items():
                if not isinstance(c, int):
                    raise TypeError(f"coefficient {c!r} is not an integer")
                if c != 0:
                    clean[key(e)] = c
        self._terms = clean

    @classmethod
    def _raw(cls, terms: dict):
        """Wrap an already-clean term map without copying."""
        p = cls.__new__(cls)
        p._terms = terms
        return p

    def _coerce(self, x):
        """x in this ring, or NotImplemented when x is neither self's type nor an int."""
        if isinstance(x, type(self)):
            return x
        if isinstance(x, int):
            return self.const(x)
        return NotImplemented

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({cls._UNIT: 1})

    @classmethod
    def const(cls, n: int):
        return cls({cls._UNIT: n})

    # -- inspection --------------------------------------------------------

    def terms(self) -> Iterable:
        return self._terms.items()

    def __len__(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {_ORIGIN: 1}

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def content(self) -> int:
        """gcd of the absolute coefficients (0 for the zero polynomial)."""
        return gcd(*self._terms.values())

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return self._raw(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else other - self

    def __neg__(self):
        return self._raw({e: -c for e, c in self._terms.items()})

    def _mul(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                e = (a1 + a2, b1 + b2)
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return self._raw(out)

    def __pow__(self, n: int):
        return _square_and_multiply(self, n, self.one, _SparseLaurent.monomial_inverse)

    def monomial_inverse(self):
        """Inverse of a unit monomial (coefficient must be +-1)."""
        if len(self._terms) != 1:
            raise ValueError(f"{self} is not a monomial")
        ((et, eq), c), = self._terms.items()
        if c not in (1, -1):
            raise ValueError(f"{self} is not a unit monomial")
        return self._raw({(-et, -eq): c})

    # -- text and comparisons ----------------------------------------------

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.render()!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = self.const(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # A constant equals its int, so it hashes as that int (zero as 0).
        terms = self._terms
        if not terms:
            return 0
        if len(terms) == 1 and _ORIGIN in terms:
            return hash(terms[_ORIGIN])
        return hash(frozenset(terms.items()))


class Laurent2(_SparseLaurent):
    """
    An integer Laurent polynomial in ``t`` and ``q``.

    >>> x = Laurent2.t() - Laurent2.t(-1)
    >>> y = Laurent2.t() + Laurent2.t(-1)
    >>> print(x * y)
    t^2 - t^-2
    >>> (x + y) - (x + y)
    Laurent2('0')
    """

    __slots__ = ()

    _UNIT = (0, 0)
    _key = staticmethod(lambda e: _pair(*e))

    # -- constructors ------------------------------------------------------

    @classmethod
    def term(cls, coeff: int, et: int = 0, eq: int = 0) -> Laurent2:
        return cls({(et, eq): coeff})

    @classmethod
    def t(cls, e: int = 1) -> Laurent2:
        """The monomial t^e."""
        return cls({(e, 0): 1})

    @classmethod
    def q(cls, e: int = 1) -> Laurent2:
        """The monomial q^e."""
        return cls({(0, e): 1})

    # -- inspection --------------------------------------------------------

    def is_q_free(self) -> bool:
        return all(eq == 0 for (_, eq) in self._terms)

    def coefficient(self, et: int, eq: int) -> int:
        return self._terms.get((et, eq), 0)

    def min_exponents(self) -> tuple[int, int]:
        """Componentwise minimum of the exponent pairs (zero reports (0, 0))."""
        if not self._terms:
            return (0, 0)
        return (
            min(et for (et, _) in self._terms),
            min(eq for (_, eq) in self._terms),
        )

    def max_exponents(self) -> tuple[int, int]:
        if not self._terms:
            return (0, 0)
        return (
            max(et for (et, _) in self._terms),
            max(eq for (_, eq) in self._terms),
        )

    def leading_term(self) -> tuple[tuple[int, int], int]:
        """Term with the lexicographically largest (t, q) exponent pair."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self._terms)
        return e, self._terms[e]

    # -- arithmetic --------------------------------------------------------

    __mul__ = __rmul__ = _SparseLaurent._mul

    def shifted(self, dt: int, dq: int, factor: int = 1) -> Laurent2:
        """
        Multiply by the monomial factor * t^dt q^dq, which costs one pass
        over the terms and no product of polynomials.

        >>> print((Laurent2.t() - 1).shifted(-1, 2, -3))
        -3q^2 + 3t^-1q^2
        """
        if factor == 1:
            return self._raw({(et + dt, eq + dq): c for (et, eq), c in self._terms.items()})
        if not factor:
            return self.zero()
        return self._raw(
            {(et + dt, eq + dq): c * factor for (et, eq), c in self._terms.items()}
        )

    def exact_div(self, other: Laurent2) -> Laurent2:
        """
        Exact division; raises ValueError when ``other`` does not divide.

        Monomial factors are units here, so both operands are first
        shifted into the polynomial quadrant; there the quotient of an
        exact division is again a polynomial, which makes a quotient term
        with a negative exponent (or an inexact coefficient division) a
        proof of non-divisibility.

        >>> num = Laurent2.t(2) - Laurent2.t(-2)
        >>> den = Laurent2.t() - Laurent2.t(-1)
        >>> print(num.exact_div(den))
        t + t^-1
        """
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return self.zero()
        smt, smq = self.min_exponents()
        omt, omq = other.min_exponents()
        g = other.shifted(-omt, -omq)
        (le, lc) = g.leading_term()
        rem = dict(self.shifted(-smt, -smq)._terms)
        quo: dict[tuple[int, int], int] = {}
        while rem:
            e = max(rem)
            c = rem[e]
            fac_e = (e[0] - le[0], e[1] - le[1])
            if fac_e[0] < 0 or fac_e[1] < 0 or c % lc != 0:
                raise ValueError(f"{other} does not divide {self}")
            fac_c = c // lc
            quo[fac_e] = fac_c
            for (a, b), d in g._terms.items():
                ee = (a + fac_e[0], b + fac_e[1])
                s = rem.get(ee, 0) - fac_c * d
                if s:
                    rem[ee] = s
                else:
                    rem.pop(ee, None)
        return self._raw(quo).shifted(smt - omt, smq - omq)

    # -- substitutions -----------------------------------------------------

    def invert_q(self) -> Laurent2:
        """Substitute q -> q^-1 (a self-inverse ring automorphism)."""
        return self._raw({(et, -eq): c for (et, eq), c in self._terms.items()})

    def evaluate(self, t: Fraction | int, q: Fraction | int) -> Fraction:
        """Evaluate at exact rational (nonzero) values of t and q."""
        t = Fraction(t)
        q = Fraction(q)
        total = Fraction(0)
        for (et, eq), c in self._terms.items():
            total += c * t**et * q**eq
        return total

    def render(self) -> str:
        parts = []
        for (et, eq), c in sorted(self._terms.items(), reverse=True):
            parts.append((c, _var_power("t", et) + _var_power("q", eq)))
        return _join_terms(parts)


class HalfLaurent(_SparseLaurent):
    """
    An integer Laurent polynomial in ``s``, where ``s^2 = t``.

    Alexander-Conway values of knots use only even powers of ``s`` and can
    be rendered in ``t``; links genuinely need the odd powers.

    >>> d = HalfLaurent.s() - HalfLaurent.s(-1)
    >>> print(d)
    s - s^-1
    >>> print((d * d + 2).render("t"))
    t + t^-1
    """

    __slots__ = ()

    _UNIT = 0
    _key = staticmethod(lambda e: _pair(e, 0))

    @classmethod
    def s(cls, e: int = 1) -> HalfLaurent:
        return cls({e: 1})

    def all_even_powers(self) -> bool:
        return all(e % 2 == 0 for (e, _) in self._terms)

    __mul__ = __rmul__ = _SparseLaurent._mul

    def mirror(self) -> HalfLaurent:
        """Substitute s -> s^-1."""
        return self._raw({(-e, 0): c for (e, _), c in self._terms.items()})

    def evaluate(self, s: Fraction | int) -> Fraction:
        s = Fraction(s)
        return sum((c * s**e for (e, _), c in self._terms.items()), Fraction(0))

    def evaluate_at_one(self) -> int:
        return sum(self._terms.values())

    def substitute_power(self, m: int) -> Laurent2:
        """Substitute s -> t^m, giving a q-free two-variable value."""
        if m < 1:
            raise ValueError("m must be a positive integer")
        return Laurent2({(m * e, 0): c for (e, _), c in self._terms.items()})

    def render(self, var: str = "s") -> str:
        if var not in ("s", "t"):
            raise ValueError("var must be 's' or 't'")
        if var == "t" and not self.all_even_powers():
            raise ValueError(
                "value has odd powers of s = t^(1/2); render with var='s'"
            )
        parts = []
        for (e, _), c in sorted(self._terms.items(), reverse=True):
            parts.append((c, _var_power(var, e // 2 if var == "t" else e)))
        return _join_terms(parts)
