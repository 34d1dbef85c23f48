"""
Exact evaluation at roots of unity via cyclotomic quotient rings.

Substituting q = exp(i*pi*r/m) is done with no floating point at all:
the target is a primitive d-th root of unity with d = 2m/gcd(r, 2m), so
the substitution is the ring map into Z[t, t^-1][q] / Phi_d(q) that sends
q to the appropriate power of the residue class of q.  Phi_d is
irreducible over the rationals, so the quotient is an integral domain and
fractions over it can be compared by cross-multiplication.

The values at the primitive d-th roots of unity are Galois conjugates of
each other: the ring automorphism q -> q^e of the quotient, for e coprime
to d, carries the value at one root to the value at its e-th power.  So
a value is reduced modulo Phi_d once and every other root of that order
is reached by ``CycloFraction.conjugate``.  One routine, ``_reduce_laurent``,
owns the map q -> zeta^e for the constructor (e = 1), for ``conjugate``
and for equality: it folds each q^j to q^(j*e mod d), since q^d = 1 in the
quotient, and divides by the monic Phi_d, with no table of powers of q.

``CycloFraction`` lifts an operand through ``RationalFn``'s lift and
returns ``NotImplemented`` for any type that lift refuses, as the mixing
rule in ``laurent`` says.  Only a q-free value embeds in the quotient; a
q-dependent one must come through ``reduce_at_root``.
"""
from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import PoleAtRootError
from .laurent import Laurent2
from .rational import RationalFn, _Quotient

__all__ = ["cyclotomic_poly", "CycloFraction", "reduce_at_root", "root_order"]


@lru_cache(maxsize=None)
def _cyclotomic_coeffs(d: int) -> tuple[int, ...]:
    if d < 1:
        raise ValueError("d must be a positive integer")
    # (q^d - 1) divided by the cyclotomic polynomials of the proper
    # divisors; Laurent2.exact_div is the package's only polynomial
    # exact division, and it serves the gcd as well.
    poly = Laurent2.q(d) - 1
    for e in range(1, d):
        if d % e == 0:
            poly = poly.exact_div(cyclotomic_poly(e))
    return tuple(poly.coefficient(0, j) for j in range(poly.max_exponents()[1] + 1))


def cyclotomic_poly(d: int) -> Laurent2:
    """
    The d-th cyclotomic polynomial, as a polynomial in q.

    >>> print(cyclotomic_poly(1))
    q - 1
    >>> print(cyclotomic_poly(4))
    q^2 + 1
    """
    return Laurent2({(0, e): c for e, c in enumerate(_cyclotomic_coeffs(d)) if c})


def _reduce_laurent(p: Laurent2, d: int, e: int = 1) -> Laurent2:
    """
    The image of p under q -> q^e in Z[t, t^-1][q] / Phi_d: each q^j folds
    to q^(j*e mod d), since q^d == 1 there, and the coefficient of each
    power of t is divided by the monic Phi_d from the top, which leaves
    q-exponents below phi(d).
    """
    phi = _cyclotomic_coeffs(d)
    deg = len(phi) - 1
    rows: dict[int, list[int]] = {}
    for (et, eq), c in p.terms():
        row = rows.get(et)
        if row is None:
            row = rows[et] = [0] * d
        row[eq * e % d] += c
    out: dict[tuple[int, int], int] = {}
    for et, row in rows.items():
        for top in range(d - 1, deg - 1, -1):
            lead = row[top]
            if lead:
                # q^top == q^(top-deg) * (q^deg - Phi_d), since Phi_d is monic.
                low = top - deg
                for j in range(deg):
                    row[low + j] -= lead * phi[j]
        for j in range(deg):
            if row[j]:
                out[et, j] = row[j]
    return Laurent2._raw(out)


def _root_power(m: int, r: int) -> tuple[int, int]:
    """
    (d, e) with exp(i*pi*r/m) = exp(2*pi*i/d)^e: the root's order d and
    its exponent e over the generating root, gcd(e, d) = 1.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    rr = r % (2 * m)
    g = gcd(rr, 2 * m)
    return (2 * m) // g, rr // g


def root_order(m: int, r: int) -> int:
    """Multiplicative order d of exp(i*pi*r/m), i.e. 2m / gcd(r, 2m)."""
    return _root_power(m, r)[0]


class CycloFraction(_Quotient):
    """
    A fraction over Z[t, t^-1][q] / Phi_d(q).

    Numerator and denominator are stored with q-exponents strictly below
    deg Phi_d = phi(d); the denominator must not reduce to zero.  Equality
    is cross-multiplication inside the quotient ring, which is sound
    because Phi_d is irreducible (the quotient is an integral domain).
    """

    __slots__ = ("d",)

    def __init__(self, d: int, num: Laurent2 | int, den: Laurent2 | int = 1):
        if d < 1:
            raise ValueError("d must be a positive integer")
        num = num if isinstance(num, Laurent2) else Laurent2.const(num)
        den = den if isinstance(den, Laurent2) else Laurent2.const(den)
        num = _reduce_laurent(num, d)
        den = _reduce_laurent(den, d)
        if den.is_zero():
            raise PoleAtRootError(
                f"denominator vanishes in the quotient by Phi_{d}(q)"
            )
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> CycloFraction:
        if isinstance(other, CycloFraction):
            if other.d != self.d:
                raise ValueError(
                    f"mixed moduli: Phi_{self.d} versus Phi_{other.d}"
                )
            return other
        other = RationalFn._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not (other.num.is_q_free() and other.den.is_q_free()):
            raise ValueError(
                "only q-free values embed unambiguously; "
                "use reduce_at_root for q-dependent ones"
            )
        return CycloFraction(self.d, other.num, other.den)

    def _make(self, num: Laurent2, den: Laurent2) -> CycloFraction:
        return CycloFraction(self.d, num, den)

    def _reduced(self, num: Laurent2, den: Laurent2) -> CycloFraction:
        """An already reduced num/den modulo Phi_d, with no second reduction."""
        out = CycloFraction.__new__(CycloFraction)
        object.__setattr__(out, "d", self.d)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den)
        return out

    def __neg__(self) -> CycloFraction:
        return self._reduced(-self.num, self.den)

    def conjugate(self, e: int) -> CycloFraction:
        """
        The image under the ring automorphism q -> q^e, gcd(e, d) = 1.

        If this is the value of x at a primitive d-th root zeta, the
        result is the value of x at zeta^e.  ``_reduce_laurent`` is the one
        routine that sends q to q^e in the quotient, here as in the
        constructor (e = 1); an automorphism keeps the denominator nonzero.

        >>> i = CycloFraction(4, Laurent2.q())
        >>> print(i.conjugate(3))
        -q
        """
        d = self.d
        if gcd(e, d) != 1:
            raise ValueError(f"e={e} must be prime to d={d}")
        if e % d == 1 % d:
            return self
        return self._reduced(_reduce_laurent(self.num, d, e), _reduce_laurent(self.den, d, e))

    # -- comparison ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        diff = self.num * other.den - other.num * self.den
        return _reduce_laurent(diff, self.d).is_zero()

    __hash__ = None

    # -- text --------------------------------------------------------------

    def modulus(self) -> Laurent2:
        return cyclotomic_poly(self.d)

    def __repr__(self) -> str:
        return f"CycloFraction(d={self.d}, {self.render()!r})"


def reduce_at_root(x: Laurent2 | RationalFn, m: int, r: int = 1) -> CycloFraction:
    """
    Evaluate x at q = exp(i*pi*r/m), exactly, for any integer r.

    The result lives in the quotient ring modulo Phi_d with
    d = 2m/gcd(r, 2m); the original q maps to the (r/gcd(r,2m))-th power
    of the residue class of q, which is a primitive d-th root of unity.
    The point depends only on r/m, so with g = gcd(r, m) the result equals
    reduce_at_root(x, m // g, r // g).

    Raises PoleAtRootError when a denominator vanishes at the root.
    """
    d, e = _root_power(m, r)
    f = RationalFn._coerce(x)
    if f is NotImplemented:
        raise TypeError(f"cannot reduce {type(x).__name__} at a root of unity")
    return CycloFraction(d, f.num, f.den).conjugate(e)

