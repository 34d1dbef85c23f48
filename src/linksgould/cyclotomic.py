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
is reached by ``CycloFraction.conjugate``.

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


@lru_cache(maxsize=None)
def _qpower_table(d: int) -> tuple[tuple[int, ...], ...]:
    """Residues of q^e mod Phi_d for e in [0, d), as coefficient tuples."""
    phi = _cyclotomic_coeffs(d)
    deg = len(phi) - 1
    rows: list[tuple[int, ...]] = []
    cur = [0] * deg
    if deg > 0:
        cur[0] = 1
    for _ in range(d):
        rows.append(tuple(cur))
        nxt = [0] + cur
        lead = nxt.pop()
        if lead:
            # q^deg == -(Phi_d - q^deg), since Phi_d is monic.
            for j in range(deg):
                nxt[j] -= lead * phi[j]
        cur = nxt
    return tuple(rows)


def _reduce_laurent(p: Laurent2, d: int) -> Laurent2:
    """Reduce all q-exponents of p modulo Phi_d (q^d == 1 in the quotient)."""
    table = _qpower_table(d)
    out: dict[tuple[int, int], int] = {}
    for (et, eq), c in p.terms():
        for j, a in enumerate(table[eq % d]):
            if a:
                e = (et, j)
                s = out.get(e, 0) + c * a
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
    return Laurent2(out)


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

    def __neg__(self) -> CycloFraction:
        out = CycloFraction.__new__(CycloFraction)
        object.__setattr__(out, "d", self.d)
        object.__setattr__(out, "num", -self.num)
        object.__setattr__(out, "den", self.den)
        return out

    def conjugate(self, e: int) -> CycloFraction:
        """
        The image under the ring automorphism q -> q^e, gcd(e, d) = 1.

        If this is the value of x at a primitive d-th root zeta, the
        result is the value of x at zeta^e.  The stored q-exponents j lie
        below phi(d) <= d, so the exponents j*e mod d stay distinct and
        only the reduction modulo Phi_d is left to do.

        >>> i = CycloFraction(4, Laurent2.q())
        >>> print(i.conjugate(3))
        -q
        """
        d = self.d
        if gcd(e, d) != 1:
            raise ValueError(f"e={e} must be prime to d={d}")
        if e % d == 1 % d:
            return self
        return CycloFraction(d, _power_q(self.num, e, d), _power_q(self.den, e, d))

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


def _power_q(p: Laurent2, e: int, d: int) -> Laurent2:
    """Send q^j to q^(j*e mod d); injective on q-exponents below d."""
    return Laurent2._raw({(et, eq * e % d): c for (et, eq), c in p.terms()})
