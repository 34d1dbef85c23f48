"""Differential check of the gcd kernel against sympy, when available.

sympy is not a dependency of the package; these tests simply skip when it
is absent.  Two gcds over Z[t, q] agree exactly when each divides the
other, which keeps the comparison exact and fast.
"""
import random

import pytest

sympy = pytest.importorskip("sympy")

from linksgould.laurent import Laurent2
from linksgould.rational import laurent_gcd

T, Q = sympy.symbols("T Q")


def to_sympy_poly(p: Laurent2):
    mt, mq = p.min_exponents()
    expr = 0
    for (a, b), c in p.terms():
        expr += c * T ** (a - mt) * Q ** (b - mq)
    return sympy.Poly(expr, T, Q)


def from_sympy_poly(poly) -> Laurent2:
    terms = {}
    for (a, b), c in poly.terms():
        terms[(int(a), int(b))] = int(c)
    return Laurent2(terms)


def test_gcd_matches_sympy_up_to_units():
    rng = random.Random(424242)

    def rnd(terms, span, coeff):
        return Laurent2(
            {
                (rng.randint(-span, span), rng.randint(-span, span)): rng.randint(
                    -coeff, coeff
                )
                for _ in range(terms)
            }
        )

    checked = 0
    while checked < 60:
        a = rnd(rng.randint(1, 4), 3, 6)
        b = rnd(rng.randint(1, 4), 3, 6)
        c = rnd(rng.randint(1, 3), 2, 4)
        if a.is_zero() or b.is_zero() or c.is_zero():
            continue
        f, g = a * c, b * c
        mine = laurent_gcd(f, g)
        theirs = from_sympy_poly(sympy.gcd(to_sympy_poly(f), to_sympy_poly(g)))
        # associates in the Laurent ring: each divides the other, and
        # exact_div raises ValueError unless the division is exact
        theirs.exact_div(mine)
        mine.exact_div(theirs)
        # and the gcd really divides both inputs
        f.exact_div(mine)
        g.exact_div(mine)
        checked += 1
