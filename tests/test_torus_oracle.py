"""
Torus links against a closed form that no engine of this package computes.

The closure of (s_1 ... s_{p-1})^q is the torus link T(p, q), whose
Alexander polynomial, with d = gcd(p, q), is

    Delta(x) = (x^(pq/d) - 1)^d (x - 1) / ((x^p - 1)(x^q - 1)),

of degree (p-1)(q-1), centred and written in x = s^2.  LG^(1,1) is Delta
at s -> t.  ``tensor eval`` must print it up to the tensor engine's letter
bound, for knots (d = 1) and links (d > 1) alike.  The skein engine must
give it where it fits: on every closed 2-braid that a theorem cell reads,
whose Delta is the right side of that cell, on torus links of 3 to 5
strands up to 14 letters, and on T(6,3).  Torus words with q >= 2
cancel nothing, use every generator and hold s_{p-1} q times, so the
reduction leaves them as they are, and these cells check the engine on
long words.

References: Rolfsen, *Knots and Links* (1976); Lickorish, *An Introduction
to Knot Theory* (1997).
"""
from math import gcd

import pytest

from linksgould.braid import BraidWord
from linksgould.cli import MAX_VERIFY_K, main
from linksgould.conway import conway
from linksgould.diagram import braid_closure
from linksgould.laurent import Laurent2
from linksgould.rational import RationalFn
from linksgould.tensor import MAX_TENSOR_LETTERS, MAX_TENSOR_STRANDS
from linksgould.textform import parse_rational
from linksgould.verify import sigma_power

t, one = Laurent2.t, Laurent2.one()


def torus_word(p: int, q: int) -> BraidWord:
    return BraidWord(p, tuple((i, 1) for i in range(1, p)) * q)


def torus_alexander(p: int, q: int) -> Laurent2:
    """The closed form at x = t^2, centred, through the one polynomial division."""
    d = gcd(p, q)
    num = (t(2 * p * q // d) - one) ** d * (t(2) - one)
    den = (t(2 * p) - one) * (t(2 * q) - one)
    return num.exact_div(den).shifted(-(p - 1) * (q - 1), 0)


# Knots and links on 2 to 6 strands, each ending at the letter bound.
CASES = [
    (2, 2), (2, 3), (2, 4), (2, 7), (2, 100),
    (3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (3, 50),
    (4, 2), (4, 3), (4, 4), (4, 6), (4, 33),
    (5, 2), (5, 3), (5, 5), (5, 25),
    (6, 2), (6, 3), (6, 4), (6, 5), (6, 6), (6, 20),
]


def test_cases_reach_the_bounds():
    assert {p for p, _ in CASES} == set(range(2, MAX_TENSOR_STRANDS + 1))
    longest = {p: max((p - 1) * q for pp, q in CASES if pp == p) for p, _ in CASES}
    assert all(MAX_TENSOR_LETTERS - p < n <= MAX_TENSOR_LETTERS for p, n in longest.items())
    assert {gcd(p, q) for p, q in CASES} >= {1, 2, 3, 4, 5, 6}


def test_closed_form_small_values():
    assert torus_alexander(2, 3) == t(2) - one + t(-2)  # trefoil
    assert torus_alexander(2, 2) == t(1) - t(-1)  # Hopf link
    assert torus_alexander(3, 4) == t(6) - t(4) + t(0) - t(-4) + t(-6)  # 8_19


@pytest.mark.parametrize("p, q", CASES)
def test_tensor_eval_matches_torus_closed_form(capsys, p, q):
    word = torus_word(p, q)
    assert word.reduced() == word
    assert main(["tensor", "eval", "--braid", word.render(), "--strands", str(p)]) == 0
    out = capsys.readouterr().out
    assert parse_rational(out.strip()) == RationalFn(torus_alexander(p, q))


@pytest.mark.parametrize(
    "k", [k for k in range(-MAX_VERIFY_K, MAX_VERIFY_K + 1) if abs(k) >= 2]
)
def test_skein_engine_matches_closed_form_on_closed_2braids(k):
    # sigma^k closes to T(2, |k|) for k > 0 and to its mirror image for
    # k < 0, whose Delta is Delta(s^-1).  These are the right sides of
    # every theorem cell, at s -> t.
    value = conway(braid_closure(sigma_power(k)))
    if k < 0:
        value = value.mirror()
    assert value.substitute_power(1) == torus_alexander(2, abs(k))


# Torus links on 3 to 5 strands, within about 14 letters of the skein
# engine, and T(6,3) at 15 letters, whose smoothings curl up: with the
# curls removed, its resolution keys 8 093 diagrams.
SKEIN_CASES = [(p, q) for p in (3, 4, 5) for q in range(2, 15) if (p - 1) * q <= 14]
SKEIN_CASES.append((6, 3))


@pytest.mark.parametrize("p, q", SKEIN_CASES)
def test_skein_engine_matches_torus_closed_form(p, q):
    value = conway(braid_closure(torus_word(p, q)))
    assert value.substitute_power(1) == torus_alexander(p, q)
