import random

import pytest

from linksgould.braid import BraidWord, parse_braid
from linksgould.errors import ParseError


def test_parse_examples():
    w = parse_braid("1 1 1")
    assert w.strands == 2
    assert w.letters == ((1, 1),) * 3
    w = parse_braid("1 -2 1 -2")
    assert w.strands == 3
    assert w.letters == ((1, 1), (2, -1), (1, 1), (2, -1))
    w = parse_braid("", strands=2)
    assert w.strands == 2 and w.letters == ()


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_braid("1 0 1")
    with pytest.raises(ParseError):
        parse_braid("2", strands=2)
    with pytest.raises(ParseError):
        parse_braid("one two")
    with pytest.raises(ParseError):
        parse_braid("1", strands=0)
    # Letters are ASCII decimal integers: int() alone would read these.
    for bad in ["1_0", "1 -1_0", "\u0661", "1 \u0662", "\uff11", "_1"]:
        with pytest.raises(ParseError, match="is not an integer"):
            parse_braid(bad)
    assert parse_braid("+1 -1") == parse_braid("1 -1")


def test_render_round_trip():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(2, 5)
        letters = tuple(
            (rng.randint(1, n - 1), rng.choice((1, -1)))
            for _ in range(rng.randint(0, 12))
        )
        w = BraidWord(n, letters)
        assert parse_braid(w.render(), strands=n) == w


def test_strand_count_default():
    assert parse_braid("3 -1").strands == 4


def test_permutation_and_writhe():
    w = parse_braid("1 1 1")
    assert w.permutation() == (1, 0)
    assert w.writhe() == 3
    w = parse_braid("1 2", strands=3)
    assert w.permutation() == (2, 0, 1)


def test_rewrites():
    w = parse_braid("1 2 1", strands=3)
    r = w.braid_relation_applied(0)
    assert r.letters == ((2, 1), (1, 1), (2, 1))
    assert w.braid_relation_applied(1) is None
    w = parse_braid("1 3", strands=4)
    c = w.commutation_applied(0)
    assert c.letters == ((3, 1), (1, 1))
    assert parse_braid("1 2", strands=3).commutation_applied(0) is None
    w = parse_braid("1 1")
    conj = w.conjugated(1, -1)
    assert conj.letters == ((1, -1), (1, 1), (1, 1), (1, 1))
    stab = w.stabilized(-1)
    assert stab.strands == 3 and stab.letters[-1] == (2, -1)


def test_invalid_letters_rejected():
    with pytest.raises(ValueError):
        BraidWord(2, ((2, 1),))
    with pytest.raises(ValueError):
        BraidWord(2, ((1, 2),))
