import random
import sys

import pytest

from linksgould.braid import BraidWord, parse_braid
from linksgould.cli import main
from linksgould.conway import conway, first_violation
from linksgould.diagram import OrientedDiagram, braid_closure, canonical_key, component_count
from linksgould.errors import BudgetError
from linksgould.laurent import HalfLaurent, Laurent2
from linksgould.rational import RationalFn

s = HalfLaurent.s
t = Laurent2.t


def closure(text, strands=None):
    return braid_closure(parse_braid(text, strands))


def test_unknot():
    assert conway(closure("", strands=1)) == HalfLaurent.one()


def test_named_links():
    assert conway(closure("1 1")) == s(1) - s(-1)  # Hopf, positive
    assert conway(closure("1 1 1")) == s(2) - 1 + s(-2)  # trefoil
    assert conway(closure("1 -2 1 -2")) == -s(2) + 3 - s(-2)  # figure-eight


def test_split_links_vanish():
    assert conway(closure("", strands=2)).is_zero()
    assert conway(closure("1 1 1", strands=3)).is_zero()  # trefoil + far unknot


def test_trefoil_unknots_by_one_switch():
    from linksgould.diagram import switch_crossing

    d = closure("1 1 1")
    for cid in range(3):
        assert conway(switch_crossing(d, cid)) == HalfLaurent.one()


def test_descending_detector():
    d = closure("1 1")
    v = first_violation(d)
    assert v is not None
    from linksgould.diagram import switch_crossing

    assert first_violation(switch_crossing(d, v)) is None


def test_closed_2braid_oracle():
    # conway(closure(sigma^k)) * (t + t^-1) == t^k - (-t)^-k  with s = t
    for k in range(-8, 9):
        word = BraidWord(2, ((1, 1 if k >= 0 else -1),) * abs(k))
        got = RationalFn(conway(braid_closure(word)).substitute_power(1))
        num = t(k) - (Laurent2.const(-1) ** (k % 2)) * t(-k)
        assert got * RationalFn(t(1) + t(-1)) == RationalFn(num), k


def test_substitution():
    assert conway(closure("1 1 1")).substitute_power(2) == t(4) - 1 + t(-4)
    assert conway(closure("", strands=1)).substitute_power(7) == Laurent2.one()
    assert conway(closure("1 1")).substitute_power(1) == t(1) - t(-1)


def test_mirror_negates_odd_part():
    # mirror image (all signs flipped) inverts s for knots
    w = parse_braid("1 1 1")
    mirror = BraidWord(2, tuple((i, -sg) for i, sg in w.letters))
    assert conway(braid_closure(mirror)) == conway(braid_closure(w)).mirror()


def test_mirror_inverts_s_on_random_braids():
    # The closure of a braid with every letter inverted is the mirror image,
    # and Delta of a mirror image is Delta(s^-1); some values here are not
    # symmetric in s, so the rule is not satisfied by symmetry alone.
    rng = random.Random(44)
    asymmetric = 0
    for _ in range(200):
        n = rng.randint(3, 4)
        letters = tuple(
            (rng.randint(1, n - 1), rng.choice((1, -1)))
            for _ in range(rng.randint(1, 8))
        )
        value = conway(braid_closure(BraidWord(n, letters)))
        mirror = BraidWord(n, tuple((i, -sg) for i, sg in letters))
        assert conway(braid_closure(mirror)) == value.mirror(), letters
        asymmetric += value.mirror() != value
    assert asymmetric > 0


def test_budget_enforced(monkeypatch):
    engine = sys.modules["linksgould.conway"]
    monkeypatch.setattr(engine, "MAX_SKEIN_CROSSINGS", 2)
    with pytest.raises(BudgetError, match="3 crossings exceed the bound of 2"):
        conway(closure("1 1 1"))
    monkeypatch.setattr(engine, "MAX_SKEIN_CROSSINGS", 3)
    assert conway(closure("1 1 1")) == s(2) - 1 + s(-2)


def test_keyed_diagram_bound(monkeypatch, capsys):
    # sigma^24 keys 15 329 diagrams, far below the fixed bound; lowered,
    # the bound stops the resolution with BudgetError, which exits 3.
    engine = sys.modules["linksgould.conway"]
    word = " ".join(["1"] * 24)
    monkeypatch.setattr(engine, "MAX_KEYED_DIAGRAMS", 15329)
    assert conway(closure(word)).evaluate_at_one() == 0
    monkeypatch.setattr(engine, "MAX_KEYED_DIAGRAMS", 15328)
    with pytest.raises(BudgetError, match="keys more than 15328 diagrams"):
        conway(closure(word))
    monkeypatch.setattr(engine, "MAX_KEYED_DIAGRAMS", 1000)
    assert main(["alexander", word]) == 3
    assert "keys more than 1000 diagrams" in capsys.readouterr().err


def random_word(rng, max_strands=4, max_letters=10):
    n = rng.randint(2, max_strands)
    letters = tuple(
        (rng.randint(1, n - 1), rng.choice((1, -1)))
        for _ in range(rng.randint(1, max_letters))
    )
    return BraidWord(n, letters)


def test_markov_invariance_sample():
    rng = random.Random(41)
    for _ in range(40):
        w = random_word(rng)
        base = conway(braid_closure(w))
        assert conway(braid_closure(w.conjugated(rng.randint(1, w.strands - 1)))) == base
        assert conway(braid_closure(w.stabilized(rng.choice((1, -1))))) == base


def test_braid_relation_invariance_sample():
    rng = random.Random(42)
    for _ in range(30):
        w = random_word(rng)
        if w.strands < 3:
            continue
        i = rng.randint(1, w.strands - 2)
        sg = rng.choice((1, -1))
        p = rng.randint(0, len(w.letters))
        planted = BraidWord(
            w.strands,
            w.letters[:p] + ((i, sg), (i + 1, sg), (i, sg)) + w.letters[p:],
        )
        rewritten = planted.braid_relation_applied(p)
        assert rewritten is not None
        assert conway(braid_closure(planted)) == conway(braid_closure(rewritten))


def test_knot_symmetry_and_unit_evaluation():
    rng = random.Random(43)
    knots = links = 0
    while knots < 15 or links < 10:
        w = random_word(rng)
        d = braid_closure(w)
        v = conway(d)
        if component_count(d) == 1:
            assert v.mirror() == v
            assert v.evaluate_at_one() == 1
            assert v.all_even_powers()
            knots += 1
        else:
            assert v.evaluate_at_one() == 0
            links += 1


def test_each_diagram_keyed_once(monkeypatch):
    # The loop keys the root and each surgery result once, after removing
    # their kinks, and decides each node that is neither memoized nor split
    # by one first_violation call.  is_split runs only on the root and on
    # smoothings that split a component: a switch, or a smoothing that
    # merges two components, of a non-split diagram is not split.
    engine = sys.modules["linksgould.conway"]
    names = (
        "canonical_key", "is_split", "first_violation", "switch_crossing",
        "smooth_crossing", "_without_kinks",
    )
    calls: dict[str, list] = {name: [] for name in names}
    for name in names:

        def wrapper(d, *rest, original=getattr(engine, name), seen=calls[name]):
            result = original(d, *rest)
            seen.append((d, result))
            return result

        monkeypatch.setattr(engine, name, wrapper)

    root = closure("1 -2 1 3 -2 3 1 -2 -3")
    assert conway(root) == -s(2) + 3 - s(-2)
    surgeries = len(calls["switch_crossing"])
    assert surgeries == len(calls["smooth_crossing"]) == 123
    assert len(calls["canonical_key"]) == 1 + 2 * surgeries
    decided = [canonical_key(d) for d, _ in calls["first_violation"]]
    assert len(set(decided)) == len(decided)
    # Kinks go from the root, which has none, and from every smoothing.
    (root_in, root_out), *unkinked = calls["_without_kinks"]
    assert root_in is root_out is root
    assert len(unkinked) == surgeries
    assert all(m is r for (m, _), (_, r) in zip(unkinked, calls["smooth_crossing"]))
    # is_split checks the root and 41 of the 52 splitting smoothings; the
    # other 11 are memoized before their turn.
    checked = [d for d, _ in calls["is_split"]]
    splitting = [
        r
        for (d, _), (_, r) in zip(calls["smooth_crossing"], unkinked)
        if component_count(r) > component_count(d)
    ]
    assert len(splitting) == 52
    assert checked[0] is root
    assert {id(d) for d in checked[1:]} <= {id(r) for r in splitting}
    assert len(checked) == 42
    found_split = {canonical_key(d) for d, split in calls["is_split"] if split}
    assert found_split and not found_split & set(decided)


def test_diagram_checked_once(monkeypatch):
    # The closure is checked where it enters; the 246 diagrams that surgery
    # makes from it during the resolution, and the kink-free copies of the
    # smoothings, are not checked again.
    checked = []
    original = OrientedDiagram.__init__

    def counting(self, *args, **kwargs):
        checked.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(OrientedDiagram, "__init__", counting)
    assert conway(braid_closure(parse_braid("1 -2 1 3 -2 3 1 -2 -3"))) == -s(2) + 3 - s(-2)
    assert len(checked) == 1
