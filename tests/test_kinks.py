"""The skein engine removes every kink before it keys a diagram.

A kink is a crossing whose two passages are cyclically adjacent on one
component: a curl that Reidemeister I removes, crossing and passages
together, without changing Delta.  ``conway`` removes kinks from the root
and from every smoothing; a switch keeps every adjacency, so its results
need no check.
"""
import random
import sys

from linksgould.braid import BraidWord, parse_braid
from linksgould.conway import _without_kinks, conway
from linksgould.diagram import OrientedDiagram, braid_closure, canonical_key, is_split
from linksgould.laurent import HalfLaurent


def closure(text, strands=None):
    return braid_closure(parse_braid(text, strands))


def kinks(d):
    """The crossings whose passages are cyclically adjacent, read directly."""
    found = set()
    for comp in d.components:
        if len(comp) > 1:
            found |= {
                comp[p][0] for p in range(len(comp)) if comp[p][0] == comp[p - 1][0]
            }
    return found


def crossing_ids(d):
    return {passage[0] for comp in d.components for passage in comp}


def rotated(d, ci, k):
    """The same diagram with component ci read from its k-th passage."""
    comps = list(d.components)
    comps[ci] = comps[ci][k:] + comps[ci][:k]
    return OrientedDiagram(tuple(comps))


def kinked_word(rng):
    """Runs of repeated letters, up to two stabilizations, read from a random letter."""
    n = rng.randint(2, 4)
    letters = []
    for _ in range(rng.randint(1, 4)):
        letters += [(rng.randint(1, n - 1), rng.choice((1, -1)))] * rng.randint(1, 3)
    word = BraidWord(n, tuple(letters))
    for _ in range(rng.randint(0, 2)):
        word = word.stabilized(rng.choice((1, -1)))
    r = rng.randint(0, len(word.letters) - 1)
    return BraidWord(word.strands, word.letters[r:] + word.letters[:r])


def keyed_count(monkeypatch, d):
    engine = sys.modules["linksgould.conway"]
    keys = []

    def counting(diagram, original=engine.canonical_key):
        keys.append(diagram)
        return original(diagram)

    with monkeypatch.context() as mp:
        mp.setattr(engine, "canonical_key", counting)
        value = conway(d)
    return value, len(keys)


def test_kink_free_diagrams_come_back_unchanged():
    # Controls: the Hopf link, the trefoil, the figure-eight knot, and a
    # clasp of two components that Reidemeister II, not I, would cancel.
    for text in ("1 1", "1 1 1", "1 -2 1 -2", "1 -1", "1 -2 1 3 -2 3 1 -2 -3"):
        d = closure(text)
        assert not kinks(d)
        assert _without_kinks(d) is d


def test_two_passage_component_empties():
    # sigma_1 on two strands is one curl: the component keeps no passage
    # and is an unknotted circle.
    d = closure("1")
    assert d.components == (((0, True, 1), (0, False, 1)),)
    bare = _without_kinks(d)
    assert bare.components == ((),)
    assert conway(d) == HalfLaurent.one()
    # Two curls on two components: a split unlink, which is_split values 0.
    d = closure("1 3", strands=4)
    bare = _without_kinks(d)
    assert bare.components == ((), ()) and is_split(bare)
    assert conway(d).is_zero()


def test_chain_of_curls_goes_in_one_call():
    # sigma_1 sigma_2 sigma_3 closes to an unknot of three nested curls.
    # Crossing 2 is a kink inside the passage sequence and crossing 0 one
    # across the wrap; removing either exposes crossing 1.
    d = closure("1 2 3")
    assert kinks(d) == {0, 2}
    assert _without_kinks(d).components == ((),)
    # The trefoil stabilized three times gives back the trefoil's diagram.
    trefoil = closure("1 1 1")
    curled = braid_closure(parse_braid("1 1 1").stabilized(1).stabilized(-1).stabilized(1))
    assert kinks(curled) == {5}
    assert canonical_key(_without_kinks(curled)) == canonical_key(trefoil)


def test_kink_across_the_wrap():
    # The stabilized trefoil read from just inside its curl: the two
    # passages of the kink are the last and the first.
    d = braid_closure(parse_braid("1 1 1").stabilized(-1))
    (comp,) = d.components
    k = next(p for p in range(1, len(comp)) if comp[p][0] == comp[p - 1][0])
    wrapped = rotated(d, 0, k)
    assert wrapped.components[0][0][0] == wrapped.components[0][-1][0] == 3
    bare = _without_kinks(wrapped)
    assert not kinks(bare) and len(crossing_ids(bare)) == 3
    assert conway(wrapped) == conway(d) == conway(closure("1 1 1"))
    # Two nested curls read from between their inner passages: the wrap
    # cancels twice.
    d = braid_closure(parse_braid("1 1 1").stabilized(1).stabilized(-1))
    wrapped = rotated(d, 0, 5)
    assert [c for c, _, _ in wrapped.components[0][:2]] == [4, 3]
    assert [c for c, _, _ in wrapped.components[0][-2:]] == [3, 4]
    bare = _without_kinks(wrapped)
    assert not kinks(bare) and len(crossing_ids(bare)) == 3
    assert conway(wrapped) == conway(closure("1 1 1"))
    # A component of one passage is not a kink with itself.
    hopf = closure("1 1")
    one_passage = OrientedDiagram(
        (((0, True, 1),), ((0, False, 1), (1, True, 1)), ((1, False, 1),)),
    )
    assert _without_kinks(one_passage) is one_passage


def test_every_rotation_of_a_component_loses_the_same_kinks():
    rng = random.Random(61)
    for _ in range(40):
        d = braid_closure(kinked_word(rng))
        bare = _without_kinks(d)
        for ci, comp in enumerate(d.components):
            for k in range(len(comp)):
                other = _without_kinks(rotated(d, ci, k))
                assert crossing_ids(other) == crossing_ids(bare)
                assert not kinks(other)


def test_kink_free_results_pass_the_constructor_checks(monkeypatch):
    # Over the resolutions of kink-heavy braids, every diagram the engine
    # makes kink-free is rebuilt through the checking constructor.  It has
    # no kink left, and it keeps its components and the order of every
    # passage it did not drop.
    engine = sys.modules["linksgould.conway"]
    seen = []

    def recording(d, original=engine._without_kinks):
        result = original(d)
        seen.append((d, result))
        return result

    monkeypatch.setattr(engine, "_without_kinks", recording)
    rng = random.Random(62)
    for _ in range(150):
        conway(braid_closure(kinked_word(rng)))
    changed = [(d, r) for d, r in seen if r is not d]
    assert len(changed) > 500
    for d, r in changed:
        assert OrientedDiagram(r.components) == r
        assert not kinks(r)
        kept = crossing_ids(r)
        assert kinks(d) and kept < crossing_ids(d)
        assert r.components == tuple(
            tuple(p for p in comp if p[0] in kept) for comp in d.components
        )


def test_stabilization_keys_no_more_diagrams(monkeypatch):
    # A stabilization is one curl, removed from the root before it is
    # keyed, so the resolution is the unstabilized word's.
    rng = random.Random(63)
    for _ in range(40):
        n = rng.randint(2, 4)
        w = BraidWord(
            n,
            tuple((rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(rng.randint(1, 8))),
        )
        value, keyed = keyed_count(monkeypatch, braid_closure(w))
        for sign in (1, -1):
            assert keyed_count(monkeypatch, braid_closure(w.stabilized(sign))) == (value, keyed)
