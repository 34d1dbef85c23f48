import importlib
import pickle
import random

import pytest

from linksgould.braid import BraidWord, parse_braid
from linksgould.diagram import (
    OrientedDiagram,
    braid_closure,
    canonical_key,
    component_count,
    is_split,
    smooth_crossing,
    switch_crossing,
)


def random_word(rng, max_strands=4, max_letters=10):
    n = rng.randint(2, max_strands)
    letters = tuple(
        (rng.randint(1, n - 1), rng.choice((1, -1)))
        for _ in range(rng.randint(0, max_letters))
    )
    return BraidWord(n, letters)


def cycle_count(perm):
    seen = [False] * len(perm)
    cycles = 0
    for i in range(len(perm)):
        if seen[i]:
            continue
        cycles += 1
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
    return cycles


def test_closure_components_match_permutation_cycles():
    rng = random.Random(21)
    for _ in range(80):
        w = random_word(rng)
        d = braid_closure(w)
        assert component_count(d) == cycle_count(w.permutation())


def test_closure_examples():
    assert component_count(braid_closure(parse_braid("1 1 1"))) == 1
    assert component_count(braid_closure(parse_braid("1 1"))) == 2
    ident = braid_closure(parse_braid("", strands=2))
    assert component_count(ident) == 2 and len(ident.crossings) == 0
    assert sum(sign for _, sign in braid_closure(parse_braid("1 1 1")).crossings) == 3
    assert sum(sign for _, sign in braid_closure(parse_braid("-1 -1")).crossings) == -2


def test_split_detection():
    assert is_split(braid_closure(parse_braid("", strands=2)))
    assert not is_split(braid_closure(parse_braid("1 1")))
    assert not is_split(braid_closure(parse_braid("", strands=1)))
    # trefoil next to a far unknot: 4 strands, crossings only on 1-2
    w = parse_braid("1 1 1", strands=4)
    d = braid_closure(w)
    assert component_count(d) == 3
    assert is_split(d)


def test_switch_is_involution():
    rng = random.Random(22)
    for _ in range(40):
        w = random_word(rng)
        if not w.letters:
            continue
        d = braid_closure(w)
        cid = rng.randrange(len(d.crossings))
        assert switch_crossing(switch_crossing(d, cid), cid) == d
        assert component_count(switch_crossing(d, cid)) == component_count(d)


def test_smooth_changes_components_by_one():
    rng = random.Random(23)
    for _ in range(60):
        w = random_word(rng)
        if not w.letters:
            continue
        d = braid_closure(w)
        cid = rng.randrange(len(d.crossings))
        sm = smooth_crossing(d, cid)
        assert abs(component_count(sm) - component_count(d)) == 1
        assert len(sm.crossings) == len(d.crossings) - 1


def test_smooth_hopf_gives_kinked_unknot():
    d = braid_closure(parse_braid("1 1"))
    sm = smooth_crossing(d, 0)
    assert component_count(sm) == 1
    assert len(sm.crossings) == 1


def test_unknown_crossing_rejected():
    d = braid_closure(parse_braid("1 1"))
    with pytest.raises(KeyError):
        switch_crossing(d, 99)
    with pytest.raises(KeyError):
        smooth_crossing(d, 99)


def relabeled(d, mapping):
    return OrientedDiagram(
        tuple((mapping[c], s) for c, s in d.crossings),
        tuple(tuple((mapping[c], o) for c, o in comp) for comp in d.components),
    )


def test_canonical_key_relabel_invariant():
    rng = random.Random(24)
    for _ in range(40):
        w = random_word(rng)
        d = braid_closure(w)
        ids = [c for c, _ in d.crossings]
        shuffled = ids[:]
        rng.shuffle(shuffled)
        mapping = dict(zip(ids, (x + 100 for x in shuffled)))
        if ids:
            assert canonical_key(d) == canonical_key(relabeled(d, mapping))


def test_canonical_key_distinguishes_signs_and_flags():
    d = braid_closure(parse_braid("1 1"))
    assert canonical_key(d) != canonical_key(switch_crossing(d, 0))


def test_malformed_diagrams_rejected():
    with pytest.raises(ValueError):
        OrientedDiagram(((0, 1),), (((0, True), (0, True)),))
    with pytest.raises(ValueError):
        OrientedDiagram(((0, 1),), (((0, True),),))
    with pytest.raises(ValueError):
        OrientedDiagram(((0, 2),), (((0, True), (0, False)),))
    # A crossing listed twice, with two signs: sign_of and canonical_key
    # would read different ones.
    with pytest.raises(ValueError):
        OrientedDiagram(((0, 1), (0, -1)), (((0, True), (0, False)),))


@pytest.fixture(scope="module")
def resolution_surgeries():
    """
    Every (surgery, input, result) of the skein engine's full resolution of
    200 seeded braids, 3-6 strands and 4-9 letters, recorded where conway
    calls switch_crossing and smooth_crossing.
    """
    engine = importlib.import_module("linksgould.conway")
    surgeries = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("switch_crossing", "smooth_crossing"):

            def wrapper(d, cid, original=getattr(engine, name), name=name):
                result = original(d, cid)
                surgeries.append((name, d, result))
                return result

            mp.setattr(engine, name, wrapper)
        rng = random.Random(25)
        for _ in range(200):
            n = rng.randint(3, 6)
            letters = tuple(
                (rng.randint(1, n - 1), rng.choice((1, -1)))
                for _ in range(rng.randint(4, 9))
            )
            engine.conway(braid_closure(BraidWord(n, letters)))
    return surgeries


def test_surgery_results_pass_the_constructor_checks(resolution_surgeries):
    # Surgery builds its results unchecked, since a switch or smoothing of a
    # valid diagram is valid.  Every result of the skein engine's resolution
    # is rebuilt here through the checking constructor, which must accept it
    # and give back an equal record; a pickled result must round-trip.
    results = [r for _, _, r in resolution_surgeries]
    assert len(results) > 1000
    for r in results:
        assert OrientedDiagram(r.crossings, r.components) == r
        assert pickle.loads(pickle.dumps(r)) == r


def test_surgery_keeps_non_split_diagrams_non_split(resolution_surgeries):
    # conway runs is_split only on the root and on smoothings that split a
    # component: a switch keeps the crossing-incidence graph, and a merging
    # smoothing contracts one edge of it, so neither splits a non-split
    # diagram.  A smoothing that splits a component can split the diagram.
    split_smoothings = 0
    for name, d, r in resolution_surgeries:
        assert not is_split(d)
        if name == "switch_crossing" or component_count(r) < component_count(d):
            assert not is_split(r)
        elif is_split(r):
            split_smoothings += 1
    assert split_smoothings > 0


def oracle_key(d):
    """The string memo key that canonical_key's int tuple replaced."""
    signs = dict(d.crossings)
    relabel: dict[int, int] = {}
    pieces: list[str] = []
    for comp in d.components:
        chunk: list[str] = []
        for cid, over in comp:
            if cid not in relabel:
                relabel[cid] = len(relabel)
            sign = "+" if signs[cid] > 0 else "-"
            chunk.append(f"{relabel[cid]}{'o' if over else 'u'}{sign}")
        pieces.append(",".join(chunk))
    return "|".join(pieces)


def test_canonical_key_classes_match_the_string_oracle(resolution_surgeries):
    # Two diagrams share an int-tuple key if and only if they share the
    # string key, so memoization groups diagrams exactly as before.
    strings_of: dict[tuple[int, ...], set[str]] = {}
    keys_of: dict[str, set[tuple[int, ...]]] = {}
    for _, d, r in resolution_surgeries:
        for diagram in (d, r):
            key, string = canonical_key(diagram), oracle_key(diagram)
            strings_of.setdefault(key, set()).add(string)
            keys_of.setdefault(string, set()).add(key)
    assert len(strings_of) == len(keys_of) > 1000
    assert all(len(v) == 1 for v in strings_of.values())
    assert all(len(v) == 1 for v in keys_of.values())


def test_canonical_key_marks_component_boundaries():
    # The same passage sequence cut into components three ways: the Hopf
    # link, one component through both crossings, and three components.
    crossings = ((0, 1), (1, 1))
    seq = ((0, True), (1, False), (0, False), (1, True))
    cuts = [
        (seq[:2], seq[2:]),
        (seq,),
        (seq[:1], seq[1:3], seq[3:]),
    ]
    keys = {canonical_key(OrientedDiagram(crossings, cut)) for cut in cuts}
    assert len(keys) == len(cuts)


def test_key_labels_at_most_64_crossings():
    # 64 labels fill the one-byte passage code; a 65th has no code.
    key = canonical_key(braid_closure(BraidWord(2, ((1, 1),) * 64)))
    assert len(key) == 2 + 128 and max(key) == 255
    with pytest.raises(ValueError, match="65 crossings exceed the 64"):
        canonical_key(braid_closure(BraidWord(2, ((1, 1),) * 65)))
