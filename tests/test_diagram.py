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


def test_surgery_results_pass_the_constructor_checks(monkeypatch):
    # Surgery builds its results unchecked, since a switch or smoothing of a
    # valid diagram is valid.  Every result of the skein engine's resolution
    # is rebuilt here through the checking constructor, which must accept it
    # and give back an equal record; a pickled result must round-trip.
    engine = importlib.import_module("linksgould.conway")
    results = []
    for name in ("switch_crossing", "smooth_crossing"):

        def wrapper(d, cid, original=getattr(engine, name)):
            result = original(d, cid)
            results.append(result)
            return result

        monkeypatch.setattr(engine, name, wrapper)
    rng = random.Random(25)
    for _ in range(200):
        n = rng.randint(3, 6)
        letters = tuple(
            (rng.randint(1, n - 1), rng.choice((1, -1)))
            for _ in range(rng.randint(4, 9))
        )
        engine.conway(braid_closure(BraidWord(n, letters)))
    assert len(results) > 1000
    for r in results:
        assert OrientedDiagram(r.crossings, r.components) == r
        assert pickle.loads(pickle.dumps(r)) == r
