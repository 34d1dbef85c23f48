"""
Oriented link diagrams as signed Gauss data, plus crossing surgery.

A diagram is its passages: one cyclic passage sequence per component,
and walking a component from its first passage visits crossings in
order.  A passage is ``(crossing id, over, sign)``: the crossing, whether
this strand goes over it, and the crossing's sign.  Every crossing is
visited exactly twice, once on each strand, and both passages carry its
sign.  This is all the structure the skein engine needs: switching a
crossing flips its sign and flags, and the oriented smoothing splices the
passage sequences (splitting one component or merging two, so the
component count always moves by one).

A diagram is checked once, where it enters: ``OrientedDiagram(...)``
refuses malformed Gauss data, whether it comes from ``braid_closure``,
from user code or from unpickling.  Surgery does not check again: a
switch or a smoothing of a valid diagram is valid, so both build their
result through the unchecked ``OrientedDiagram._raw``.

Nothing here tries to decide isotopy.  ``canonical_key`` only normalizes
away the arbitrary internal crossing ids, which is exactly what a
memoization key needs; it is a short ``bytes``.
"""
from __future__ import annotations

from ._record import Record
from .braid import BraidWord

__all__ = [
    "OrientedDiagram",
    "braid_closure",
    "switch_crossing",
    "smooth_crossing",
    "component_count",
    "is_split",
    "canonical_key",
]

Passage = tuple[int, bool, int]  # (crossing id, met on the over strand?, sign)

_KEY_CROSSINGS = 64  # canonical_key's labels: 4*label + 3 must fit in a byte


class OrientedDiagram(Record):
    __slots__ = ("components",)

    def __init__(self, components: tuple[tuple[Passage, ...], ...]):
        seen: dict[int, list[tuple[bool, int]]] = {}
        for comp in components:
            for cid, over, sign in comp:
                seen.setdefault(cid, []).append((over, sign))
        for cid, passed in seen.items():
            if len(passed) != 2 or passed[0][0] == passed[1][0]:
                raise ValueError(f"crossing {cid} must be passed exactly twice, over and under")
            (_, sign), (_, other) = passed
            if sign != other:
                raise ValueError(f"crossing {cid} is passed with signs {sign} and {other}")
            if sign not in (1, -1):
                raise ValueError(f"crossing {cid} has sign {sign}")
        object.__setattr__(self, "components", components)

    @classmethod
    def _raw(cls, components) -> OrientedDiagram:
        """Wrap passages already known to form a valid diagram, unchecked."""
        d = cls.__new__(cls)
        object.__setattr__(d, "components", components)
        return d


def braid_closure(word: BraidWord) -> OrientedDiagram:
    """
    The trace closure of a braid word.

    Positive letters become positive crossings.  Components are the
    cycles of ``word.permutation()``; each component's traversal starts
    at its first letter occurrence (the earliest crossing of the word
    lying on it), which anchors the skein engine deterministically.
    """
    n = word.strands
    pos = list(range(n))
    passages: list[list[Passage]] = [[] for _ in range(n)]
    for cid, (idx, sign) in enumerate(word.letters):
        i = idx - 1
        left, right = pos[i], pos[i + 1]
        passages[left].append((cid, sign == 1, sign))
        passages[right].append((cid, sign == -1, sign))
        pos[i], pos[i + 1] = right, left
    end = word.permutation()
    comps: list[tuple[Passage, ...]] = []
    visited = [False] * n
    for start in range(n):
        if visited[start]:
            continue
        cycle: list[Passage] = []
        p = start
        while not visited[p]:
            visited[p] = True
            cycle.extend(passages[p])
            p = end[p]
        if cycle:
            first = min(range(len(cycle)), key=lambda k: cycle[k][0])
            cycle = cycle[first:] + cycle[:first]
        comps.append(tuple(cycle))
    return OrientedDiagram(tuple(comps))


def component_count(d: OrientedDiagram) -> int:
    return len(d.components)


def is_split(d: OrientedDiagram) -> bool:
    """
    True when the crossing-incidence graph on components is disconnected.
    Components sharing no chain of crossings can be pulled apart, so a
    split diagram presents a split link.
    """
    k = len(d.components)
    if k <= 1:
        return False
    parent = list(range(k))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    where: dict[int, int] = {}
    for ci, comp in enumerate(d.components):
        for cid, _, _ in comp:
            if cid in where:
                ra, rb = find(where[cid]), find(ci)
                if ra != rb:
                    parent[ra] = rb
            else:
                where[cid] = ci
    return len({find(i) for i in range(k)}) > 1


def canonical_key(d: OrientedDiagram) -> bytes:
    """
    A serialization that is invariant under relabeling of crossing ids
    (ids are renumbered by first encounter along the traversal).  Each
    component is one byte for its passage count, then one byte per
    passage, ``4*label + 2*over + (sign > 0)``; the code is injective, so
    structurally distinct diagrams get distinct keys, which makes it a
    sound memoization key.  Labels below 64 keep every code within a
    byte, so a diagram of more than 64 crossings raises ValueError.
    """
    base: dict[int, int] = {}  # crossing id -> 4*label + (sign > 0)
    key: list[int] = []
    for comp in d.components:
        key.append(len(comp))
        for cid, over, sign in comp:
            b = base.get(cid)
            if b is None:
                b = base[cid] = 4 * len(base) + (sign > 0)
            key.append(b + 2 * over)
    if len(base) > _KEY_CROSSINGS:
        raise ValueError(
            f"{len(base)} crossings exceed the {_KEY_CROSSINGS} that a one-byte key labels"
        )
    return bytes(key)


def _locate(d: OrientedDiagram, cid: int) -> list[tuple[int, int]]:
    """Both passages of a crossing as (component index, position)."""
    hits = [
        (ci, p)
        for ci, comp in enumerate(d.components)
        for p, passage in enumerate(comp)
        if passage[0] == cid
    ]
    if len(hits) != 2:
        raise KeyError(f"no crossing {cid}")
    return hits


def switch_crossing(d: OrientedDiagram, cid: int) -> OrientedDiagram:
    """Flip one crossing: sign negated, over and under exchanged."""
    comps = list(d.components)
    for ci, p in _locate(d, cid):
        comp = comps[ci]
        _, over, sign = comp[p]
        comps[ci] = comp[:p] + ((cid, not over, -sign),) + comp[p + 1 :]
    return OrientedDiagram._raw(tuple(comps))


def smooth_crossing(d: OrientedDiagram, cid: int) -> OrientedDiagram:
    """
    The oriented smoothing: delete the crossing and reconnect the strands
    the only way compatible with orientation.  A self-crossing splits its
    component in two; a crossing between two components merges them.
    New components start at the splice.
    """
    (c1, p1), (c2, p2) = _locate(d, cid)
    comps = list(d.components)
    if c1 == c2:
        seq = comps[c1]
        lo, hi = sorted((p1, p2))
        inner = seq[lo + 1 : hi]
        outer = seq[hi + 1 :] + seq[:lo]
        comps[c1 : c1 + 1] = [inner, outer]
    else:
        a, b = comps[c1], comps[c2]
        merged = a[:p1] + b[p2 + 1 :] + b[:p2] + a[p1 + 1 :]
        keep, drop = min(c1, c2), max(c1, c2)
        comps[keep] = merged
        del comps[drop]
    return OrientedDiagram._raw(tuple(comps))
