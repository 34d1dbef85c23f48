"""
Oriented link diagrams as signed Gauss data, plus crossing surgery.

A diagram is a set of signed crossings together with one cyclic passage
sequence per component: walking a component from its first passage visits
crossings in order, each passage marked over or under.  Every crossing is
visited exactly twice, once on each strand.  This is all the structure
the skein engine needs: switching a crossing flips its sign and flags,
and the oriented smoothing splices the passage sequences (splitting one
component or merging two, so the component count always moves by one).

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

Passage = tuple[int, bool]  # (crossing id, met on the over strand?)


class OrientedDiagram(Record):
    __slots__ = ("crossings", "components")

    def __init__(
        self,
        crossings: tuple[tuple[int, int], ...],  # (id, sign)
        components: tuple[tuple[Passage, ...], ...],
    ):
        seen: dict[int, list[bool]] = {}
        for comp in components:
            for cid, over in comp:
                seen.setdefault(cid, []).append(over)
        ids = {cid for cid, _ in crossings}
        if len(ids) != len(crossings):
            raise ValueError("crossing list names a crossing more than once")
        if set(seen) != ids:
            raise ValueError("passage crossing ids do not match crossing list")
        for cid, flags in seen.items():
            if len(flags) != 2 or flags[0] == flags[1]:
                raise ValueError(
                    f"crossing {cid} must be passed exactly twice, over and under"
                )
        for cid, sign in crossings:
            if sign not in (1, -1):
                raise ValueError(f"crossing {cid} has sign {sign}")
        object.__setattr__(self, "crossings", crossings)
        object.__setattr__(self, "components", components)

    @classmethod
    def _raw(cls, crossings, components) -> OrientedDiagram:
        """Wrap fields already known to form a valid diagram, unchecked."""
        d = cls.__new__(cls)
        object.__setattr__(d, "crossings", crossings)
        object.__setattr__(d, "components", components)
        return d

    def sign_of(self, cid: int) -> int:
        for c, sign in self.crossings:
            if c == cid:
                return sign
        raise KeyError(f"no crossing {cid}")


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
        passages[left].append((cid, sign == 1))
        passages[right].append((cid, sign == -1))
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
    return OrientedDiagram(
        crossings=tuple((cid, sign) for cid, (idx, sign) in enumerate(word.letters)),
        components=tuple(comps),
    )


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
        for cid, _ in comp:
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
    if len(d.crossings) > 64:
        raise ValueError(
            f"{len(d.crossings)} crossings exceed the 64 that a one-byte key labels"
        )
    signs = dict(d.crossings)
    base: dict[int, int] = {}  # crossing id -> 4*label + (sign > 0)
    key: list[int] = []
    for comp in d.components:
        key.append(len(comp))
        for cid, over in comp:
            b = base.get(cid)
            if b is None:
                b = base[cid] = 4 * len(base) + (signs[cid] > 0)
            key.append(b + 2 * over)
    return bytes(key)


def _locate(d: OrientedDiagram, cid: int) -> list[tuple[int, int, bool]]:
    """Both passages of a crossing as (component index, position, over)."""
    hits = []
    for ci, comp in enumerate(d.components):
        for p, (c, over) in enumerate(comp):
            if c == cid:
                hits.append((ci, p, over))
    if len(hits) != 2:
        raise KeyError(f"no crossing {cid}")
    return hits


def switch_crossing(d: OrientedDiagram, cid: int) -> OrientedDiagram:
    """Flip one crossing: sign negated, over and under exchanged."""
    d.sign_of(cid)  # raises for unknown ids
    crossings = tuple(
        (c, -sign) if c == cid else (c, sign) for c, sign in d.crossings
    )
    components = tuple(
        tuple((c, not over) if c == cid else (c, over) for c, over in comp)
        for comp in d.components
    )
    return OrientedDiagram._raw(crossings, components)


def smooth_crossing(d: OrientedDiagram, cid: int) -> OrientedDiagram:
    """
    The oriented smoothing: delete the crossing and reconnect the strands
    the only way compatible with orientation.  A self-crossing splits its
    component in two; a crossing between two components merges them.
    New components start at the splice.
    """
    (c1, p1, _), (c2, p2, _) = _locate(d, cid)
    crossings = tuple((c, s) for c, s in d.crossings if c != cid)
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
    return OrientedDiagram._raw(crossings, tuple(comps))
