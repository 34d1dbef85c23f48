"""
The Alexander-Conway polynomial by skein resolution.

The defining relations are D(unknot) = 1 and
D(L+) - D(L-) = (s - s^-1) D(L0), with s^2 = t.  Two consequences close
the recursion and are installed as base cases: a descending diagram is an
unlink (value 1 for one component, else 0), and any split diagram has
value 0 (switch a crossing-free pair of components past each other: the
relation forces (s - s^-1) D = 0).

Resolution strategy: walk the components in order, each from its first passage;
if every crossing is first met on its over strand the diagram is
descending.  Otherwise take the first violation, the passage
(c, False, sign(c)) that first meets a crossing c on its under strand,
and resolve
    D(d) = D(switch c) + sign(c) * (s - s^-1) * D(smooth c).
Switching the first violation leaves the earlier traversal untouched, so
the violation count drops by one; smoothing drops the crossing count.
The pair (crossings, violations) decreases lexicographically on both
branches, which is the termination measure.  Values are memoized on
``canonical_key``, a short ``bytes``.

Before a diagram is keyed, its kinks go: a crossing whose two passages
are cyclically adjacent on one component is a curl, and Reidemeister I
removes it without changing D.  The root and every smoothing lose their
kinks; a switch keeps every adjacency of a kink-free parent, and a
smoothing makes new ones only at its splices.  Removal only drops
crossings, so the termination measure still decreases, and a component
it empties is an unknotted circle, which ``is_split`` or the unlink base
case values.

Only the root and the smoothings of self-crossings run ``is_split``.  The
other surgery results inherit non-split-ness from their parent, which was
not split, or it would have had no surgery: a switch keeps every
crossing, passage and component, so it has the parent's crossing-incidence
graph; smoothing a crossing between two components contracts one edge of
that connected graph, which leaves it connected.  A kink is a
self-crossing, so removing one keeps the graph connected.
"""
from __future__ import annotations

from .diagram import (
    _KEY_CROSSINGS,
    OrientedDiagram,
    canonical_key,
    component_count,
    is_split,
    smooth_crossing,
    switch_crossing,
)
from .errors import BudgetError
from .laurent import HalfLaurent

__all__ = ["conway", "first_violation"]

# conway refuses a diagram of more crossings than this; surgery never
# increases the count, so no diagram in the resolution has more.  It is
# diagram's limit, the most that canonical_key's one-byte code labels.
MAX_SKEIN_CROSSINGS = _KEY_CROSSINGS

# The crossing bound does not limit the engine's cost, which grows with
# the number of diagrams the resolution keys, so one conway call keys at
# most this many.  The closed 2-braid sigma^24 keys 15 329 diagrams
# (0.3 s) and sigma^32 176 061 (3.4 s, 67 MB); sigma^36 and longer reach
# the bound after about 11 s at a 159 MB peak, and the torus link T(4,6)
# after 8.5 s at 112 MB (the whole alexander process, shared 2-core x86,
# Python 3.11.7).  Without the bound, an earlier engine with string keys
# ran sigma^40 for 41 s and 657 MB.
MAX_KEYED_DIAGRAMS = 2**19

_SKEIN = HalfLaurent.s() - HalfLaurent.s(-1)

_Key = bytes  # what canonical_key returns


def _without_kinks(d: OrientedDiagram) -> OrientedDiagram:
    """
    The diagram with every kink removed, or ``d`` itself if it has none.

    A kink is a crossing whose two passages are cyclically adjacent on one
    component: a curl that Reidemeister I removes with the crossing and
    both passages, which leaves Delta unchanged.  Removing one can make the
    passages around it adjacent, so a chain of curls goes in one pass: a
    passage that repeats the last kept crossing cancels it, and the ends
    of what is kept then cancel across the wrap.  A component left with
    no passage is an unknotted circle.
    """
    comps = []
    for comp in d.components:
        kept = []
        for passage in comp:
            if kept and kept[-1][0] == passage[0]:
                kept.pop()
            else:
                kept.append(passage)
        while len(kept) > 1 and kept[0][0] == kept[-1][0]:
            kept = kept[1:-1]
        comps.append(tuple(kept))
    if sum(map(len, comps)) == sum(map(len, d.components)):
        return d
    return OrientedDiagram._raw(tuple(comps))


def first_violation(d: OrientedDiagram) -> tuple[int, bool, int] | None:
    """The passage that first meets a crossing on its under strand, or None if descending."""
    seen: set[int] = set()
    for comp in d.components:
        for passage in comp:
            cid = passage[0]
            if cid in seen:
                continue
            seen.add(cid)
            if not passage[1]:
                return passage
    return None


def conway(d: OrientedDiagram) -> HalfLaurent:
    """
    The Alexander-Conway polynomial of a diagram, in s = t^(1/2).

    The root and every smoothing lose their kinks before they are keyed,
    and each keyed diagram resolves at its first violation; the pair
    (crossings, violations) falls on both branches, so the resolution
    ends.  A diagram of more than ``MAX_SKEIN_CROSSINGS`` crossings, or one
    whose resolution keys more than ``MAX_KEYED_DIAGRAMS`` diagrams, raises
    BudgetError rather than silently truncating.

    The memo table is local to one call.
    """
    n = sum(map(len, d.components)) // 2  # each crossing is passed twice
    if n > MAX_SKEIN_CROSSINGS:
        raise BudgetError(f"{n} crossings exceed the bound of {MAX_SKEIN_CROSSINGS}")
    memo: dict[_Key, HalfLaurent] = {}
    d = _without_kinks(d)
    root = canonical_key(d)
    keyed = 1
    # Each diagram is keyed once, where it is made and its kinks are gone,
    # and carries its key on the stack, with ``connected`` set when its
    # surgery shows it non-split.  An entry with ``prepared`` set is popped
    # after both of its children and combines their values: (switched key,
    # smoothed key, edge coefficient).
    stack: list[
        tuple[OrientedDiagram, _Key, bool, tuple[_Key, _Key, HalfLaurent] | None]
    ] = [(d, root, False, None)]
    while stack:
        diagram, key, connected, prepared = stack.pop()
        if prepared is not None:
            skey, mkey, edge = prepared
            memo[key] = memo[skey] + edge * memo[mkey]
            continue
        if key in memo:
            continue
        if not connected and is_split(diagram):
            memo[key] = HalfLaurent.zero()
            continue
        violation = first_violation(diagram)
        if violation is None:  # descending: an unlink
            memo[key] = (
                HalfLaurent.one()
                if component_count(diagram) == 1
                else HalfLaurent.zero()
            )
            continue
        keyed += 2
        if keyed > MAX_KEYED_DIAGRAMS:
            raise BudgetError(
                f"the skein resolution keys more than {MAX_KEYED_DIAGRAMS} diagrams"
            )
        cid, _, sign = violation
        switched = switch_crossing(diagram, cid)
        smoothed = _without_kinks(smooth_crossing(diagram, cid))
        skey = canonical_key(switched)
        mkey = canonical_key(smoothed)
        edge = _SKEIN if sign > 0 else -_SKEIN
        merged = len(smoothed.components) < len(diagram.components)
        stack.append((diagram, key, True, (skey, mkey, edge)))
        stack.append((switched, skey, True, None))
        stack.append((smoothed, mkey, merged, None))
    return memo[root]
