"""
The Alexander-Conway polynomial by skein resolution.

The defining relations are D(unknot) = 1 and
D(L+) - D(L-) = (s - s^-1) D(L0), with s^2 = t.  Two consequences close
the recursion and are installed as base cases: a descending diagram is an
unlink (value 1 for one component, else 0), and any split diagram has
value 0 (switch a crossing-free pair of components past each other: the
relation forces (s - s^-1) D = 0).

Resolution strategy: walk the components from their basepoints in order;
if every crossing is first met on its over strand the diagram is
descending.  Otherwise take the first violating crossing c and resolve
    D(d) = D(switch c) + sign(c) * (s - s^-1) * D(smooth c).
Switching the first violation leaves the earlier traversal untouched, so
the violation count drops by one; smoothing drops the crossing count.
The pair (crossings, violations) decreases lexicographically on both
branches, which is the termination measure.  Values are memoized on
``canonical_key``.
"""
from __future__ import annotations

from .diagram import (
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
# increases the count, so no diagram in the resolution has more.
MAX_SKEIN_CROSSINGS = 64

# The crossing bound does not limit the engine's cost, which grows with
# the number of diagrams the resolution keys, so one conway call keys at
# most this many.  The closed 2-braid sigma^24 keys 15 333 diagrams
# (0.2 s) and sigma^32 176 065 (3.3 s, 73 MB); sigma^36 and longer reach
# the bound after about 10 s at a 178 MB peak, where sigma^40 ran 41 s and
# 657 MB without it (2-core x86, Python 3.11.7).
MAX_KEYED_DIAGRAMS = 2**19

_SKEIN = HalfLaurent.s() - HalfLaurent.s(-1)


def first_violation(d: OrientedDiagram) -> int | None:
    """The first crossing met on its under strand, or None if descending."""
    seen: set[int] = set()
    for index in range(len(d.components)):
        for cid, over in d.walk(index):
            if cid in seen:
                continue
            seen.add(cid)
            if not over:
                return cid
    return None


def conway(d: OrientedDiagram) -> HalfLaurent:
    """
    The Alexander-Conway polynomial of a diagram, in s = t^(1/2).

    A diagram of more than ``MAX_SKEIN_CROSSINGS`` crossings, or one whose
    resolution keys more than ``MAX_KEYED_DIAGRAMS`` diagrams, raises
    BudgetError rather than silently truncating.

    The memo table is local to one call.
    """
    n = len(d.crossings)
    if n > MAX_SKEIN_CROSSINGS:
        raise BudgetError(f"{n} crossings exceed the bound of {MAX_SKEIN_CROSSINGS}")
    memo: dict[str, HalfLaurent] = {}
    root = canonical_key(d)
    keyed = 1
    # Each diagram is keyed once, where it is made, and carries its key on
    # the stack.  An entry with ``prepared`` set is popped after both of its
    # children and combines their values: (switched key, smoothed key,
    # edge coefficient).
    stack: list[
        tuple[OrientedDiagram, str, tuple[str, str, HalfLaurent] | None]
    ] = [(d, root, None)]
    while stack:
        diagram, key, prepared = stack.pop()
        if prepared is not None:
            skey, mkey, edge = prepared
            memo[key] = memo[skey] + edge * memo[mkey]
            continue
        if key in memo:
            continue
        if is_split(diagram):
            memo[key] = HalfLaurent.zero()
            continue
        cid = first_violation(diagram)
        if cid is None:  # descending: an unlink
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
        switched = switch_crossing(diagram, cid)
        smoothed = smooth_crossing(diagram, cid)
        skey = canonical_key(switched)
        mkey = canonical_key(smoothed)
        edge = _SKEIN if diagram.sign_of(cid) > 0 else -_SKEIN
        stack.append((diagram, key, (skey, mkey, edge)))
        stack.append((switched, skey, None))
        stack.append((smoothed, mkey, None))
    return memo[root]
