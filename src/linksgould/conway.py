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
from .errors import CrossingBudgetError
from .laurent import HalfLaurent, Laurent2

__all__ = ["conway", "conway_substituted", "first_violation"]

DEFAULT_CROSSING_BUDGET = 64

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


def conway(
    d: OrientedDiagram, budget: int = DEFAULT_CROSSING_BUDGET
) -> HalfLaurent:
    """
    The Alexander-Conway polynomial of a diagram, in s = t^(1/2).

    ``budget`` caps the crossing count of any diagram entering the
    resolution (surgery never increases it); exceeding the cap raises
    CrossingBudgetError rather than silently truncating.

    The memo table is local to one call.
    """
    if len(d.crossings) > budget:
        raise CrossingBudgetError(
            f"{len(d.crossings)} crossings exceed the budget of {budget}"
        )
    memo: dict[str, HalfLaurent] = {}
    root = canonical_key(d)
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
        switched = switch_crossing(diagram, cid)
        smoothed = smooth_crossing(diagram, cid)
        skey = canonical_key(switched)
        mkey = canonical_key(smoothed)
        edge = _SKEIN if diagram.sign_of(cid) > 0 else -_SKEIN
        stack.append((diagram, key, (skey, mkey, edge)))
        stack.append((switched, skey, None))
        stack.append((smoothed, mkey, None))
    return memo[root]


def conway_substituted(
    d: OrientedDiagram, m: int, budget: int = DEFAULT_CROSSING_BUDGET
) -> Laurent2:
    """conway(d) with s replaced by t^m (so t_classical = t^(2m))."""
    return conway(d, budget).substitute_power(m)
