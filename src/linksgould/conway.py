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


def _base_value(d: OrientedDiagram) -> HalfLaurent | None:
    if is_split(d):
        return HalfLaurent.zero()
    if first_violation(d) is None:
        return (
            HalfLaurent.one()
            if component_count(d) == 1
            else HalfLaurent.zero()
        )
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
    stack: list[tuple[OrientedDiagram, tuple[str, str, HalfLaurent] | None]] = [
        (d, None)
    ]
    while stack:
        diagram, prepared = stack.pop()
        key = canonical_key(diagram)
        if prepared is not None:
            skey, mkey, edge = prepared
            memo[key] = memo[skey] + edge * memo[mkey]
            continue
        if key in memo:
            continue
        base = _base_value(diagram)
        if base is not None:
            memo[key] = base
            continue
        cid = first_violation(diagram)
        sign = diagram.sign_of(cid)
        switched = switch_crossing(diagram, cid)
        smoothed = smooth_crossing(diagram, cid)
        edge = _SKEIN if sign > 0 else -_SKEIN
        stack.append((diagram, (canonical_key(switched), canonical_key(smoothed), edge)))
        stack.append((switched, None))
        stack.append((smoothed, None))
    return memo[canonical_key(d)]


def conway_substituted(
    d: OrientedDiagram, m: int, budget: int = DEFAULT_CROSSING_BUDGET
) -> Laurent2:
    """conway(d) with s replaced by t^m (so t_classical = t^(2m))."""
    return conway(d, budget).substitute_power(m)
