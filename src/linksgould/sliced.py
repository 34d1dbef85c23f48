"""
Sliced diagrams: horizontal rows of elementary oriented tangle pieces.

The eight generators are an upward strand, a downward strand, the two
crossings (on upward strands), two caps and two cups.  A sliced diagram
stacks full-width rows; reading bottom to top, each row's inputs must
match the previous row's outputs, orientation for orientation.

Cap/cup naming is positional: ``CUP_U`` creates an (up, down) pair, so a
strand closed off to the right uses ``CUP_U`` below and ``CAP_N`` above,
and the quantum trace of X on k+1 strands is literally the stack
[id^k (x) u], [X (x) id], [id^k (x) n].  The mirrored pieces ``CUP_UT``
and ``CAP_NT`` create and close (down, up) pairs.
"""
from __future__ import annotations

import enum

from ._record import Record
from .braid import BraidWord

__all__ = ["Piece", "SlicedDiagram", "to_sliced"]


class Piece(enum.Enum):
    ID_UP = "|"
    ID_DOWN = "!"
    CROSS_POS = "R"
    CROSS_NEG = "R'"
    CAP_N = "n"
    CAP_NT = "n~"
    CUP_U = "u"
    CUP_UT = "u~"

    @property
    def inputs(self) -> tuple[str, ...]:
        return _SHAPES[self][0]

    @property
    def outputs(self) -> tuple[str, ...]:
        return _SHAPES[self][1]

    @property
    def is_identity(self) -> bool:
        return self in (Piece.ID_UP, Piece.ID_DOWN)


_SHAPES: dict[Piece, tuple[tuple[str, ...], tuple[str, ...]]] = {
    Piece.ID_UP: (("u",), ("u",)),
    Piece.ID_DOWN: (("d",), ("d",)),
    Piece.CROSS_POS: (("u", "u"), ("u", "u")),
    Piece.CROSS_NEG: (("u", "u"), ("u", "u")),
    Piece.CAP_N: (("u", "d"), ()),
    Piece.CAP_NT: (("d", "u"), ()),
    Piece.CUP_U: ((), ("u", "d")),
    Piece.CUP_UT: ((), ("d", "u")),
}


class SlicedDiagram(Record):
    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[Piece, ...], ...]):
        object.__setattr__(self, "rows", rows)

    def bottom(self) -> tuple[str, ...]:
        """Orientations of the bottom boundary."""
        if not self.rows:
            return ()
        return tuple(o for piece in self.rows[0] for o in piece.inputs)

    def top(self) -> tuple[str, ...]:
        if not self.rows:
            return ()
        return tuple(o for piece in self.rows[-1] for o in piece.outputs)

    def validate(self) -> None:
        """
        Check boundary chaining and the slicing discipline (at most one
        non-identity piece per row).
        """
        prev: tuple[str, ...] | None = None
        for k, row in enumerate(self.rows):
            ins = tuple(o for piece in row for o in piece.inputs)
            outs = tuple(o for piece in row for o in piece.outputs)
            if prev is not None and ins != prev:
                raise ValueError(
                    f"row {k} inputs {ins} do not match previous outputs {prev}"
                )
            if sum(0 if piece.is_identity else 1 for piece in row) > 1:
                raise ValueError(f"row {k} has more than one active piece")
            prev = outs

    def __str__(self) -> str:
        return "\n".join(
            " ".join(piece.value for piece in row) for row in reversed(self.rows)
        )


def to_sliced(word: BraidWord, keep_open: bool = False) -> SlicedDiagram:
    """
    Slice the closure of a braid word.

    With ``keep_open=True`` the first strand is left running through (a
    (1,1)-tangle whose bracket is scalar; that scalar is the closed
    link's invariant) and strands 2..n are closed off to the right.  With
    the default, every strand is closed and the bracket is a plain scalar.

    Closure arcs nest: the row for strand j's cup is inserted inside the
    previously created arcs, crossings act on the braid strands with the
    return lines idling to the right, and caps close innermost first.
    """
    n = word.strands
    first = 2 if keep_open else 1
    rows: list[tuple[Piece, ...]] = []
    for j in range(first, n + 1):
        rows.append(
            (Piece.ID_UP,) * (j - 1)
            + (Piece.CUP_U,)
            + (Piece.ID_DOWN,) * (j - first)
        )
    tail = (Piece.ID_DOWN,) * (n - first + 1)
    for idx, sign in word.letters:
        rows.append(
            (Piece.ID_UP,) * (idx - 1)
            + ((Piece.CROSS_POS if sign > 0 else Piece.CROSS_NEG),)
            + (Piece.ID_UP,) * (n - idx - 1)
            + tail
        )
    for j in range(n, first - 1, -1):
        rows.append(
            (Piece.ID_UP,) * (j - 1)
            + (Piece.CAP_N,)
            + (Piece.ID_DOWN,) * (j - first)
        )
    if not rows:
        rows.append((Piece.ID_UP,) * n)
    sd = SlicedDiagram(tuple(rows))
    sd.validate()
    return sd
