"""
Braid words and the rewrites used to probe invariance.

The text grammar is deliberately tiny: a braid word is whitespace-
separated nonzero ASCII decimal integers, where k > 0 means the k-th
positive generator and k < 0 its inverse.  The strand count defaults to
one more than the largest index used.
"""
from __future__ import annotations

from ._record import Record
from .errors import ParseError

__all__ = ["BraidWord", "parse_braid"]


class BraidWord(Record):
    """A word in the braid group on ``strands`` strands."""

    __slots__ = ("strands", "letters")

    def __init__(self, strands: int, letters: tuple[tuple[int, int], ...]):
        if strands < 1:
            raise ValueError("a braid needs at least one strand")
        for idx, sign in letters:
            if not 1 <= idx < strands:
                raise ValueError(
                    f"generator index {idx} out of range for {strands} strands"
                )
            if sign not in (1, -1):
                raise ValueError(f"letter sign must be +-1, got {sign}")
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "letters", letters)

    def permutation(self) -> tuple[int, ...]:
        """Where each starting position ends up, as a 0-based map."""
        pos = list(range(self.strands))
        for idx, _ in self.letters:
            i = idx - 1
            pos[i], pos[i + 1] = pos[i + 1], pos[i]
        # pos[p] = strand now at position p; invert to strand -> position.
        end = [0] * self.strands
        for p, s in enumerate(pos):
            end[s] = p
        return tuple(end)

    def writhe(self) -> int:
        return sum(sign for _, sign in self.letters)

    def render(self) -> str:
        return " ".join(str(idx * sign) for idx, sign in self.letters)

    def __str__(self) -> str:
        return self.render()

    # -- rewrites (all of these fix the closure's link type) -------------

    def conjugated(self, idx: int, sign: int = 1) -> BraidWord:
        """g w g^-1 for the generator letter (idx, sign)."""
        return BraidWord(
            self.strands,
            ((idx, sign),) + self.letters + ((idx, -sign),),
        )

    def stabilized(self, sign: int = 1) -> BraidWord:
        """Append a new strand and one crossing with it (Markov move)."""
        return BraidWord(
            self.strands + 1, self.letters + ((self.strands, sign),)
        )

    def braid_relation_applied(self, pos: int) -> BraidWord | None:
        """
        Rewrite letters pos..pos+2 by the relation
        s_i s_{i+1} s_i = s_{i+1} s_i s_{i+1} (same-sign triples, either
        direction); None when the pattern does not match.
        """
        w = self.letters
        if pos < 0 or pos + 3 > len(w):
            return None
        (a, sa), (b, sb), (c, sc) = w[pos : pos + 3]
        if not (sa == sb == sc and a == c):
            return None
        if b == a + 1 or b == a - 1:
            rewritten = ((b, sa), (a, sa), (b, sa))
            return BraidWord(self.strands, w[:pos] + rewritten + w[pos + 3 :])
        return None

    def commutation_applied(self, pos: int) -> BraidWord | None:
        """Swap far-apart adjacent letters (|i - j| >= 2); None otherwise."""
        w = self.letters
        if pos < 0 or pos + 2 > len(w):
            return None
        (a, sa), (b, sb) = w[pos : pos + 2]
        if abs(a - b) < 2:
            return None
        return BraidWord(self.strands, w[:pos] + ((b, sb), (a, sa)) + w[pos + 2 :])

    def reduced(self) -> BraidWord:
        """
        A shorter word with the same closure: cancel s_i^e ... s_i^-e
        whenever every letter between them commutes with s_i (|j - i| >= 2),
        then remove the last strand while s_{n-1} occurs exactly once
        (Markov destabilisation), cancelling again after each removal.
        The result is its own reduction and never longer or wider.

        >>> parse_braid("2 1 3 -1 3 1").reduced().render()
        '2 3 3 1'
        >>> parse_braid("1 -2 1 3").reduced()
        BraidWord(strands=2, letters=((1, 1), (1, 1)))
        """
        n, letters = self.strands, _cancelled(self.letters)
        while n > 1 and sum(i == n - 1 for i, _ in letters) == 1:
            letters = _cancelled([x for x in letters if x[0] != n - 1])
            n -= 1
        return BraidWord(n, tuple(letters))


def _cancelled(letters) -> list[tuple[int, int]]:
    """
    The letters with every cancelling pair removed: each letter looks back
    past the letters that commute with it and cancels the first one left
    if that is its inverse.  A removal leaves no new pair to cancel, since
    every letter after the removed one commutes with it.
    """
    out: list[tuple[int, int]] = []
    for idx, sign in letters:
        pos = len(out) - 1
        while pos >= 0 and abs(out[pos][0] - idx) >= 2:
            pos -= 1
        if pos >= 0 and out[pos] == (idx, -sign):
            del out[pos]
        else:
            out.append((idx, sign))
    return out


def parse_braid(text: str, strands: int | None = None) -> BraidWord:
    """
    Parse a braid word.

    >>> parse_braid("1 -2 1 -2").strands
    3
    >>> parse_braid("", strands=2).letters
    ()
    """
    letters: list[tuple[int, int]] = []
    top = 0
    for token in text.split():
        try:
            if not token.isascii() or "_" in token:
                raise ValueError  # int() reads "1_0" and non-ASCII digits too
            k = int(token)
        except ValueError:
            raise ParseError(f"braid letter {token!r} is not an integer") from None
        if k == 0:
            raise ParseError("0 is not a braid letter (generators start at 1)")
        idx = abs(k)
        letters.append((idx, 1 if k > 0 else -1))
        top = max(top, idx)
    n = strands if strands is not None else top + 1 if top else 1
    if n < 1:
        raise ParseError("strand count must be positive")
    if top >= n:
        raise ParseError(
            f"generator index {top} needs at least {top + 1} strands, got {n}"
        )
    return BraidWord(n, tuple(letters))
