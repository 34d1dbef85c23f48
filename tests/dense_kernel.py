"""
The dense tensor kernel, kept as a test oracle.

``kron`` and ``mat_mul`` here take and return full matrices (tuples of
``RationalFn`` rows) and multiply only nonzero entries, summing each
entry's products in increasing k: the same products, in the same order,
as the sparse kernel of ``linksgould.tensor``.  ``bracket`` composes them
over a sliced diagram from the fixture's dense fields.
"""
from linksgould.rational import RationalFn
from linksgould.sliced import Piece
from linksgould.tensor import identity_matrix

_ZERO = RationalFn.zero()

_FIELDS = {
    Piece.CROSS_POS: "R",
    Piece.CROSS_NEG: "Rinv",
    Piece.CAP_N: "n",
    Piece.CAP_NT: "ntilde",
    Piece.CUP_U: "u",
    Piece.CUP_UT: "utilde",
}


def _nonzero(entries):
    """The (index, entry) pairs of the nonzero entries, in order."""
    return [(k, x) for k, x in enumerate(entries) if x.num._terms]


def mat_mul(a, b):
    if len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a)}x{len(a[0])} times {len(b)}x{len(b[0])}")
    width = len(b[0])
    b_rows = [_nonzero(row) for row in b]
    out = []
    for row in a:
        acc = [None] * width
        for k, x in _nonzero(row):
            for j, y in b_rows[k]:
                s = acc[j]
                acc[j] = x * y if s is None else s + x * y
        out.append(tuple(_ZERO if s is None else s for s in acc))
    return tuple(out)


def kron(a, b):
    cb = len(b[0])
    width = len(a[0]) * cb
    b_rows = [_nonzero(row) for row in b]
    out = []
    for ra_row in a:
        a_hot = [(i * cb, x) for i, x in _nonzero(ra_row)]
        for b_hot in b_rows:
            row = [_ZERO] * width
            for base, x in a_hot:
                for j, y in b_hot:
                    row[base + j] = x * y
            out.append(tuple(row))
    return tuple(out)


def piece_matrix(a, piece):
    if piece.is_identity:
        return identity_matrix(a.dim)
    return getattr(a, _FIELDS[piece])


def bracket(d, a):
    """The bracket of a sliced diagram, composed row by row with dense matrices."""
    d.validate()
    if not d.rows:
        return ((RationalFn.one(),),)
    total = None
    for row in d.rows:
        m = piece_matrix(a, row[0])
        for piece in row[1:]:
            m = kron(m, piece_matrix(a, piece))
        total = m if total is None else mat_mul(m, total)
    return total
