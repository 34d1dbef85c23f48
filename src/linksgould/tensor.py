"""
Generic bracket evaluator for sliced diagrams.

A ``TensorAssignment`` supplies exact matrices for the eight elementary
pieces: the braiding R and its inverse on a D^2-dimensional tensor
square, and the four cap/cup vectors.  ``validate_assignment`` checks the
axioms that make the bracket an ambient-isotopy invariant, each as an
isotopy between two sliced diagrams whose brackets must agree: R' then R
is two plain strands (second Reidemeister move), the two Yang-Baxter
stacks agree (third move), the closure of R or R' on the right is one
strand (first move), and the four zigzags straighten (planar isotopy):

    n  . u~ = id      u  . n~ = id      n~ . u  = id      u~ . n  = id

The bracket of a braid closure sliced as a (1,1)-tangle is a scalar
times the identity, and that scalar is the link invariant of the closure.

Both evaluators move sparse {basis: entry} states through one piece at a
time with one kernel, ``_apply``: a basis is an integer whose base-D
digits are the strands, and a piece P with k strands to its right takes
the digits (hi, j, lo), lo the last k, to (hi, r, lo) for each entry
P[r][j].  An entry of 1 passes the coefficient through, and the other
entries multiply it, unless the coefficient is still the 1 that the state
started from; a ``Laurent2`` monomial entry shifts it through
``Laurent2``'s own product.  A product of nonzero entries is never zero,
so an entry is dropped only where a sum cancels.  The entries of 1 among
each piece's entries, and among the nonzero entries of the closing weight
below, are marked once per fixture.

``bracket`` evaluates any sliced diagram by evolving each bottom basis
through each row's active piece; it checks the fixture axioms in
``validate_assignment`` and is the oracle that ``braid_bracket`` must
equal on ``to_sliced(word, keep_open=True)``.  ``braid_bracket`` computes
the closure without slicing: it evolves basis states of the n upward
strands through each letter's R or Rinv, which touches two strands only,
and takes the closing strands 2..n as a partial trace weighted by their
cup and cap.  The closing weights are formed once per braid, and a start
state whose weight row is empty is never evolved.  Its cost is D^n start
states times letters times state size, where the sliced closure is
D^(2n-1) wide.

Everything is exact.  Matrices are dense at the edges: fixture fields
and the results of ``bracket`` and ``braid_bracket`` are full tuples of
``RationalFn`` rows.  When every fixture entry is a Laurent polynomial,
as for LG^(1,1), the states hold ``Laurent2`` numerators, which multiply
and add without ``RationalFn``'s wrapper; otherwise ``RationalFn``.
Validation spans D^3 dimensions and costs about D^6, so ``load_fixture``
refuses a fixture with D^3 > ``MAX_TENSOR_DIM`` before any check runs,
and likewise one whose entries' products, as validation forms them,
could outgrow the text grammar's expression bound.  Only the fixture
file functions import ``json``, and only reading a fixture imports the
text grammar (``textform``), so evaluating with the built-in LG^(1,1)
assignment loads neither.
"""
from __future__ import annotations

import os
from functools import cache, cached_property
from itertools import product

from ._record import Record
from .braid import BraidWord
from .errors import BudgetError, FixtureValidationError, NotScalarError
from .laurent import Laurent2
from .rational import RationalFn
from .sliced import Piece, SlicedDiagram

__all__ = [
    "TensorAssignment",
    "ValidationCheck",
    "ValidationReport",
    "validate_assignment",
    "bracket",
    "braid_bracket",
    "scalar_of",
    "lg11_fixture",
    "load_fixture",
    "dump_fixture",
    "identity_matrix",
]

Matrix = tuple[tuple[RationalFn, ...], ...]

_ZERO = RationalFn.zero()
_ONE = RationalFn.one()

# Input bounds; the CLI exits 3 on going over one.  With D basis states per
# strand, ``braid_bracket`` evolves D^n start states on n strands, each
# through every letter, and a state holds at most D^n entries.  For
# LG^(1,1) an 8-letter braid takes 3-4 ms on 5 strands, 5 ms on 6,
# 10-12 ms on 7, 0.02 s on 8 and, with a 12-letter braid, 0.23-0.25 s on
# 10 and 0.8-1.1 s on 12, each peaking at 17 MB (shared 2-core x86
# machine, Python 3.11.7).  Validating a fixture spans D^3 dimensions at
# a cost of about D^6 (D = 10: 1.4 s).  Both widths are bounded by that of
# LG^(1,1) (D = 2) at MAX_TENSOR_STRANDS, with D^(2n-1) the width of the
# sliced closure; a wider fixture, such as LG^(2,1)'s D = 4, will set them.
MAX_TENSOR_STRANDS = 6
MAX_TENSOR_DIM = 2 ** (2 * MAX_TENSOR_STRANDS - 1)
# The entries grow with the letters, so the cost grows faster than
# linearly in them: on 6 strands, random LG^(1,1) braids of 100 letters
# took 0.55-0.87 s, of 150 letters 1.2-1.6 s and of 200 letters 2.8-3.5 s;
# the slowest braid tried, 1 -2 3 -4 5 repeated, took 1.7-2.3 s at 100
# letters and 3.4-3.7 s at 128.
MAX_TENSOR_LETTERS = 100


def _mat(rows) -> Matrix:
    return tuple(tuple(RationalFn._coerce(x) for x in row) for row in rows)


def identity_matrix(n: int) -> Matrix:
    return tuple(
        tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)
    )


# A fixture's pieces are held sparse: a tuple of rows, each the (column,
# entry) pairs of its nonzero entries in increasing column, and the column
# count.  Its entries are ``Laurent2`` numerators when every entry of the
# assignment has denominator 1, and ``RationalFn`` otherwise.  A State is a
# sparse {basis: entry} map.  A Move is an entry P[r][j] filed under its
# column j as (r - j, _factor(P[r][j])).  A Step is a piece P as
# ``_apply`` takes it: (D^k for the k strands to its right, P's column
# count, its row count less its column count, its Moves).
Entry = RationalFn | Laurent2
SparseMatrix = tuple[tuple[tuple[tuple[int, Entry], ...], ...], int]
State = dict[int, Entry]
Move = tuple[int, Entry | None]
Step = tuple[int, int, int, list[list[Move]]]


def _sparse(m: Matrix, polynomial: bool = False) -> SparseMatrix:
    rows = tuple(
        tuple((j, x.num if polynomial else x) for j, x in enumerate(row) if not x.is_zero())
        for row in m
    )
    return rows, len(m[0])


def _dense(rows: list[State], cols: int) -> Matrix:
    out = []
    for row in rows:
        dense = [_ZERO] * cols
        for j, x in row.items():
            dense[j] = RationalFn._coerce(x)
        out.append(tuple(dense))
    return tuple(out)


# Neither mat_mul nor kron has a library caller: both evaluators move sparse
# states through ``_apply``.  They stay because the benchmark's tracer binds
# them by name, and the kernel tests use them as oracles.
def mat_mul(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    a_rows, a_cols = a
    b_rows, b_cols = b
    if a_cols != len(b_rows):
        raise ValueError(
            f"shape mismatch: {len(a_rows)}x{a_cols} times {len(b_rows)}x{b_cols}"
        )
    out = []
    for row in a_rows:
        # Each entry sums its products in increasing k, as a dot product
        # would; an entry whose sum cancels is dropped.
        acc: dict[int, Entry] = {}
        for k, x in row:
            for j, y in b_rows[k]:
                s = acc.get(j)
                acc[j] = x * y if s is None else s + x * y
        out.append(tuple(sorted((j, s) for j, s in acc.items() if not s.is_zero())))
    return tuple(out), b_cols


def kron(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    a_rows, a_cols = a
    b_rows, b_cols = b
    return tuple(
        tuple((i * b_cols + j, x * y) for i, x in ra for j, y in rb)
        for ra in a_rows
        for rb in b_rows
    ), a_cols * b_cols


def _first_mismatch(a: Matrix, b: Matrix) -> tuple[int, int] | None:
    for i, (ra, rb) in enumerate(zip(a, b)):
        for j, (x, y) in enumerate(zip(ra, rb)):
            if x != y:
                return i, j
    return None


class TensorAssignment(Record):
    """
    Matrices for the elementary pieces; shapes are fixed by ``dim``: ``R``
    and ``Rinv`` are D^2 x D^2, the caps ``n`` and ``ntilde`` 1 x D^2, the
    cups ``u`` and ``utilde`` D^2 x 1.
    """

    # The __dict__ slot holds the cached sparse pieces.
    __slots__ = ("dim", "R", "Rinv", "n", "ntilde", "u", "utilde", "__dict__")
    # Its entries have no hash (see RationalFn), so neither has the record.
    __hash__ = None

    def __init__(
        self, dim: int, R: Matrix, Rinv: Matrix, n: Matrix, ntilde: Matrix, u: Matrix, utilde: Matrix
    ):
        for name, value in zip(self._fields, (dim, R, Rinv, n, ntilde, u, utilde)):
            object.__setattr__(self, name, value)
        d = self.dim
        if d < 1:
            raise ValueError("dimension must be positive")
        square, cap, cup = (d * d, d * d), (1, d * d), (d * d, 1)
        shapes = {"R": square, "Rinv": square, "n": cap, "ntilde": cap, "u": cup, "utilde": cup}
        for name, (rows, cols) in shapes.items():
            m = getattr(self, name)
            if len(m) != rows or any(len(r) != cols for r in m):
                raise ValueError(f"{name} must be {rows}x{cols} for dim {d}")

    def piece_matrix(self, piece: Piece) -> SparseMatrix:
        return self._pieces[piece]

    @cached_property
    def _pieces(self) -> dict[Piece, SparseMatrix]:
        fields = {
            Piece.CROSS_POS: self.R,
            Piece.CROSS_NEG: self.Rinv,
            Piece.CAP_N: self.n,
            Piece.CAP_NT: self.ntilde,
            Piece.CUP_U: self.u,
            Piece.CUP_UT: self.utilde,
        }
        # Laurent polynomials multiply and add without RationalFn's wrapper.
        polynomial = all(x.den.is_one() for m in fields.values() for row in m for x in row)
        identity = _sparse(identity_matrix(self.dim), polynomial)
        return {
            p: identity if p.is_identity else _sparse(fields[p], polynomial) for p in Piece
        }

    @cached_property
    def _columns(self) -> dict[Piece, tuple[int, int, list[list[Move]]]]:
        """Each piece as the last three fields of its Step, column j listing its entries' Moves."""
        out = {}
        for p, (rows, width) in self._pieces.items():
            cols = [[] for _ in range(width)]
            for r, row in enumerate(rows):
                for j, x in row:
                    cols[j].append((r - j, _factor(x)))
            out[p] = width, len(rows) - width, cols
        return out

    @cached_property
    def _closing(self) -> list[list[Move]]:
        """W[c][c'] = sum_e u[(c,e)] n[(c',e)]; row c holds its nonzero entries as Moves."""
        d = self.dim
        (cup_rows, _), ((cap_row,), _) = self._pieces[Piece.CUP_U], self._pieces[Piece.CAP_N]
        cup = [(i, row[0][1]) for i, row in enumerate(cup_rows) if row]
        w_rows: list[dict[int, Entry]] = [{} for _ in range(d)]
        for (i, x), (k, y) in product(cup, cap_row):
            if i % d == k % d:
                row, j = w_rows[i // d], k // d
                row[j] = x * y if j not in row else row[j] + x * y
        return [
            [(j, _factor(w)) for j, w in sorted(row.items()) if not w.is_zero()]
            for row in w_rows
        ]

    @property
    def _one(self) -> Entry:
        """The 1 that every state starts from, as the pieces hold it."""
        return self._pieces[Piece.ID_UP][0][0][0][1]


class ValidationCheck(Record):
    __slots__ = ("name", "passed", "witness")

    def __init__(self, name: str, passed: bool, witness: str | None = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "witness", witness)


class ValidationReport(Record):
    __slots__ = ("checks",)

    def __init__(self, checks: tuple[ValidationCheck, ...]):
        object.__setattr__(self, "checks", checks)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[ValidationCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def __str__(self) -> str:
        return "\n".join(
            f"{'PASS' if c.passed else 'FAIL'}  {c.name}"
            + (f"  [{c.witness}]" if c.witness else "")
            for c in self.checks
        )


def bracket(d: SlicedDiagram, a: TensorAssignment) -> Matrix:
    """
    Evaluate a sliced diagram bottom-to-top as a matrix over exact
    scalars, mapping D^len(bottom) to D^len(top) dimensions.  The empty
    diagram is the scalar 1.  Column b is the state that starts as the
    bottom basis b and passes through each row's active piece.
    """
    d.validate()
    one, steps = a._one, []
    for row in d.rows:
        # A row is id^k (x) P (x) id^(len-1-k) for its one active piece P,
        # or the identity piece with D^(len-1) to its right when it has none.
        k = next((i for i, piece in enumerate(row) if not piece.is_identity), 0)
        steps.append((a.dim ** (len(row) - 1 - k), *a._columns[row[k]]))
    width = a.dim ** len(d.bottom())
    result: list[State] = [{} for _ in range(a.dim ** len(d.top()))]
    for b in range(width):
        state = {b: one}
        for step in steps:
            state = _apply(state, step, one)
        for basis, coef in state.items():
            result[basis][b] = coef
    return _dense(result, width)


def braid_bracket(word: BraidWord, a: TensorAssignment) -> Matrix:
    """
    Bracket of the braid closure as a (1,1)-tangle: the first strand runs
    through and strands 2..n close to the right.  It equals
    ``bracket(to_sliced(word, keep_open=True), a)`` entry for entry, but
    evolves the n upward strands only, rather than the D^(2n-1)-wide slices.
    """
    return _dense(_evolve_closure(word, a), a.dim)


def _factor(x: Entry) -> Entry | None:
    """x as a Move holds it: None for an entry of 1, which ``_times`` passes through."""
    return None if x.is_one() else x


def _times(coef: Entry, x: Entry | None) -> Entry:
    """coef times the entry that ``_factor`` took to x."""
    return coef if x is None else x * coef


def _apply(state: State, step: Step, one: Entry) -> State:
    """
    Move a sparse {basis: entry} state through one piece P.  The base-D
    digits (hi, j, lo) of a basis, j the piece's input and lo the strands
    to its right, go to (hi, r, lo) for each entry P[r][j]; where a cap or
    cup changes the width from D^in to D^out, the basis moves by a further
    hi * (D^out - D^in) * right.  By ``_factor``, an entry of 1 passes
    the coefficient through and any other entry multiplies it; a
    coefficient that is still the start's one is replaced by the entry.
    A product of nonzero entries is never zero, so an entry is dropped
    only where a sum cancels.
    """
    right, width, grow, cols = step
    grow *= right
    moved: State = {}
    for basis, coef in state.items():
        upper = basis // right  # the digits (hi, j)
        base = basis + upper // width * grow
        for shift, x in cols[upper % width]:
            key = base + shift * right
            # _times(coef, x), inline, and free for the start's one
            y = coef if x is None else x if coef is one else x * coef
            if (s := moved.get(key)) is None:
                moved[key] = y
            elif (s := s + y).is_zero():
                del moved[key]
            else:
                moved[key] = s
    return moved


def _evolve_closure(word: BraidWord, a: TensorAssignment) -> list[State]:
    """
    Closing strand j is a partial trace: a cup makes the pair (c, e) with
    weight u[(c,e)], the braid carries c to c', and the cap pays
    n[(c',e)], so the strand weighs W[c][c'] = sum_e u[(c,e)] n[(c',e)].
    A basis of the n upward strands is an integer, strand 1 its leading
    base-D digit.  The closing weights are rows
    table[c] = {c': prod_j W[c_j][c'_j]}, each formed once per braid, digit
    by digit from the nonzero entries of W that the fixture holds as
    Moves.  The table is a chain of generators, one per closing strand, so
    that rows sharing their leading digits share those products and only
    one row per digit is held; a c with no nonzero weight has no row and
    starts no state.  Each start basis (b, c) is evolved alone from the
    fixture's one through each letter's R or Rinv by ``_apply``, and a
    final basis (x, c') adds its entry times table[c][c'] to result[x][b].
    """
    d, n, one = a.dim, word.strands, a._one
    table = iter([(0, {0: one})])
    for _ in range(n - 1):
        table = (
            (c * d + i, {e * d + j: _times(p, x) for e, p in ends.items() for j, x in row})
            for c, ends in table
            for i, row in enumerate(a._closing)
            if row
        )
    rest, pieces = d ** (n - 1), {1: Piece.CROSS_POS, -1: Piece.CROSS_NEG}
    moves = {(i, s): (d ** (n - 1 - i), *a._columns[pieces[s]]) for i, s in set(word.letters)}
    steps = [moves[letter] for letter in word.letters]
    result: list[State] = [{} for _ in range(d)]
    for c, ends in table:
        closing = {end: _factor(w) for end, w in ends.items()}
        for b in range(d):
            state = {b * rest + c: one}
            for step in steps:
                state = _apply(state, step, one)
            for basis, coef in state.items():
                top, end = divmod(basis, rest)
                if end in closing:
                    y, row = _times(coef, closing[end]), result[top]
                    row[b] = y if b not in row else row[b] + y
    return result


def scalar_of(m: Matrix) -> RationalFn:
    """
    The scalar lambda with m = lambda * id, for a (1,1)-tangle bracket;
    raises NotScalarError (with the offending entry) otherwise.
    """
    if len(m) != len(m[0]):
        raise NotScalarError(f"bracket is {len(m)}x{len(m[0])}, not square")
    lam = m[0][0]
    for i, row in enumerate(m):
        for j, x in enumerate(row):
            if i == j:
                if x != lam:
                    raise NotScalarError(
                        f"diagonal entry ({i},{i}) is {x}, expected {lam}"
                    )
            elif not x.is_zero():
                raise NotScalarError(f"off-diagonal entry ({i},{j}) is {x}")
    return lam


# -- validation ------------------------------------------------------------

_UP, _DOWN = Piece.ID_UP, Piece.ID_DOWN
_R, _RINV = Piece.CROSS_POS, Piece.CROSS_NEG

# Each axiom is an isotopy between two sliced diagrams, rows listed bottom
# to top; a fixture satisfies it when the two brackets agree entry for entry.
_ISOTOPIES: tuple[tuple[str, SlicedDiagram, SlicedDiagram], ...] = tuple(
    (name, SlicedDiagram(lhs), SlicedDiagram(rhs))
    for name, lhs, rhs in (
        ("R_times_Rinv", ((_RINV,), (_R,)), ((_UP, _UP),)),
        (
            "yang_baxter",
            ((_R, _UP), (_UP, _R), (_R, _UP)),
            ((_UP, _R), (_R, _UP), (_UP, _R)),
        ),
        (
            "cl_R_is_identity",
            ((_UP, Piece.CUP_U), (_R, _DOWN), (_UP, Piece.CAP_N)),
            ((_UP,),),
        ),
        (
            "cl_Rinv_is_identity",
            ((_UP, Piece.CUP_U), (_RINV, _DOWN), (_UP, Piece.CAP_N)),
            ((_UP,),),
        ),
        ("zigzag_n_utilde", ((_UP, Piece.CUP_UT), (Piece.CAP_N, _UP)), ((_UP,),)),
        ("zigzag_u_ntilde", ((Piece.CUP_U, _UP), (_UP, Piece.CAP_NT)), ((_UP,),)),
        ("zigzag_ntilde_u", ((_DOWN, Piece.CUP_U), (Piece.CAP_NT, _DOWN)), ((_DOWN,),)),
        ("zigzag_utilde_n", ((Piece.CUP_UT, _DOWN), (_DOWN, Piece.CAP_N)), ((_DOWN,),)),
    )
)


# Validation multiplies one entry of each piece of an isotopy: three of R
# for Yang-Baxter, R and Rinv for the second move, a cup, R and a cap for
# the first.  A product whose denominator is not a monomial goes through
# gcd cancellation, whose cost grows with numerator and denominator
# together, so both must stay within the parser's expression bound,
# reckoned from the hull of each piece's entry boxes.  Measured without
# this check (tensor eval --fixture on "1 1 1", 2-core x86, Python
# 3.11.7), with each nonzero LG^(1,1) entry e written as e*(t+q+1)^n/D^n:
# for D = t+2q+3, Yang-Baxter's product boxes hold 91 and 49 points at
# n = 2 (0.21 s), 160 and 100 at n = 3 (1.1 s, the slowest fixture
# accepted), 247 and 169 at n = 4 (6.2 s) and 475 and 361 at n = 6 (56 s);
# for D = t+2, 160 and 10 points at n = 3 (0.60 s) and 247 and 13 at n = 4
# (3.1 s).  Polynomial products run no gcd and are not checked: D = 1 at
# n = 10 reaches 1 147 points and takes 0.17 s.  The bound also refuses
# some cheap fixtures: e/(t+2q+3)^6 reaches 361 denominator points but
# took 0.16 s.
def _check_validation_size(a: TensorAssignment) -> None:
    """Refuse, with BudgetError, a fixture whose validation products are too large."""
    from .textform import _check_size, _fraction_boxes, _product_box, _sum_box

    unit = ((0, 0), (0, 0))
    for name, lhs, _ in _ISOTOPIES:
        num = den = unit
        for piece in (p for row in lhs.rows for p in row if not p.is_identity):
            # Any entry of the piece may be the factor: take the boxes' hull.
            hull_n = hull_d = None
            for row in a.piece_matrix(piece)[0]:
                for _, x in row:
                    n, d = _fraction_boxes(x)
                    hull_n, hull_d = _sum_box(hull_n, n), _sum_box(hull_d, d)
            num, den = _product_box(num, hull_n), _product_box(den, hull_d)
        if den != unit:
            try:
                _check_size(num, den)
            except BudgetError as exc:
                raise BudgetError(f"fixture check {name}: {exc}") from None


def validate_assignment(a: TensorAssignment) -> ValidationReport:
    """Check every isotopy, reporting a witness entry for each failure."""
    checks: list[ValidationCheck] = []
    for name, lhs, rhs in _ISOTOPIES:
        got, want = bracket(lhs, a), bracket(rhs, a)
        where = _first_mismatch(got, want)
        witness = None
        if where is not None:
            i, j = where
            witness = f"entry ({i},{j}): got {got[i][j]}, want {want[i][j]}"
        checks.append(ValidationCheck(name, where is None, witness))
    return ValidationReport(tuple(checks))


# -- the shipped LG(1,1) assignment ----------------------------------------

@cache
def lg11_fixture() -> TensorAssignment:
    """
    The two-dimensional assignment computing LG^(1,1), i.e. the
    Alexander-Conway polynomial at t_classical = t^2.

    It is the unique weight-graded solution (up to rescaling the basis) of
    the constraint system: braiding eigenvalues {t, -t^-1}, Yang-Baxter,
    quantum traces of R and Rinv equal to the identity, and diagonal
    caps/cups subject to the zigzag identities.  The weighted trace it
    induces has weights (t, -t), whose vanishing sum is what forces every
    fully closed diagram to the scalar 0 and makes the open-strand
    convention necessary.

    Built once per process: the assignment is frozen, and its sparse
    pieces are cached on it.
    """
    t = Laurent2.t
    z, o = 0, 1
    R = _mat(
        [
            [t(1), z, z, z],
            [z, t(1) - t(-1), o, z],
            [z, o, z, z],
            [z, z, z, -t(-1)],
        ]
    )
    Rinv = _mat(
        [
            [t(-1), z, z, z],
            [z, z, o, z],
            [z, o, t(-1) - t(1), z],
            [z, z, z, -t(1)],
        ]
    )
    n = _mat([[o, z, z, o]])
    u = _mat([[t(1)], [z], [z], [-t(1)]])
    ntilde = _mat([[t(-1), z, z, -t(-1)]])
    utilde = _mat([[o], [z], [z], [o]])
    return TensorAssignment(
        dim=2, R=R, Rinv=Rinv, n=n, ntilde=ntilde, u=u, utilde=utilde
    )


# -- fixture files -----------------------------------------------------------

_FIXTURE_FIELDS = ("R", "Rinv", "n", "ntilde", "u", "utilde")


def dump_fixture(a: TensorAssignment, path: str | os.PathLike) -> None:
    """Write an assignment as UTF-8 JSON with entries in the text grammar."""
    import json

    doc = {"dim": a.dim}
    for name in _FIXTURE_FIELDS:
        doc[name] = [[x.render() for x in row] for row in getattr(a, name)]
    with open(os.fspath(path), "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)


def _fixture_matrix(doc: dict, name: str) -> Matrix:
    from .textform import parse_rational

    rows = doc[name]
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and all(isinstance(x, str) for x in row) for row in rows
    ):
        raise FixtureValidationError(
            f"fixture field {name!r} must be a list of rows of expression strings"
        )
    return _mat([[parse_rational(x) for x in row] for row in rows])


def load_fixture(path: str | os.PathLike) -> TensorAssignment:
    """
    Read an assignment from UTF-8 JSON and re-run every validation check;
    invalid fixtures are refused, and so, with BudgetError before any
    check runs, is one whose validation width D^3 exceeds MAX_TENSOR_DIM
    or whose validation products are too large (``_check_validation_size``).
    """
    import json

    try:
        with open(os.fspath(path), encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FixtureValidationError(f"cannot read fixture: {exc}") from exc
    if not isinstance(doc, dict):
        raise FixtureValidationError("fixture must be a JSON object")
    try:
        dim = doc["dim"]
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise FixtureValidationError(f"fixture dim must be an integer, got {dim!r}")
        if dim ** 3 > MAX_TENSOR_DIM:
            raise BudgetError(
                f"fixture validation width {dim}^3 = {dim ** 3} "
                f"exceeds the bound of {MAX_TENSOR_DIM}"
            )
        mats = {name: _fixture_matrix(doc, name) for name in _FIXTURE_FIELDS}
    except KeyError as exc:
        raise FixtureValidationError(f"fixture is missing field {exc}") from exc
    try:
        a = TensorAssignment(dim=dim, **mats)
    except ValueError as exc:
        raise FixtureValidationError(str(exc)) from exc
    _check_validation_size(a)
    report = validate_assignment(a)
    if not report.ok:
        names = ", ".join(c.name for c in report.failures())
        raise FixtureValidationError(f"fixture fails validation: {names}")
    return a
