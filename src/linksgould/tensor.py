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
``braid_bracket`` computes it without slicing: it evolves sparse basis
states of the n upward strands through each letter's R or Rinv, which
touches two strands only, and takes the closing strands 2..n as a
partial trace weighted by their cup and cap.  Its cost is D^n start
states times letters times state size, where the sliced closure is
D^(2n-1) wide.  ``bracket`` composes any sliced diagram slice by slice;
it checks the fixture axioms in ``validate_assignment`` and is the
oracle that ``braid_bracket`` must equal on
``to_sliced(word, keep_open=True)``.

Everything is exact.  Matrices are dense at the edges: fixture fields
and the results of ``bracket`` and ``braid_bracket`` are full tuples of
``RationalFn`` rows.  Inside ``bracket`` each slice's matrix is sparse,
its rows holding only their nonzero entries, so a slice costs its
nonzero entries rather than the square of its width.  A slice is
id (x) P (x) id for its one active piece P, and ``_lift`` builds it by
index arithmetic, reusing P's entries, so the only products ``bracket``
forms are those of ``mat_mul`` composing the slices.  When every fixture
entry is a Laurent polynomial, as for LG^(1,1), both routes compute with
the ``Laurent2`` numerators, which multiply and add without
``RationalFn``'s wrapper; otherwise with ``RationalFn``.  Validation
spans D^3 dimensions and costs about D^6, so ``load_fixture`` refuses a
fixture with D^3 > ``MAX_TENSOR_DIM`` before any check runs, and likewise
one whose entries' products, as validation forms them, could outgrow the
text grammar's expression bound.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from itertools import product
from operator import mul
from pathlib import Path

from .braid import BraidWord
from .errors import BudgetError, FixtureValidationError, NotScalarError
from .laurent import Laurent2
from .rational import RationalFn
from .sliced import Piece, SlicedDiagram
from .textform import (
    _check_size,
    _fraction_boxes,
    _product_box,
    _sum_box,
    parse_rational,
)

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
# LG^(1,1) an 8-letter braid takes 3-5 ms on 5 strands, 9-18 ms on 6,
# 0.02-0.04 s on 7, 0.03-0.1 s on 8 and, with a 12-letter braid, 0.4-0.5 s
# on 10 and 2-2.6 s on 12, each peaking at 16 MB (shared 2-core x86
# machine, Python 3.11.7).  Validating a fixture spans D^3 dimensions at
# a cost of about D^6 (D = 10: 1.4 s).  Both widths are bounded by that of
# LG^(1,1) (D = 2) at MAX_TENSOR_STRANDS, with D^(2n-1) the width of the
# sliced closure; a wider fixture, such as LG^(2,1)'s D = 4, will set them.
MAX_TENSOR_STRANDS = 6
MAX_TENSOR_DIM = 2 ** (2 * MAX_TENSOR_STRANDS - 1)
# The entries grow with the letters, so the cost grows faster than
# linearly in them: on 6 strands, random LG^(1,1) braids of 100 letters
# took 1.2-1.4 s, of 150 letters 2.1-2.8 s and of 200 letters 4.4-5.1 s;
# the slowest braid tried, 1 -2 3 -4 5 repeated, took 3.3 s at 100
# letters and 5.0-5.7 s at 128.
MAX_TENSOR_LETTERS = 100


def _mat(rows) -> Matrix:
    return tuple(tuple(RationalFn._coerce(x) for x in row) for row in rows)


def identity_matrix(n: int) -> Matrix:
    return tuple(
        tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)
    )


# Inside ``bracket`` a matrix is sparse: a tuple of rows, each the
# (column, entry) pairs of its nonzero entries in increasing column, and
# the column count.  Its entries are ``Laurent2`` numerators when every
# entry of the assignment has denominator 1, and ``RationalFn`` otherwise.
Entry = RationalFn | Laurent2
SparseMatrix = tuple[tuple[tuple[tuple[int, Entry], ...], ...], int]


def _sparse(m: Matrix, polynomial: bool = False) -> SparseMatrix:
    rows = tuple(
        tuple((j, x.num if polynomial else x) for j, x in enumerate(row) if not x.is_zero())
        for row in m
    )
    return rows, len(m[0])


def _dense(m: SparseMatrix) -> Matrix:
    rows, cols = m
    out = []
    for row in rows:
        dense = [_ZERO] * cols
        for j, x in row:
            dense[j] = RationalFn._coerce(x)
        out.append(tuple(dense))
    return tuple(out)


# mat_mul keeps a plain name: the benchmark's tracer wraps it by name.
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


# The general Kronecker product.  ``bracket`` builds its slices with
# ``_lift`` instead; kron stays because the benchmark's tracer binds it by
# name, and the kernel tests use it as the oracle that ``_lift`` must equal.
def kron(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    a_rows, a_cols = a
    b_rows, b_cols = b
    return tuple(
        tuple((i * b_cols + j, x * y) for i, x in ra for j, y in rb)
        for ra in a_rows
        for rb in b_rows
    ), a_cols * b_cols


def _lift(p: SparseMatrix, left: int, right: int) -> SparseMatrix:
    """
    id_left (x) p (x) id_right by index arithmetic alone: row (l, r, s) is
    p's row r with column j moved to (l*cols_p + j)*right + s, and every
    entry is p's own object, so no entry is multiplied.
    """
    p_rows, p_cols = p
    width = p_cols * right
    rows = []
    for base in range(0, left * width, width):
        for row in p_rows:
            shifted = [(base + j * right, x) for j, x in row]
            rows.extend(tuple((c + s, x) for c, x in shifted) for s in range(right))
    return tuple(rows), left * width


def _first_mismatch(a: Matrix, b: Matrix) -> tuple[int, int] | None:
    for i, (ra, rb) in enumerate(zip(a, b)):
        for j, (x, y) in enumerate(zip(ra, rb)):
            if x != y:
                return i, j
    return None


@dataclass(frozen=True)
class TensorAssignment:
    """Matrices for the elementary pieces; shapes are fixed by ``dim``."""

    dim: int
    R: Matrix
    Rinv: Matrix
    n: Matrix  # 1 x D^2
    ntilde: Matrix  # 1 x D^2
    u: Matrix  # D^2 x 1
    utilde: Matrix  # D^2 x 1

    def __post_init__(self):
        d = self.dim
        if d < 1:
            raise ValueError("dimension must be positive")
        shapes = {
            "R": (d * d, d * d),
            "Rinv": (d * d, d * d),
            "n": (1, d * d),
            "ntilde": (1, d * d),
            "u": (d * d, 1),
            "utilde": (d * d, 1),
        }
        for name, (rows, cols) in shapes.items():
            m = getattr(self, name)
            if len(m) != rows or any(len(r) != cols for r in m):
                raise ValueError(
                    f"{name} must be {rows}x{cols} for dim {d}"
                )

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


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    witness: str | None = None


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ValidationCheck, ...]

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
    diagram is the scalar 1.
    """
    d.validate()
    if not d.rows:
        return _mat([[1]])
    total: SparseMatrix | None = None
    for row in d.rows:
        # A row is id^k (x) P (x) id^(len-1-k) for its one active piece P,
        # or the identity piece lifted by D^(len-1) when it has none.
        k = next((i for i, piece in enumerate(row) if not piece.is_identity), 0)
        m = _lift(a.piece_matrix(row[k]), a.dim ** k, a.dim ** (len(row) - 1 - k))
        total = m if total is None else mat_mul(m, total)
    return _dense(total)


def braid_bracket(word: BraidWord, a: TensorAssignment) -> Matrix:
    """
    Bracket of the braid closure as a (1,1)-tangle: the first strand runs
    through and strands 2..n close to the right.  It equals
    ``bracket(to_sliced(word, keep_open=True), a)`` entry for entry, but
    evolves sparse basis states rather than composing D^(2n-1)-wide slices.
    """
    return _dense(_evolve_closure(word, a))


def _evolve_closure(word: BraidWord, a: TensorAssignment) -> SparseMatrix:
    """
    Closing strand j is a partial trace: a cup makes the pair (c, e) with
    weight u[(c,e)], the braid carries c to c', and the cap pays
    n[(c',e)], so the strand weighs W[c][c'] = sum_e u[(c,e)] n[(c',e)].
    A basis of the n upward strands is an integer, strand 1 its leading
    base-D digit.  Each start basis (b, c) is evolved alone as a sparse
    {basis: entry} state, each letter's R or Rinv moving the two digits it
    acts on through a column -> [(shift, entry)] map; a final basis (x, c')
    adds its entry times prod_j W[c_j][c'_j] to result[x][b].
    """
    d, n = a.dim, word.strands
    (cup_rows, _), ((cap_row,), _) = a.piece_matrix(Piece.CUP_U), a.piece_matrix(Piece.CAP_N)
    cup = [(i, row[0][1]) for i, row in enumerate(cup_rows) if row]
    weight: dict[tuple[int, int], Entry] = {}
    for (i, x), (k, y) in product(cup, cap_row):
        if i % d == k % d:
            key = i // d, k // d
            weight[key] = x * y if key not in weight else weight[key] + x * y
    pieces = {1: a.piece_matrix(Piece.CROSS_POS)[0], -1: a.piece_matrix(Piece.CROSS_NEG)[0]}
    moves = {}
    for idx, sign in set(word.letters):
        scale = d ** (n - 1 - idx)
        cols = [[] for _ in range(d * d)]
        moves[idx, sign] = scale, cols
        for r, row in enumerate(pieces[sign]):
            for j, x in row:
                cols[j].append(((r - j) * scale, x))
    rest = d ** (n - 1)
    one = a.piece_matrix(Piece.ID_UP)[0][0][0][1]  # the empty product, on one strand
    result: list[dict[int, Entry]] = [{} for _ in range(d)]
    for c in range(rest):
        closing: dict[int, Entry | None] = {}  # end c' -> prod_j W[c_j][c'_j], None for 0
        for b in range(d):
            state: dict[int, Entry | None] = {b * rest + c: None}  # None: the start's 1
            for idx, sign in word.letters:
                (scale, cols), moved = moves[idx, sign], {}
                for basis, coef in state.items():
                    for shift, x in cols[basis // scale % (d * d)]:
                        key, y = basis + shift, x if coef is None else x * coef
                        moved[key] = y if key not in moved else moved[key] + y
                state = {key: y for key, y in moved.items() if not y.is_zero()}
            for basis, coef in state.items():
                top, end = divmod(basis, rest)
                if end not in closing:
                    ws = [weight.get((c // d ** k % d, end // d ** k % d)) for k in range(n - 1)]
                    zero = any(w is None or w.is_zero() for w in ws)
                    closing[end] = None if zero else reduce(mul, ws) if ws else one
                if (w := closing[end]) is not None:
                    y, row = w if coef is None else coef * w, result[top]
                    row[b] = y if b not in row else row[b] + y
    return tuple(
        tuple(sorted((b, y) for b, y in row.items() if not y.is_zero())) for row in result
    ), d


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


def dump_fixture(a: TensorAssignment, path: str | Path) -> None:
    """Write an assignment as UTF-8 JSON with entries in the text grammar."""
    doc = {"dim": a.dim}
    for name in _FIXTURE_FIELDS:
        doc[name] = [[x.render() for x in row] for row in getattr(a, name)]
    Path(path).write_text(json.dumps(doc, indent=1), encoding="utf-8")


def _fixture_matrix(doc: dict, name: str) -> Matrix:
    rows = doc[name]
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and all(isinstance(x, str) for x in row) for row in rows
    ):
        raise FixtureValidationError(
            f"fixture field {name!r} must be a list of rows of expression strings"
        )
    return _mat([[parse_rational(x) for x in row] for row in rows])


def load_fixture(path: str | Path) -> TensorAssignment:
    """
    Read an assignment from UTF-8 JSON and re-run every validation check;
    invalid fixtures are refused, and so, with BudgetError before any
    check runs, is one whose validation width D^3 exceeds MAX_TENSOR_DIM
    or whose validation products are too large (``_check_validation_size``).
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
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
