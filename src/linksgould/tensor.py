"""
Generic bracket evaluator for sliced diagrams.

A ``TensorAssignment`` supplies exact matrices for the eight elementary
pieces: the braiding R and its inverse on a D^2-dimensional tensor
square, and the four cap/cup vectors.  ``validate_assignment`` checks the
axioms that make the bracket an ambient-isotopy invariant --- R Rinv = id
(second Reidemeister move), the Yang-Baxter equation (third move),
quantum trace of R and Rinv equal to the identity (first move), and the
four zigzag straightening identities (planar isotopy):

    n  . u~ = id      u  . n~ = id      n~ . u  = id      u~ . n  = id

written on the cap/cup D x D coefficient matrices.  Evaluating a braid
closure sliced as a (1,1)-tangle and extracting the scalar yields the
link invariant of the closure.

Everything is dense and exact; shipped fixtures have D = 2, where dense
is plainly right.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .braid import BraidWord
from .errors import FixtureValidationError, NotScalarError
from .laurent import Laurent2
from .rational import RationalFn
from .sliced import Piece, SlicedDiagram, to_sliced
from .textform import parse_rational

__all__ = [
    "TensorAssignment",
    "ValidationCheck",
    "ValidationReport",
    "validate_assignment",
    "Bracket",
    "bracket",
    "braid_bracket",
    "quantum_trace",
    "scalar_of",
    "lg11_fixture",
    "load_fixture",
    "dump_fixture",
    "identity_matrix",
    "mat_mul",
    "kron",
]

Matrix = tuple[tuple[RationalFn, ...], ...]

_ZERO = RationalFn.zero()
_ONE = RationalFn.one()


def _mat(rows) -> Matrix:
    return tuple(tuple(_coerce(x) for x in row) for row in rows)


def _coerce(x) -> RationalFn:
    if isinstance(x, RationalFn):
        return x
    if isinstance(x, (Laurent2, int)):
        return RationalFn(x)
    raise TypeError(f"matrix entries must be exact scalars, got {type(x).__name__}")


def identity_matrix(n: int) -> Matrix:
    return tuple(
        tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a)}x{len(a[0])} times {len(b)}x{len(b[0])}")
    bt = list(zip(*b))
    out = []
    for row in a:
        hot = [(k, x) for k, x in enumerate(row) if not x.is_zero()]
        out.append(
            tuple(
                sum((x * bt[j][k] for k, x in hot if not bt[j][k].is_zero()), _ZERO)
                for j in range(len(b[0]))
            )
        )
    return tuple(out)


def kron(a: Matrix, b: Matrix) -> Matrix:
    rb, cb = len(b), len(b[0])
    out = []
    for ra_row in a:
        for rb_row in b:
            out.append(
                tuple(
                    x * y if not x.is_zero() and not y.is_zero() else _ZERO
                    for x in ra_row
                    for y in rb_row
                )
            )
    return tuple(out)


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

    def piece_matrix(self, piece: Piece) -> Matrix:
        if piece.is_identity:
            return identity_matrix(self.dim)
        return {
            Piece.CROSS_POS: self.R,
            Piece.CROSS_NEG: self.Rinv,
            Piece.CAP_N: self.n,
            Piece.CAP_NT: self.ntilde,
            Piece.CUP_U: self.u,
            Piece.CUP_UT: self.utilde,
        }[piece]


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


@dataclass(frozen=True)
class Bracket:
    """A linear map carried by a diagram: D^domain -> D^codomain."""

    domain: int
    codomain: int
    matrix: Matrix


def bracket(d: SlicedDiagram, a: TensorAssignment) -> Bracket:
    """
    Evaluate a sliced diagram bottom-to-top as a matrix over exact
    scalars.  The empty diagram is the scalar 1.
    """
    d.validate()
    if not d.rows:
        return Bracket(0, 0, _mat([[1]]))
    total: Matrix | None = None
    for row in d.rows:
        m = a.piece_matrix(row[0])
        for piece in row[1:]:
            m = kron(m, a.piece_matrix(piece))
        total = m if total is None else mat_mul(m, total)
    dom = len(d.bottom())
    cod = len(d.top())
    return Bracket(dom, cod, total)


def braid_bracket(word: BraidWord, a: TensorAssignment) -> Bracket:
    """Bracket of the braid closure sliced as a (1,1)-tangle."""
    return bracket(to_sliced(word, keep_open=True), a)


def quantum_trace(x: Bracket, a: TensorAssignment) -> Bracket:
    """
    Close the last strand off to the right:
    (id^k (x) n) . (X (x) id) . (id^k (x) u), for X on k+1 strands.
    """
    if x.domain != x.codomain or x.domain < 2:
        raise ValueError("quantum trace needs an endomorphism of >= 2 strands")
    k = x.domain - 1
    idk = identity_matrix(a.dim**k)
    lift = mat_mul(
        kron(idk, a.n), mat_mul(kron(x.matrix, identity_matrix(a.dim)), kron(idk, a.u))
    )
    return Bracket(k, k, lift)


def scalar_of(b: Bracket) -> RationalFn:
    """
    The scalar lambda with matrix = lambda * id, for a (1,1)-tangle
    bracket; raises NotScalarError (with the offending entry) otherwise.
    """
    m = b.matrix
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

_ZIGZAGS: tuple[tuple[str, tuple[tuple[Piece, ...], ...]], ...] = (
    ("zigzag_n_utilde", ((Piece.ID_UP, Piece.CUP_UT), (Piece.CAP_N, Piece.ID_UP))),
    ("zigzag_u_ntilde", ((Piece.CUP_U, Piece.ID_UP), (Piece.ID_UP, Piece.CAP_NT))),
    ("zigzag_ntilde_u", ((Piece.ID_DOWN, Piece.CUP_U), (Piece.CAP_NT, Piece.ID_DOWN))),
    ("zigzag_utilde_n", ((Piece.CUP_UT, Piece.ID_DOWN), (Piece.ID_DOWN, Piece.CAP_N))),
)


def validate_assignment(a: TensorAssignment) -> ValidationReport:
    """Run every axiom check, reporting a witness entry for each failure."""
    d = a.dim
    checks: list[ValidationCheck] = []

    def compare(name: str, got: Matrix, want: Matrix):
        where = _first_mismatch(got, want)
        if where is None:
            checks.append(ValidationCheck(name, True))
        else:
            i, j = where
            checks.append(
                ValidationCheck(
                    name,
                    False,
                    f"entry ({i},{j}): got {got[i][j]}, want {want[i][j]}",
                )
            )

    compare("R_times_Rinv", mat_mul(a.R, a.Rinv), identity_matrix(d * d))
    r12 = kron(a.R, identity_matrix(d))
    r23 = kron(identity_matrix(d), a.R)
    compare(
        "yang_baxter",
        mat_mul(r12, mat_mul(r23, r12)),
        mat_mul(r23, mat_mul(r12, r23)),
    )
    for name, mat in (("cl_R", a.R), ("cl_Rinv", a.Rinv)):
        qt = quantum_trace(Bracket(2, 2, mat), a)
        compare(f"{name}_is_identity", qt.matrix, identity_matrix(d))
    for name, rows in _ZIGZAGS:
        got = bracket(SlicedDiagram(rows), a)
        compare(name, got.matrix, identity_matrix(d))
    return ValidationReport(tuple(checks))


# -- the shipped LG(1,1) assignment ----------------------------------------

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
    """Write an assignment as JSON with entries in the text grammar."""
    doc = {"dim": a.dim}
    for name in _FIXTURE_FIELDS:
        doc[name] = [[x.render() for x in row] for row in getattr(a, name)]
    Path(path).write_text(json.dumps(doc, indent=1))


def load_fixture(path: str | Path) -> TensorAssignment:
    """
    Read an assignment from JSON and re-run every validation check;
    invalid fixtures are refused.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FixtureValidationError(f"cannot read fixture: {exc}") from exc
    try:
        dim = int(doc["dim"])
        mats = {
            name: _mat([[parse_rational(x) for x in row] for row in doc[name]])
            for name in _FIXTURE_FIELDS
        }
    except KeyError as exc:
        raise FixtureValidationError(f"fixture is missing field {exc}") from exc
    try:
        a = TensorAssignment(dim=dim, **mats)
    except ValueError as exc:
        raise FixtureValidationError(str(exc)) from exc
    report = validate_assignment(a)
    if not report.ok:
        names = ", ".join(c.name for c in report.failures())
        raise FixtureValidationError(f"fixture fails validation: {names}")
    return a
