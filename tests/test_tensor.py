import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import dense_kernel
import pytest

import linksgould
from linksgould.braid import BraidWord, parse_braid
from linksgould.conway import conway
from linksgould.diagram import braid_closure
from linksgould.errors import FixtureValidationError, NotScalarError
from linksgould.laurent import Laurent2
from linksgould.rational import RationalFn
from linksgould.sliced import Piece, SlicedDiagram, to_sliced
from linksgould.tensor import (
    _ISOTOPIES,
    TensorAssignment,
    _entry_class,
    bracket,
    braid_bracket,
    dump_fixture,
    identity_matrix,
    lg11_fixture,
    load_fixture,
    scalar_of,
    validate_assignment,
)
from linksgould.textform import parse_rational
from test_cli import gauged, write_fixture

t = Laurent2.t
ONE = RationalFn.one()
ZERO = RationalFn.zero()


def test_lg11_fixture_validates():
    report = validate_assignment(lg11_fixture())
    assert report.ok, str(report)
    names = {c.name for c in report.checks}
    assert {
        "R_times_Rinv",
        "yang_baxter",
        "cl_R_is_identity",
        "cl_Rinv_is_identity",
        "zigzag_n_utilde",
        "zigzag_u_ntilde",
        "zigzag_ntilde_u",
        "zigzag_utilde_n",
    } <= names


def test_lg11_fixture_built_once():
    assert lg11_fixture() is lg11_fixture()


def counted_products(monkeypatch):
    """A list that gains one item per Laurent2 product formed from now on."""
    mul, calls = Laurent2.__mul__, []

    def counted(a, b):
        calls.append(None)
        return mul(a, b)

    monkeypatch.setattr(Laurent2, "__mul__", counted)
    return calls


_SIX_STRANDS = "1 -2 3 -4 5 1 2 -3"


def test_bracket_forms_no_identity_products(monkeypatch):
    # bracket moves each bottom basis through the active piece of each row
    # alone, by the same rule as braid_bracket: 360 products here, against
    # 2 180 when mat_mul composed the lifted slices id (x) P (x) id, and
    # 48 404 when every entry of a slice was a product with an identity's 1.
    fx = lg11_fixture()
    sliced = to_sliced(parse_braid(_SIX_STRANDS, 6), keep_open=True)
    calls = counted_products(monkeypatch)
    assert scalar_of(bracket(sliced, fx)) == RationalFn(t(1) - t(-1))
    assert len(calls) <= 500


def test_braid_bracket_moves_units_and_monomials_without_products(monkeypatch):
    # An entry of 1 passes a coefficient through and a monomial shifts it,
    # and the closing weights are tabulated once per braid: 331 products
    # here, against 1 735 when every entry and closing weight multiplied.
    fx = lg11_fixture()
    word = parse_braid(_SIX_STRANDS, 6)
    calls = counted_products(monkeypatch)
    assert scalar_of(braid_bracket(word, fx)) == RationalFn(t(1) - t(-1))
    assert len(calls) <= 500


def with_entries(fx, **changes):
    """fx with some entries replaced: name=((row, column, entry), ...)."""
    fields = {}
    for name, entries in changes.items():
        rows = [list(row) for row in getattr(fx, name)]
        for i, j, x in entries:
            rows[i][j] = RationalFn._coerce(x)
        fields[name] = tuple(map(tuple, rows))
    return replace(fx, **fields)


def closing_weight(fx):
    """W[c][c'] = sum_e u[(c,e)] n[(c',e)] from the dense fields."""
    d = fx.dim
    return [
        [sum((fx.u[c * d + e][0] * fx.n[0][k * d + e] for e in range(d)), ZERO) for k in range(d)]
        for c in range(d)
    ]


def entry_kind(x):
    x, mono = _entry_class(x)
    if x is None:
        return "unit"
    if mono is None:
        return "rational" if type(x) is RationalFn else "general"
    return "monomial" if mono[2] in (1, -1) else "scaled monomial"


_LG11 = lg11_fixture()
_Q = Laurent2.q
# Each fixture is compared with the sliced closure, so it need not pass
# validation.  Together their R and Rinv hold every entry class, and one
# W has a row that cancels to zero, so that no state starts from its c.
_CLASS_FIXTURES = {
    "lg11": _LG11,
    "scaled": with_entries(
        _LG11,
        R=((0, 0, Laurent2.term(2, -1)), (3, 3, Laurent2.term(-3, 1, 1))),
        Rinv=((0, 0, Laurent2.term(-2, 0, -1)),),
    ),
    "rational": with_entries(
        _LG11,
        R=((1, 1, RationalFn(t(1) - t(-1), t(1) + _Q(1))),),
        n=((0, 3, RationalFn(Laurent2.one(), t(1) + 2)),),
    ),
    "zero W row": with_entries(
        _LG11,
        u=((2, 0, 1), (3, 0, -1)),
        n=((0, 1, 1), (0, 2, 1)),
    ),
}
_CLASS_WORDS = [
    ("1 -1 2 -2", 3),  # sums cancel, down to the value 0 of a split link
    ("1 -1 2 -2 1 -2", 3),  # sums cancel on the way to the unknot's 1
    ("1 -2 1 -2", 3),
    ("2 -1 -1 3 2 -3", 4),
]


def test_fixtures_cover_every_entry_class():
    kinds = {
        entry_kind(x)
        for fx in _CLASS_FIXTURES.values()
        for piece in (Piece.CROSS_POS, Piece.CROSS_NEG)
        for row in fx.piece_matrix(piece)[0]
        for _, x in row
    }
    assert kinds == {"unit", "monomial", "scaled monomial", "general", "rational"}
    w = closing_weight(_CLASS_FIXTURES["zero W row"])
    assert all(x.is_zero() for x in w[1]) and all(not x.is_zero() for x in w[0])


def dense_fields(m):
    return [[(x.num, x.den) for x in row] for row in m]


@pytest.mark.parametrize("name", sorted(_CLASS_FIXTURES))
@pytest.mark.parametrize("braid, strands", _CLASS_WORDS)
def test_braid_bracket_entry_classes_match_sliced_closure(name, braid, strands):
    fx = _CLASS_FIXTURES[name]
    word = parse_braid(braid, strands)
    d = to_sliced(word, keep_open=True)
    got = dense_fields(braid_bracket(word, fx))
    assert got == dense_fields(bracket(d, fx))
    assert got == dense_fields(dense_kernel.bracket(d, fx))


def test_trivial_dimension_one_assignment():
    one = ((ONE,),)
    a = TensorAssignment(dim=1, R=one, Rinv=one, n=one, ntilde=one, u=one, utilde=one)
    assert validate_assignment(a).ok


def test_unnormalized_swap_reported():
    two = RationalFn(2)
    half = RationalFn(Laurent2.one(), Laurent2.const(2))
    swap = [[ZERO] * 4 for _ in range(4)]
    for a, b in ((0, 0), (1, 2), (2, 1), (3, 3)):
        swap[a][b] = two
    swap_inv = [[half if not x.is_zero() else ZERO for x in row] for row in swap]
    pairing_row = ((ONE, ZERO, ZERO, ONE),)
    pairing_col = ((ONE,), (ZERO,), (ZERO,), (ONE,))
    a = TensorAssignment(
        dim=2,
        R=tuple(tuple(r) for r in swap),
        Rinv=tuple(tuple(r) for r in swap_inv),
        n=pairing_row,
        ntilde=pairing_row,
        u=pairing_col,
        utilde=pairing_col,
    )
    report = validate_assignment(a)
    assert not report.ok
    failed = {c.name for c in report.failures()}
    assert "cl_R_is_identity" in failed
    witness = next(c.witness for c in report.failures() if c.name == "cl_R_is_identity")
    assert "got" in witness


def test_shape_mismatch_rejected():
    one = ((ONE,),)
    with pytest.raises(ValueError):
        TensorAssignment(dim=2, R=one, Rinv=one, n=one, ntilde=one, u=one, utilde=one)


def test_empty_diagram_is_scalar_one():
    assert scalar_of(bracket(SlicedDiagram(()), lg11_fixture())) == ONE


def test_bracket_of_r_diagram_is_identity():
    fx = lg11_fixture()
    sd = to_sliced(BraidWord(2, ((1, 1),)), keep_open=True)
    assert bracket(sd, fx) == identity_matrix(2)


def gauged_fixture(tmp_path):
    path = tmp_path / "gauged.json"
    write_fixture(path, gauged)
    return load_fixture(path)


def test_polynomial_fixture_pieces_hold_laurent2(tmp_path):
    # Every LG^(1,1) entry has denominator 1, so bracket multiplies the
    # numerators; one entry with a denominator keeps RationalFn throughout.
    for fx, kind in ((lg11_fixture(), Laurent2), (gauged_fixture(tmp_path), RationalFn)):
        for piece in Piece:
            entries = [x for row in fx.piece_matrix(piece)[0] for _, x in row]
            assert entries and all(type(x) is kind for x in entries), (piece, kind)


def test_bracket_returns_rationalfn_entries(tmp_path):
    diagrams = [SlicedDiagram(()), to_sliced(parse_braid("1 -2 1", 3), keep_open=True)]
    diagrams += [d for _, lhs, rhs in _ISOTOPIES for d in (lhs, rhs)]
    for fx in (lg11_fixture(), gauged_fixture(tmp_path)):
        for d in diagrams:
            m = bracket(d, fx)
            assert all(type(x) is RationalFn for row in m for x in row)


def closure(*pieces):
    """The quantum trace of a 2-strand row: its right strand closed off."""
    return SlicedDiagram(
        (
            (Piece.ID_UP, Piece.CUP_U),
            pieces + (Piece.ID_DOWN,),
            (Piece.ID_UP, Piece.CAP_N),
        )
    )


def test_quantum_trace_of_identity_vanishes():
    fx = lg11_fixture()
    qt = bracket(closure(Piece.ID_UP, Piece.ID_UP), fx)
    assert all(x.is_zero() for row in qt for x in row)


def test_quantum_trace_of_braidings():
    fx = lg11_fixture()
    for cross in (Piece.CROSS_POS, Piece.CROSS_NEG):
        qt = bracket(closure(cross), fx)
        assert qt == identity_matrix(2)


def test_trefoil_value():
    got = scalar_of(braid_bracket(parse_braid("1 1 1"), lg11_fixture()))
    assert got == RationalFn(t(2) - 1 + t(-2))


def test_order_two_skein_at_m1():
    fx = lg11_fixture()
    pos = scalar_of(braid_bracket(BraidWord(2, ((1, 1),)), fx))
    neg = scalar_of(braid_bracket(BraidWord(2, ((1, -1),)), fx))
    flat = scalar_of(braid_bracket(BraidWord(2, ()), fx))
    assert pos - neg == RationalFn(t(1) - t(-1)) * flat
    # and the identity holds at the matrix level: R - R^-1 = (t - t^-1) id,
    # which is special to the two-dimensional assignment
    coef = RationalFn(t(1) - t(-1))
    for i in range(4):
        for j in range(4):
            diff = fx.R[i][j] - fx.Rinv[i][j]
            assert diff == (coef if i == j else RationalFn.zero())


def test_closed_2braid_values():
    fx = lg11_fixture()
    for k in range(-6, 7):
        w = BraidWord(2, ((1, 1 if k >= 0 else -1),) * abs(k))
        num = t(k) - (Laurent2.const(-1) ** (k % 2)) * t(-k)
        assert scalar_of(braid_bracket(w, fx)) == RationalFn(num, t(1) + t(-1))


def test_conway_oracle_on_random_braids():
    fx = lg11_fixture()
    rng = random.Random(51)
    for _ in range(15):
        n = rng.randint(2, 3)
        letters = tuple(
            (rng.randint(1, n - 1), rng.choice((1, -1)))
            for _ in range(rng.randint(1, 8))
        )
        w = BraidWord(n, letters)
        lhs = scalar_of(braid_bracket(w, fx))
        rhs = RationalFn(conway(braid_closure(w)).substitute_power(1))
        assert lhs == rhs, w.render()


_SEVEN_STRANDS = "1 -2 3 -4 5 -6 1 -2"
_AS_LIMIT = 128 * 2**20
_BOUNDED_BRACKET = f"""
import resource
resource.setrlimit(resource.RLIMIT_AS, ({_AS_LIMIT}, {_AS_LIMIT}))
from linksgould.braid import parse_braid
from linksgould.tensor import braid_bracket, lg11_fixture, scalar_of
word = parse_braid({_SEVEN_STRANDS!r}, 7)
print(scalar_of(braid_bracket(word, lg11_fixture())).render())
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is Linux's")
def test_seven_strand_bracket_within_128_mib():
    # The dense kernel held each slice of the sliced closure as a D^13-square
    # matrix and ran out of memory here even at 256 MiB; evolving the 2^7
    # basis states of the upward strands peaks near 17 MB.
    src = str(Path(linksgould.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", _BOUNDED_BRACKET],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "-t^2 + 3 - t^-2\n"
    skein = conway(braid_closure(parse_braid(_SEVEN_STRANDS, 7)))
    assert parse_rational(done.stdout.strip()) == RationalFn(skein.substitute_power(1))


_TEN_STRANDS = "1 -2 3 -4 5 -6 7 -8 9 1 2 -3"
_BOUNDED_TEN_STRANDS = f"""
import resource
resource.setrlimit(resource.RLIMIT_AS, ({_AS_LIMIT}, {_AS_LIMIT}))
from linksgould.braid import parse_braid
from linksgould.tensor import braid_bracket, lg11_fixture, scalar_of
word = parse_braid({_TEN_STRANDS!r}, 10)
print(scalar_of(braid_bracket(word, lg11_fixture())).render())
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is Linux's")
def test_ten_strand_bracket_within_128_mib():
    # Composing slices of width D^19 ran out of memory here after about
    # 3 s; evolving the 2^10 basis states of the upward strands peaks near
    # 16 MB and takes under a second.  The CLI stops at MAX_TENSOR_STRANDS,
    # so the library is called directly.
    src = str(Path(linksgould.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", _BOUNDED_TEN_STRANDS],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "t - t^-1\n"
    skein = conway(braid_closure(parse_braid(_TEN_STRANDS, 10)))
    assert parse_rational(done.stdout.strip()) == RationalFn(skein.substitute_power(1))


def test_reidemeister_rewrite_invariance():
    fx = lg11_fixture()
    rng = random.Random(52)
    for _ in range(8):
        n = 3
        letters = [
            (rng.randint(1, n - 1), rng.choice((1, -1)))
            for _ in range(rng.randint(0, 5))
        ]
        w = BraidWord(n, tuple(letters))
        base = scalar_of(braid_bracket(w, fx))
        p = rng.randint(0, len(letters))
        i = rng.randint(1, n - 1)
        rii = BraidWord(n, tuple(letters[:p]) + ((i, 1), (i, -1)) + tuple(letters[p:]))
        assert scalar_of(braid_bracket(rii, fx)) == base
        sg = rng.choice((1, -1))
        riii = BraidWord(
            n, tuple(letters[:p]) + ((1, sg), (2, sg), (1, sg)) + tuple(letters[p:])
        )
        assert scalar_of(braid_bracket(riii, fx)) == scalar_of(
            braid_bracket(riii.braid_relation_applied(p), fx)
        )


def test_full_closure_superdimension_zero():
    fx = lg11_fixture()
    sd = to_sliced(BraidWord(1, ()), keep_open=False)
    assert scalar_of(bracket(sd, fx)).is_zero()


def test_mirrored_circle_also_vanishes():
    # a circle drawn with the mirrored cup/cap pair traces the inverse
    # weights, whose sum also vanishes
    from linksgould.sliced import Piece

    fx = lg11_fixture()
    sd = SlicedDiagram(((Piece.CUP_UT,), (Piece.CAP_NT,)))
    assert scalar_of(bracket(sd, fx)).is_zero()


def test_reslicing_row_exchange_invariance():
    # exchanging distant rows (commuting crossings on disjoint strands)
    # re-slices the same diagram and must not change the bracket
    fx = lg11_fixture()
    rng = random.Random(53)
    for _ in range(3):
        letters = [(1, rng.choice((1, -1))), (3, rng.choice((1, -1)))]
        extra = [
            (rng.randint(1, 3), rng.choice((1, -1)))
            for _ in range(rng.randint(0, 2))
        ]
        w = BraidWord(4, tuple(extra) + tuple(letters))
        swapped = w.commutation_applied(len(extra))
        assert swapped is not None
        a = to_sliced(w, keep_open=True)
        b = to_sliced(swapped, keep_open=True)
        assert a.rows != b.rows
        assert scalar_of(bracket(a, fx)) == scalar_of(bracket(b, fx))


def test_scalar_of_errors():
    with pytest.raises(NotScalarError):
        scalar_of(((ONE, ONE), (ZERO, ONE)))
    with pytest.raises(NotScalarError):
        scalar_of(((ONE, ZERO), (ZERO, RationalFn(2))))


def test_fixture_round_trip(tmp_path):
    fx = lg11_fixture()
    path = tmp_path / "lg11.json"
    dump_fixture(fx, path)
    loaded = load_fixture(path)
    assert loaded.R == fx.R
    assert loaded.u == fx.u
    assert loaded.ntilde == fx.ntilde


def test_loader_refuses_invalid_fixture(tmp_path):
    fx = lg11_fixture()
    path = tmp_path / "broken.json"
    dump_fixture(fx, path)
    doc = json.loads(path.read_text())
    doc["R"][0][0] = "t^2"
    path.write_text(json.dumps(doc))
    with pytest.raises(FixtureValidationError):
        load_fixture(path)
    path.write_text("{not json")
    with pytest.raises(FixtureValidationError):
        load_fixture(path)
    path.write_text(json.dumps({"dim": 2}))
    with pytest.raises(FixtureValidationError):
        load_fixture(path)
