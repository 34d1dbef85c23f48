"""
The tensor kernel against its plain definitions, checked by hypothesis.

``kron`` and ``mat_mul`` work on sparse rows, holding only nonzero
entries, and ``RationalFn`` builds sums and products of Laurent
polynomials without its constructor.  On a polynomial assignment the
entries are ``Laurent2`` numerators, which must equal the ``RationalFn``
route's entry for entry.  The oracles below are the straightforward
dense versions: every pair of entries tested for zero, and every result
built through ``RationalFn.__init__``.  The kernel's operands are made
sparse from the dense matrices and its results dense again; they must
agree field for field (``num`` and ``den``), not merely in value.  No
library code calls ``kron`` or ``mat_mul`` any more: both evaluators
move sparse basis states through one piece at a time.  ``bracket``,
which evolves each bottom basis through the rows of a sliced diagram,
must equal the dense composition of ``dense_kernel`` on braid closures
and on the validator's isotopies, and ``braid_bracket``, which evolves
the upward strands of a closure only, must equal both brackets of the
sliced closure.
"""
from dataclasses import replace

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

import dense_kernel  # noqa: E402
from test_cli import flip_fixture  # noqa: E402

from linksgould.braid import BraidWord  # noqa: E402
from linksgould.laurent import Laurent2  # noqa: E402
from linksgould.rational import RationalFn  # noqa: E402
from linksgould.sliced import to_sliced  # noqa: E402
from linksgould.tensor import (  # noqa: E402
    _ISOTOPIES,
    _dense,
    _sparse,
    bracket,
    braid_bracket,
    kron,
    lg11_fixture,
    mat_mul,
)

given = hypothesis.given
# Deterministic and without an example database, so the suite is
# repeatable and leaves nothing behind.
laws = hypothesis.settings(deadline=None, derandomize=True, database=None)

_ZERO = RationalFn.zero()


def oracle_mat_mul(a, b):
    if len(a[0]) != len(b):
        raise ValueError("shape mismatch")
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


def oracle_kron(a, b):
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


def oracle_mul(a, b):
    return RationalFn(a.num * b.num, a.den * b.den)


def oracle_add(a, b):
    if a.den == b.den:
        return RationalFn(a.num + b.num, a.den)
    return RationalFn(a.num * b.den + b.num * a.den, a.den * b.den)


t, q = Laurent2.t, Laurent2.q
laurent2 = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.integers(-3, 3), max_size=3
).map(Laurent2)
denominators = st.sampled_from([t() + 1, q() - 1, t() - q(), Laurent2.const(2), t() * q() + 3])
entries = st.one_of(
    st.just(_ZERO),
    laurent2.map(RationalFn),
    st.builds(RationalFn, laurent2, denominators),
)
polynomial_entries = st.one_of(st.just(_ZERO), laurent2.map(RationalFn))
sides = st.integers(1, 4)  # 1 x k and k x 1 are the shapes of caps and cups


def matrices(rows, cols, of=entries):
    row = st.lists(of, min_size=cols, max_size=cols).map(tuple)
    return st.lists(row, min_size=rows, max_size=rows).map(tuple)


@st.composite
def any_matrix(draw):
    return draw(matrices(draw(sides), draw(sides)))


@st.composite
def product_pair(draw, of=entries):
    r, k, c = draw(sides), draw(sides), draw(sides)
    return draw(matrices(r, k, of)), draw(matrices(k, c, of))


def fields(m):
    assert isinstance(m, tuple) and all(isinstance(row, tuple) for row in m)
    return [[(x.num, x.den) for x in row] for row in m]


def dense(m):
    """The dense form of a sparse result, which must hold nonzero entries in increasing column."""
    rows, cols = m
    for row in rows:
        columns = [j for j, _ in row]
        assert columns == sorted(set(columns)) and all(0 <= j < cols for j in columns)
        assert not any(x.is_zero() for _, x in row)
    return _dense([dict(row) for row in rows], cols)


@laws
@given(product_pair())
def test_mat_mul_matches_oracle(pair):
    a, b = pair
    assert fields(dense(mat_mul(_sparse(a), _sparse(b)))) == fields(oracle_mat_mul(a, b))


def test_mat_mul_drops_cancelled_entries_and_checks_shapes():
    one = RationalFn.one()
    row, col = _sparse(((one, one),)), _sparse(((one,), (-one,)))
    assert mat_mul(row, col) == (((),), 1)
    with pytest.raises(ValueError, match="shape mismatch"):
        mat_mul(row, row)


@laws
@given(any_matrix(), any_matrix())
def test_kron_matches_oracle(a, b):
    assert fields(dense(kron(_sparse(a), _sparse(b)))) == fields(oracle_kron(a, b))


def assert_numerators(got, want):
    """A Laurent2 result equals the RationalFn one entry for entry, with denominator 1."""
    assert got[1] == want[1] and len(got[0]) == len(want[0])
    for got_row, want_row in zip(got[0], want[0]):
        assert [j for j, _ in got_row] == [j for j, _ in want_row]
        for (_, x), (_, y) in zip(got_row, want_row):
            assert type(x) is Laurent2 and y.den.is_one() and x == y.num


@laws
@given(product_pair(polynomial_entries))
def test_laurent2_kernel_matches_rationalfn(pair):
    a, b = pair
    laurent = _sparse(a, polynomial=True), _sparse(b, polynomial=True)
    rational = _sparse(a), _sparse(b)
    assert_numerators(kron(*laurent), kron(*rational))
    assert_numerators(mat_mul(*laurent), mat_mul(*rational))
    assert fields(dense(mat_mul(*laurent))) == fields(oracle_mat_mul(a, b))


@laws
@given(entries, entries)
def test_sum_and_product_match_constructor(a, b):
    for got, want in ((a * b, oracle_mul(a, b)), (a + b, oracle_add(a, b))):
        assert (got.num, got.den) == (want.num, want.den)
        assert got.is_zero() == want.num.is_zero()


LG11 = lg11_fixture()
FIELDS = ("R", "Rinv", "n", "ntilde", "u", "utilde")


@st.composite
def perturbed_lg11(draw, names=FIELDS):
    """LG^(1,1) with one entry moved by a monomial over a non-monomial denominator."""
    name = draw(st.sampled_from(names))
    rows = [list(row) for row in getattr(LG11, name)]
    i = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, len(rows[0]) - 1))
    den = draw(st.sampled_from([t() + 1, q() - 1, t() - q(), t() * q() + 3]))
    rows[i][j] = rows[i][j] + RationalFn(t(draw(st.integers(-2, 2))), den)
    return replace(LG11, **{name: tuple(map(tuple, rows))})


two_state = st.one_of(st.just(LG11), perturbed_lg11())


@st.composite
def braid_words(draw, max_strands=5):
    n = draw(st.integers(1, max_strands))
    if n == 1:
        return BraidWord(1, ())
    letter = st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1)))
    return BraidWord(n, tuple(draw(st.lists(letter, max_size=8))))


@laws
@given(braid_words(), two_state)
def test_bracket_matches_dense_on_braids(word, fixture):
    d = to_sliced(word, keep_open=True)
    assert fields(bracket(d, fixture)) == fields(dense_kernel.bracket(d, fixture))


@laws
@given(st.one_of(two_state, st.just(flip_fixture(3))))
def test_bracket_matches_dense_on_isotopies(fixture):
    for _, lhs, rhs in _ISOTOPIES:
        for d in (lhs, rhs):
            assert fields(bracket(d, fixture)) == fields(dense_kernel.bracket(d, fixture))


# The closing strands' weight W reads only the cup u and the cap n, and an
# off-diagonal entry of either makes W off-diagonal.  The dense oracle
# spans D^(2n-1) dimensions: 3^5 on three strands.
closures = st.one_of(
    st.tuples(braid_words(), two_state),
    st.tuples(braid_words(), perturbed_lg11(("u", "n"))),
    st.tuples(braid_words(max_strands=3), st.just(flip_fixture(3))),
)


@laws
@given(closures)
def test_braid_bracket_matches_sliced_closure(closure):
    word, fixture = closure
    d = to_sliced(word, keep_open=True)
    got = fields(braid_bracket(word, fixture))
    assert got == fields(bracket(d, fixture))
    assert got == fields(dense_kernel.bracket(d, fixture))
