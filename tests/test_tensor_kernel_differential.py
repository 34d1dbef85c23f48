"""
The tensor kernel against its plain definitions, checked by hypothesis.

``kron`` and ``mat_mul`` multiply only nonzero entries, and ``RationalFn``
builds sums and products of Laurent polynomials without its constructor.
The oracles below are the straightforward versions: every pair of entries
tested for zero, and every result built through ``RationalFn.__init__``.
Results must agree field for field (``num`` and ``den``), not merely in
value.
"""
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from linksgould.laurent import Laurent2  # noqa: E402
from linksgould.rational import RationalFn  # noqa: E402
from linksgould.tensor import kron, mat_mul  # noqa: E402

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
sides = st.integers(1, 4)  # 1 x k and k x 1 are the shapes of caps and cups


def matrices(rows, cols):
    row = st.lists(entries, min_size=cols, max_size=cols).map(tuple)
    return st.lists(row, min_size=rows, max_size=rows).map(tuple)


@st.composite
def any_matrix(draw):
    return draw(matrices(draw(sides), draw(sides)))


@st.composite
def product_pair(draw):
    r, k, c = draw(sides), draw(sides), draw(sides)
    return draw(matrices(r, k)), draw(matrices(k, c))


def fields(m):
    assert isinstance(m, tuple) and all(isinstance(row, tuple) for row in m)
    return [[(x.num, x.den) for x in row] for row in m]


@laws
@given(product_pair())
def test_mat_mul_matches_oracle(pair):
    a, b = pair
    assert fields(mat_mul(a, b)) == fields(oracle_mat_mul(a, b))


@laws
@given(any_matrix(), any_matrix())
def test_kron_matches_oracle(a, b):
    assert fields(kron(a, b)) == fields(oracle_kron(a, b))


@laws
@given(entries, entries)
def test_sum_and_product_match_constructor(a, b):
    for got, want in ((a * b, oracle_mul(a, b)), (a + b, oracle_add(a, b))):
        assert (got.num, got.den) == (want.num, want.den)
        assert got.is_zero() == want.num.is_zero()
