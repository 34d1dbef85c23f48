"""
``BraidWord.reduced`` and the block factorisation of ``braid_bracket``.

``tensor eval`` evaluates the reduced word.  For a fixture that passes
validation its bracket equals the typed word's entry for entry: a
cancelled pair is ``R`` times ``Rinv`` once the commuting letters between
them are moved aside, and a destabilised last strand closes ``R`` or
``Rinv`` on the right, which the first move makes one strand.  A fixture
that fails the first move shows why ``braid_bracket`` itself never
reduces.  The factorisation at unused generators holds for every fixture;
``test_braid_bracket_matches_sliced_closure`` checks it against the
sliced closure on fixtures that fail validation too, and the closed value
it takes of each block but the first is checked here against the fully
closed sliced diagram.
"""
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

import dense_kernel  # noqa: E402
from test_cli import flip_fixture, gauged, write_fixture  # noqa: E402

from linksgould import tensor  # noqa: E402
from linksgould.braid import BraidWord, parse_braid  # noqa: E402
from linksgould.laurent import Laurent2  # noqa: E402
from linksgould.sliced import to_sliced  # noqa: E402
from linksgould.tensor import (  # noqa: E402
    bracket,
    braid_bracket,
    identity_matrix,
    lg11_fixture,
    load_fixture,
    scalar_of,
    validate_assignment,
)

given = hypothesis.given
laws = hypothesis.settings(deadline=None, derandomize=True, database=None)

LG11 = lg11_fixture()
# R times t and Rinv times t^-1 keep R Rinv = id and Yang-Baxter, but
# close R on the right to t times one strand.
FRAMING_SCALED = dense_kernel.rebuilt(
    LG11,
    R=tuple(tuple(x * Laurent2.t(1) for x in row) for row in LG11.R),
    Rinv=tuple(tuple(x * Laurent2.t(-1) for x in row) for row in LG11.Rinv),
)
# LG^(1,1) closes every diagram to 0; the flip fixture closes one with c
# components to 2^c.
CLOSED_FIXTURES = {"lg11": LG11, "flip2": flip_fixture(2), "framing_scaled": FRAMING_SCALED}


def letters_on(n, avoid=0, max_size=8):
    """Letters of a braid on n strands that never use generator ``avoid``."""
    gens = [i for i in range(1, n) if i != avoid]
    if not gens:
        return st.just(())
    letter = st.tuples(st.sampled_from(gens), st.sampled_from((1, -1)))
    return st.lists(letter, max_size=max_size).map(tuple)


@st.composite
def words(draw, max_strands=5):
    """
    Plain words, split words (one generator unused), destabilisable words
    (s_{n-1} once, anywhere) and words with a pair s_i^e ... s_i^-e around
    letters that commute with s_i.
    """
    n = draw(st.integers(1, max_strands))
    kind = draw(st.sampled_from(("plain", "split", "destabilisable", "cancelling")))
    if n == 1:
        return BraidWord(1, ())
    if kind == "split":
        return BraidWord(n, draw(letters_on(n, avoid=draw(st.integers(1, n - 1)))))
    if kind == "destabilisable":
        base = draw(letters_on(n - 1, max_size=7))
        pos = draw(st.integers(0, len(base)))
        sign = draw(st.sampled_from((1, -1)))
        return BraidWord(n, base[:pos] + ((n - 1, sign),) + base[pos:])
    base = draw(letters_on(n))
    if kind == "plain":
        return BraidWord(n, base)
    i = draw(st.integers(1, n - 1))
    far = [j for j in range(1, n) if abs(j - i) >= 2]
    middle = ()
    if far:
        middle = tuple(
            draw(st.lists(st.tuples(st.sampled_from(far), st.sampled_from((1, -1))), max_size=3))
        )
    sign = draw(st.sampled_from((1, -1)))
    pos = draw(st.integers(0, len(base)))
    pair = ((i, sign),) + middle + ((i, -sign),)
    return BraidWord(n, base[:pos] + pair + base[pos:])


def components(word):
    perm, seen, count = word.permutation(), set(), 0
    for start in range(word.strands):
        if start not in seen:
            count += 1
            while start not in seen:
                seen.add(start)
                start = perm[start]
    return count


@pytest.fixture(scope="module")
def gauged_fixture(tmp_path_factory):
    path = tmp_path_factory.mktemp("gauged") / "gauged.json"
    write_fixture(path, gauged)
    return load_fixture(path)


@laws
@given(words())
def test_reduced_bracket_equals_bracket_lg11(word):
    assert braid_bracket(word.reduced(), LG11) == braid_bracket(word, LG11)


@laws
@given(words(max_strands=4))
def test_reduced_bracket_equals_bracket_gauged(gauged_fixture, word):
    assert braid_bracket(word.reduced(), gauged_fixture) == braid_bracket(word, gauged_fixture)


@laws
@given(words())
def test_reduced_is_idempotent_and_never_grows(word):
    r = word.reduced()
    assert r.reduced() == r
    assert r.strands <= word.strands
    assert len(r.letters) <= len(word.letters)
    assert components(r) == components(word)


def test_reduced_examples():
    cases = {
        ("1 -1", 2): (2, ""),  # cancelled, then s_1 occurs no more
        ("1 3 -1", 4): (3, ""),  # cancelled across s_3, then destabilised
        ("1 1 1 2", 3): (2, "1 1 1"),
        ("2 1 3 -1 3 1", 4): (4, "2 3 3 1"),  # s_1 s_3 s_1^-1 cancels; s_2 blocks the last
        ("1 2 -1", 3): (2, ""),  # s_2 blocks the pair until it is destabilised
        ("1 -2 1 -2", 3): (3, "1 -2 1 -2"),
        ("", 3): (3, ""),
        ("1", 2): (1, ""),
    }
    for (text, n), (strands, letters) in cases.items():
        r = parse_braid(text, n).reduced()
        assert (r.strands, r.render()) == (strands, letters), text


def test_blocks_cut_at_unused_generators():
    word = parse_braid("2 -2 4", 6)
    assert tensor._blocks(word) == [
        BraidWord(1, ()),
        BraidWord(2, ((1, 1), (1, -1))),
        BraidWord(2, ((1, 1),)),
        BraidWord(1, ()),
    ]
    assert tensor._blocks(parse_braid("1 2 1")) == [parse_braid("1 2 1")]


def test_zero_closed_block_skips_the_first_block(monkeypatch):
    # The closure of s_1 on strands 4 and 5 is an unknot, whose closed
    # LG^(1,1) value is 0: the 3-strand block is never evolved.
    evolve, evolved = tensor._evolve_closure, []

    def counted(word, a, open_strands):
        evolved.append(word.strands)
        return evolve(word, a, open_strands)

    monkeypatch.setattr(tensor, "_evolve_closure", counted)
    word = parse_braid("1 -2 1 4", 5)
    zero = tuple(tuple(x * 0 for x in row) for row in identity_matrix(2))
    assert braid_bracket(word, LG11) == zero
    assert evolved == [2]


def assert_closed_value(word, fx):
    value = tensor._evolve_closure(word, fx, 0)[0].get(0)
    (want,), = bracket(to_sliced(word), fx)
    assert want == (0 if value is None else value)


@pytest.mark.parametrize("name", CLOSED_FIXTURES)
def test_closed_value_of_trivial_braids_equals_sliced_closure(name):
    for n in range(1, 5):
        assert_closed_value(BraidWord(n, ()), CLOSED_FIXTURES[name])
    assert tensor._evolve_closure(BraidWord(3, ()), flip_fixture(2), 0) == [{0: 8}]


@laws
@given(
    st.sampled_from(sorted(CLOSED_FIXTURES)),
    st.integers(1, 4).flatmap(lambda n: letters_on(n, max_size=6).map(lambda w: BraidWord(n, w))),
)
def test_closed_value_equals_sliced_closure(name, word):
    # The fully closed value that braid_bracket takes of every block but
    # the first, against the bracket of the whole closure sliced.
    assert_closed_value(word, CLOSED_FIXTURES[name])


def test_split_value_is_a_product_for_the_flip_fixture():
    # The flip fixture (R = Rinv = swap) gives dim^(components - 1), and
    # every block multiplies in its own closed value.
    from test_cli import flip_fixture

    fx = flip_fixture(3)
    assert scalar_of(braid_bracket(parse_braid("1 3", 5), fx)) == 3 ** 2


def test_framing_scaled_fixture_changes_on_destabilisation():
    # Destabilising changes the framing-scaled fixture's value.  So
    # braid_bracket, which the acceptance tests use to check Markov
    # invariance, evaluates the word it is given.
    t, fx = Laurent2.t, FRAMING_SCALED
    assert list(validate_assignment(fx)) == ["cl_R_is_identity", "cl_Rinv_is_identity"]
    word = parse_braid("1 1 1 2")
    raw, reduced = (scalar_of(braid_bracket(w, fx)) for w in (word, word.reduced()))
    assert raw != reduced
    assert raw == reduced * t(1)
    # Cancelling a pair needs only R Rinv = id, which still holds.
    assert braid_bracket(BraidWord(4, ((1, 1), (3, 1), (1, -1))), fx) == braid_bracket(
        BraidWord(4, ((3, 1),)), fx
    )
