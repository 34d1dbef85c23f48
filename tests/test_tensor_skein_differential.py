"""Differential check of the skein engine against the tensor engine.

The LG^(1,1) fixture evaluates a braid closure, cut open to a (1,1)-tangle,
as the Alexander-Conway polynomial at t_classical = t^2.  The skein
engine reaches the same value by resolving crossings on the closed diagram,
so the two routes share nothing but the braid word.
"""
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from linksgould.braid import BraidWord  # noqa: E402
from linksgould.conway import conway  # noqa: E402
from linksgould.diagram import braid_closure  # noqa: E402
from linksgould.rational import RationalFn  # noqa: E402
from linksgould.tensor import braid_bracket, lg11_fixture, scalar_of  # noqa: E402

given = hypothesis.given
laws = hypothesis.settings(deadline=None, derandomize=True, database=None)

FIXTURE = lg11_fixture()


@st.composite
def braids(draw):
    n = draw(st.integers(2, 4))
    letter = st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1)))
    return BraidWord(n, tuple(draw(st.lists(letter, max_size=8))))


@laws
@given(braids())
def test_tensor_bracket_matches_skein(word):
    tensor = scalar_of(braid_bracket(word, FIXTURE))
    skein = RationalFn(conway(braid_closure(word)).substitute_power(1))
    assert tensor == skein


@st.composite
def kinked_braids(draw):
    """
    Runs of one repeated letter, then up to two stabilizations, read from a
    random letter: each stabilization is a curl of the closure, and the
    smoothings of each run make more, which the skein engine removes.
    """
    n = draw(st.integers(2, 3))
    run = st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1)), st.integers(1, 4))
    letters = tuple(
        (i, sign) for i, sign, k in draw(st.lists(run, min_size=1, max_size=4)) for _ in range(k)
    )
    word = BraidWord(n, letters)
    for sign in draw(st.lists(st.sampled_from((1, -1)), max_size=2)):
        word = word.stabilized(sign)
    r = draw(st.integers(0, len(word.letters) - 1))
    return BraidWord(word.strands, word.letters[r:] + word.letters[:r])


@laws
@given(kinked_braids())
def test_tensor_bracket_matches_skein_on_kinked_braids(word):
    tensor = scalar_of(braid_bracket(word, FIXTURE))
    skein = RationalFn(conway(braid_closure(word)).substitute_power(1))
    assert tensor == skein
