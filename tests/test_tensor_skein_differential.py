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
