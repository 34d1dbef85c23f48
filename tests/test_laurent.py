import random

import pytest

from linksgould.laurent import HalfLaurent, Laurent2

t = Laurent2.t
q = Laurent2.q
s = HalfLaurent.s


def random_laurent(rng, terms=4, span=4, coeff=6):
    return Laurent2(
        {
            (rng.randint(-span, span), rng.randint(-span, span)): rng.randint(
                -coeff, coeff
            )
            for _ in range(terms)
        }
    )


def test_difference_of_squares():
    assert (t(1) - t(-1)) * (t(1) + t(-1)) == t(2) - t(-2)


def test_multiplicative_identity():
    x = t(2) * q(-1) - 3
    assert x * Laurent2.one() == x


def test_cancellation_to_canonical_zero():
    x = t(1) + q(1)
    z = x - x
    assert z.is_zero()
    assert len(z) == 0
    assert z == Laurent2.zero()


def test_ring_axioms_randomized():
    rng = random.Random(101)
    for _ in range(60):
        a, b, c = (random_laurent(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_zero_coefficients_never_stored():
    p = Laurent2({(0, 0): 0, (1, 0): 2})
    assert (0, 0) not in dict(p.terms())
    assert len(p) == 1


def test_shifted_is_product_with_scaled_monomial():
    rng = random.Random(7)
    for _ in range(20):
        p = random_laurent(rng)
        for factor in (-3, -1, 0, 1, 2):
            got = p.shifted(2, -1, factor)
            assert got == p * Laurent2.term(factor, 2, -1)
            assert 0 not in dict(got.terms()).values()


def test_pow_and_monomial_inverse():
    assert (t(1) + 1) ** 0 == Laurent2.one()
    assert t(2).monomial_inverse() == t(-2)
    assert (-t(1) * q(-3)) ** -2 == t(-2) * q(6)
    with pytest.raises(ValueError):
        (t(1) + 1).monomial_inverse()
    with pytest.raises(ValueError):
        Laurent2.term(2, 1, 0).monomial_inverse()


def test_exact_division():
    num = (t(1) - t(-1)) * (t(3) + 2 * q(2) - q(-1))
    assert num.exact_div(t(1) - t(-1)) == t(3) + 2 * q(2) - q(-1)
    with pytest.raises(ValueError):
        (t(1) + 1).exact_div(q(1) + 1)


def test_evaluate():
    from fractions import Fraction

    x = t(2) - q(-1)
    assert x.evaluate(2, 3) == Fraction(4) - Fraction(1, 3)


def test_involution_is_self_inverse():
    rng = random.Random(7)
    for _ in range(20):
        a = random_laurent(rng)
        assert a.invert_q().invert_q() == a
    assert q(1).invert_q() == q(-1)
    assert t(1).invert_q() == t(1)


def test_render_ordering_and_signs():
    assert (t(2) - 1 + t(-2)).render() == "t^2 - 1 + t^-2"
    assert (Laurent2.term(3, 1, -1)).render() == "3tq^-1"
    assert (-t(1)).render() == "-t"
    assert Laurent2.zero().render() == "0"
    assert Laurent2.const(-5).render() == "-5"


def test_half_laurent_basics():
    d = s(1) - s(-1)
    assert d * d == s(2) - 2 + s(-2)
    assert (d * d + 2).render("t") == "t + t^-1"
    assert d.render() == "s - s^-1"
    with pytest.raises(ValueError):
        d.render("t")  # odd powers


def test_half_laurent_mirror_and_eval():
    p = -s(2) + 3 - s(-2)
    assert p.mirror() == p
    assert p.evaluate_at_one() == 1
    assert (s(1) - s(-1)).evaluate_at_one() == 0
    assert p.all_even_powers()
    assert not (s(1) + 1).all_even_powers()


def test_half_substitute_power():
    assert (s(1) - s(-1)).substitute_power(1) == t(1) - t(-1)
    assert HalfLaurent.one().substitute_power(5) == Laurent2.one()
    assert (s(2) - 1 + s(-2)).substitute_power(2) == t(4) - 1 + t(-4)
    result = (s(2) - 1 + s(-2)).substitute_power(3)
    assert result.is_q_free()
    assert result == t(6) - 1 + t(-6)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Laurent2({(1.7, 0): 1}),
        lambda: Laurent2({(0, 2.0): 1}),
        lambda: Laurent2({("3", 0): 1}),
        lambda: Laurent2.t(0.5),
        lambda: HalfLaurent({2.9: 1}),
        lambda: HalfLaurent.s("1"),
    ],
    ids=["t^1.7", "q^2.0", "t^str", "t(0.5)", "s^2.9", "s(str)"],
)
def test_non_integer_exponent_is_refused(build):
    with pytest.raises(TypeError, match="exponent .* is not an integer"):
        build()


def test_constructors_keep_their_key_spelling_and_coefficient_check():
    assert HalfLaurent({1: 1, -1: -1}) == s(1) - s(-1)
    assert HalfLaurent({0: 5}) == HalfLaurent.const(5) == 5
    assert Laurent2({(0, 0): 5}) == Laurent2.const(5) == 5
    for cls in (Laurent2, HalfLaurent):
        with pytest.raises(TypeError, match="coefficient"):
            cls.const(1.5)
