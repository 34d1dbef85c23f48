import random

import pytest

from linksgould.cyclotomic import (
    CycloFraction,
    cyclotomic_poly,
    reduce_at_root,
    root_order,
)
from linksgould.errors import PoleAtRootError
from linksgould.laurent import Laurent2
from linksgould.rational import RationalFn

t = Laurent2.t
q = Laurent2.q


def test_small_cyclotomics():
    assert cyclotomic_poly(1) == q(1) - 1
    assert cyclotomic_poly(2) == q(1) + 1
    assert cyclotomic_poly(3) == q(2) + q(1) + 1
    assert cyclotomic_poly(4) == q(2) + 1  # (q^4-1)/(Phi_1 Phi_2)
    assert cyclotomic_poly(6) == q(2) - q(1) + 1
    assert cyclotomic_poly(12) == q(4) - q(2) + 1


@pytest.mark.parametrize("d", range(1, 17))
def test_product_over_divisors(d):
    prod = Laurent2.one()
    for e in range(1, d + 1):
        if d % e == 0:
            prod = prod * cyclotomic_poly(e)
    assert prod == q(d) - 1
    # each factor divides q^d - 1 exactly
    assert (q(d) - 1).exact_div(cyclotomic_poly(d)) * cyclotomic_poly(d) == q(d) - 1


def test_root_order():
    assert root_order(2, 1) == 4
    assert root_order(3, 2) == 3
    assert root_order(1, 1) == 2
    assert root_order(3, -1) == 6  # -1 mod 6 = 5, coprime to 6
    assert root_order(1, 0) == 1


def test_basic_reductions():
    assert reduce_at_root(q(2) + 1, 2, 1).is_zero()
    # q^m - q^-m dies at every admissible root
    for m, r in [(1, 1), (2, 1), (3, 1), (3, 2), (4, 3), (5, 2), (8, 5)]:
        assert reduce_at_root(q(m) - q(-m), m, r).is_zero()
    assert reduce_at_root(q(1), 1, 1) == Laurent2.const(-1)


def test_coprimality_required():
    with pytest.raises(ValueError):
        reduce_at_root(q(1), 2, 2)


def test_negative_r_reduced_mod_2m():
    x = q(1) + t(1)
    assert reduce_at_root(x, 3, -1) == reduce_at_root(x, 3, 5)


def test_ring_homomorphism_randomized():
    rng = random.Random(77)

    def rnd():
        return Laurent2(
            {
                (rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(-5, 5)
                for _ in range(4)
            }
        )

    for _ in range(40):
        a, b = rnd(), rnd()
        m, r = rng.choice([(2, 1), (3, 2), (4, 3), (5, 4), (6, 1)])
        assert reduce_at_root(a * b, m, r) == reduce_at_root(a, m, r) * reduce_at_root(b, m, r)
        assert reduce_at_root(a + b, m, r) == reduce_at_root(a, m, r) + reduce_at_root(b, m, r)


def test_pole_detection():
    f = RationalFn(t(1), q(2) + 1)  # denominator = Phi_4
    with pytest.raises(PoleAtRootError):
        reduce_at_root(f, 2, 1)
    # but fine at a root where Phi_4 does not vanish
    assert reduce_at_root(f, 3, 1) is not None


def test_fraction_equality_cross_multiplication():
    # 1/(q+1) == (q-1)/(q^2-1) in the quotient by Phi_3 (q^2+q+1 = 0)
    a = CycloFraction(3, Laurent2.one(), q(1) + 1)
    b = CycloFraction(3, q(1) - 1, q(2) - 1)
    assert a == b
    c = CycloFraction(3, q(1), q(1) + 1)
    assert a != c


def test_fraction_modulus_mismatch():
    a = CycloFraction(3, Laurent2.one())
    b = CycloFraction(4, Laurent2.one())
    with pytest.raises(ValueError):
        _ = a == b


def test_q_exponents_stay_reduced():
    x = reduce_at_root(q(7) + q(-5) + t(2) * q(3), 4, 1)  # d = 8, deg Phi_8 = 4
    _, max_q = x.num.max_exponents()
    min_t, min_q = x.num.min_exponents()
    assert 0 <= min_q and max_q < 4


def test_qfree_embedding_and_mixed_equality():
    v = t(3) - 1
    c = reduce_at_root(v, 5, 2)
    assert c == v
    assert c == RationalFn(v)
    with pytest.raises(ValueError):
        c._coerce(q(1))  # q-dependent values must come through reduce_at_root


def test_mixed_operands_on_either_side():
    x = reduce_at_root(q(1), 2, 1)  # q = i, so x^2 = -1
    assert 1 - x == -(x - 1)
    assert (1 - x) * (1 + x) == 2
    assert 1 + x == x + 1 and 2 * x == x * 2


def test_conjugate_composes_and_needs_a_unit():
    x = CycloFraction(12, t(2) * q(3) - q(1) + 5, q(2) + t(-1))
    for a in (1, 5, 7, 11):
        for b in (5, 7, 11):
            assert x.conjugate(a).conjugate(b) == x.conjugate(a * b)
    assert x.conjugate(13) is x
    with pytest.raises(ValueError):
        x.conjugate(4)
