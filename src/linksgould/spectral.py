"""
The projector-spectral calculus behind the LG^(m,1) invariants.

For each positive integer m, the braiding on the relevant tensor square
decomposes over m+1 orthogonal projectors, so a (2,2)-tangle is just a
coefficient vector, composition is pointwise multiplication, and the
quantum trace is a fixed linear functional.  Everything here is exact:
eigenvalues are unit monomials in t and q, and the projector traces are
normalized rational functions.

Convention note: the projector traces are pinned by the normalization
``sum_i xi_i * trace_i = sum_i xi_i^-1 * trace_i = 1``.  The substitution
q -> q^-1 combined with the index reversal i -> m-i yields an equivalent
family with the same normalization (and identical values at q = -1), so
trace tables quoted elsewhere may be written in either convention; this
module consistently uses the one fixed by ``projector_trace`` below.
"""
from __future__ import annotations

from functools import lru_cache

from .cyclotomic import CycloFraction, reduce_at_root
from .laurent import Laurent2
from .rational import RationalFn

__all__ = [
    "braiding_eigenvalue",
    "projector_trace",
    "quantum_trace",
    "lg_closed_2braid",
    "skein_coefficient_report",
]


# The CLI takes m up to MAX_LG_M: lg_closed_2braid grows about fourfold per
# +4 in m (k = 24: 0.6 s at m = 12, 2.4 s and 78 MB at m = 16; shared 2-core
# x86 machine, Python 3.11).  The caches below hold every (m, i) with
# 0 <= i <= m up to that bound and evict beyond it, so a long-lived process
# keeps them bounded.
MAX_LG_M = 16
_CACHED_PAIRS = sum(m + 1 for m in range(1, MAX_LG_M + 1))


def _check_m(m: int) -> None:
    if m < 1:
        raise ValueError("m must be a positive integer")


def _check_index(m: int, i: int) -> None:
    _check_m(m)
    if not 0 <= i <= m:
        raise IndexError(f"projector index {i} out of range 0..{m}")


def braiding_eigenvalue(m: int, i: int) -> Laurent2:
    """
    The braiding eigenvalue on the i-th projector:
    (-1)^i * t^(m-2i) * q^(i(i-1)).

    >>> print(braiding_eigenvalue(2, 2))
    t^-2q^2
    """
    _check_index(m, i)
    return Laurent2.term(-1 if i % 2 else 1, m - 2 * i, i * (i - 1))


def _q_bracket(k: int) -> Laurent2:
    """q^k - q^-k."""
    return Laurent2.q(k) - Laurent2.q(-k)


def _t_factor(j: int) -> Laurent2:
    """t q^-(j-1) - t^-1 q^(j-1)."""
    return Laurent2({(1, -(j - 1)): 1, (-1, j - 1): -1})


def _t2_factor(w: int) -> Laurent2:
    """t^2 q^-w - t^-2 q^w."""
    return Laurent2({(2, -w): 1, (-2, w): -1})


@lru_cache(maxsize=_CACHED_PAIRS)
def _trace_parts(m: int, i: int) -> tuple[Laurent2, tuple[int, ...]]:
    """
    The i-th projector trace as (numerator, denominator factor exponents).

    The denominator is prod_w (t^2 q^-w - t^-2 q^w) over the returned w
    list; the w values within one trace are pairwise distinct, which is
    what lets sums over several traces share one common product.
    """
    _check_index(m, i)
    qnum = Laurent2.one()
    qden = Laurent2.one()
    for j in range(1, i + 1):
        qnum = qnum * _q_bracket(m - j + 1)
        qden = qden * _q_bracket(i - j + 1)
    qratio = qnum.exact_div(qden)

    num = qratio if i % 2 == 0 else -qratio
    for j in range(1, m + 1):
        num = num * _t_factor(j)

    ws = tuple(i + j - 2 for j in range(1, i + 1)) + tuple(
        i + j - 1 for j in range(i + 1, m + 1)
    )
    return num, ws


@lru_cache(maxsize=_CACHED_PAIRS)
def projector_trace(m: int, i: int) -> RationalFn:
    """
    Quantum trace of the i-th projector, as a normalized rational function.

    Built as the product
    (-1)^i * prod_{j<=i} [m-j+1]/[i-j+1] * (t q^(1-j) - t^-1 q^(j-1))
                        / (t^2 q^(2-i-j) - t^-2 q^(i+j-2))
           * prod_{j>i}  (t q^(1-j) - t^-1 q^(j-1))
                        / (t^2 q^(1-i-j) - t^-2 q^(i+j-1))
    with [k] = q^k - q^-k.  The [.]-ratio is a (symmetric) Gaussian
    binomial, hence an exact Laurent polynomial in q; dividing it out
    before anything else keeps every later root-of-unity evaluation free
    of spurious 0/0s.
    """
    num, ws = _trace_parts(m, i)
    den = Laurent2.one()
    for w in ws:
        den = den * _t2_factor(w)
    return RationalFn(num, den)


def quantum_trace(m: int, coefficients) -> RationalFn:
    """
    The quantum trace sum_i c_i * trace_i of the (2,2)-tangle whose
    expansion over the projectors has the Laurent2 coefficients c_0..c_m.

    The sum is assembled over one common denominator, the product of the
    distinct trace factors.  Each part is multiplied once by the factors
    its own trace lacks, so no gcd runs before the final normalization.

    >>> quantum_trace(2, [Laurent2.one()] * 3)
    RationalFn('0')
    """
    _check_m(m)
    if len(coefficients) != m + 1:
        raise ValueError(f"need {m + 1} coefficients, got {len(coefficients)}")
    all_ws = sorted({w for i in range(m + 1) for w in _trace_parts(m, i)[1]})
    total = Laurent2.zero()
    for i, c in enumerate(coefficients):
        num_i, ws = _trace_parts(m, i)
        part = num_i * c
        used = set(ws)
        for w in all_ws:
            if w not in used:
                part = part * _t2_factor(w)
        total = total + part
    den = Laurent2.one()
    for w in all_ws:
        den = den * _t2_factor(w)
    return RationalFn(total, den)


def lg_closed_2braid(m: int, k: int) -> RationalFn:
    """
    LG^(m,1) of the closure of the k-th power of the 2-strand generator,
    as a function of t and q: sum_i xi_i^k * trace_i.
    """
    return quantum_trace(m, [braiding_eigenvalue(m, i) ** k for i in range(m + 1)])


def skein_coefficient_report(m: int, r: int = 1) -> tuple[tuple[CycloFraction, CycloFraction], ...]:
    """
    At q = exp(i*pi*r/m), tabulate for each i, as the pair (raw, product),
    the coefficient raw = (xi_i - xi_i^-1) - (t^m - t^-m) and its product
    with the reduced projector trace.

    Every product vanishes: that is the mechanism by which the reduced
    invariant satisfies the order-two skein relation even though, for
    m >= 2, some raw coefficient with 0 < i < m is nonzero (the braiding
    itself satisfies no order-two identity there).
    """
    _check_m(m)
    tm = Laurent2.t(m) - Laurent2.t(-m)
    rows = []
    for i in range(m + 1):
        xi = braiding_eigenvalue(m, i)
        raw = reduce_at_root(xi, m, r) - reduce_at_root(xi ** -1, m, r) - tm
        rows.append((raw, raw * reduce_at_root(projector_trace(m, i), m, r)))
    return tuple(rows)
