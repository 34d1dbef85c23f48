"""
``validate_assignment`` checks each axiom as the bracket of two sliced
diagrams.  The oracle here is the matrix route it replaced, on the dense
kernel of ``dense_kernel``: R times Rinv, the Yang-Baxter operators built
with ``kron``, the quantum trace (id (x) n) . (X (x) id) . (id (x) u) and
the zigzags as cap/cup products.
Both must report the same (name, passed, witness) triples.
"""
from dataclasses import replace

import pytest
from dense_kernel import kron, mat_mul
from test_cli import flip_fixture

from linksgould.laurent import Laurent2
from linksgould.rational import RationalFn
from linksgould.tensor import (
    TensorAssignment,
    identity_matrix,
    lg11_fixture,
    validate_assignment,
)

FIELDS = ("R", "Rinv", "n", "ntilde", "u", "utilde")


def matrix_route(a):
    i1, i2 = identity_matrix(a.dim), identity_matrix(a.dim**2)
    r12, r23 = kron(a.R, i1), kron(i1, a.R)

    def closure(x):
        return mat_mul(kron(i1, a.n), mat_mul(kron(x, i1), kron(i1, a.u)))

    pairs = (
        ("R_times_Rinv", mat_mul(a.R, a.Rinv), i2),
        ("yang_baxter", mat_mul(r12, mat_mul(r23, r12)), mat_mul(r23, mat_mul(r12, r23))),
        ("cl_R_is_identity", closure(a.R), i1),
        ("cl_Rinv_is_identity", closure(a.Rinv), i1),
        ("zigzag_n_utilde", mat_mul(kron(a.n, i1), kron(i1, a.utilde)), i1),
        ("zigzag_u_ntilde", mat_mul(kron(i1, a.ntilde), kron(a.u, i1)), i1),
        ("zigzag_ntilde_u", mat_mul(kron(a.ntilde, i1), kron(i1, a.u)), i1),
        ("zigzag_utilde_n", mat_mul(kron(i1, a.n), kron(a.utilde, i1)), i1),
    )
    out = []
    for name, got, want in pairs:
        bad = [
            (i, j) for i, row in enumerate(got) for j, x in enumerate(row) if x != want[i][j]
        ]
        if not bad:
            out.append((name, True, None))
        else:
            i, j = bad[0]
            out.append((name, False, f"entry ({i},{j}): got {got[i][j]}, want {want[i][j]}"))
    return out


def triples(a):
    return [(c.name, c.passed, c.witness) for c in validate_assignment(a).checks]


def perturbations():
    fx = lg11_fixture()
    bump = RationalFn(Laurent2.t(2))
    for name in FIELDS:
        mat = getattr(fx, name)
        for i, row in enumerate(mat):
            for j in range(len(row)):
                rows = [list(r) for r in mat]
                rows[i][j] = rows[i][j] + bump
                yield f"{name}[{i}][{j}]", replace(fx, **{name: tuple(map(tuple, rows))})


def unnormalized_swap():
    zero, one = RationalFn.zero(), RationalFn.one()
    half = RationalFn(Laurent2.one(), Laurent2.const(2))
    swap = [[zero] * 4 for _ in range(4)]
    swap_inv = [[zero] * 4 for _ in range(4)]
    for a, b in ((0, 0), (1, 2), (2, 1), (3, 3)):
        swap[a][b], swap_inv[a][b] = RationalFn(2), half
    row = ((one, zero, zero, one),)
    col = tuple((x,) for x in row[0])
    return TensorAssignment(
        dim=2,
        R=tuple(map(tuple, swap)),
        Rinv=tuple(map(tuple, swap_inv)),
        n=row,
        ntilde=row,
        u=col,
        utilde=col,
    )


def test_every_single_entry_perturbation_of_lg11():
    cases = list(perturbations())
    assert len(cases) == 48
    failing = 0
    for label, a in cases:
        got = triples(a)
        assert got == matrix_route(a), label
        failing += not all(passed for _, passed, _ in got)
    assert failing == 48  # every perturbation breaks some axiom


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_flip_fixtures(dim):
    a = flip_fixture(dim)
    assert triples(a) == matrix_route(a)
    assert validate_assignment(a).ok


def test_unnormalized_swap():
    a = unnormalized_swap()
    got = triples(a)
    assert got == matrix_route(a)
    assert {name for name, passed, _ in got if not passed} >= {"cl_R_is_identity"}
