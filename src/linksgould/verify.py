"""
Verification suites: every cell compares two independently computed
exact values and passes only on exact equality.

The two flagship suites pit the spectral calculus against the skein
engine: the closed-2-braid invariant evaluated at q = exp(i*pi*r/m) must
equal the Alexander-Conway value of the same closure with s -> t^m, for
every m, k (and every r coprime to m).  The remaining suites check the
internal mechanisms (trace vanishing at roots, eigenvalue endpoints,
skein coefficients, the q = -1 square identity, and the tensor engine
against the skein engine).

Reports are plain data and serialize to JSON; the comparison payload
contains no timestamps, so serialized output is stable across runs.
"""
from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from math import gcd

from .braid import BraidWord
from .conway import conway
from .cyclotomic import CycloFraction, _root_power, reduce_at_root, root_order
from .diagram import braid_closure
from .errors import PoleAtRootError
from .laurent import HalfLaurent, Laurent2
from .rational import RationalFn
from .spectral import (
    braiding_eigenvalue,
    braiding_eigenvalue_inverse,
    lg_closed_2braid,
    projector_trace,
    quantum_trace,
    skein_coefficient_report,
)
from .tensor import braid_bracket, lg11_fixture, scalar_of, validate_assignment
from .version import __version__

__all__ = [
    "VerificationCell",
    "ReportDocument",
    "SUITES",
    "run_suite",
    "sigma_power",
    "delta_closed_2braid",
]


@dataclass(frozen=True, eq=False)
class VerificationCell:
    suite: str
    params: dict
    left: str
    right: str
    passed: bool

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "params": dict(self.params),
            "left": self.left,
            "right": self.right,
            "passed": self.passed,
        }


@dataclass(frozen=True, eq=False)
class ReportDocument:
    version: str
    suite: str
    cells: tuple[VerificationCell, ...]
    elapsed_seconds: float | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cells)

    @property
    def counts(self) -> dict:
        failed = sum(0 if c.passed else 1 for c in self.cells)
        return {"total": len(self.cells), "failed": failed}

    def to_dict(self) -> dict:
        """The report without its timing, so it is the same on every run."""
        return {
            "version": self.version,
            "suite": self.suite,
            "passed": self.passed,
            "counts": self.counts,
            "cells": [c.to_dict() for c in self.cells],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)

    def __str__(self) -> str:
        lines = [f"suite {self.suite} (version {self.version})"]
        for c in self.cells:
            mark = "pass" if c.passed else "FAIL"
            ps = " ".join(f"{k}={v}" for k, v in c.params.items())
            lines.append(f"  {mark}  {ps}: {c.left} == {c.right}")
        counts = self.counts
        lines.append(
            f"{counts['total'] - counts['failed']}/{counts['total']} cells pass"
            + (
                f" in {self.elapsed_seconds:.2f}s"
                if self.elapsed_seconds is not None
                else ""
            )
        )
        return "\n".join(lines)


def sigma_power(k: int) -> BraidWord:
    """The 2-braid generator to the k-th power."""
    return BraidWord(2, ((1, 1 if k >= 0 else -1),) * abs(k))


def delta_closed_2braid(k: int) -> RationalFn:
    """
    Alexander-Conway value of the closed 2-braid in s = t:
    (t^k - (-t)^-k) / (t + t^-1), computed from the skein engine's own
    output so the spectral side is compared against an independent route.
    """
    value = conway(braid_closure(sigma_power(k)))
    return RationalFn(value.substitute_power(1))


def _valid_roots(m: int) -> list[int]:
    return [r for r in range(1, 2 * m + 1) if gcd(r, m) == 1]


def _corrupted_lg(m: int, k: int) -> RationalFn:
    """A deliberately wrong spectral value (one eigenvalue rescaled)."""
    xs = []
    for i in range(m + 1):
        x = braiding_eigenvalue(m, i)
        if i == min(1, m):
            x = x * Laurent2.t(2)
        xs.append(x**k)
    return quantum_trace(m, xs)


def _theorem_cells(
    suite: str, max_m: int, max_k: int, roots_all: bool, corrupt: bool
) -> list:
    tasks = []
    orders: dict[int, list[int]] = {}
    for m in range(1, max_m + 1):
        roots = _valid_roots(m) if roots_all else [1]
        # gcd(r, m) = 1 leaves the orders d = 2m and, for odd m, d = m.
        # For both, r = 2m/d is itself a valid root: exp(2*pi*i/d).
        orders[m] = sorted({root_order(m, r) for r in roots})
        for r in roots:
            for k in range(-max_k, max_k + 1):
                tasks.append((m, r, k))

    # Work shared by the cells of one run.  Each LG value is reduced once
    # per root order, at exp(2*pi*i/d); the other roots of that order get
    # their values as Galois conjugates.  A zero denominator stays zero
    # under conjugation, so a pole holds for the whole order; it is kept
    # as its message, which names only Phi_d.
    deltas: dict[int, HalfLaurent] = {}
    reduced: dict[tuple[int, int], dict[int, CycloFraction | str]] = {}

    def reduce_orders(m: int, k: int) -> dict[int, CycloFraction | str]:
        lg = _corrupted_lg(m, k) if corrupt else lg_closed_2braid(m, k)
        out: dict[int, CycloFraction | str] = {}
        for d in orders[m]:
            try:
                out[d] = reduce_at_root(lg, m, 2 * m // d)
            except PoleAtRootError as exc:
                out[d] = f"pole at root: {exc}"
        return out

    def cell(task):
        m, r, k = task
        params = {"m": m, "r": r, "k": k}
        if k not in deltas:
            deltas[k] = conway(braid_closure(sigma_power(k)))
        if (m, k) not in reduced:
            reduced[m, k] = reduce_orders(m, k)
        right = deltas[k].substitute_power(m)
        d, e = _root_power(m, r)
        base = reduced[m, k][d]
        if isinstance(base, str):
            return VerificationCell(suite, params, base, right.render(), False)
        left = base.conjugate(e)
        return VerificationCell(
            suite, params, left.render(), right.render(), left == right
        )

    return [(cell, t) for t in tasks]


def _suite_theorem1(max_m: int, max_k: int, corrupt: bool):
    return _theorem_cells("theorem1", max_m, max_k, roots_all=False, corrupt=corrupt)


def _suite_theorem2(max_m: int, max_k: int, corrupt: bool):
    return _theorem_cells("theorem2", max_m, max_k, roots_all=True, corrupt=corrupt)


def _suite_lemma2_vanishing(max_m: int, max_k: int, corrupt: bool):
    tasks = [
        (m, r, i)
        for m in range(1, max_m + 1)
        for r in _valid_roots(m)
        for i in range(m + 1)
    ]

    def cell(task):
        m, r, i = task
        params = {"m": m, "r": r, "i": i}
        try:
            value = reduce_at_root(projector_trace(m, i), m, r)
        except PoleAtRootError as exc:
            return VerificationCell(
                "lemma2-vanishing", params, f"pole at root: {exc}", "no pole", False
            )
        if 0 < i < m:
            return VerificationCell(
                "lemma2-vanishing", params, value.render(), "0", value.is_zero()
            )
        return VerificationCell(
            "lemma2-vanishing", params, value.render(), "no pole", True
        )

    return [(cell, t) for t in tasks]


def _suite_xi_endpoints(max_m: int, max_k: int, corrupt: bool):
    tasks = [(m, r) for m in range(1, max_m + 1) for r in _valid_roots(m)]

    def cell(task):
        m, r = task
        params = {"m": m, "r": r}
        lo = reduce_at_root(braiding_eigenvalue(m, 0), m, r)
        hi = -reduce_at_root(braiding_eigenvalue_inverse(m, m), m, r)
        tm = Laurent2.t(m)
        ok = lo == tm and hi == tm
        return VerificationCell(
            "xi-endpoints",
            params,
            f"{lo.render()} ; {hi.render()}",
            f"{tm.render()} ; {tm.render()}",
            ok,
        )

    return [(cell, t) for t in tasks]


def _suite_skein_coefficients(max_m: int, max_k: int, corrupt: bool):
    tasks = [(m, r) for m in range(1, max_m + 1) for r in _valid_roots(m)]

    def cell(task):
        m, r = task
        params = {"m": m, "r": r}
        rows = skein_coefficient_report(m, r)
        products_zero = all(row.product.is_zero() for row in rows)
        if m >= 2:
            witness = any(not rows[i].raw.is_zero() for i in range(1, m))
            ok = products_zero and witness
            right = "all products 0; some inner raw coefficient nonzero"
        else:
            ok = products_zero and all(row.raw.is_zero() for row in rows)
            right = "all products 0; all raw coefficients 0"
        left = "; ".join(
            f"i={row.i}: raw {'0' if row.raw.is_zero() else 'nonzero'}, "
            f"product {'0' if row.product.is_zero() else 'NONZERO'}"
            for row in rows
        )
        return VerificationCell("skein-coefficients", params, left, right, ok)

    return [(cell, t) for t in tasks]


def _suite_lg21_qminus1(max_m: int, max_k: int, corrupt: bool):
    tasks = list(range(-max_k, max_k + 1))

    def cell(k):
        params = {"m": 2, "k": k, "q": -1}
        left = reduce_at_root(lg_closed_2braid(2, k), 1, 1)
        square = delta_closed_2braid(k) ** 2
        right = reduce_at_root(square, 1, 1)
        return VerificationCell(
            "lg21-qminus1", params, left.render(), right.render(), left == right
        )

    return [(cell, k) for k in tasks]


def _suite_tensor_oracle(max_m: int, max_k: int, corrupt: bool):
    fixture = lg11_fixture()
    rng = random.Random(20240917)
    words = []
    while len(words) < 20:
        strands = rng.randint(2, 3)
        length = rng.randint(1, 8)
        letters = tuple(
            (rng.randint(1, strands - 1), rng.choice((1, -1)))
            for _ in range(length)
        )
        words.append(BraidWord(strands, letters))

    def report_cell(_):
        report = validate_assignment(fixture)
        return VerificationCell(
            "tensor-oracle",
            {"check": "fixture-validation"},
            "; ".join(c.name for c in report.failures()) or "all checks pass",
            "all checks pass",
            report.ok,
        )

    def braid_cell(word):
        params = {"braid": word.render() or "(empty)", "strands": word.strands}
        left = scalar_of(braid_bracket(word, fixture))
        right = RationalFn(conway(braid_closure(word)).substitute_power(1))
        return VerificationCell(
            "tensor-oracle", params, left.render(), right.render(), left == right
        )

    rng_positions = {w: rng.randint(0, len(w.letters)) for w in words}

    def rewrite_cell(word):
        pos = rng_positions[word]
        base = scalar_of(braid_bracket(word, fixture))
        grown = BraidWord(
            word.strands,
            word.letters[:pos] + ((1, 1), (1, -1)) + word.letters[pos:],
        )
        after = scalar_of(braid_bracket(grown, fixture))
        params = {"braid": word.render() or "(empty)", "rewrite": "RII-insert"}
        return VerificationCell(
            "tensor-oracle", params, after.render(), base.render(), after == base
        )

    cells = [(report_cell, None)]
    cells += [(braid_cell, w) for w in words]
    cells += [(rewrite_cell, w) for w in words[:5]]
    return cells


SUITES = {
    "theorem1": (_suite_theorem1, {"max_m": 6, "max_k": 6}),
    "theorem2": (_suite_theorem2, {"max_m": 6, "max_k": 6}),
    "lemma2-vanishing": (_suite_lemma2_vanishing, {"max_m": 8, "max_k": 0}),
    "xi-endpoints": (_suite_xi_endpoints, {"max_m": 8, "max_k": 0}),
    "skein-coefficients": (_suite_skein_coefficients, {"max_m": 8, "max_k": 0}),
    "lg21-qminus1": (_suite_lg21_qminus1, {"max_m": 2, "max_k": 10}),
    "tensor-oracle": (_suite_tensor_oracle, {"max_m": 1, "max_k": 8}),
}


def run_suite(
    name: str,
    max_m: int | None = None,
    max_k: int | None = None,
    corrupt_eigenvalues: bool = False,
) -> ReportDocument:
    """
    Run one suite and assemble its report.  Cells are evaluated in a
    deterministic order; a grid with no cells raises ValueError.
    ``corrupt_eigenvalues`` deliberately breaks the spectral side of the
    theorem suites; it exists so the harness itself can be tested.
    """
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    build, defaults = SUITES[name]
    mm = defaults["max_m"] if max_m is None else max_m
    mk = defaults["max_k"] if max_k is None else max_k
    started = time.perf_counter()
    pairs = build(mm, mk, corrupt_eigenvalues)
    if not pairs:
        raise ValueError(f"suite {name!r} has no cells for max_m={mm}, max_k={mk}")
    cells = [fn(arg) for fn, arg in pairs]
    elapsed = time.perf_counter() - started
    return ReportDocument(
        version=__version__,
        suite=name,
        cells=tuple(cells),
        elapsed_seconds=elapsed,
    )
