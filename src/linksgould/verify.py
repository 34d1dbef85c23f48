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

Each suite is a generator that yields, in a fixed order, what each cell
compared: ``(params, left, right, passed)``.  A comparison cell goes
through ``_compared``, which renders both sides and decides by exact
``==``; a side that could not be formed, at a pole or where a bracket is
not scalar, is passed as its message, and the cell fails.  A cell that
checks a predicate yields its own text and verdict.  ``run_suite``
makes each into a cell stamped with the suite's name: the plain dict
``{"suite", "params", "left", "right", "passed"}`` that the JSON report
writes, read by key, as in ``report.cells[i]["passed"]``.
Work shared by cells is done in the suite's own loops: the theorem
suites compute each skein value once per run and reduce each LG value
once per root order.

Reports are plain data and serialize to JSON; the comparison payload
contains no timestamps, so serialized output is stable across runs.
"""
from __future__ import annotations

import json
import random
import time
from functools import partial
from math import gcd

from ._record import Record
from .braid import BraidWord
from .conway import conway
from .cyclotomic import CycloFraction, _root_power, reduce_at_root
from .diagram import braid_closure
from .errors import NotScalarError, PoleAtRootError
from .laurent import HalfLaurent, Laurent2
from .rational import RationalFn
from .spectral import (
    braiding_eigenvalue,
    lg_closed_2braid,
    projector_trace,
    quantum_trace,
    skein_coefficient_report,
)
from .tensor import braid_bracket, lg11_fixture, scalar_of, validate_assignment
from .version import __version__

__all__ = [
    "ReportDocument",
    "SUITES",
    "run_suite",
    "sigma_power",
]


class ReportDocument(Record, eq=False):
    __slots__ = ("version", "suite", "cells", "elapsed_seconds")

    def __init__(
        self, version: str, suite: str, cells: tuple[dict, ...], elapsed_seconds: float
    ):
        object.__setattr__(self, "version", version)
        object.__setattr__(self, "suite", suite)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "elapsed_seconds", elapsed_seconds)

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.cells)

    @property
    def counts(self) -> dict:
        failed = sum(0 if c["passed"] else 1 for c in self.cells)
        return {"total": len(self.cells), "failed": failed}

    def to_dict(self) -> dict:
        """
        The report without its timing, so it is the same on every run.
        Its cells are fresh dicts, each with its own copy of ``params``.
        """
        return {
            "version": self.version,
            "suite": self.suite,
            "passed": self.passed,
            "counts": self.counts,
            "cells": [{**c, "params": dict(c["params"])} for c in self.cells],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)

    def __str__(self) -> str:
        lines = [f"suite {self.suite} (version {self.version})"]
        for c in self.cells:
            mark = "pass" if c["passed"] else "FAIL"
            ps = " ".join(f"{k}={v}" for k, v in c["params"].items())
            lines.append(f"  {mark}  {ps}: {c['left']} == {c['right']}")
        counts = self.counts
        lines.append(
            f"{counts['total'] - counts['failed']}/{counts['total']} cells pass"
            f" in {self.elapsed_seconds:.2f}s"
        )
        return "\n".join(lines)


def sigma_power(k: int) -> BraidWord:
    """The 2-braid generator to the k-th power."""
    return BraidWord(2, ((1, 1 if k >= 0 else -1),) * abs(k))


def _delta_2braid(k: int) -> HalfLaurent:
    """Alexander-Conway value of the closed 2-braid sigma^k, from the skein engine."""
    return conway(braid_closure(sigma_power(k)))


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


def _compared(params: dict, left, right) -> tuple:
    """
    A comparison cell: both sides rendered, passed only on exact ``==``.
    A side that is text is the message of a value that could not be
    formed, a pole or a bracket that is not scalar, and its cell fails.
    """
    texts = [x if isinstance(x, str) else x.render() for x in (left, right)]
    formed = not isinstance(left, str) and not isinstance(right, str)
    return params, *texts, formed and left == right


def _theorem_suite(roots_of, max_m: int, max_k: int, corrupt: bool = False):
    """
    The cells LG^(m,1)(sigma^k) at q = exp(i*pi*r/m) == Delta(sigma^k) at
    s = t^m, for m <= max_m, r in roots_of(m) and |k| <= max_k.
    """
    if max_m < 1:
        return  # an empty grid computes no value
    ks = range(-max_k, max_k + 1)
    deltas = {k: _delta_2braid(k) for k in ks}
    for m in range(1, max_m + 1):
        roots = roots_of(m)
        # Each LG value is reduced once per root order d, at exp(2*pi*i/d),
        # and the other roots of that order get their values as Galois
        # conjugates.  gcd(r, m) = 1 leaves the orders d = 2m and, for odd
        # m, d = m; for both, r = 2m/d is itself a valid root.  A zero
        # denominator stays zero under conjugation, so a pole holds for the
        # whole order; it is kept as its message, which names only Phi_d.
        reduced: dict[tuple[int, int], CycloFraction | str] = {}
        orders = sorted({_root_power(m, r)[0] for r in roots})
        for k in ks:
            lg = _corrupted_lg(m, k) if corrupt else lg_closed_2braid(m, k)
            for d in orders:
                try:
                    reduced[d, k] = reduce_at_root(lg, m, 2 * m // d)
                except PoleAtRootError as exc:
                    reduced[d, k] = f"pole at root: {exc}"
        for r in roots:
            d, e = _root_power(m, r)
            for k in ks:
                params = {"m": m, "r": r, "k": k}
                base = reduced[d, k]
                left = base if isinstance(base, str) else base.conjugate(e)
                yield _compared(params, left, deltas[k].substitute_power(m))


def _suite_lemma2_vanishing(max_m: int):
    for m in range(1, max_m + 1):
        for r in _valid_roots(m):
            for i in range(m + 1):
                params = {"m": m, "r": r, "i": i}
                try:
                    value = reduce_at_root(projector_trace(m, i), m, r)
                except PoleAtRootError as exc:
                    left, right, ok = f"pole at root: {exc}", "no pole", False
                else:
                    left = value.render()
                    inner = 0 < i < m
                    right, ok = ("0", value.is_zero()) if inner else ("no pole", True)
                yield params, left, right, ok


def _suite_xi_endpoints(max_m: int):
    for m in range(1, max_m + 1):
        tm = Laurent2.t(m)
        for r in _valid_roots(m):
            lo = reduce_at_root(braiding_eigenvalue(m, 0), m, r)
            hi = -reduce_at_root(braiding_eigenvalue(m, m) ** -1, m, r)
            yield (
                {"m": m, "r": r},
                f"{lo.render()} ; {hi.render()}",
                f"{tm.render()} ; {tm.render()}",
                lo == tm and hi == tm,
            )


def _suite_skein_coefficients(max_m: int):
    for m in range(1, max_m + 1):
        for r in _valid_roots(m):
            rows = skein_coefficient_report(m, r)
            products_zero = all(product.is_zero() for _, product in rows)
            if m >= 2:
                witness = any(not raw.is_zero() for raw, _ in rows[1:m])
                ok = products_zero and witness
                right = "all products 0; some inner raw coefficient nonzero"
            else:
                ok = products_zero and all(raw.is_zero() for raw, _ in rows)
                right = "all products 0; all raw coefficients 0"
            left = "; ".join(
                f"i={i}: raw {'0' if raw.is_zero() else 'nonzero'}, "
                f"product {'0' if product.is_zero() else 'NONZERO'}"
                for i, (raw, product) in enumerate(rows)
            )
            yield {"m": m, "r": r}, left, right, ok


def _suite_lg21_qminus1(max_k: int):
    for k in range(-max_k, max_k + 1):
        left = reduce_at_root(lg_closed_2braid(2, k), 1, 1)
        right = reduce_at_root(_delta_2braid(k).substitute_power(1) ** 2, 1, 1)
        yield _compared({"m": 2, "k": k, "q": -1}, left, right)


def _suite_tensor_oracle():
    fixture = lg11_fixture()
    rng = random.Random(20240917)
    words = []
    for _ in range(20):
        strands = rng.randint(2, 3)
        length = rng.randint(1, 8)
        letters = tuple(
            (rng.randint(1, strands - 1), rng.choice((1, -1)))
            for _ in range(length)
        )
        words.append(BraidWord(strands, letters))
    # Drawn for all 20 words and after them, so the words stay those of
    # the pinned report.
    positions = [rng.randint(0, len(w.letters)) for w in words]

    failures = validate_assignment(fixture)
    yield (
        {"check": "fixture-validation"},
        "; ".join(failures) or "all checks pass",
        "all checks pass",
        not failures,
    )

    def scalar(word):
        try:
            return scalar_of(braid_bracket(word, fixture))
        except NotScalarError as exc:
            return f"not scalar: {exc}"

    for word in words:
        params = {"braid": word.render() or "(empty)", "strands": word.strands}
        right = RationalFn(conway(braid_closure(word)).substitute_power(1))
        yield _compared(params, scalar(word), right)
    for word, pos in zip(words[:5], positions):
        grown = BraidWord(
            word.strands,
            word.letters[:pos] + ((1, 1), (1, -1)) + word.letters[pos:],
        )
        params = {"braid": word.render() or "(empty)", "rewrite": "RII-insert"}
        yield _compared(params, scalar(grown), scalar(word))


SUITES = {
    "theorem1": (partial(_theorem_suite, lambda m: [1]), {"max_m": 6, "max_k": 6}),
    "theorem2": (partial(_theorem_suite, _valid_roots), {"max_m": 6, "max_k": 6}),
    "lemma2-vanishing": (_suite_lemma2_vanishing, {"max_m": 8}),
    "xi-endpoints": (_suite_xi_endpoints, {"max_m": 8}),
    "skein-coefficients": (_suite_skein_coefficients, {"max_m": 8}),
    "lg21-qminus1": (_suite_lg21_qminus1, {"max_k": 10}),
    "tensor-oracle": (_suite_tensor_oracle, {}),
}
# The suites whose generators take ``corrupt``: only the theorem suites
# have a spectral side to corrupt.
_CORRUPTIBLE = frozenset({"theorem1", "theorem2"})


def run_suite(
    name: str,
    max_m: int | None = None,
    max_k: int | None = None,
    corrupt_eigenvalues: bool = False,
) -> ReportDocument:
    """
    Run one suite and assemble its report.  This is the one place that
    builds a cell: each ``(params, left, right, passed)`` the suite yields
    becomes the dict ``{"suite": name, "params", "left", "right",
    "passed"}`` that the JSON report writes, read by key, as in
    ``report.cells[i]["passed"]``.  The cells keep the suite's
    deterministic order, and a comparison cell has already been decided
    by exact ``==``.  A grid with no cells raises ValueError, and so does
    an option that the suite does not read.
    ``corrupt_eigenvalues`` deliberately breaks the spectral side of the
    theorem suites; it exists so the harness itself can be tested, and
    every other suite refuses it.
    """
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    build, defaults = SUITES[name]
    given = {k: v for k, v in (("max_m", max_m), ("max_k", max_k)) if v is not None}
    unread = [k for k in given if k not in defaults]
    if corrupt_eigenvalues and name not in _CORRUPTIBLE:
        unread.append("corrupt_eigenvalues")
    if unread:
        reads = ", ".join(defaults) or "no option"
        raise ValueError(
            f"suite {name!r} does not read {', '.join(unread)}; it reads {reads}"
        )
    options = {**defaults, **given}
    started = time.perf_counter()
    corrupt = {"corrupt": True} if corrupt_eigenvalues else {}
    cells = tuple(
        {"suite": name, "params": params, "left": left, "right": right, "passed": passed}
        for params, left, right, passed in build(**options, **corrupt)
    )
    if not cells:
        grid = ", ".join(f"{k}={v}" for k, v in options.items())
        raise ValueError(f"suite {name!r} has no cells for {grid}")
    return ReportDocument(
        version=__version__,
        suite=name,
        cells=cells,
        elapsed_seconds=time.perf_counter() - started,
    )
