"""
Seeded workloads of the linksgould benchmark and the checks on their outputs.

A workload is a list of argv lists for ``linksgould.cli.main``.  The seed
only chooses braid words; the library sees nothing but the argv lists.
Every list is stratified (a fixed number of braids per strand count and
length), so two seeds give lists of nearly the same cost and differ only
in which words they contain.

Outputs are checked in one of two ways:

- for ``DEFAULT_SEED``, against the committed outputs in ``expected/``,
  which ``make_expected.py`` cross-checked by an independent route;
- for any other seed, by identities every correct value satisfies:
  ``Delta`` at ``s = 1`` is 1 for a knot and 0 for a link, and
  ``Delta(s^-1) = (-1)^(c-1) Delta(s)`` for a ``c``-component link.

The ``theorem-grid`` input does not depend on the seed, so its report is
compared byte for byte (by SHA-256) on every seed.
"""
from __future__ import annotations

import hashlib
import json
import random
import re
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 1
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# verify theorem2 --max-m M --max-k M: the paper's Theorem 2 grid.
THEOREM_M = 8

# skein-batch: braids per (strands, crossings) cell.  The skein engine's
# cost per braid spreads widely within a cell (coefficient of variation
# 0.5 to 1.1) and grows two- to threefold per crossing, so a seed's total
# is set by its costliest braids.  Crossings stop at 9 and every cell
# holds many braids, which keeps the seed-to-seed spread of the total
# near 3 % (estimated from the per-cell spreads); at 10 to 13 crossings
# the same spread needs a list of a minute or more.
SKEIN_STRANDS = range(3, 7)
SKEIN_CROSSINGS = range(7, 10)
SKEIN_PER_CELL = 80

# tensor-batch: (strands, letters, braids) cells.  Cost grows about tenfold
# per strand, and by about a sixth per letter at 4 strands, where braids of
# 5 to 7 letters overlap in cost.  The counts put p50 in the middle of the
# 4-strand 4-letter cell and p90 in the middle of the 5-strand group, both
# cells of 4 letters, whose cost varies least from braid to braid (about
# 5 %), so that neither percentile depends much on the seed.
TENSOR_CELLS = (
    [(3, c, 2) for c in range(4, 9)]
    + [(4, 4, 22)]
    + [(4, c, 2) for c in range(5, 9)]
    + [(5, 4, 10)]
)


def random_word(rng: random.Random, strands: int, letters: int) -> str:
    return " ".join(
        str(rng.choice((1, -1)) * rng.randint(1, strands - 1))
        for _ in range(letters)
    )


def theorem_grid(seed: int) -> list[list[str]]:
    m = str(THEOREM_M)
    return [["verify", "theorem2", "--max-m", m, "--max-k", m, "--format", "json"]]


def skein_batch(seed: int) -> list[list[str]]:
    rng = random.Random(f"skein-batch/{seed}")
    return [
        ["alexander", random_word(rng, n, c), "--strands", str(n)]
        for n in SKEIN_STRANDS
        for c in SKEIN_CROSSINGS
        for _ in range(SKEIN_PER_CELL)
    ]


def tensor_batch(seed: int) -> list[list[str]]:
    rng = random.Random(f"tensor-batch/{seed}")
    return [
        ["tensor", "eval", "--braid", random_word(rng, n, c), "--strands", str(n)]
        for n, c, count in TENSOR_CELLS
        for _ in range(count)
    ]


WORKLOADS = {
    "theorem-grid": theorem_grid,
    "skein-batch": skein_batch,
    "tensor-batch": tensor_batch,
}


# -- checks -------------------------------------------------------------------


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected(workload: str) -> dict:
    with open(EXPECTED_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def components(word: str, strands: int) -> int:
    """Number of components of the braid closure (cycles of the permutation)."""
    perm = list(range(strands))
    for token in word.split():
        i = abs(int(token)) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen, cycles = set(), 0
    for start in range(strands):
        if start not in seen:
            cycles += 1
            j = start
            while j not in seen:
                seen.add(j)
                j = perm[j]
    return cycles


_TERM = re.compile(r"(\d*)([a-z])?(?:\^(-?\d+))?")


def parse_poly(text: str) -> tuple[set[str], dict[int, int]]:
    """Variables and ``{exponent: coefficient}`` of a rendered Laurent polynomial."""
    text = text.strip()
    sign, terms, names = 1, {}, set()
    if text.startswith("-"):
        sign, text = -1, text[1:]
    for i, part in enumerate(re.split(r" ([+-]) ", text)):
        if i % 2:
            sign = 1 if part == "+" else -1
            continue
        m = _TERM.fullmatch(part)
        if m is None or not part:
            raise ValueError(f"cannot read term {part!r}")
        coeff = int(m.group(1)) if m.group(1) else 1
        if m.group(2):
            names.add(m.group(2))
            exp = int(m.group(3)) if m.group(3) else 1
        elif m.group(1):
            exp = 0
        else:
            raise ValueError(f"cannot read term {part!r}")
        terms[exp] = terms.get(exp, 0) + sign * coeff
    return names, {e: c for e, c in terms.items() if c}


def _value_at_one(poly: dict[int, int]) -> int:
    return sum(poly.values())


def identity_problem(out: str, word: str, strands: int, var_rule: str) -> str | None:
    """
    Why a rendered ``Delta`` (in s, or in t with t = s^2 or t = s) breaks
    the identities of the closure of ``word``, or None if it satisfies them.

    ``var_rule`` is ``"alexander"`` (knots render in t with t = s^2, links
    with an even number of components in s) or ``"tensor"`` (LG^(1,1):
    Delta with s -> t, always in t).
    """
    c = components(word, strands)
    text = out.strip()
    if text.startswith("("):
        num_text, den_text = text[1:-1].split(")/(")
        _, num = parse_poly(num_text)
        _, den = parse_poly(den_text)
        at_one = Fraction(_value_at_one(num))
        if _value_at_one(den) == 0:
            return "denominator vanishes at 1"
        value = at_one / _value_at_one(den)
        poly = None
    else:
        names, poly = parse_poly(text)
        value = _value_at_one(poly)
        allowed = {"t"} if var_rule == "tensor" or c % 2 else {"s"}
        if not names <= allowed:
            return f"variables {sorted(names)} for a {c}-component closure"
    want = 1 if c == 1 else 0
    if value != want:
        return f"value {value} at 1, expected {want} for {c} components"
    if poly is not None:
        parity = -1 if c % 2 == 0 else 1
        for e, coeff in poly.items():
            if poly.get(-e, 0) != parity * coeff:
                return f"not (anti)symmetric under s -> s^-1 at exponent {e}"
    return None


def check(workload: str, argv: list[str], out: str, expected: str | None) -> str | None:
    """None when ``out`` is right for ``argv``, else the reason it is not."""
    if workload == "theorem-grid":
        if digest(out) != expected:
            return "theorem2 report differs from the committed one"
        if not json.loads(out)["passed"]:
            return "theorem2 report does not pass"
        return None
    if expected is not None:
        return None if out == expected else f"output {out.strip()!r} != {expected.strip()!r}"
    if workload == "skein-batch":
        return identity_problem(out, argv[1], int(argv[3]), "alexander")
    return identity_problem(out, argv[3], int(argv[5]), "tensor")


def expected_outputs(workload: str, seed: int, ops: list[list[str]]) -> list:
    """Expected output per op: a string, a digest, or None (identity checks)."""
    if workload == "theorem-grid":
        return [load_expected(workload)["sha256"]] * len(ops)
    if seed != DEFAULT_SEED:
        return [None] * len(ops)
    doc = load_expected(workload)
    if [e["argv"] for e in doc["ops"]] != ops:
        raise RuntimeError(f"expected/{workload}.json was made from other inputs")
    return [e["stdout"] for e in doc["ops"]]
