#!/usr/bin/env python3
"""
Write ``perfbench/expected/*.json``: the outputs of every op at the
default seed, each cross-checked once by an independent route.

    python3 perfbench/make_expected.py

- tensor-batch: each LG^(1,1) value from the tensor engine equals the
  skein engine's ``Delta`` with ``s -> t``;
- skein-batch: each ``Delta`` on at most 4 strands, with ``s -> t``,
  equals the tensor engine's value (5 and 6 strands are too slow there);
- theorem-grid: the report passes; its SHA-256 is what every later run
  must reproduce byte for byte.

Every output must also satisfy the identities ``run.py`` checks at other
seeds.  Refuses to write anything if a cross-check fails.
"""
from __future__ import annotations

import json
import signal
import sys

import workloads
from child import SRC, _on_alarm, run_op

sys.path.insert(0, str(SRC))

from linksgould.braid import parse_braid  # noqa: E402
from linksgould.cli import main as cli_main  # noqa: E402
from linksgould.conway import conway  # noqa: E402
from linksgould.diagram import braid_closure  # noqa: E402
from linksgould.rational import RationalFn  # noqa: E402
from linksgould.tensor import braid_bracket, lg11_fixture, scalar_of  # noqa: E402
from linksgould.textform import parse_rational  # noqa: E402

TENSOR_CROSS_CHECK_MAX_STRANDS = 4


def skein_in_t(word: str, strands: int) -> RationalFn:
    return RationalFn(conway(braid_closure(parse_braid(word, strands))).substitute_power(1))


def tensor_value(word: str, strands: int) -> RationalFn:
    return scalar_of(braid_bracket(parse_braid(word, strands), lg11_fixture()))


def outputs(workload: str) -> list[tuple[list[str], str]]:
    ops = workloads.WORKLOADS[workload](workloads.DEFAULT_SEED)
    done = []
    for argv in ops:
        rc, out, error = run_op(cli_main, argv, 600.0)
        if rc != 0 or error is not None:
            raise SystemExit(f"{argv} failed: exit {rc}, {error}")
        done.append((argv, out))
    return done


def write(path, doc: dict) -> None:
    """JSON with one op per line, so that a diff shows which outputs changed."""
    head = json.dumps({k: v for k, v in doc.items() if k != "ops"})
    if "ops" not in doc:
        path.write_text(head + "\n", encoding="utf-8")
        return
    ops = ",\n".join(json.dumps(op) for op in doc["ops"])
    path.write_text(f'{head[:-1]}, "ops": [\n{ops}\n]}}\n', encoding="utf-8")


def main() -> int:
    signal.signal(signal.SIGALRM, _on_alarm)
    workloads.EXPECTED_DIR.mkdir(exist_ok=True)
    docs = {}

    (argv, out), = outputs("theorem-grid")
    report = json.loads(out)
    if not report["passed"]:
        raise SystemExit("theorem2 report does not pass")
    docs["theorem-grid"] = {
        "argv": argv,
        "sha256": workloads.digest(out),
        "bytes": len(out.encode()),
        "cells": report["counts"]["total"],
    }

    for workload, word_at, strands_at in (("skein-batch", 1, 3), ("tensor-batch", 3, 5)):
        entries = []
        for argv, out in outputs(workload):
            word, strands = argv[word_at], int(argv[strands_at])
            rule = "alexander" if workload == "skein-batch" else "tensor"
            problem = workloads.identity_problem(out, word, strands, rule)
            if problem:
                raise SystemExit(f"{argv}: {problem}")
            if workload == "tensor-batch":
                if parse_rational(out) != skein_in_t(word, strands):
                    raise SystemExit(f"{argv}: tensor value differs from the skein engine's")
            elif strands <= TENSOR_CROSS_CHECK_MAX_STRANDS:
                if tensor_value(word, strands) != skein_in_t(word, strands):
                    raise SystemExit(f"{argv}: skein value differs from the tensor engine's")
            entries.append({"argv": argv, "stdout": out})
        docs[workload] = {"seed": workloads.DEFAULT_SEED, "ops": entries}

    for workload, doc in docs.items():
        path = workloads.EXPECTED_DIR / f"{workload}.json"
        write(path, doc)
        print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
