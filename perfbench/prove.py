#!/usr/bin/env python3
"""
Measure how steady the benchmark is, and record the baseline.

    python3 perfbench/prove.py [--out FILE]

Runs ``run.py`` once per seed 1 to 10 on each workload (untraced), then
once traced per workload at seed 1.  For every end-to-end metric it
reports the median of the runs and the spread, the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, against the metric's bound in BENCHMARK.json.
With ``--out``, writes every raw per-run value, the traced per-layer
values, the layer-to-metric map and the environment (Python version,
``nproc``, commit) to that file.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)

# Which end-to-end metric each per-layer metric should move, and where.
LAYER_MAP = {
    "laurent.Laurent2.mul, laurent.Laurent2.exact_div":
        "theorem-grid wall_s; not skein-batch or tensor-batch, whose operands are tiny",
    "laurent.HalfLaurent.mul": "skein-batch wall_s",
    "rational.RationalFn.init, rational.laurent_gcd": "tensor-batch wall_s and theorem-grid wall_s",
    "cyclotomic.reduce_at_root, cyclotomic.CycloFraction.eq": "theorem-grid wall_s",
    "spectral.lg_closed_2braid": "theorem-grid wall_s and peak_rss_mb",
    "diagram.canonical_key, diagram.surgery, diagram.is_split, conway.conway":
        "skein-batch wall_s, op_p90_s and peak_rss_mb; about a quarter of theorem-grid wall_s",
    "sliced.to_sliced, tensor.kron, tensor.mat_mul, tensor.scalar_of": "tensor-batch wall_s and op_p90_s",
    "verify.run_suite, verify.cells": "theorem-grid wall_s",
    "cli.main": "skein-batch op_p50_s (argparse and printing)",
    "bench.loop": "the time no wrapped layer covers, on every workload",
}


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "run_seconds": bench["run_seconds"],
        "seeds": list(SEEDS),
        "layer_map": LAYER_MAP,
        "workloads": {},
    }
    spreads = {}
    for workload in bench["workloads"]:
        name = workload["name"]
        runs = []
        for seed in SEEDS:
            result = run(name, seed, bench["run_seconds"], 0)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{name} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
            runs.append({"seed": seed, "attempted": result["attempted"],
                         **{k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{name} seed {seed}: " + ", ".join(f"{k} {v:.4g}" for k, v in runs[-1].items()
                                                     if k not in ("seed",)), flush=True)
        summary = {}
        for metric in bench["end_to_end"]:
            values = [r[metric["name"]] for r in runs]
            s = spread(values)
            summary[metric["name"]] = {"median": statistics.median(values), "spread": s,
                                       "bound": metric["bound"]}
            spreads[(name, metric["name"])] = (s, metric["bound"])
        traced = run(name, SEEDS[0], bench["run_seconds"], 1)
        if not traced["correct"] or traced["failed"]:
            raise SystemExit(f"{name} traced run: {traced['failed']} ops failed or trace checks broke")
        doc["workloads"][name] = {"runs": runs, "summary": summary,
                                  "traced": {k: v["value"] for k, v in traced["metrics"].items()}}

    print("\nspread (IQR / median) against bound:")
    for (name, metric), (s, bound) in spreads.items():
        flag = "" if s < bound / 3 else ("  ABOVE A THIRD OF THE BOUND" if s <= bound else "  ABOVE THE BOUND")
        print(f"  {name:13s} {metric:12s} {s:7.4f} / {bound}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
