#!/usr/bin/env python3
"""
Benchmark of linksgould, run from the root of a source checkout:

    python3 perfbench/run.py --workload skein-batch --seed 1 --seconds 40 --trace 0

Each run starts fresh child interpreters (``child.py``) one after another
for ``--seconds`` seconds; each child sets up, then runs the workload's
whole op list once, in a closed loop with one client.  Every op's output
is checked.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are end to end, medians over the run's
children (op latencies are pooled over them).  Times are reported at a
fixed reference speed: each op's measured time is scaled by how fast a
reference task ran around it (see ``child.SpeedProbe``), because
the shared machine's speed drifts by tens of percent.  The raw times and
scales are in the detail file.  With ``--trace 1`` the run
alternates untraced and traced children and reports per-layer metrics
from the traced ones, plus the tracing overhead.  Details of every run,
including each child's raw values and a digest of every output, go to
``perfbench/out/``.

Exits 2 without a result when the checkout holds no ``src/linksgould``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

# An op this long has exploded: the slowest op at the default seed takes
# about 3 s, traced or not.
OP_CAP_S = 60.0
# A child still alive this long after the run began is killed, and all its
# ops count as failed, so every run ends within 180 s.
RUN_CAP_S = 170.0
# Self times must add up to the traced wall time within this share.  Every
# span nests under the root span, so the self times telescope to the root
# span's duration: the sum holds by construction, and the check only
# catches a tracer whose spans are left open.  The time that no layer
# covers is reported on its own, as the root span's self time.
SELF_SUM_TOLERANCE = 1e-3


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def run_child(ops: list[list[str]], trace: bool, cap_s: float) -> dict:
    """One fresh child over ``ops``; a child killed at ``cap_s`` has ``"killed": True``."""
    job = json.dumps({"ops": ops, "op_cap_s": OP_CAP_S, "trace": trace}).encode()
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=env,
    )
    try:
        out, err = proc.communicate(job, timeout=cap_s)
    except subprocess.TimeoutExpired:
        return {"killed": True, "elapsed_s": time.perf_counter() - started}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    elapsed = time.perf_counter() - started
    if proc.returncode < 0:  # killed by a signal: count it like a timeout
        return {"killed": True, "elapsed_s": elapsed}
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {err.decode(errors='replace')[-2000:]}")
    result = json.loads(out)
    result["killed"] = False
    result["elapsed_s"] = elapsed
    return result


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) gives it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def check_child(workload: str, ops, expected, child: dict) -> list[dict]:
    """Failures of one child's ops, each with the op's index and reason."""
    if child["killed"]:
        return [{"op": i, "reason": "child killed at the run cap"} for i in range(len(ops))]
    failures = []
    for i, (argv, want, (_, rc, out, error)) in enumerate(zip(ops, expected, child["ops"])):
        if error is not None:
            reason = error
        elif rc != 0:
            reason = f"exit code {rc}"
        else:
            try:
                reason = workloads.check(workload, argv, out, want)
            except (ValueError, KeyError) as exc:
                reason = f"unreadable output: {exc}"
        if reason is not None:
            failures.append({"op": i, "reason": reason})
    return failures


def summarize(children: list[dict], key: str, scaled: bool = False) -> float:
    """Median of ``key`` over the children, at reference speed if ``scaled``."""
    values = [c[key] * (c["scale"] if scaled else 1) for c in children if not c["killed"]]
    if not values:  # every child was killed: report how long they ran
        values = [c["elapsed_s"] for c in children]
    return statistics.median(values)


def scaled_latencies(children: list[dict]) -> list[float]:
    """Every op's time at reference speed, pooled over the children."""
    return [op[0] * k for c in children if not c["killed"] for op, k in zip(c["ops"], c["op_scales"])]


def end_to_end(children: list[dict]) -> dict[str, float]:
    latencies = scaled_latencies(children)
    if not latencies:
        latencies = [c["elapsed_s"] for c in children]
    return {
        "setup_s": summarize(children, "setup_s", scaled=True),
        "wall_s": summarize(children, "wall_s", scaled=True),
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": percentile(latencies, 90),
        "peak_rss_mb": summarize(children, "peak_rss_mb"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of the traced children, and any accounting problems."""
    problems = []
    done = [c for c in traced if not c["killed"]]
    if not done:
        return {name: 0.0 for name in tracing.metric_names()}, ["no traced child finished"]
    values = {}
    for name in tracing.metric_names():
        if name in tracing.TRACE_METRICS:
            continue
        series = [c["trace"]["values"].get(name, 0) for c in done]
        # Counts are exact and repeat in every child; times are medians.
        values[name] = statistics.median(series) if name.endswith("_s") else series[0]
    for c in done:
        gap = abs(c["trace"]["self_sum_s"] - c["wall_s"])
        if gap > SELF_SUM_TOLERANCE * c["wall_s"] + 1e-3:
            problems.append(f"self times sum to {c['trace']['self_sum_s']:.6f} s, wall {c['wall_s']:.6f} s")
    values["trace.wall_s"] = summarize(done, "wall_s")
    values["trace.overhead_s"] = values["trace.wall_s"] - summarize(plain, "wall_s")
    return values, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "linksgould" / "__init__.py").is_file():
        print(f"error: no linksgould sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ops = workloads.WORKLOADS[args.workload](args.seed)
    try:
        expected = workloads.expected_outputs(args.workload, args.seed, ops)
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    runs, failures = [], []
    start = time.perf_counter()
    try:
        while True:
            traced = bool(args.trace) and len(runs) % 2 == 1
            child = run_child(ops, traced, RUN_CAP_S - (time.perf_counter() - start))
            child["traced"] = traced
            runs.append(child)
            failures += check_child(args.workload, ops, expected, child)
            elapsed = time.perf_counter() - start
            if args.trace and len(runs) < 2:
                continue
            # Start another child only if it can end within the run's time.
            if elapsed + child["elapsed_s"] > min(args.seconds, RUN_CAP_S):
                break
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    plain = [c for c in runs if not c["traced"]]
    problems = []
    if args.trace:
        metrics, problems = per_layer(plain, [c for c in runs if c["traced"]])
    else:
        metrics = end_to_end(plain)
    correct = not failures and not problems

    latencies = scaled_latencies(plain)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "ops_per_child": len(ops),
        "op_latency_samples": len(latencies),
        "ops_beyond_p90": sum(1 for x in latencies if x > metrics.get("op_p90_s", float("inf"))),
        "metrics": metrics,
        "correct": correct,
        "failures": failures[:50],
        "problems": problems,
        "children": [
            {
                "traced": c["traced"],
                "killed": c["killed"],
                "elapsed_s": c["elapsed_s"],
                **{k: c.get(k) for k in ("setup_s", "wall_s", "scale", "probes", "peak_rss_mb")},
                "op_s": [op[0] for op in c.get("ops", [])],
                "op_scales": c.get("op_scales", []),
            }
            for c in runs
        ],
        "op_digests": [
            workloads.digest(op[2])[:16] for op in next((c["ops"] for c in plain if not c["killed"]), [])
        ],
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    for f in failures[:5]:
        print(f"failed op {f['op']}: {f['reason']}", file=sys.stderr)
    for p in problems:
        print(f"trace problem: {p}", file=sys.stderr)

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops) * len(runs),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
