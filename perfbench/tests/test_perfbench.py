"""
Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_argv_lists(name):
    make = workloads.WORKLOADS[name]
    assert make(7) == make(7)
    if name != "theorem-grid":  # its one op does not depend on the seed
        assert make(7) != make(8)


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4], which holds b [2, 3], and a second b [5, 6].
    ticks = iter([0, 1, 2, 3, 4, 5, 6, 10])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    b = tracer.wrap("b", lambda: None)
    a = tracer.wrap("a", lambda: b())
    with tracer.span("root"):
        a()
        b()
    assert tracer.self_s == {"a": 2, "b": 2, "root": 6}
    assert tracer.calls == {"a": 1, "b": 2, "root": 1}
    assert sum(tracer.self_s.values()) == 10


def test_span_closes_when_the_call_raises():
    ticks = iter([0, 1, 3, 4])
    tracer = tracing.Tracer(clock=lambda: next(ticks))

    def boom():
        raise KeyError

    a = tracer.wrap("a", boom)
    with tracer.span("root"):
        with pytest.raises(KeyError):
            a()
    assert tracer.self_s == {"a": 2, "root": 2}


def test_install_wraps_every_binding():
    script = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import linksgould, tracing\n"
        "print(tracing.install(tracing.Tracer())['cyclotomic.reduce_at_root'])\n"
        "from linksgould.laurent import Laurent2\n"
        "print(Laurent2.__rmul__ is Laurent2.__mul__, hasattr(Laurent2.__mul__, '__wrapped__'))\n"
    ) % (str(ROOT / "src"), str(BENCH))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    # cyclotomic, spectral, verify, cli and the package itself bind it.
    assert out.stdout.split() == ["5", "True", "True"]


def test_identity_checks():
    assert workloads.components("1 1 1", 2) == 1
    assert workloads.components("1 1", 2) == 2
    assert workloads.identity_problem("t - 1 + t^-1\n", "1 1 1", 2, "alexander") is None
    assert workloads.identity_problem("t - 2 + t^-1\n", "1 1 1", 2, "alexander")
    assert workloads.identity_problem("s - s^-1\n", "1 1", 2, "alexander") is None
    assert workloads.identity_problem("t - t^-1\n", "1 1", 2, "alexander")
    assert workloads.identity_problem("s + s^-1\n", "1 1", 2, "alexander")
    assert workloads.identity_problem("t - t^-1\n", "1 1", 2, "tensor") is None
    assert workloads.identity_problem("2t - 1 - t^-1\n", "1 1 1", 2, "tensor")


def _bench(monkeypatch, ops, expected, *argv):
    monkeypatch.setattr(run, "OUT_DIR", BENCH / "out" / "tests")
    monkeypatch.setitem(workloads.WORKLOADS, "skein-batch", lambda seed: ops)
    monkeypatch.setattr(workloads, "expected_outputs", lambda *_: expected)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(["--workload", "skein-batch", "--seconds", "0", *argv])
    assert code == 0
    return json.loads(buf.getvalue().splitlines()[-1])


def test_wrong_expected_value_fails_the_op(monkeypatch):
    ops = [["alexander", "1 1 1", "--strands", "2"], ["alexander", "1 1", "--strands", "2"]]
    good = _bench(monkeypatch, ops, ["t - 1 + t^-1\n", "s - s^-1\n"])
    assert (good["correct"], good["attempted"], good["failed"]) == (True, 2, 0)
    bad = _bench(monkeypatch, ops, ["t - 1 + t^-1\n", "s + s^-1\n"])
    assert (bad["correct"], bad["attempted"], bad["failed"]) == (False, 2, 1)


def test_exploding_op_ends_as_a_failed_op(monkeypatch):
    monkeypatch.setattr(run, "OP_CAP_S", 0.5)
    word = " ".join(["1 -2"] * 10)  # 20 crossings: minutes for the skein engine
    ops = [["alexander", word, "--strands", "3"], ["alexander", "1 1 1", "--strands", "2"]]
    result = _bench(monkeypatch, ops, [None, "t - 1 + t^-1\n"])
    assert (result["attempted"], result["failed"]) == (2, 1)


def test_traced_run_reports_every_per_layer_metric(monkeypatch):
    ops = [["alexander", "1 -2 1 -2", "--strands", "3"]]
    result = _bench(monkeypatch, ops, ["-t + 3 - t^-1\n"], "--trace", "1")
    assert result["correct"]
    assert list(result["metrics"]) == tracing.metric_names()
    assert result["metrics"]["conway.conway.calls"]["value"] == 1


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["per_layer"]] == tracing.metric_names()
    assert {m["name"] for m in doc["end_to_end"]} == set(run.end_to_end([
        {"killed": False, "setup_s": 1, "wall_s": 1, "scale": 1, "peak_rss_mb": 1, "ops": [[1, 0, "", None]],
         "op_scales": [1]}
    ]))
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "skein-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
