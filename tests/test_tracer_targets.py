"""The benchmark's tracer still finds every method and function it wraps.

``perfbench/tracing.py`` looks each target of ``tracing.LAYERS`` up by
name, class methods in their own class's ``__dict__``.  A target that
moves, for instance into a shared base class, is no longer replaced, and
its layer silently reads zero.  Installing the tracer rebinds names in
the loaded ``linksgould`` modules, so it runs in a fresh interpreter.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import importlib, json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import linksgould.cli
import tracing
for layer in tracing.LAYERS:
    importlib.import_module("linksgould." + layer.module)
targets = [layer.module + "." + t for layer in tracing.LAYERS for t in layer.targets]
print(json.dumps({{"targets": targets, "replaced": tracing.install(tracing.Tracer())}}))
"""


def test_tracer_replaces_every_target():
    script = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)
    assert sorted(result["replaced"]) == sorted(result["targets"])
    missed = [t for t, n in result["replaced"].items() if n < 1]
    assert not missed, f"the tracer no longer finds {missed}"
