"""README's quick start and the CLI's usage text match the code, and the
export lists are sound."""
import argparse
import importlib
import itertools
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import linksgould
from linksgould import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _modules():
    yield linksgould
    for info in pkgutil.iter_modules(linksgould.__path__):
        yield importlib.import_module(f"linksgould.{info.name}")


def test_readme_quick_start_runs(capsys):
    section = README.read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == "t - 1 + t^-1\n"


@pytest.mark.parametrize("module", list(_modules()), ids=lambda m: m.__name__)
def test_exported_names_resolve_once(module):
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names)), module.__name__
    for name in names:
        assert hasattr(module, name), f"{module.__name__}.{name}"


def _fresh(script):
    """Run ``script`` in a fresh interpreter that imports this package."""
    src = str(Path(linksgould.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_lazy_exports_resolve_to_their_home_objects():
    # A bare import loads no submodule but version; every export loads its
    # submodule on first use, is listed by dir() for tab completion, still
    # resolves to its home module's object and is then bound in the package,
    # and star-import binds every one.
    _fresh(
        "import importlib, sys, linksgould\n"
        "loaded = {m for m in sys.modules if m.startswith('linksgould.')}\n"
        "assert loaded <= {'linksgould.version'}, sorted(loaded)\n"
        "assert set(linksgould.__all__) <= set(dir(linksgould))\n"
        "for name in linksgould.__all__:\n"
        "    value = getattr(linksgould, name)\n"
        "    home = 'linksgould.version' if name == '__version__' else value.__module__\n"
        "    assert getattr(importlib.import_module(home), name) is value, name\n"
        "    assert vars(linksgould)[name] is value, name\n"
        "star = {}\n"
        "exec('from linksgould import *', star)\n"
        "assert set(linksgould.__all__) <= set(star)\n"
        "try:\n"
        "    linksgould.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('linksgould.no_such_name resolved')\n"
    )


@pytest.mark.parametrize("first", ["cli", "verify"])
def test_conway_is_the_submodule_whatever_loads_first(first):
    # The package exports no conway function, so linksgould.conway is the
    # skein engine's module in every import order.
    _fresh(
        "import types\n"
        f"import linksgould.{first}\n"
        "import linksgould.conway\n"
        "assert isinstance(linksgould.conway, types.ModuleType), linksgould.conway\n"
    )


def _parser_options(parser, path=()):
    """Map each leaf command path to the options its parser shows, less --help."""
    actions = parser._actions
    subs = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        shown = [a for a in actions if a.help != argparse.SUPPRESS]
        options = {o for a in shown for o in a.option_strings}
        return {path: options - {"-h", "--help"}}
    found = {}
    for action in subs:
        for name, sub in action.choices.items():
            found.update(_parser_options(sub, path + (name,)))
    return found


def test_cli_usage_docstring_matches_parser():
    block = cli.__doc__.split("Commands:", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for line in block.strip().splitlines():
        words = line.split()
        path = tuple(itertools.takewhile(lambda w: w[0] not in "<[-", words))
        documented[path] = set(re.findall(r"--[a-z][a-z-]*", line))
    assert documented == _parser_options(cli._build_parser())
