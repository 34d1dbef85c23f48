"""README's quick start runs as written, and the export lists are sound."""
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import linksgould

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
