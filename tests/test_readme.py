"""The README's Python examples run as written, and every name a module
exports in its __all__ exists."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import convexcontact

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(info.name for info in pkgutil.iter_modules(convexcontact.__path__,
                                                           "convexcontact."))


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert blocks
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md, python block {i}", "exec"), {})


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
