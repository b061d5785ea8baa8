"""The README's Library section is the package's documented API.

Its code block must run as written, and cobordlab.__all__ must hold exactly
the library names the section mentions, so the export list and the docs
move together.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import cobordlab
from cobordlab.fpring import format_genpoly

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_section() -> str:
    text = README.read_text()
    start = text.index("\n## Library\n")
    end = text.index("\n## ", start + 1)
    return text[start:end]


def _library_names() -> set[str]:
    """Public functions and classes defined in the package's modules."""
    names = set()
    for info in pkgutil.iter_modules(cobordlab.__path__):
        module = importlib.import_module(f"cobordlab.{info.name}")
        for name, value in vars(module).items():
            if (not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
                    and value.__module__.startswith("cobordlab.")):
                names.add(name)
    return names


def test_library_code_block_runs():
    block = re.search(r"```python\n(.*?)```", _library_section(), re.S).group(1)
    ns: dict = {}
    exec(block, ns)
    assert format_genpoly(ns["gp"]) == "1*X[4]"
    assert ns["d"] == 2  # realize reaches dim_2 of P(4)
    assert cobordlab.dim_q_direct(ns["x"], 4) == 1


def test_exports_are_the_documented_names():
    mentioned = set(re.findall(r"[A-Za-z_]\w*", _library_section())) & _library_names()
    assert set(cobordlab.__all__) == mentioned
    assert all(hasattr(cobordlab, name) for name in cobordlab.__all__)
