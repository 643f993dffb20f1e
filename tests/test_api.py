"""Packaging guard: exported names resolve, script targets import, and the
package imports nothing a plain install lacks."""

import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python < 3.11
    import tomli as tomllib

import pytest

import fbmcss

MODULES = sorted(
    f"fbmcss.{info.name}" for info in pkgutil.iter_modules(fbmcss.__path__)
)
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []
    assert len(set(exported)) == len(exported)


def test_script_targets_import():
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module_name, _, attr = target.partition(":")
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr)), name


def test_runtime_imports_are_stdlib_or_declared():
    # scipy and the other test extras are installed where the tests run,
    # so an import of one in the package would pass here and break a
    # plain install
    with open(PYPROJECT, "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    allowed = set(sys.stdlib_module_names) | {re.match(r"[\w.-]+", d).group() for d in declared}
    foreign = []
    for path in sorted((PYPROJECT.parent / "src" / "fbmcss").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {n}" for n in names if n.split(".")[0] not in allowed]
    assert allowed >= {"numpy", "__future__"}
    assert foreign == []
