"""Every top-level import in the package is used. No linter is a dependency, so
the check reads each module with `ast`: an imported name must appear in the
module's code, be listed in its `__all__`, or carry `# noqa: F401` on its line."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

import tabbench

MODULES = sorted(Path(tabbench.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"line {alias.lineno}: {name}")
    return unused


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.name)
def test_every_top_level_import_is_used(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = "import os\nimport sys  # noqa: F401\nfrom json import (\n    dumps,\n    loads,\n)\n__all__ = ['loads']\n"
    assert unused_imports(source) == ["line 1: os", "line 4: dumps"]
