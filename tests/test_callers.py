"""Every def in the package has a caller in the package: code only the tests use
belongs in the tests. No linter is a dependency, so the check reads each module
with `ast`. A top-level function or class, or a non-dunder method of a
top-level class, must be referenced in the package (as a name, an attribute
or an imported name), be listed in an `__all__`, or be registered as a click
command or group. A reference inside the def itself counts, so that a method
overriding a library's, as `_Stages.invoke` does with `super().invoke`, is
not flagged."""
from __future__ import annotations

import ast
from pathlib import Path

import tabbench

MODULES = sorted(Path(tabbench.__file__).parent.glob("*.py"))


def _references(tree: ast.AST) -> set[str]:
    seen = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            seen.add(node.id)
        elif isinstance(node, ast.Attribute):
            seen.add(node.attr)
        elif isinstance(node, ast.alias):
            seen.add(node.name.split(".")[-1])
    return seen


def _is_click_command(node: ast.AST) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr in ("command", "group")
               for d in getattr(node, "decorator_list", ()))


def uncalled(sources: dict[str, str]) -> list[str]:
    """`module: name` of each def in `sources` (module name -> source) that
    nothing in `sources` calls."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    known = set().union(*map(_references, trees.values()))
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                known |= set(ast.literal_eval(node.value))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, defs):
                continue
            members = [node]
            if isinstance(node, ast.ClassDef):
                members += [m for m in node.body
                            if isinstance(m, defs) and not (m.name.startswith("__") and m.name.endswith("__"))]
            for member in members:
                if member.name not in known and not _is_click_command(member):
                    out.append(f"{module}: {member.name}")
    return out


def test_every_def_in_the_package_has_a_caller_in_the_package():
    assert uncalled({path.name: path.read_text(encoding="utf-8") for path in MODULES}) == []


def test_the_check_sees_a_def_without_a_caller():
    sources = {
        "a.py": "__all__ = ['exported']\ndef exported(): pass\ndef called(): pass\n"
                "def uncalled(): pass\n"
                "class Kind:\n    def __init__(self): pass\n    def used(self): pass\n    def unused(self): pass\n",
        "b.py": "import click\nfrom a import called\n@click.group()\ndef main(): pass\n"
                "@main.command('go')\ndef go(): Kind().used()\n",
    }
    assert uncalled(sources) == ["a.py: uncalled", "a.py: unused"]
