"""Only runio writes files: every artifact and manifest goes through
`runio.write_file`, which stages it to `<name>.tmp`, hashes its bytes as they
are written and renames it. No linter is a dependency, so the check reads each
module with `ast`. Outside runio, no call may open a file for writing (a mode
with `w`, `a`, `x` or `+`, or a mode that is not a string literal) or call
`write_text` or `write_bytes`. The one named exception is gateway's `.partial`
journal, which streams answers as they come and is never renamed."""
from __future__ import annotations

import ast
from pathlib import Path

import tabbench

MODULES = sorted(Path(tabbench.__file__).parent.glob("*.py"))
WRITER = "runio.py"
# (module, the file an open in it is given)
ALLOWED = {("gateway.py", "partial")}


def _writes_by_open(call: ast.Call) -> bool:
    """Whether an `open` call opens its file for writing: `open(file, mode)`,
    or `path.open(mode)` for a method."""
    method = isinstance(call.func, ast.Attribute)
    args = call.args[0 if method else 1:]
    mode = next((k.value for k in call.keywords if k.arg == "mode"), args[0] if args else None)
    if mode is None:
        return False
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(set(mode.value) & set("wax+"))
    return True


def writers(sources: dict[str, str]) -> list[str]:
    """`module:line: call` of each call in `sources` (module name -> source),
    outside runio and ALLOWED, that writes a file."""
    out = []
    for module, source in sources.items():
        if module == WRITER:
            continue
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            if name == "open" and _writes_by_open(node):
                target = node.func.value if isinstance(node.func, ast.Attribute) else node.args[0]
                if (module, ast.unparse(target)) in ALLOWED:
                    continue
            elif name not in ("write_text", "write_bytes"):
                continue
            out.append(f"{module}:{node.lineno}: {ast.unparse(node)}")
    return out


def test_only_runio_writes_a_file_in_the_package():
    assert writers({path.name: path.read_text(encoding="utf-8") for path in MODULES}) == []


def test_the_check_sees_a_writer():
    sources = {
        "runio.py": "open(p, 'wb')\np.write_text('x')\n",
        "gateway.py": "open(partial, 'w')\nopen(sink, 'w')\n",
        "a.py": "open(p)\nopen(p, 'rb')\np.open()\np.open(mode='r')\nread_text(p)\n"
                "open(p, mode='a')\np.open('wb')\nopen(p, mode)\np.write_text('x')\np.write_bytes(b'')\n",
    }
    assert writers(sources) == [
        "gateway.py:2: open(sink, 'w')",
        "a.py:6: open(p, mode='a')",
        "a.py:7: p.open('wb')",
        "a.py:8: open(p, mode)",
        "a.py:9: p.write_text('x')",
        "a.py:10: p.write_bytes(b'')",
    ]
