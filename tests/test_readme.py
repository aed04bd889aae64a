from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_use_example_runs(capsys):
    """The README's "Library use" block runs as written against the package."""
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out
    assert "ReportRow(group=(('model', 'model'), ('request_type', 'retrieval'), ('level', 'table'))" in printed
    assert "mean=1.0" in printed
