"""Every artifact of a seeded pipeline is byte-identical under each Python.

The interpreters are those of 3.10 or later installed side by side with the one
running the tests (the directories beside sys.base_prefix, as pyenv lays them
out). Each runs tests/pipeline_digests.py in a fresh process; its digests must
equal the ones this interpreter computes in process."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tabbench
from pipeline_digests import digests

SCRIPT = Path(__file__).with_name("pipeline_digests.py")


def _version(directory: Path) -> tuple[int, ...] | None:
    try:
        return tuple(int(part) for part in directory.name.split("."))
    except ValueError:
        return None


def other_interpreters() -> list[Path]:
    """bin/python3 of each 3.10-or-later install beside this one."""
    here = Path(sys.base_prefix).resolve()
    return [directory / "bin" / "python3" for directory in sorted(here.parent.iterdir(), key=lambda d: d.name)
            if directory.resolve() != here and (_version(directory) or ()) >= (3, 10)
            and (directory / "bin" / "python3").is_file()]


def test_pipeline_digests_are_the_same_under_every_interpreter(tmp_path):
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip(f"no Python 3.10 or later installed beside {sys.base_prefix}")
    (tmp_path / "here").mkdir()
    expected = "".join(f"{digest}  {name}\n" for name, digest in digests(tmp_path / "here").items())
    assert len(expected.splitlines()) == 8  # the suite, the results and six reports
    src = str(Path(tabbench.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    for python in interpreters:
        out = tmp_path / python.parent.parent.name
        out.mkdir()
        run = subprocess.run([str(python), str(SCRIPT), str(out)], env=env, capture_output=True, text=True,
                             timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout == expected, python
