"""Every artifact of a seeded pipeline is byte-identical under each Python.

Each Python 3.10 or later installed beside the one running the tests (the
directories beside sys.base_prefix, as pyenv lays them out) runs the CLI's
generate, run and eval stages, `python -m tabbench.cli`, in fresh processes.
What they write must equal what the same stages write run in this process.
Those interpreters have no click, so this interpreter's click package is
linked into a directory put on their PYTHONPATH beside src; nothing is
installed."""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import tabbench
from tabbench.cli import main
from tabbench.requesttypes import RequestType
from tabbench.structurer import StructuringLevel

CONFIG = {"dataset": "soccer", "seed": 7, "pair_count": 2, "request_types": [t.value for t in RequestType],
          "connectives": ["and", "or", "diff"], "n_conditions": [1, 2],
          "levels": [level.value for level in StructuringLevel]}
# the same command lines under every interpreter, each run in the directory that holds config.json
STAGES = (("generate", "--config", "config.json", "--out", "."),
          ("run", "--suite", "suite.jsonl", "--model", "lossy:q=0.2,r=0.1,seed=3", "--out", "results.jsonl"),
          ("eval", "--suite", "suite.jsonl", "--results", "results.jsonl", "--out", "."))


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


def _config_dir(path: Path) -> Path:
    path.mkdir()
    (path / "config.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    return path


def artifacts(out: Path) -> dict[str, str]:
    """The SHA-256 of each file the stages wrote in `out`, but the manifests,
    which record when they were written."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(out.iterdir())
            if path.name != "config.json" and not path.name.endswith(".manifest.json")}


@pytest.fixture(scope="module")
def expected(tmp_path_factory) -> dict[str, str]:
    out = _config_dir(tmp_path_factory.mktemp("here") / "out")
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(out)
        for stage in STAGES:
            result = CliRunner().invoke(main, list(stage))
            assert result.exit_code == 0, result.output
    found = artifacts(out)
    assert len(found) == 8  # the suite, the results and six reports
    return found


INTERPRETERS = other_interpreters()


@pytest.mark.parametrize("python", INTERPRETERS, ids=[python.parent.parent.name for python in INTERPRETERS])
def test_pipeline_digests_are_the_same_under_every_interpreter(python, expected, tmp_path):
    linked = tmp_path / "linked"
    linked.mkdir()
    (linked / "click").symlink_to(Path(click.__file__).parent, target_is_directory=True)
    src = Path(tabbench.__file__).parent.parent
    # no bytecode is written, so none lands in the linked click package
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(linked)]), "PYTHONDONTWRITEBYTECODE": "1"}
    out = _config_dir(tmp_path / "out")
    for stage in STAGES:
        run = subprocess.run([str(python), "-m", "tabbench.cli", *stage], cwd=out, env=env, capture_output=True,
                             text=True, timeout=120)
        assert run.returncode == 0, run.stderr
    assert artifacts(out) == expected
