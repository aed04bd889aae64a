from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

from tabbench.cli import HarnessConfig, load_config
from tabbench.datasets import DATA_DIR, DatasetPack, PackFiles
from tabbench.oracle import OP_KINDS
from tabbench.relation import KINDS
from tabbench.requestgen import SuiteConfig
from tabbench.runio import to_json

README = Path(__file__).parent.parent / "README.md"


def test_library_use_example_runs(capsys):
    """The README's "Library use" block runs as written against the package."""
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out
    assert "ReportRow(group=(('model', 'model'), ('request_type', 'retrieval'), ('level', 'table'))" in printed
    assert "mean=1.0" in printed


def test_config_keys_listed_are_the_keys_the_config_takes(tmp_path):
    """README's list of config keys names exactly the keys load_config reads,
    and a config spelling out each of them at its default loads as the default."""
    section = README.read_text(encoding="utf-8").split("The config's keys", 1)[1].split("\n\n")[1]
    listed = set(re.findall(r"`(\w+)`\s+\(", section))
    default = HarnessConfig(dataset="soccer", suite=SuiteConfig())
    every_key = {**{key: value for key, value in to_json(default).items() if key != "suite"},
                 **to_json(default.suite)}
    assert listed == set(every_key)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(every_key), encoding="utf-8")
    assert load_config(config) == default


def test_pack_keys_listed_are_the_keys_dataset_json_takes():
    """README's list of dataset.json keys names exactly the fields the pack's
    classes read from it, and the keys a builtin pack spells out."""
    section = README.read_text(encoding="utf-8").split("A pack's `dataset.json` keys", 1)[1].split("\n\n")[1]
    listed = set(re.findall(r"`(\w+)`\s+\(", section))
    loaded = {"relation", "bank", "templates"}  # read from the files, not from dataset.json
    fields = {f.name for f in dataclasses.fields(DatasetPack)} - loaded | {f.name for f in dataclasses.fields(PackFiles)}
    assert listed == fields
    assert set(json.loads((DATA_DIR / "soccer" / "dataset.json").read_text(encoding="utf-8"))) == listed


def test_operator_kinds_listed_are_the_oracle_table():
    """README's allowed_ops bullet says on which attribute kinds each operator
    is drawn, as oracle.OP_KINDS does."""
    section = README.read_text(encoding="utf-8").split("A pack's `dataset.json` keys", 1)[1].split("\n\n")[1]
    bullet = " ".join(section.split("- `allowed_ops`", 1)[1].split("\n- ", 1)[0].split())
    words = {"numeric attributes": {"numeric"}, "non-numeric ones": set(KINDS) - {"numeric"}, "any attribute": set(KINDS)}
    said = re.findall(r"((?:`\w+`(?: and )?)+)[a-z ]*? on (numeric attributes|non-numeric ones|any attribute)", bullet)
    listed = {op: words[kinds] for ops, kinds in said for op in re.findall(r"`(\w+)`", ops)}
    assert listed == {op: set(kinds) for op, kinds in OP_KINDS.items()}
