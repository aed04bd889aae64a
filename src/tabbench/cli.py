"""Command-line surface tying the pipeline together.

Subcommands: generate, run, eval, report, convert-rate. Configuration is one
JSON document; secrets come from environment variables only. Exit codes:
0 success, 2 configuration or validation failure, 3 sink I/O failure.
"""
from __future__ import annotations

import dataclasses
import json
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import click

from . import __version__, evaluator
from .answers import parse as parse_answer
from .condgen import GenError
from .datasets import BUILTIN_PACKS, DatasetPack, PackError, load_pack
from .gateway import (
    LossyOracle,
    ModelKind,
    PerfectOracle,
    ProviderConfig,
    RemoteModel,
    SinkError,
    complete,
    run_suite,
)
from .oracle import AND, CONNECTIVES, Condition, Delete, EQ, OR, evaluate
from .relation import Relation, sample_entities
from .requestgen import (
    TEMPLATES_PER_TYPE,
    RequestInstance,
    SuiteConfig,
    SuiteFormatError,
    dump_suite,
    load_suite,
    make_pre_instruction,
)
from .requesttypes import CORE_TYPES, ROWS, RequestType
from .runio import (
    ManifestError,
    config_hash,
    read_manifest,
    read_text_and_digest,
    sha256_file,  # noqa: F401  (bench/tracing.py wraps cli.sha256_file)
    verify_manifest,
    write_manifest,
)
from .seeding import derive_seed
from .structurer import PORTIONS, ParseError, StructuringLevel, cell_fill_rate, parse_table, render

EXIT_CONFIG = 2
EXIT_IO = 3


class ConfigError(Exception):
    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


def _not_utf8(path: Path, e: UnicodeDecodeError) -> ConfigError:
    return ConfigError([f"{path}: not UTF-8 text ({e.reason} at byte {e.start})"])


@dataclass(frozen=True)
class HarnessConfig:
    """One run's full configuration. Seeds are mandatory: no implicit entropy."""

    dataset: str
    seed: int
    sample_n: int = 100
    pair_count: int = 100
    request_types: tuple[str, ...] = tuple(t.value for t in CORE_TYPES)
    connectives: tuple[str, ...] = (AND, OR)
    n_conditions: tuple[int, ...] = (2,)
    levels: tuple[str, ...] = ("table",)
    portions: tuple[float, ...] = ()
    min_support: int = 1
    max_resample: int = 1000
    mode: str = "surrogate"
    models: tuple[dict, ...] = ()

    def payload(self) -> dict:
        return dataclasses.asdict(self)


LIST_FIELDS = ("request_types", "connectives", "n_conditions", "levels", "portions", "models")


def _validate(raw) -> list[str]:
    if not isinstance(raw, dict):
        return ["config: must be a JSON object"]
    errors = [f"{name}: must be a list" for name in LIST_FIELDS if not isinstance(raw.get(name, []), list)]
    if errors:
        return errors
    if not raw.get("dataset") or not isinstance(raw["dataset"], str):
        errors.append("dataset: required (builtin name or pack directory)")
    if "seed" not in raw:
        errors.append("seed: required, runs must not draw implicit entropy")
    elif type(raw["seed"]) is not int:
        errors.append("seed: must be an integer")
    for field_name in ("sample_n", "pair_count", "min_support", "max_resample"):
        if field_name in raw and (type(raw[field_name]) is not int or raw[field_name] < 0):
            errors.append(f"{field_name}: must be a non-negative integer")
    for n in raw.get("n_conditions", ()):
        if type(n) is not int or n < 1:
            errors.append(f"n_conditions: {n!r} is not a positive integer")
    for field_name, allowed in (("request_types", {x.value for x in RequestType}), ("connectives", CONNECTIVES),
                                ("levels", {x.value for x in StructuringLevel})):
        for value in raw.get(field_name, ()):
            if not isinstance(value, str) or value not in allowed:
                errors.append(f"{field_name}: unknown value {value!r}")
    for portion in raw.get("portions", ()):
        if isinstance(portion, bool) or portion not in PORTIONS:
            errors.append(f"portions: {portion!r} not in {PORTIONS}")
    if raw.get("portions") and len(raw.get("levels", ())) > 1:
        errors.append("portions: a partial mix has no structuring level, so it takes at most one level")
    if raw.get("mode", "surrogate") not in ("surrogate", "two_turn"):
        errors.append("mode: must be surrogate or two_turn")
    for model in raw.get("models", ()):
        if not isinstance(model, dict):
            errors.append(f"models: entry {model!r} is not a JSON object")
            continue
        for required in ("name", "endpoint", "model", "auth_env"):
            if not model.get(required):
                errors.append(f"models: entry missing {required!r}")
    return errors


def load_config(path: str | Path) -> HarnessConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"]) from None
    except json.JSONDecodeError as e:
        raise ConfigError([f"config is not valid JSON: {e}"]) from None
    except UnicodeDecodeError as e:
        raise _not_utf8(Path(path), e) from None

    errors = _validate(raw)
    if errors:
        raise ConfigError(errors)

    known = {f.name for f in dataclasses.fields(HarnessConfig)}
    kwargs = {}
    for key, value in raw.items():
        if key not in known:
            continue
        kwargs[key] = tuple(value) if isinstance(value, list) else value
    return HarnessConfig(**kwargs)


def suite_config(config: HarnessConfig) -> SuiteConfig:
    return SuiteConfig(
        pair_count=config.pair_count,
        request_types=tuple(RequestType(t) for t in config.request_types),
        connectives=config.connectives,
        n_conditions=config.n_conditions,
        levels=tuple(StructuringLevel(l) for l in config.levels),
        portions=tuple(config.portions) if config.portions else (None,),
        seed=config.seed,
        min_support=config.min_support,
        max_resample=config.max_resample,
        mode=config.mode,
    )


def sampled_relation(pack: DatasetPack, config: HarnessConfig) -> Relation:
    n = min(config.sample_n, len(pack.relation.rows))
    return sample_entities(pack.relation, n, derive_seed(config.seed, "sample"))


def resolve_model(name: str, config: HarnessConfig | None) -> ModelKind:
    """Model registry: "perfect", "lossy[:q=..,r=..,seed=..]", or a configured remote name."""
    if name == "perfect":
        return PerfectOracle()
    if name == "lossy" or name.startswith("lossy:"):
        params = {"q": 0.0, "r": 0.0, "seed": 0}
        if ":" in name:
            for part in name.split(":", 1)[1].split(","):
                key, _, value = part.partition("=")
                if key not in params:
                    raise ConfigError([f"model: unknown lossy parameter {key!r}"])
                params[key] = float(value) if key != "seed" else int(value)
        return LossyOracle(omission_prob=params["q"], flip_prob=params["r"], seed=params["seed"])
    for entry in (config.models if config else ()):
        if entry.get("name") == name:
            fields = {f.name for f in dataclasses.fields(ProviderConfig)}
            return RemoteModel(ProviderConfig(**{k: v for k, v in entry.items() if k in fields}))
    raise ConfigError([f"model: unknown model {name!r} (use perfect, lossy:..., or a configured name)"])


def _fail(errors: list[str], code: int) -> None:
    report = {"errors": errors}
    click.echo(json.dumps(report, indent=2, sort_keys=True), err=True)
    sys.exit(code)


@click.group()
@click.version_option(version=__version__)
def main():
    """Tabular-knowledge benchmark harness."""


@main.command("generate")
@click.option("--config", "config_path", required=True, type=click.Path(), help="JSON config file.")
@click.option("--out", "out_dir", required=True, type=click.Path(), help="Output directory.")
@click.option("--seed", "seed_override", default=None, type=int, help="Override the config's seed.")
def cmd_generate(config_path, out_dir, seed_override):
    """Generate a request suite with oracle gold answers."""
    try:
        config = load_config(config_path)
        if seed_override is not None:
            config = dataclasses.replace(config, seed=seed_override)
        pack = load_pack(config.dataset)
        rel = sampled_relation(pack, config)
        instances = generate(rel, config, pack)
    except (ConfigError, PackError, GenError) as e:
        _fail(getattr(e, "errors", [str(e)]), EXIT_CONFIG)
        return

    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        suite_path = out / "suite.jsonl"
        suite_path.write_text(dump_suite(instances), encoding="utf-8")
        write_manifest(
            out / "suite.manifest.json",
            config_digest=config_hash(config.payload()),
            files={"suite.jsonl": suite_path},
            extra={"seed": config.seed, "dataset": pack.name},
        )
    except OSError as e:
        _fail([f"cannot write suite: {e}"], EXIT_IO)
        return

    counts = Counter(i.request_type.value for i in instances)
    for request_type in sorted(counts):
        click.echo(f"{request_type}: {counts[request_type]} instances")
    click.echo(f"total: {len(instances)} -> {out / 'suite.jsonl'}")


def generate(rel: Relation, config: HarnessConfig, pack: DatasetPack) -> list[RequestInstance]:
    from .requestgen import generate_suite

    return generate_suite(rel, suite_config(config), pack)


def _read_suite(path: Path) -> tuple[list[RequestInstance], str]:
    """A suite file's instances and the SHA-256 of its bytes, from one read.
    When suite.manifest.json sits beside it, the file, whatever its name, must
    match the digest recorded there for suite.jsonl (ManifestError otherwise)."""
    try:
        text, digest = read_text_and_digest(path)
    except UnicodeDecodeError as e:
        raise _not_utf8(path, e) from None
    manifest_path = path.with_name("suite.manifest.json")
    if manifest_path.is_file():
        verify_manifest(read_manifest(manifest_path), path.parent, known={"suite.jsonl": digest})
    try:
        return load_suite(text), digest
    except SuiteFormatError as e:
        raise ConfigError([f"{path}: {e}"]) from None


RESULT_FIELDS = {"attempts": int, "error": str | None, "id": str, "model": str, "text": str | None}


def _read_results(path: Path, suite_digest: str | None = None) -> list[dict]:
    """The result objects of a results JSONL file, in file order; a line that
    is not one (a key missing or of the wrong type) raises ConfigError naming
    the file and the line. Given the digest of the suite being scored, a
    manifest that run left beside the file (<name>.manifest.json) must record
    the file's digest and that suite digest (ManifestError otherwise)."""
    try:
        text, digest = read_text_and_digest(path)
    except UnicodeDecodeError as e:
        raise _not_utf8(path, e) from None
    manifest_path = path.with_name(path.name + ".manifest.json")
    if suite_digest is not None and manifest_path.is_file():
        manifest = read_manifest(manifest_path)
        verify_manifest(manifest, path.parent, known={path.name: digest})
        if manifest.get("suite_digest") != suite_digest:
            raise ManifestError(f"{path}: answers the suite with digest {str(manifest.get('suite_digest'))[:12]}.., "
                                f"not the suite being scored ({suite_digest[:12]}..)")
    records = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as e:
            raise ConfigError([f"{path}: line {number}: not valid JSON ({e})"]) from None
        if not isinstance(record, dict) or not all(
                k in record and isinstance(record[k], kind) for k, kind in RESULT_FIELDS.items()):
            raise ConfigError([f"{path}: line {number}: not a result object with keys "
                               f"{', '.join(RESULT_FIELDS)} of the right types"])
        records.append(record)
    return records


@main.command("run")
@click.option("--suite", "suite_path", required=True, type=click.Path(), help="suite.jsonl from generate.")
@click.option("--model", "model_name", required=True, help="perfect | lossy:q=0.2 | configured remote name.")
@click.option("--out", "out_path", required=True, type=click.Path(), help="Results JSONL path.")
@click.option("--config", "config_path", default=None, type=click.Path(), help="Config (for remote models).")
@click.option("--max-in-flight", default=4, show_default=True, help="Concurrent requests for mock models.")
def cmd_run(suite_path, model_name, out_path, config_path, max_in_flight):
    """Run a suite against a model; resumes if the results file already exists."""
    suite_file = Path(suite_path)
    try:
        config = load_config(config_path) if config_path else None
        model = resolve_model(model_name, config)
        instances, suite_digest = _read_suite(suite_file)
        out_file = Path(out_path)
        existing = {r["id"]: r for r in _read_results(out_file)} if out_file.is_file() else {}
    except (ConfigError, ManifestError, FileNotFoundError) as e:
        _fail(getattr(e, "errors", [str(e)]), EXIT_CONFIG)
        return

    try:
        out_file.parent.mkdir(parents=True, exist_ok=True)
        manifest = run_suite(instances, model, out_file, max_in_flight=max_in_flight, existing=existing)
        write_manifest(
            out_file.with_name(out_file.name + ".manifest.json"),
            config_digest=config_hash(config.payload()) if config else "",
            files={out_file.name: out_file},
            extra={"run": manifest, "suite_digest": suite_digest},
        )
    except SinkError as e:
        _fail([str(e)], EXIT_IO)
        return

    click.echo(f"answered {manifest['dispatched']} (reused {manifest['reused']}, "
               f"errors {manifest['errors']}) -> {out_file}")


@main.command("eval")
@click.option("--suite", "suite_path", required=True, type=click.Path())
@click.option("--results", "results_paths", required=True, multiple=True, type=click.Path())
@click.option("--out", "out_dir", required=True, type=click.Path())
def cmd_eval(suite_path, results_paths, out_dir):
    """Score results against the suite's gold answers and write reports."""
    try:
        suite, suite_digest = _read_suite(Path(suite_path))
    except (ConfigError, ManifestError, FileNotFoundError) as e:
        _fail(getattr(e, "errors", [str(e)]), EXIT_CONFIG)
        return
    instances = {i.id: i for i in suite}

    records = []
    for results_path in results_paths:
        try:
            payloads = _read_results(Path(results_path), suite_digest)
        except (ConfigError, ManifestError, FileNotFoundError) as e:
            _fail(getattr(e, "errors", [str(e)]), EXIT_CONFIG)
            return
        for payload in payloads:
            instance = instances.get(payload["id"])
            if instance is None:
                _fail([f"{results_path}: result id {payload['id']!r} is not in the suite"], EXIT_CONFIG)
                return
            parsed = parse_answer(payload["text"], instance.request_type)
            records.append(evaluator.score(instance, parsed, model=payload["model"]))

    grouping = evaluator.DEFAULT_GROUPING
    if len({r.portion for r in records}) > 1:
        grouping = (*grouping, "portion")
    rows = evaluator.aggregate(records, grouping)
    for row in rows:
        if row.templates < TEMPLATES_PER_TYPE:
            click.echo(f"coverage warning: {dict(row.group)} has only {row.templates} template(s)", err=True)

    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "records.csv").write_text(evaluator.records_to_csv(records), encoding="utf-8")
        (out / "aggregate.csv").write_text(evaluator.report_to_csv(rows), encoding="utf-8")
        (out / "aggregate.md").write_text(evaluator.report_markdown(rows), encoding="utf-8")
        variance_rows = [
            {"level": str(r.key("level")), "model": str(r.key("model")),
             "request_type": str(r.key("request_type")), "variance": repr(r.variance)}
            for r in rows
        ]
        (out / "variance.csv").write_text(evaluator.dicts_to_csv(variance_rows), encoding="utf-8")

        comparison = _maybe_compare(rows)
        if comparison is not None:
            (out / "compare.json").write_text(
                json.dumps(dataclasses.asdict(comparison), indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        robustness = evaluator.existence_robustness(records)
        if robustness:
            (out / "existence.csv").write_text(
                evaluator.dicts_to_csv([dataclasses.asdict(r) for r in robustness]), encoding="utf-8"
            )
        produced = [p for p in out.iterdir() if p.suffix in (".csv", ".md", ".json") and "manifest" not in p.name]
        write_manifest(
            out / "eval.manifest.json",
            config_digest="",
            files={p.name: p for p in sorted(produced)},
            extra={"suite_digest": suite_digest, "records": len(records)},
        )
    except OSError as e:
        _fail([f"cannot write reports: {e}"], EXIT_IO)
        return

    click.echo(f"scored {len(records)} records -> {out}")


def _maybe_compare(rows):
    """Text-vs-table summary when both a natural- and a table-level run exist."""
    def cells(level):
        return [
            {"model": str(r.key("model")), "request_type": str(r.key("request_type")),
             "metric": ROWS[RequestType(r.key("request_type"))].metric, "mean": r.mean}
            for r in rows
            if str(r.key("level")) == level
        ]

    text_cells = cells(StructuringLevel.NATURAL.value)
    table_cells = cells(StructuringLevel.TABLE.value)
    if not text_cells or not table_cells:
        return None
    aligned = {(c["model"], c["request_type"]) for c in text_cells} & {
        (c["model"], c["request_type"]) for c in table_cells
    }
    text_cells = [c for c in text_cells if (c["model"], c["request_type"]) in aligned]
    table_cells = [c for c in table_cells if (c["model"], c["request_type"]) in aligned]
    if not text_cells:
        return None
    return evaluator.compare_formats(text_cells, table_cells)


def _echo_comparison(payload: dict) -> None:
    click.echo(
        f"table vs text: mean improvement {payload['mean_improvement_pp']:.2f} pp "
        f"({payload['mean_relative_change'] * 100:.2f}% relative, convention-dependent)"
    )
    if payload.get("count_abs_reduction") is not None:
        click.echo(f"count difference reduction: {payload['count_abs_reduction']:.2f}")


@main.command("report")
@click.option("--eval-dir", "eval_dir", default=None, type=click.Path())
@click.option("--compare-file", "compare_file", default=None, type=click.Path(),
              help='JSON with {"text": [cells], "table": [cells]} of aggregate means.')
def cmd_report(eval_dir, compare_file):
    """Print the aggregate table and summaries produced by eval, or the
    text-vs-table headline for a standalone cells file."""
    if compare_file:
        try:
            fixture = json.loads(Path(compare_file).read_text(encoding="utf-8"))
            comparison = evaluator.compare_formats(fixture["text"], fixture["table"])
        except (OSError, KeyError, json.JSONDecodeError, evaluator.ReportError) as e:
            _fail([f"cannot compare {compare_file}: {e}"], EXIT_CONFIG)
            return
        _echo_comparison(dataclasses.asdict(comparison))
        return

    if not eval_dir:
        _fail(["report needs --eval-dir or --compare-file"], EXIT_CONFIG)
        return
    out = Path(eval_dir)
    table = out / "aggregate.md"
    if not table.is_file():
        _fail([f"no aggregate.md under {eval_dir}; run eval first"], EXIT_CONFIG)
        return
    click.echo(table.read_text(encoding="utf-8"), nl=False)
    compare = out / "compare.json"
    if compare.is_file():
        click.echo("")
        _echo_comparison(json.loads(compare.read_text(encoding="utf-8")))
    robustness = out / "existence.csv"
    if robustness.is_file():
        click.echo("\nexistence robustness (original vs negated):")
        click.echo(robustness.read_text(encoding="utf-8"), nl=False)


def structuring_probe(pack: DatasetPack, rel: Relation, seed: int, with_columns: bool) -> RequestInstance:
    """Synthetic instance asking for the facts as a table; gold is the exact table.

    Built as a deletion whose condition matches nothing, so the gold snapshot is
    the full relation and table-shaped mock answers fall out for free."""
    expr = Condition(attr=rel.key_attr.name, op=EQ, value="__no_such_entity__", rendered="structuring probe")
    plan = Delete(expr)
    pre = make_pre_instruction(
        pack.entity_noun_plural,
        pack.column_phrases() if with_columns else None,
    )
    return RequestInstance(
        id=f"probe-{pack.name}-{'cols' if with_columns else 'nocols'}",
        dataset=pack.name,
        template_id=0,
        connective=AND,
        level=StructuringLevel.NATURAL,
        portion=None,
        plan=plan,
        prompt=pre + "\nOutput the table after the line ANSWER:, as a pipe table.",
        context=render(rel, StructuringLevel.NATURAL, seed, pack.bank),
        pre_instruction=pre,
        gold=evaluate(plan, rel),
        entity_keys=rel.keys(),
    )


@main.command("convert-rate")
@click.option("--model", "model_name", default="perfect", show_default=True)
@click.option("--dataset", "dataset_names", multiple=True,
              help="Pack name or path; defaults to all builtin packs.")
@click.option("--seed", required=True, type=int)
@click.option("--sample-n", default=20, show_default=True, type=int)
@click.option("--config", "config_path", default=None, type=click.Path())
def cmd_convert_rate(model_name, dataset_names, seed, sample_n, config_path):
    """Measure how much of a text rendering a model can restructure into a table."""
    try:
        config = load_config(config_path) if config_path else None
        model = resolve_model(model_name, config)
        names = dataset_names or BUILTIN_PACKS
        packs = [load_pack(name) for name in names]
    except (ConfigError, PackError) as e:
        _fail(getattr(e, "errors", [str(e)]), EXIT_CONFIG)
        return

    for pack in packs:
        rel = sample_entities(pack.relation, min(sample_n, len(pack.relation.rows)),
                               derive_seed(seed, "convert", pack.name))
        for with_columns in (True, False):
            probe = structuring_probe(pack, rel, derive_seed(seed, "probe", pack.name), with_columns)
            response = complete(probe, model)
            rate = 0.0
            if response.text is not None:
                try:
                    rate = cell_fill_rate(parse_table(response.text), rel)
                except ParseError:
                    rate = 0.0
            label = "given" if with_columns else "none"
            click.echo(f"dataset={pack.name} columns={label} cell_fill_rate={rate:.4f}")


if __name__ == "__main__":
    main()
