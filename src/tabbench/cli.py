"""Command-line surface tying the pipeline together.

Subcommands: generate, run, eval, report, convert-rate. Configuration is one
JSON document; secrets come from environment variables only. Exit codes:
0 success, 2 configuration or validation failure, 3 sink I/O failure.
"""
from __future__ import annotations

import atexit
import contextlib
import dataclasses
import functools
import gc
import hashlib
import json
import os
import sys
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import click

from . import __version__, requestgen
from .answers import parse as parse_answer
from .condgen import GenError
from .datasets import BUILTIN_PACKS, DatasetPack, PackError, load_pack
from .gateway import (
    GatewayError,
    LossyOracle,
    ModelKind,
    PerfectOracle,
    ProviderConfig,
    RemoteModel,
    ResultLine,
    SinkError,
    complete,
    run_suite,
)
from .oracle import AND, Condition, Delete, EQ, evaluate
from .relation import Relation, sample_entities
from .requestgen import (
    SUITE_BATCH,
    TEMPLATES_PER_TYPE,
    RequestInstance,
    SuiteConfig,
    SuiteFormatError,
    dump_suite,
    load_suite,
    make_pre_instruction,
)
from .runio import (
    CodecError,
    ManifestError,
    config_hash,
    from_json,
    read_manifest,
    read_lines,
    sha256_file,  # noqa: F401  (bench/tracing.py wraps it here)
    to_json,
    verify_manifest,
    write_file,
    write_manifest,
)
from .seeding import derive_seed
from .structurer import ParseError, StructuringLevel, cell_fill_rate, parse_table, render

EXIT_CONFIG = 2
EXIT_IO = 3


class ConfigError(Exception):
    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@contextlib.contextmanager
def _reading(path: Path):
    """A block that reads an input file: a file that cannot be read or decoded
    is a ConfigError naming it."""
    try:
        yield
    except UnicodeDecodeError as e:
        raise ConfigError([f"{path}: not UTF-8 text ({e.reason} at byte {e.start})"]) from None
    except OSError as e:
        raise ConfigError([f"cannot read {path}: {e.strerror or e}"]) from None


def _read_input(path: Path) -> str:
    """An input file's UTF-8 text, line endings as they are."""
    with _reading(path):
        return path.read_bytes().decode("utf-8")


@dataclass(frozen=True)
class HarnessConfig:
    """One run's full configuration: the pack, how many of its entities to
    sample, the suite grid and the remote models, each asked for by its name.
    Seeds are mandatory: no implicit entropy. A partial mix has no structuring
    level, so a config with portions takes at most one level."""

    dataset: str
    suite: SuiteConfig
    models: tuple[ProviderConfig, ...] = ()
    sample_n: int = 100

    def __post_init__(self):
        if not self.dataset:
            raise ConfigError(["dataset must be non-empty, got ''"])
        if self.sample_n < 0:
            raise ConfigError([f"sample_n must be at least 0, got {self.sample_n!r}"])
        names = [model.name for model in self.models]
        repeated = [name for i, name in enumerate(names) if name in names[:i]]
        if repeated:
            raise ConfigError([f"models: name {repeated[0]!r} is given to more than one entry"])
        if self.suite.portions and len(self.suite.levels) > 1:
            raise ConfigError([f"portions: a partial mix has no structuring level, so it takes at most one level, "
                               f"got levels {to_json(self.suite.levels)}"])


def load_config(path: str | Path) -> HarnessConfig:
    """The config file read into the settings the stages run on. It is one
    JSON object: `dataset`, `sample_n` and `models` fill the HarnessConfig,
    and every other key is a SuiteConfig field. The first bad field is a
    ConfigError naming it."""
    text = _read_input(Path(path))
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError([f"config is not valid JSON: {e}"]) from None
    if not isinstance(raw, dict):
        raise ConfigError(["config: must be a JSON object"])
    if "seed" not in raw:
        raise ConfigError(["seed: required, runs must not draw implicit entropy"])
    own = {field.name for field in dataclasses.fields(HarnessConfig)} - {"suite"}
    try:
        return from_json(HarnessConfig, {**{key: value for key, value in raw.items() if key in own},
                                         "suite": {key: value for key, value in raw.items() if key not in own}})
    except (CodecError, GatewayError, GenError) as e:
        raise ConfigError([str(e)]) from None


def sampled_relation(pack: DatasetPack, config: HarnessConfig) -> Relation:
    n = min(config.sample_n, len(pack.relation.rows))
    return sample_entities(pack.relation, n, derive_seed(config.suite.seed, "sample"))


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
                try:
                    params[key] = float(value) if key != "seed" else int(value)
                except ValueError:
                    raise ConfigError([f"model: lossy parameter {key!r} needs a number, got {value!r}"]) from None
                if key != "seed" and not 0.0 <= params[key] <= 1.0:
                    raise ConfigError([f"model: lossy parameter {key!r} must lie in [0, 1], got {value!r}"])
        return LossyOracle(omission_prob=params["q"], flip_prob=params["r"], seed=params["seed"])
    provider = next((entry for entry in config.models if entry.name == name), None) if config else None
    if provider is None:
        raise ConfigError([f"model: unknown model {name!r} (use perfect, lossy:..., or a configured name)"])
    if not os.environ.get(provider.auth_env):
        raise ConfigError([f"models: {name!r}: environment variable {provider.auth_env!r} is not set"])
    return RemoteModel(provider)


def _fail(errors: list[str], code: int) -> None:
    report = {"errors": errors}
    click.echo(json.dumps(report, indent=2, sort_keys=True), err=True)
    sys.exit(code)


class _Stages(click.Group):
    """The command group; every subcommand's failure gets its exit code here.
    Reads turn their failures into input errors, so an OSError left is a write."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ConfigError, ManifestError, PackError, GenError) as e:
            _fail(getattr(e, "errors", [str(e)]), EXIT_CONFIG)
        except SinkError as e:
            _fail([str(e)], EXIT_IO)
        except OSError as e:
            _fail([f"cannot write output: {e}"], EXIT_IO)


@click.group(cls=_Stages)
@click.version_option(version=__version__)
def main():
    """Tabular-knowledge benchmark harness."""
    _freeze_collector_at_exit()


@functools.cache
def _freeze_collector_at_exit() -> None:
    """Once per process, when a command runs: at exit, freeze the collector,
    so that the interpreter's final collections skip every object. Every file
    a stage writes is closed by its `with` block, so no output waits on them."""
    atexit.register(gc.freeze)


@main.command("generate")
@click.option("--config", "config_path", required=True, type=click.Path(), help="JSON config file.")
@click.option("--out", "out_dir", required=True, type=click.Path(), help="Output directory.")
@click.option("--seed", "seed_override", default=None, type=int, help="Override the config's seed.")
def cmd_generate(config_path, out_dir, seed_override):
    """Generate a request suite with oracle gold answers."""
    config = load_config(config_path)
    if seed_override is not None:
        config = dataclasses.replace(config, suite=dataclasses.replace(config.suite, seed=seed_override))
    pack = load_pack(config.dataset)
    # through the module, so that a wrapper set on requestgen.generate_suite is called
    instances = requestgen.generate_suite(sampled_relation(pack, config), config.suite, pack)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # the batches share the values stated so far: the file is the one dump_suite of them all
    stated = {}
    suite_digest = write_file(out / "suite.jsonl", (dump_suite(instances[start:start + SUITE_BATCH], stated)
                                                    for start in range(0, len(instances), SUITE_BATCH)))
    write_manifest(
        out / "suite.manifest.json",
        config_digest=config_hash(to_json(config)),
        files={"suite.jsonl": suite_digest},
        extra={"seed": config.suite.seed, "dataset": pack.name},
    )

    counts = Counter(i.request_type.value for i in instances)
    for request_type in sorted(counts):
        click.echo(f"{request_type}: {counts[request_type]} instances")
    click.echo(f"total: {len(instances)} -> {out / 'suite.jsonl'}")


def _read_suite(path: Path, digest) -> Iterator[RequestInstance]:
    """A suite file's instances, each decoded as it is reached, in one read
    that feeds the file's bytes to `digest`. Bytes that are not UTF-8 or a
    line that is not an instance is a ConfigError naming the file and the
    line. After the last line, when suite.manifest.json sits beside the file,
    the file, whatever its name, must match the digest recorded there for
    suite.jsonl (ManifestError otherwise)."""
    with _reading(path), open(path, "rb") as f:
        try:
            yield from load_suite(read_lines(f, digest))
        except SuiteFormatError as e:
            raise ConfigError([f"{path}: {e}"]) from None
    manifest_path = path.with_name("suite.manifest.json")
    if manifest_path.is_file():
        verify_manifest(read_manifest(manifest_path), path.parent, known={"suite.jsonl": digest.hexdigest()})


def _read_answers(results_paths: tuple[str, ...], suite_digest: str) -> Iterator[tuple[str, ResultLine]]:
    """Each line of every results JSONL file as it is read, with where it was
    read ("<file>: line <n>"). A line that is not a result line (a key
    missing, unknown or of the wrong type, or both or neither of text and
    error set) is a ConfigError naming the file and the line; so is a model
    answering an id twice, naming both lines. After each file's last line, a
    manifest that run left beside it (<name>.manifest.json) must record the
    file's digest and `suite_digest`, that of the suite being answered or
    scored (ManifestError otherwise)."""
    answered = {}
    for results_path in results_paths:
        path, digest = Path(results_path), hashlib.sha256()
        with _reading(path), open(path, "rb") as f:
            for number, line in enumerate(read_lines(f, digest), 1):
                if not line.strip():
                    continue
                where = f"{results_path}: line {number}"
                try:
                    result = from_json(ResultLine, json.loads(line))
                except json.JSONDecodeError as e:
                    raise ConfigError([f"{where}: not valid JSON ({e})"]) from None
                except (CodecError, GatewayError) as e:
                    raise ConfigError([f"{where}: not a result line ({e})"]) from None
                key = (result.model, result.id)
                if key in answered:
                    raise ConfigError([f"{where}: model {key[0]!r} already answered {key[1]!r} at {answered[key]}"])
                answered[key] = where
                yield where, result
        manifest_path = path.with_name(path.name + ".manifest.json")
        if manifest_path.is_file():
            manifest = read_manifest(manifest_path)
            verify_manifest(manifest, path.parent, known={path.name: digest.hexdigest()})
            if manifest.get("suite_digest") != suite_digest:
                raise ManifestError(f"{path}: answers the suite with digest {str(manifest.get('suite_digest'))[:12]}.., "
                                    f"not the suite being scored or answered ({suite_digest[:12]}..)")


@main.command("run")
@click.option("--suite", "suite_path", required=True, type=click.Path(), help="suite.jsonl from generate.")
@click.option("--model", "model_name", required=True, help="perfect | lossy:q=0.2 | configured remote name.")
@click.option("--out", "out_path", required=True, type=click.Path(), help="Results JSONL path.")
@click.option("--config", "config_path", default=None, type=click.Path(), help="Config (for remote models).")
@click.option("--max-in-flight", default=4, show_default=True,
              help="Kept for older scripts (at least 1) and not used: a mock is answered one instance at "
                   "a time, and a remote model runs its config's max_in_flight requests at once.")
def cmd_run(suite_path, model_name, out_path, config_path, max_in_flight):
    """Run a suite against a model; resumes if the results file already exists."""
    if max_in_flight < 1:
        raise ConfigError([f"--max-in-flight: {max_in_flight} is not a positive integer"])
    config = load_config(config_path) if config_path else None
    model = resolve_model(model_name, config)
    suite_hash = hashlib.sha256()
    # every line is decoded and the suite's digest checked before the first dispatch
    instances = list(_read_suite(Path(suite_path), suite_hash))
    out_file = Path(out_path)
    existing = {}
    if out_file.is_file():
        suite_ids = {instance.id for instance in instances}
        # every line is read, and the file checked against its manifest, before the model and ids are
        for where, line in list(_read_answers((out_path,), suite_hash.hexdigest())):
            if line.model != model.model_id:
                raise ConfigError([f"{where}: answered by model {line.model!r}, "
                                   f"not by {model.model_id!r}, the model of this run"])
            if line.id not in suite_ids:
                raise ConfigError([f"{where}: result id {line.id!r} is not in the suite"])
            existing[line.id] = line

    out_file.parent.mkdir(parents=True, exist_ok=True)
    manifest = run_suite(instances, model, out_file, existing=existing)
    write_manifest(
        out_file.with_name(out_file.name + ".manifest.json"),
        config_digest=config_hash(to_json(config)) if config else "",
        files={out_file.name: manifest.pop("digest")},
        extra={"run": manifest, "suite_digest": suite_hash.hexdigest()},
    )

    click.echo(f"answered {manifest['dispatched']} (reused {manifest['reused']}, "
               f"errors {manifest['errors']}) -> {out_file}")


@main.command("eval")
@click.option("--suite", "suite_path", required=True, type=click.Path())
@click.option("--results", "results_paths", required=True, multiple=True, type=click.Path())
@click.option("--out", "out_dir", required=True, type=click.Path())
def cmd_eval(suite_path, results_paths, out_dir):
    """Score results against the suite's gold answers and write reports."""
    from . import evaluator  # imported by the commands that score, so that generate and run do not load it

    # the suite is read, and its digest checked, before any answer is scored;
    # each results line is then scored as it is read
    suite_hash = hashlib.sha256()
    instances = {instance.id: instance for instance in _read_suite(Path(suite_path), suite_hash)}
    records = []
    for where, result in _read_answers(results_paths, suite_hash.hexdigest()):
        instance = instances.get(result.id)
        if instance is None:
            raise ConfigError([f"{where}: result id {result.id!r} is not in the suite"])
        records.append(evaluator.score(instance, parse_answer(result.text, instance.request_type), model=result.model))
    del instances

    rows, reports = evaluator.eval_reports(records)
    for row in rows:
        if row.templates < TEMPLATES_PER_TYPE:
            click.echo(f"coverage warning: {dict(row.group)} has only {row.templates} template(s)", err=True)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # a report this eval has none of is None; a copy an earlier eval left in
    # the same directory is deleted
    files = {}
    for name, text in reports.items():
        if text is None:
            (out / name).unlink(missing_ok=True)
        else:
            files[name] = write_file(out / name, [text])
    write_manifest(
        out / "eval.manifest.json",
        config_digest="",
        files=files,
        extra={"suite_digest": suite_hash.hexdigest(), "records": len(records)},
    )

    click.echo(f"scored {len(records)} records -> {out}")


def _headline(path: str | Path, text: str, verb: str, payload_of) -> str:
    """The text-vs-table headline from the JSON text of a file, which
    payload_of turns into a compare.json payload: a line for the score cells
    and one for the count cells, each only when the payload has its value. A
    text that does not decode to one is a ConfigError naming the file, and so
    are cells that compare_formats cannot align."""
    from . import evaluator

    try:
        payload = payload_of(json.loads(text))
        lines = []
        if payload["mean_improvement_pp"] is not None:
            lines.append(f"table vs text: mean improvement {payload['mean_improvement_pp']:.2f} pp "
                         f"({payload['mean_relative_change'] * 100:.2f}% relative, convention-dependent)")
        if payload.get("count_abs_reduction") is not None:
            lines.append(f"count difference reduction: {payload['count_abs_reduction']:.2f}")
    except (KeyError, TypeError, ValueError, evaluator.ReportError) as e:
        raise ConfigError([f"cannot {verb} {path}: {e}"]) from None
    return "\n".join(lines)


@main.command("report")
@click.option("--eval-dir", "eval_dir", default=None, type=click.Path())
@click.option("--compare-file", "compare_file", default=None, type=click.Path(),
              help='JSON with {"text": [cells], "table": [cells]} of aggregate means.')
def cmd_report(eval_dir, compare_file):
    """Print the aggregate table and summaries produced by eval, or the
    text-vs-table headline for a standalone cells file."""
    if compare_file:
        from . import evaluator

        click.echo(_headline(compare_file, _read_input(Path(compare_file)), "compare", lambda cells: dataclasses.asdict(
            evaluator.compare_formats(cells["text"], cells["table"]))))
        return

    if not eval_dir:
        raise ConfigError(["report needs --eval-dir or --compare-file"])
    out = Path(eval_dir)
    if not (out / "aggregate.md").is_file():
        raise ConfigError([f"no aggregate.md under {eval_dir}; run eval first"])
    # every input is read, and checked against eval.manifest.json if present, before anything is printed
    texts = {name: _read_input(out / name) for name in ("aggregate.md", "compare.json", "existence.csv")
             if (out / name).is_file()}
    if (out / "eval.manifest.json").is_file():
        verify_manifest(read_manifest(out / "eval.manifest.json"), out, known={
            name: hashlib.sha256(text.encode("utf-8")).hexdigest() for name, text in texts.items()})
    summary = (_headline(out / "compare.json", texts["compare.json"], "read", lambda payload: payload)
               if "compare.json" in texts else None)
    click.echo(texts["aggregate.md"], nl=False)
    if summary is not None:
        click.echo("\n" + summary)
    if "existence.csv" in texts:
        click.echo("\nexistence robustness (original vs negated):")
        click.echo(texts["existence.csv"], nl=False)


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
        prompt=pre,
        context=render(rel, StructuringLevel.NATURAL, seed, pack.bank),
        pre_instruction=pre,
        gold=evaluate(plan, rel),
        entity_keys=rel.keys(),
        footer="Output the table after the line ANSWER:, as a pipe table.",
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
    if sample_n < 1:
        raise ConfigError([f"--sample-n: {sample_n} is not a positive integer"])
    config = load_config(config_path) if config_path else None
    model = resolve_model(model_name, config)
    packs = [load_pack(name) for name in dataset_names or BUILTIN_PACKS]

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
