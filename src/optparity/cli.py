"""Command-line surface: train, tune, ablate, schedule export, report.

Exit codes: 0 success, 2 config/validation error, 3 a single `train` run
diverged.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict

import click

from . import harness, tuner
from .errors import OptparityError, ParseError, ValidationError
from .schedule import ScheduleSpec, export_schedule


def _load_json(path):
    """The JSON document at `path`; an unreadable or malformed file exits 2."""
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as exc:  # ValueError covers JSON and UTF-8 errors
        _fail(f"{path}: {exc}")


def _load_config(path, seed=None):
    """The JSON object at `path` (a config or schedule spec), `seed` as base_seed."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        _fail(f"{path}: expected a JSON object")
    if seed is not None:
        doc["base_seed"] = seed
    return doc


def _json_or_text(text):
    try:
        return json.loads(text)
    except ValueError:
        return text


def _write_text(path, text):
    """Write `text` to the file at `path`; an unwritable path exits 2."""
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as exc:
        _fail(f"{path}: {exc}")


def _fail(exc, code=2):
    click.echo(f"error: {exc}", err=True)
    sys.exit(code)


@click.group()
def main():
    """Optimizer parity benchmarking toolkit."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", default=None, type=click.Path())
@click.option("--seed", default=None, type=int, help="Override base_seed.")
def train(config_path, out_path, seed):
    """Run one training job and print/write its result."""
    doc = _load_config(config_path, seed)
    try:
        config = harness.parse_config(doc)
    except (ParseError, ValidationError) as exc:
        _fail(f"{config_path}: {exc}")
    result = harness.run_training(config)
    if out_path:
        _write_text(out_path, json.dumps(asdict(result), indent=2))
    click.echo(json.dumps({
        "status": result.status,
        "steps_run": result.steps_run,
        "final_train_accuracy": result.final_train_accuracy,
        "final_eval_accuracy": result.final_eval_accuracy,
        "final_loss": result.final_loss,
    }))
    if result.status == "diverged":
        sys.exit(3)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--space", "space_path", required=True, type=click.Path(exists=True),
              help="JSON list of search dimensions.")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--trials", default=20, type=int)
@click.option("--budget", default=None, type=int, help="Steps per trial.")
@click.option("--metric", default="final_eval_accuracy")
@click.option("--offset", default=0, type=int)
@click.option("--seed", default=None, type=int)
@click.option("--workers", default=1, type=int,
              help="Worker processes (>= 1); at most os.cpu_count() run.")
def tune(config_path, space_path, out_path, trials, budget, metric, offset, seed, workers):
    """Quasi-random search; appends trial records to a JSONL log."""
    try:
        harness.check_metric(metric, "--metric")
    except ValidationError as exc:
        _fail(exc)
    doc = _load_config(config_path, seed)
    try:
        space = harness.read_as(_load_json(space_path), list[tuner.SearchDim], "space")
    except ValidationError as exc:
        _fail(f"{space_path}: {exc}")
    if budget is None:
        budget = doc.get("budget_steps")  # run_study reads it as an integer
    try:
        records = tuner.run_study(space, doc, trials, budget, metric,
                                  offset=offset, workers=workers)
        harness.write_results(records, out_path)
    except (ParseError, ValidationError) as exc:  # no trial's config is valid
        _fail(f"{config_path}: {exc}")
    except OptparityError as exc:
        _fail(exc)
    try:
        best = tuner.select_best(records, metric)
        click.echo(json.dumps({"best_trial": best.trial_index,
                               metric: getattr(best, metric),
                               "assignment": best.assignment}))
    except OptparityError:
        click.echo(json.dumps({"best_trial": None}))


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--overrides", "overrides_path", required=True, type=click.Path(exists=True),
              help="JSON list of [label, dotted.path, value].")
@click.option("--seeds", default="0,1,2,3,4", help="Comma-separated seed list.")
@click.option("--out", "out_path", default=None, type=click.Path())
def ablate(config_path, overrides_path, seeds, out_path):
    """One-at-a-time ablation arms, each evaluated over the seed list."""
    doc = _load_config(config_path)
    try:
        overrides = harness.read_as(_load_json(overrides_path), list[harness.Override],
                                    "overrides")
    except ValidationError as exc:
        _fail(f"{overrides_path}: {exc}")
    try:
        # each entry as a JSON value, so that "1.5" reads as a number and is rejected
        # as one; an entry that is no JSON value stays text, which read_as rejects
        seed_list = harness.read_as([_json_or_text(s) for s in seeds.split(",") if s.strip()],
                                    list[int], "--seeds")
    except ValidationError as exc:
        _fail(exc)
    try:
        rows = harness.run_ablation(doc, overrides, seed_list)
        if out_path:
            harness.write_summaries(rows, out_path)
    except (ParseError, ValidationError) as exc:  # the config or one of its arms is invalid
        _fail(f"{config_path}: {exc}")
    except OptparityError as exc:
        _fail(exc)
    text, _ = harness.report(rows)
    click.echo(text, nl=False)


@main.group()
def schedule():
    """Learning-rate schedule utilities."""


@schedule.command("export")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True),
              help="Experiment config or a bare schedule spec JSON.")
@click.option("--out", "out_path", required=True, type=click.Path())
def schedule_export(config_path, out_path):
    """Write the full step,lr curve as CSV."""
    doc = _load_config(config_path)
    try:
        spec = harness.read_as(doc.get("schedule", doc), ScheduleSpec, "schedule")
    except ValidationError as exc:
        _fail(f"{config_path}: {exc}")
    try:
        export_schedule(spec, out_path)
    except OptparityError as exc:
        _fail(exc)
    click.echo(f"wrote {spec.total_steps + 1} rows to {out_path}")


@main.command()
@click.option("--results", "results_path", required=True, type=click.Path(exists=True),
              help="Summaries JSON produced by `ablate --out`.")
@click.option("--out", "out_path", default=None, type=click.Path(),
              help="Optional CSV output path.")
def report(results_path, out_path):
    """Render a persisted summary file as a table."""
    try:
        rows = harness.read_summaries(results_path)
        text, csv_text = harness.report(rows)
    except OptparityError as exc:
        _fail(exc)
    if out_path:
        _write_text(out_path, csv_text)
    click.echo(text, nl=False)


if __name__ == "__main__":
    main()
