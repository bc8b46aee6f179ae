"""Command-line surface: train, tune, ablate, schedule export, report.

Exit codes: 0 success, 3 a single `train` run diverged, and 2 with one
`error:` line for any input the package rejects or cannot hold in memory.
Every command body runs inside `_boundary`, the one place where an error
becomes an exit code. A command checks its options first, then its
documents, the config last, so that the config names the errors of runs.
Files are read and written only through harness (`read_json`, `write_text`
and the functions on them), and JSON text is decoded only by
`harness.decode_json`; `_boundary` adds the document's path to a parse or
validation error, which names only the field or line.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import sys
import types
from dataclasses import asdict

import click

from . import harness, tuner
from .errors import IoFailure, OptparityError, ParseError, ValidationError
from .schedule import ScheduleSpec, export_schedule


@contextlib.contextmanager
def _boundary(doc=None):
    """Run a command body: a package error or MemoryError raised in it writes
    one `error:` line and exits 2. A ParseError, ValidationError or
    MemoryError is prefixed with the path of the document the yielded `doc`
    names, if any; every other package error names what it concerns."""
    at = types.SimpleNamespace(doc=doc)
    try:
        yield at
    except (OptparityError, MemoryError) as exc:
        if at.doc and isinstance(exc, (ParseError, ValidationError, MemoryError)):
            exc = f"{at.doc}: {exc}"
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


def _load_config(path, seed=None):
    """The JSON object at `path` (a config or schedule spec), `seed` as base_seed."""
    doc = harness.read_json(path)
    if not isinstance(doc, dict):
        raise ParseError("expected a JSON object")
    if seed is not None:
        doc["base_seed"] = seed
    return doc


def _json_or_text(text):
    try:
        return harness.decode_json(text)
    except ParseError:
        return text


def _check_out(path):
    """IoFailure if no file can be written at `path`, so that a command fails
    before its first run; creates and truncates nothing."""
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise IoFailure(f"{path}: {os.strerror(errno.EISDIR)}")
    if not os.path.isdir(folder):
        raise IoFailure(f"{path}: {os.strerror(errno.ENOENT)}")
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        raise IoFailure(f"{path}: {os.strerror(errno.EACCES)}")


@click.group()
def main():
    """Optimizer parity benchmarking toolkit."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", default=None, type=click.Path())
@click.option("--seed", default=None, type=int, help="Override base_seed.")
def train(config_path, out_path, seed):
    """Run one training job and print/write its result."""
    with _boundary(config_path):
        config = harness.parse_config(_load_config(config_path, seed))
        if out_path:
            _check_out(out_path)
        result = harness.run_training(config)
        if out_path:
            harness.write_text(out_path, json.dumps(asdict(result), indent=2))
    click.echo(json.dumps({
        "status": result.status,
        "steps_run": result.steps_run,
        **{name: getattr(result, name) for name in harness.RESULT_METRICS},
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
@click.option("--metric", default=None, help="Default: the config's target_metric.")
@click.option("--offset", default=0, type=int)
@click.option("--seed", default=None, type=int)
@click.option("--workers", default=1, type=int,
              help="Worker processes (>= 1); at most one per usable CPU runs.")
def tune(config_path, space_path, out_path, trials, budget, metric, offset, seed, workers):
    """Quasi-random search; appends trial records to a JSONL log."""
    with _boundary() as at:
        if metric is not None:
            harness.check_metric(metric, "--metric")
        at.doc = space_path
        space = harness.read_as(harness.read_json(space_path), list[tuner.SearchDim], "space")
        at.doc = config_path  # which also names the study's errors
        doc = _load_config(config_path, seed)
        if budget is None:
            budget = doc.get("budget_steps")  # run_study reads it as an integer
        if metric is None:  # run_study checks it
            metric = doc.get("target_metric", harness.ExperimentConfig.target_metric)
        _check_out(out_path)
        records = tuner.run_study(space, doc, trials, budget, metric,
                                  offset=offset, workers=workers)
        harness.write_results(records, out_path)
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
    with _boundary() as at:
        # each entry as a JSON value, so that "1.5" reads as a number and is rejected
        # as one; an entry that is no JSON value stays text, which read_as rejects
        seed_list = harness.read_as([_json_or_text(s) for s in seeds.split(",") if s.strip()],
                                    list[int], "--seeds")
        at.doc = overrides_path
        overrides = harness.read_as(harness.read_json(overrides_path), list[harness.Override],
                                    "overrides")
        at.doc = config_path  # which also names an invalid or too big arm
        doc = _load_config(config_path)
        if out_path:
            _check_out(out_path)
        rows = harness.run_ablation(doc, overrides, seed_list)
        if out_path:
            harness.write_summaries(rows, out_path)
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
    with _boundary(config_path):
        doc = _load_config(config_path)
        spec = harness.read_as(doc.get("schedule", doc), ScheduleSpec, "schedule")
        export_schedule(spec, out_path)
    click.echo(f"wrote {spec.total_steps + 1} rows to {out_path}")


@main.command()
@click.option("--results", "results_path", required=True, type=click.Path(exists=True),
              help="Summaries JSON produced by `ablate --out`.")
@click.option("--out", "out_path", default=None, type=click.Path(),
              help="Optional CSV output path.")
def report(results_path, out_path):
    """Render a persisted summary file as a table."""
    with _boundary(results_path):
        rows = harness.read_summaries(results_path)
        text, csv_text = harness.report(rows)
        if out_path:
            harness.write_text(out_path, csv_text)
    click.echo(text, nl=False)


if __name__ == "__main__":
    main()
