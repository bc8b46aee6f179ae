import copy
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

import optparity
from conftest import BASE_CONFIG
from optparity import harness
from optparity.cli import main
from optparity.errors import IoFailure


def write_json(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f)


def test_train_success(tmp_path, base_config):
    cfg_path = tmp_path / "config.json"
    out_path = tmp_path / "result.json"
    write_json(cfg_path, base_config)
    result = CliRunner().invoke(main, ["train", "--config", str(cfg_path),
                                       "--out", str(out_path)])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["status"] == "completed"
    saved = json.loads(out_path.read_text())
    assert saved["history"]


def test_train_validation_error_exit_2(tmp_path, base_config):
    base_config["budget_steps"] = 999  # schedule mismatch
    cfg_path = tmp_path / "config.json"
    write_json(cfg_path, base_config)
    result = CliRunner().invoke(main, ["train", "--config", str(cfg_path)])
    assert result.exit_code == 2


def test_train_divergence_exit_3(tmp_path, base_config):
    base_config["schedule"] = {"family": "constant", "eta_peak": 1e30,
                               "total_steps": 200}
    cfg_path = tmp_path / "config.json"
    write_json(cfg_path, base_config)
    result = CliRunner().invoke(main, ["train", "--config", str(cfg_path)])
    assert result.exit_code == 3


def test_tune_writes_jsonl(tmp_path, base_config):
    cfg_path = tmp_path / "config.json"
    space_path = tmp_path / "space.json"
    out_path = tmp_path / "trials.jsonl"
    write_json(cfg_path, base_config)
    write_json(space_path, [
        {"name": "schedule.eta_peak", "kind": "continuous",
         "lo": 0.01, "hi": 1.0, "scaling": "log"},
    ])
    result = CliRunner().invoke(main, [
        "tune", "--config", str(cfg_path), "--space", str(space_path),
        "--out", str(out_path), "--trials", "3", "--budget", "50",
        "--metric", "final_train_accuracy",
    ])
    assert result.exit_code == 0, result.output
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 3
    assert json.loads(result.output)["best_trial"] is not None


def _steps_of(config, n):
    config["budget_steps"] = config["schedule"]["total_steps"] = n
    return config


def test_tune_on_final_loss_prints_the_lowest_loss_trial(tmp_path, base_config):
    cfg_path, space_path = tmp_path / "config.json", tmp_path / "space.json"
    out_path = tmp_path / "trials.jsonl"
    write_json(cfg_path, _steps_of(base_config, 40))
    write_json(space_path, [{"name": "schedule.eta_peak", "kind": "continuous",
                             "lo": 0.01, "hi": 3.0, "scaling": "log"}])
    result = CliRunner().invoke(main, [
        "tune", "--config", str(cfg_path), "--space", str(space_path),
        "--out", str(out_path), "--trials", "5", "--metric", "final_loss"])
    assert result.exit_code == 0, result.output
    completed = [r for r in harness.read_results(out_path) if r.status == "completed"]
    assert len({r.final_loss for r in completed}) > 1  # so that the direction matters
    lowest = min(completed, key=lambda r: (r.final_loss, r.trial_index))
    printed = json.loads(result.output)
    assert (printed["best_trial"], printed["final_loss"]) == (lowest.trial_index,
                                                              lowest.final_loss)


def test_ablate_on_final_loss_counts_a_diverged_arm_as_infinite_loss(tmp_path, base_config):
    cfg_path, ovr_path = tmp_path / "config.json", tmp_path / "overrides.json"
    out_path = tmp_path / "summary.json"
    config = {**_steps_of(base_config, 40), "target_metric": "final_loss", "target_value": 0.1}
    write_json(cfg_path, config)
    write_json(ovr_path, [["Diverges", "schedule.eta_peak", 1e30]])
    result = CliRunner().invoke(main, [
        "ablate", "--config", str(cfg_path), "--overrides", str(ovr_path),
        "--seeds", "0,1,2", "--out", str(out_path)])
    assert result.exit_code == 0, result.output
    rows = dict(harness.read_summaries(out_path))
    diverged = rows["Diverges"]
    assert diverged.min == diverged.median == diverged.max == math.inf
    assert diverged.target_fraction == 0.0
    # over three seeds, min, median and max are the three losses
    losses = (rows["Base"].min, rows["Base"].median, rows["Base"].max)
    assert math.isfinite(losses[2]) and losses[0] <= 0.1
    assert rows["Base"].target_fraction == sum(loss <= 0.1 for loss in losses) / 3


def test_report_on_an_impossible_summary_exits_2_naming_the_row_and_file(tmp_path):
    path = tmp_path / "summary.json"
    write_json(path, [{"label": "x", "median": 5, "q1": 9, "q3": -2, "min": 100, "max": -100,
                       "target_fraction": 7.5, "n_seeds": -3}])
    result = CliRunner().invoke(main, ["report", "--results", str(path)])
    assert_one_error_line(result, "summaries.0")
    assert str(path) in result.stderr


def test_ablate_and_report(tmp_path, base_config):
    cfg_path = tmp_path / "config.json"
    ovr_path = tmp_path / "overrides.json"
    out_path = tmp_path / "summary.json"
    write_json(cfg_path, base_config)
    write_json(ovr_path, [["BN init", "model.bn_gamma_init", 0.4138]])
    result = CliRunner().invoke(main, [
        "ablate", "--config", str(cfg_path), "--overrides", str(ovr_path),
        "--seeds", "0,1", "--out", str(out_path),
    ])
    assert result.exit_code == 0, result.output
    assert "Base" in result.output and "BN init" in result.output

    report_result = CliRunner().invoke(main, ["report", "--results", str(out_path)])
    assert report_result.exit_code == 0
    assert "median" in report_result.output


def test_schedule_export(tmp_path, base_config):
    cfg_path = tmp_path / "config.json"
    csv_path = tmp_path / "lr.csv"
    write_json(cfg_path, base_config)
    result = CliRunner().invoke(main, [
        "schedule", "export", "--config", str(cfg_path), "--out", str(csv_path),
    ])
    assert result.exit_code == 0, result.output
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "step,lr"
    assert len(lines) == base_config["budget_steps"] + 2


SUMMARY = {"label": "Base", "median": 0.9, "q1": 0.85, "q3": 0.95, "min": 0.8, "max": 1.0,
           "target_fraction": 0.7, "n_seeds": 5}


def _valid_inputs(tmp_path, base_config):
    """A valid file for every JSON option of train, tune, ablate and report."""
    paths = {"config": tmp_path / "config.json", "space": tmp_path / "space.json",
             "overrides": tmp_path / "overrides.json", "results": tmp_path / "summary.json"}
    write_json(paths["config"], base_config)
    write_json(paths["space"], [{"name": "schedule.eta_peak", "kind": "continuous",
                                 "lo": 0.01, "hi": 1.0, "scaling": "log"}])
    write_json(paths["overrides"], [["BN init", "model.bn_gamma_init", 0.5]])
    write_json(paths["results"], [SUMMARY])
    return paths


COMMANDS = {
    "train": lambda p: ["train", "--config", str(p["config"])],
    "tune": lambda p: ["tune", "--config", str(p["config"]), "--space", str(p["space"]),
                       "--out", str(p["config"].parent / "trials.jsonl"), "--trials", "1"],
    "ablate": lambda p: ["ablate", "--config", str(p["config"]),
                         "--overrides", str(p["overrides"]), "--seeds", "0"],
    "report": lambda p: ["report", "--results", str(p["results"])],
    "schedule export": lambda p: ["schedule", "export", "--config", str(p["config"]),
                                  "--out", str(p["config"].parent / "lr.csv")],
}


def assert_one_error_line(result, needle):
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
    assert needle in lines[0]


@pytest.mark.parametrize("command,bad_file", [
    ("train", "config"),
    ("tune", "config"),
    ("tune", "space"),
    ("ablate", "config"),
    ("ablate", "overrides"),
    ("report", "results"),
    ("schedule export", "config"),
])
@pytest.mark.parametrize("content", [b"{bad", b"", b"\xff\xfe{",
                                     pytest.param(b"[" * 100_000, id="nested"),
                                     pytest.param(None, id="directory")])
def test_unreadable_json_exits_2_with_one_error_line(tmp_path, base_config, command,
                                                     bad_file, content):
    """A document that is no JSON, no UTF-8, nested past the recursion limit
    or no file: one error line that names its path exactly once."""
    paths = _valid_inputs(tmp_path, base_config)
    if content is None:
        paths[bad_file].unlink()
        paths[bad_file].mkdir()
    else:
        paths[bad_file].write_bytes(content)
    result = CliRunner().invoke(main, COMMANDS[command](paths))
    assert_one_error_line(result, str(paths[bad_file]))
    assert result.stderr.count(str(paths[bad_file])) == 1


def _base_with(**fields):
    """The base config with top-level fields replaced."""
    return lambda base: {**base, **fields}


def _data_with(**fields):
    """The base config with fields of its data section replaced."""
    return lambda base: {**base, "data": {**base["data"], **fields}}


def _section_with(section, **fields):
    """The base config with fields of one of its sections replaced."""
    return lambda base: {**base, section: {**base[section], **fields}}


def _route_with(**fields):
    """The base config with fields of its first route's optimizer config replaced."""
    def patched(base):
        route = base["optimizer"][0]
        return {**base, "optimizer": [{**route, "config": {**route["config"], **fields}}]}
    return patched


def _steps(n):
    """The base config with a step budget and schedule length of `n`."""
    return lambda base: {**base, "budget_steps": n,
                         "schedule": {**base["schedule"], "total_steps": n}}


@pytest.mark.parametrize("command,bad_file,doc,extra", [
    ("tune", "space", [{"name": "schedule.eta_peak", "kind": "continuous", "bogus": 1}], []),
    ("tune", "space", {"name": "schedule.eta_peak"}, []),
    ("tune", "space", [{"name": 5, "kind": "continuous"}], []),
    ("tune", "config", [1, 2], ["--seed", "3"]),
    ("tune", "config", {"model": {}}, []),
    ("ablate", "overrides", [["BN init", "model.bn_gamma_init"]], []),
    ("ablate", "overrides", {"BN init": 0.5}, []),
    ("ablate", None, None, ["--seeds", "a,b"]),
    ("report", "results", {"label": "Base", "median": 0.9}, []),
    ("schedule export", "config", [], []),
    ("train", "config", _base_with(budget_steps="abc"), []),
    ("train", "config", _base_with(base_seed="x"), []),
    ("train", "config", _base_with(target_value="hi"), []),
    ("train", "config", _base_with(optimizer=5), []),
    ("train", "config", _base_with(optimizer=[5]), []),
    ("train", "config", _base_with(model=5), []),
    ("train", "config", _base_with(batch_size=True), []),
    ("train", "config", _base_with(batch_size=2**70), []),
    ("train", "config", _base_with(eval_every=2.7), []),
    ("tune", None, None, ["--metric", "bogus"]),
    ("tune", "config", _base_with(base_seed="x"), []),
    ("tune", "config", _base_with(base_seed=2.5), []),
    ("ablate", "config", _base_with(target_metric="bogus"), []),
    ("train", "config", _data_with(classes="x"), []),
    ("train", "config", _data_with(classes=1), []),
    ("train", "config", _data_with(spread=0), []),
    ("train", "config", _data_with(features=3), []),
    ("train", "config", _data_with(classes=3), []),
    ("train", "config", _data_with(per_class=2), []),
    ("train", "config", _base_with(), ["--seed", "-1"]),
    ("tune", "config", _base_with(), ["--seed", "-1"]),
    ("ablate", "config", _base_with(), ["--seeds", "-1"]),
    ("train", "config", _section_with("model", init_seed=-5), []),
    ("train", "config", _section_with("model", virtual_batch_size=8.5), []),
    ("train", "config", _section_with("model", virtual_batch_size=True), []),
    ("train", "config", _section_with("model", layer_widths=[2, 16.5, 16, 2]), []),
    ("train", "config", _section_with("model", use_bn=[1, 0]), []),
    ("train", "config", _section_with("model", use_bn="yes"), []),
    ("train", "config", _section_with("schedule", t_warmup=2.5), []),
    ("train", "config", _section_with("schedule", total_steps=True), []),
    ("train", "config", _route_with(decay=float("nan")), []),
    ("train", "config", _route_with(momentum=float("inf")), []),
    ("train", "config", _section_with("model", bn_epsilon=float("inf")), []),
    ("train", "config", _section_with("model", bn_gamma_init=[float("nan"), 1.0]), []),
    ("train", "config", _section_with("schedule", p_decay=float("nan")), []),
    ("train", "config", _route_with(exclude_tags="weight"), []),
    ("train", "config", _route_with(exclude_tags=["wieght"]), []),
    ("train", "config", _base_with(target_value=float("nan")), []),
    ("tune", "space", [{"name": "schedule.eta_peak", "kind": "discrete_set", "values": 5}], []),
    ("tune", "space", [{"name": "schedule.eta_peak", "kind": "continuous", "lo": True,
                        "hi": 2.0}], []),
    ("tune", "config", _base_with(budget_steps=20.7), []),
    ("tune", "config", _base_with(budget_steps=True), []),
    ("report", "results", [{**SUMMARY, "median": "abc"}], []),
    ("report", "results", [{**SUMMARY, "n_seeds": "x"}], []),
    ("ablate", "overrides", [[1, "model.bn_gamma_init", 0.5]], []),
    ("ablate", "overrides", [["BN init", "model.bn_gamma_init", 0.5, 1]], []),
    ("ablate", None, None, ["--seeds", "0,1.5"]),
    ("ablate", None, None, ["--seeds", "[" * 100_000]),
    ("report", "results", [{**SUMMARY, "label": 1}], []),
    # past the 2**53 steps a float64 tells apart; unbounded, these never end
    ("train", "config", _steps(10**30), []),
    ("schedule export", "config", _steps(10**30), []),
    ("tune", None, None, ["--budget", "0"]),
    ("tune", None, None, ["--budget", "-3"]),
], ids=["tune-space-unknown-key", "tune-space-object", "tune-space-name-not-text",
        "tune-config-list", "tune-no-budget",
        "ablate-two-element-override", "ablate-overrides-object", "ablate-seeds-not-int",
        "report-results-object", "schedule-config-list",
        "train-budget-text", "train-seed-text", "train-target-text", "train-optimizer-number",
        "train-route-number", "train-model-number", "train-batch-bool",
        "train-batch-past-array-limit",
        "train-eval-every-fraction", "tune-unknown-metric", "tune-seed-text",
        "tune-seed-fraction", "ablate-unknown-target-metric",
        "train-data-classes-text", "train-data-one-class", "train-data-zero-spread",
        "train-data-features-not-input-width", "train-data-classes-above-outputs",
        "train-data-empty-eval-split",
        "train-seed-negative", "tune-seed-negative", "ablate-seeds-negative",
        "train-init-seed-negative", "train-vbs-fraction", "train-vbs-bool",
        "train-width-fraction", "train-use-bn-ints", "train-use-bn-text",
        "train-warmup-fraction", "train-total-steps-bool", "train-decay-nan",
        "train-momentum-inf", "train-bn-epsilon-inf", "train-gamma-init-nan",
        "train-p-decay-nan", "train-exclude-tags-text", "train-exclude-tags-unknown",
        "train-target-nan", "tune-space-values-number", "tune-space-lo-bool",
        "tune-budget-fraction", "tune-budget-bool", "report-median-text",
        "report-n-seeds-text", "ablate-label-number", "ablate-four-element-override",
        "ablate-seeds-fraction", "ablate-seeds-nested", "report-label-number",
        "train-steps-past-float64",
        "schedule-steps-past-float64", "tune-budget-zero", "tune-budget-negative"])
def test_bad_document_exits_2_with_one_error_line(tmp_path, base_config, command,
                                                  bad_file, doc, extra):
    paths = _valid_inputs(tmp_path, base_config)
    if callable(doc):
        doc = doc(base_config)
    if bad_file:
        write_json(paths[bad_file], doc)
    result = CliRunner().invoke(main, COMMANDS[command](paths) + extra)
    assert_one_error_line(result, str(paths[bad_file]) if bad_file else extra[0])
    assert not (tmp_path / "trials.jsonl").exists()


LONG = "x" * 100_000


@pytest.mark.parametrize("command,bad_file,doc,extra,limit", [
    ("ablate", None, None, ["--seeds", "[" * 100_000], 300),
    ("ablate", None, None, ["--seeds", LONG], 300),
    ("train", "config", _base_with(budget_steps=LONG), [], 300),
    ("train", "config", _section_with("model", layer_widths=[2, LONG, 2]), [], 300),
    ("tune", None, None, ["--metric", LONG], 300),
    # the arm's label and value, then the value in the job's own error
    ("ablate", "overrides", [[LONG, "model.bn_gamma_init", LONG]], [], 600),
], ids=["seeds-nested", "seeds-text", "config-leaf", "config-list-item", "tune-metric",
        "ablation-arm"])
def test_a_long_value_is_cut_in_its_one_error_line(tmp_path, base_config, command, bad_file,
                                                   doc, extra, limit):
    """A 100,000-character value is echoed as its first 80 characters and a
    marker that gives its length, so the one error line stays short."""
    paths = _valid_inputs(tmp_path, base_config)
    if callable(doc):
        doc = doc(base_config)
    if bad_file:
        write_json(paths[bad_file], doc)
    result = CliRunner().invoke(main, COMMANDS[command](paths) + extra)
    assert_one_error_line(result, "characters)")
    assert len(result.stderr.encode()) < limit, result.stderr


@pytest.mark.parametrize("command,bad_file,doc,limit", [
    ("train", "config", _base_with(**{LONG: 1}), 300),
    ("train", "config", _section_with("model", **{LONG: 1}), 300),
    ("tune", "space", [{"name": f"schedule.{LONG}", "kind": "continuous", "lo": 0.01,
                        "hi": 1.0, "scaling": "log"}], 300),
    ("ablate", "overrides", [["BN init", f"model.{LONG}", 0.5]], 300),
    ("ablate", "overrides", [["BN init", f"{LONG}.bn_gamma_init", 0.5]], 300),
], ids=["config-key", "config-section-key", "tune-space-name", "ablation-path-last-key",
        "ablation-path-first-key"])
def test_a_long_key_is_cut_in_its_one_error_line(tmp_path, base_config, command, bad_file,
                                                 doc, limit):
    """A 100,000-character key in a config or an override path is echoed once,
    as its first 80 characters and a marker that gives its length."""
    paths = _valid_inputs(tmp_path, base_config)
    if callable(doc):
        doc = doc(base_config)
    write_json(paths[bad_file], doc)
    result = CliRunner().invoke(main, COMMANDS[command](paths))
    cut = f"{'x' * 80}... (100,000 characters)"
    assert_one_error_line(result, cut)
    assert result.stderr.count(cut) == 1, result.stderr
    assert len(result.stderr.encode()) <= limit, result.stderr


def test_a_short_key_is_named_whole(tmp_path, base_config):
    paths = _valid_inputs(tmp_path, base_config)
    key = "k" * harness.SHOWN_CHARS
    write_json(paths["overrides"], [["BN init", f"model.{key}", 0.5]])
    result = CliRunner().invoke(main, COMMANDS["ablate"](paths))
    assert_one_error_line(result, f"{paths['config']}: arm 'BN init' (model.{key} = 0.5): "
                                  f"model.{key}: unknown config path")


def test_invalid_ablation_arm_is_named_in_the_error(tmp_path, base_config):
    paths = _valid_inputs(tmp_path, base_config)
    write_json(paths["overrides"], [["BN init", "model.bn_gamma_init", 0.5],
                                    ["vbs", "model.virtual_batch_size", 7]])
    result = CliRunner().invoke(main, COMMANDS["ablate"](paths))
    assert_one_error_line(result, f"{paths['config']}: arm 'vbs' "
                                  "(model.virtual_batch_size = 7): batch_size: 64 not "
                                  "divisible by virtual_batch_size 7")


# configs that parse but whose arrays no machine can hold: a batch buffer of
# 2**50 rows or a dataset of 2 * 10**15 rows, of two float64 features each
# (16 and 28 PiB), far past any machine's memory and the 47- or 48-bit address
# space a 64-bit process's allocations get
TOO_BIG = [pytest.param(_base_with(batch_size=2**50), id="batch"),
           pytest.param(_data_with(per_class=10**15), id="dataset")]


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("doc", TOO_BIG)
def test_config_too_big_for_memory_exits_2_with_one_error_line(tmp_path, base_config,
                                                              command, doc):
    paths = _valid_inputs(tmp_path, base_config)
    write_json(paths["config"], doc(base_config))
    result = CliRunner().invoke(main, COMMANDS[command](paths))
    assert_one_error_line(result, f"{paths['config']}: Unable to allocate")


@pytest.mark.parametrize("doc", TOO_BIG)
def test_tune_records_a_config_too_big_for_memory_as_an_error_trial(tmp_path, base_config,
                                                                   doc):
    paths = _valid_inputs(tmp_path, base_config)
    write_json(paths["config"], doc(base_config))
    result = CliRunner().invoke(main, COMMANDS["tune"](paths))
    assert result.exit_code == 0, result.output
    record, = harness.read_results(tmp_path / "trials.jsonl")
    assert record.status == "error" and "MemoryError: Unable to allocate" in record.error


# per_class values whose dataset numpy cannot describe: 2**62 rows per class make
# an array too big, and 10**30 or 1e308 a dimension past numpy's index type
PAST_ARRAY_LIMIT = [2**62, 10**30, 1e308]


@pytest.mark.parametrize("command", ["train", "ablate", "tune"])
@pytest.mark.parametrize("per_class", PAST_ARRAY_LIMIT)
def test_per_class_past_the_array_limit_exits_2_with_one_error_line(tmp_path, base_config,
                                                                    command, per_class):
    paths = _valid_inputs(tmp_path, base_config)
    write_json(paths["config"], _data_with(per_class=per_class)(base_config))
    result = CliRunner().invoke(main, COMMANDS[command](paths))
    assert_one_error_line(result, f"{paths['config']}: data.per_class: must be <= "
                                  f"{(2**63 - 1) // 32}, the most rows per class for which 2 "
                                  "classes of 2 float64 values fit numpy's array size limit")
    assert not (tmp_path / "trials.jsonl").exists()


@pytest.mark.parametrize("per_class", PAST_ARRAY_LIMIT)
def test_ablation_arm_past_the_array_limit_exits_2_with_one_error_line(tmp_path, base_config,
                                                                       per_class):
    paths = _valid_inputs(tmp_path, base_config)
    write_json(paths["overrides"], [["a", "data.per_class", per_class]])
    result = CliRunner().invoke(main, COMMANDS["ablate"](paths))
    assert_one_error_line(result, f"{paths['config']}: arm 'a' (data.per_class = "
                                  f"{per_class!r}): data.per_class: ")


# a spread of 1e308 makes the generated inputs overflow to inf; 5e307 keeps them
# finite (the largest is about 1.4e308), and the run diverges at step 1
HUGE_SPREAD = _data_with(spread=1e308)


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_spread_that_overflows_the_inputs_exits_2_with_one_error_line(tmp_path, base_config,
                                                                      command):
    paths = _valid_inputs(tmp_path, base_config)
    write_json(paths["config"], HUGE_SPREAD(base_config))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning is not printed
        result = CliRunner().invoke(main, COMMANDS[command](paths))
    assert_one_error_line(result, f"{paths['config']}: data.spread: 1e+308 overflows "
                                  "the generated inputs")


def test_tune_records_a_spread_that_overflows_the_inputs_as_an_error_trial(tmp_path,
                                                                           base_config):
    paths = _valid_inputs(tmp_path, base_config)
    write_json(paths["config"], HUGE_SPREAD(base_config))
    result = CliRunner().invoke(main, COMMANDS["tune"](paths))
    assert result.exit_code == 0, result.output
    record, = harness.read_results(tmp_path / "trials.jsonl")
    assert record.status == "error"
    assert record.error == "ValidationError: data.spread: 1e+308 overflows the generated inputs"


def test_spread_with_finite_inputs_runs_and_diverges(tmp_path, base_config):
    paths = _valid_inputs(tmp_path, base_config)
    write_json(paths["config"], _data_with(spread=5e307)(base_config))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = CliRunner().invoke(main, COMMANDS["train"](paths))
    assert result.exit_code == 3, result.output
    assert json.loads(result.stdout)["status"] == "diverged"


def test_unknown_ablation_path_names_the_arm_and_the_path(tmp_path, base_config):
    paths = _valid_inputs(tmp_path, base_config)
    write_json(paths["overrides"], [["bad", "model.nonexistent", 1]])
    result = CliRunner().invoke(main, COMMANDS["ablate"](paths))
    assert_one_error_line(result, f"{paths['config']}: arm 'bad' (model.nonexistent = 1): "
                                  "model.nonexistent: unknown config path")


def test_unknown_search_path_names_the_config_and_the_path(tmp_path, base_config):
    paths = _valid_inputs(tmp_path, base_config)
    write_json(paths["space"], [{"name": "model.nonexistent", "kind": "continuous"}])
    result = CliRunner().invoke(main, COMMANDS["tune"](paths))
    assert_one_error_line(result, f"{paths['config']}: model.nonexistent: "
                                  "unknown config path")
    assert not (tmp_path / "trials.jsonl").exists()


@pytest.mark.parametrize("name", ["base_seed", "budget_steps", "schedule.total_steps"])
def test_search_dimension_on_a_field_the_study_sets_exits_2(tmp_path, base_config, name):
    paths = _valid_inputs(tmp_path, base_config)
    write_json(paths["space"], [{"name": "schedule.eta_peak", "kind": "continuous"},
                                {"name": name, "kind": "discrete_set", "values": [3, 9]}])
    result = CliRunner().invoke(main, COMMANDS["tune"](paths))
    assert_one_error_line(result, f"{paths['space']}: space.1: {name}: a study sets it")
    assert not (tmp_path / "trials.jsonl").exists()


def test_ablation_arm_that_sets_the_seed_exits_2_naming_the_arm(tmp_path, base_config):
    paths = _valid_inputs(tmp_path, base_config)
    write_json(paths["overrides"], [["seed 77", "base_seed", 77]])
    result = CliRunner().invoke(main, COMMANDS["ablate"](paths) + ["--seeds", "0,1"])
    assert_one_error_line(result, f"{paths['config']}: arm 'seed 77' (base_seed = 77): "
                                  "base_seed: ")


def _recorded_runs(monkeypatch) -> list:
    """The configs that harness.run_training gets from here on, in order."""
    seen, run = [], harness.run_training
    monkeypatch.setattr(harness, "run_training",
                        lambda config: seen.append(config) or run(config))
    return seen


def test_tune_sets_a_field_the_routes_leave_to_its_default(tmp_path, base_config,
                                                            monkeypatch):
    del base_config["optimizer"][0]["config"]["momentum"]
    base_config["optimizer"].insert(0, {"tags": ["bias"], "config": {"kind": "heavy_ball"}})
    paths = _valid_inputs(tmp_path, base_config)
    write_json(paths["space"], [{"name": "optimizer.*.config.momentum",
                                 "kind": "discrete_set", "values": [0.5, 0.8]}])
    runs = _recorded_runs(monkeypatch)
    result = CliRunner().invoke(main, COMMANDS["tune"](paths)[:-2]
                                + ["--trials", "2", "--budget", "20"])
    assert result.exit_code == 0, result.output
    records = harness.read_results(tmp_path / "trials.jsonl")
    assert [r.assignment for r in records] == [{"optimizer.*.config.momentum": 0.8},
                                               {"optimizer.*.config.momentum": 0.5}]
    for record, config in zip(records, runs, strict=True):
        momentum = record.assignment["optimizer.*.config.momentum"]
        assert [cfg.momentum for _, cfg in config.routing.routes] == [momentum, momentum]


def test_ablate_sets_a_field_the_config_leaves_to_its_default(tmp_path, base_config,
                                                               monkeypatch):
    del base_config["eval_every"]
    paths = _valid_inputs(tmp_path, _steps_of(base_config, 20))
    write_json(paths["overrides"], [["every 5", "eval_every", 5]])
    runs = _recorded_runs(monkeypatch)
    result = CliRunner().invoke(main, COMMANDS["ablate"](paths))
    assert result.exit_code == 0, result.output
    assert [line.split()[0] for line in result.stdout.splitlines()] == ["label", "Base",
                                                                        "every"]
    assert [config.eval_every for config in runs] == [50, 5]


@pytest.mark.parametrize("stated", [True, False], ids=["stated", "default"])
def test_tune_without_metric_ranks_by_the_configs_target_metric(tmp_path, base_config,
                                                                 stated):
    if not stated:  # ExperimentConfig's default, final_eval_accuracy
        del base_config["target_metric"]
    metric = base_config.get("target_metric", "final_eval_accuracy")
    paths = _valid_inputs(tmp_path, _steps_of(base_config, 20))
    write_json(paths["space"], [{"name": "schedule.eta_peak", "kind": "continuous",
                                 "lo": 0.01, "hi": 3.0, "scaling": "log"}])
    result = CliRunner().invoke(main, COMMANDS["tune"](paths)[:-2] + ["--trials", "5"])
    assert result.exit_code == 0, result.output
    printed = json.loads(result.stdout)
    completed = [r for r in harness.read_results(tmp_path / "trials.jsonl")
                 if r.status == "completed"]
    best = max(completed, key=lambda r: (getattr(r, metric), -r.trial_index))
    assert printed == {"best_trial": best.trial_index, metric: getattr(best, metric),
                       "assignment": best.assignment}


@pytest.mark.parametrize("target_metric", ["bogus", ["final_loss"], 5])
def test_tune_without_metric_on_a_bad_target_metric_exits_2(tmp_path, base_config,
                                                              target_metric):
    paths = _valid_inputs(tmp_path, {**base_config, "target_metric": target_metric})
    result = CliRunner().invoke(main, COMMANDS["tune"](paths))
    assert_one_error_line(result, f"{paths['config']}: target_metric: must be one of")
    assert not (tmp_path / "trials.jsonl").exists()


SPEC = {"family": "poly_warmup_decay", "eta_peak": 1.0, "total_steps": 10, "t_warmup": 2}


@pytest.mark.parametrize("nested", [False, True], ids=["bare-spec", "config"])
@pytest.mark.parametrize("fields,needle", [
    ({"t_warmup": 2.5}, "schedule.t_warmup: must be an integer, got 2.5"),
    ({"p_decay": float("nan")}, "schedule.p_decay: must be finite, got nan"),
    ({"total_steps": True}, "schedule.total_steps: must be an integer, got True"),
    ({"bogus": 1}, "schedule.bogus: unknown key"),
], ids=["warmup-fraction", "p-decay-nan", "total-steps-bool", "unknown-key"])
def test_schedule_export_checks_the_spec_as_train_does(tmp_path, base_config, nested,
                                                       fields, needle):
    spec = {**SPEC, **fields}
    cfg_path, csv_path = tmp_path / "spec.json", tmp_path / "lr.csv"
    write_json(cfg_path, {**base_config, "schedule": spec} if nested else spec)
    result = CliRunner().invoke(main, ["schedule", "export", "--config", str(cfg_path),
                                       "--out", str(csv_path)])
    assert_one_error_line(result, f"{cfg_path}: {needle}")
    assert not csv_path.exists()


def test_schedule_export_rejects_a_section_that_is_not_an_object(tmp_path, base_config):
    cfg_path, csv_path = tmp_path / "spec.json", tmp_path / "lr.csv"
    write_json(cfg_path, {**base_config, "schedule": 5})
    result = CliRunner().invoke(main, ["schedule", "export", "--config", str(cfg_path),
                                       "--out", str(csv_path)])
    assert_one_error_line(result, f"{cfg_path}: schedule: must be an object, got 5")
    assert not csv_path.exists()


def test_schedule_export_of_a_bare_spec(tmp_path):
    cfg_path, csv_path = tmp_path / "spec.json", tmp_path / "lr.csv"
    write_json(cfg_path, {**SPEC, "total_steps": 10.0, "p_decay": 2})
    result = CliRunner().invoke(main, ["schedule", "export", "--config", str(cfg_path),
                                       "--out", str(csv_path)])
    assert result.exit_code == 0, result.output
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    assert [int(step) for step, _ in rows] == list(range(11))
    assert [float(lr) for _, lr in rows[:3]] == [0.0, 0.5, 1.0]
    assert float(rows[6][1]) == 0.25 and float(rows[10][1]) == 0.0


@pytest.mark.parametrize("command", ["train", "tune", "ablate", "report", "schedule export"])
def test_unwritable_out_exits_2_with_one_error_line(tmp_path, base_config, command):
    paths = _valid_inputs(tmp_path, base_config)
    out = str(tmp_path / "missing_dir" / "out.json")
    # click keeps the last --out given
    result = CliRunner().invoke(main, COMMANDS[command](paths) + ["--out", out])
    assert_one_error_line(result, out)


@pytest.mark.parametrize("command", ["train", "tune", "ablate"])
@pytest.mark.parametrize("out_name", ["missing_dir/out.json", "."], ids=["missing_dir", "dir"])
def test_unwritable_out_fails_before_the_first_run(tmp_path, base_config, monkeypatch,
                                                   command, out_name):
    """The path is checked before any run starts, and named once."""
    runs = []

    def no_run(config):
        runs.append(config)
        raise AssertionError("a run started")
    monkeypatch.setattr(harness, "run_training", no_run)
    paths = _valid_inputs(tmp_path, base_config)
    out = str(tmp_path / out_name)
    result = CliRunner().invoke(main, COMMANDS[command](paths) + ["--out", out])
    assert_one_error_line(result, out)
    assert result.stderr.count(out) == 1 and runs == []
    assert sorted(os.listdir(tmp_path)) == sorted(path.name for path in paths.values())


def test_train_exits_2_on_any_package_error_of_its_run(tmp_path, base_config, monkeypatch):
    """A run's package error other than a parse or validation error ends in
    one error line too, which names what it concerns, not the config."""
    def failing(config):
        raise IoFailure("spill.bin: No space left on device")
    monkeypatch.setattr(harness, "run_training", failing)
    paths = _valid_inputs(tmp_path, base_config)
    result = CliRunner().invoke(main, COMMANDS["train"](paths))
    assert_one_error_line(result, "spill.bin")
    assert result.stderr == "error: spill.bin: No space left on device\n"


def test_train_has_no_workers_option(tmp_path, base_config):
    paths = _valid_inputs(tmp_path, base_config)
    result = CliRunner().invoke(main, COMMANDS["train"](paths) + ["--workers", "2"])
    assert result.exit_code == 2
    assert "No such option" in result.output


def test_ablate_has_no_workers_option(tmp_path, base_config):
    paths = _valid_inputs(tmp_path, base_config)
    result = CliRunner().invoke(main, COMMANDS["ablate"](paths) + ["--workers", "0"])
    assert result.exit_code == 2
    assert "No such option" in result.output


@pytest.mark.parametrize("command,out_name", [("tune", "trials.jsonl"),
                                              ("ablate", "summary.json")])
def test_seedless_config_runs_as_seed_0(tmp_path, base_config, command, out_name):
    """base_seed is optional in a config; tune and ablate read it as 0."""
    seedless = {k: v for k, v in base_config.items() if k != "base_seed"}
    outputs = []
    for i, doc in enumerate((base_config, seedless)):
        (tmp_path / str(i)).mkdir()
        paths = _valid_inputs(tmp_path / str(i), doc)
        out = tmp_path / str(i) / out_name
        args = COMMANDS[command](paths) + ["--out", str(out)]
        result = CliRunner().invoke(main, args + (["--trials", "2", "--budget", "20"]
                                                  if command == "tune" else []))
        assert result.exit_code == 0, result.output
        outputs.append((result.stdout, out.read_text()))
    assert outputs[0] == outputs[1]


def test_tune_invalid_base_config_exits_2_and_writes_no_log(tmp_path, base_config):
    base_config["model"]["bogus"] = 1
    paths = _valid_inputs(tmp_path, base_config)
    result = CliRunner().invoke(main, COMMANDS["tune"](paths) + ["--trials", "2"])
    assert_one_error_line(result, f"{paths['config']}: model.bogus: unknown key")
    assert not (tmp_path / "trials.jsonl").exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_tune_workers_below_one_exits_2(tmp_path, base_config, workers):
    paths = _valid_inputs(tmp_path, base_config)
    result = CliRunner().invoke(main, COMMANDS["tune"](paths) + ["--workers", workers])
    assert_one_error_line(result, "workers must be >= 1")
    assert not (tmp_path / "trials.jsonl").exists()


def test_tune_negative_offset_exits_2(tmp_path, base_config):
    """A negative offset would map trials to Halton point 0, all alike."""
    paths = _valid_inputs(tmp_path, base_config)
    result = CliRunner().invoke(main, COMMANDS["tune"](paths) + ["--offset", "-5"])
    assert_one_error_line(result, "offset must be >= 0, got -5")
    assert not (tmp_path / "trials.jsonl").exists()


def test_import_loads_no_process_pool():
    """The pool modules load only when a run uses more than one worker."""
    code = ("import sys, optparity, optparity.cli; print([m for m in "
            "('multiprocessing', 'concurrent.futures') if m in sys.modules])")
    src = str(Path(optparity.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"


def _leaves(doc, path=()):
    """The path of every scalar in a JSON document, as a tuple of keys and indices."""
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        return [leaf for key, value in items for leaf in _leaves(value, path + (key,))]
    return [path]


# the tests' base config cut to 4 steps, and values a document may hold in any leaf
FUZZ_BASE = {**copy.deepcopy(BASE_CONFIG), "budget_steps": 4,
             "schedule": {**BASE_CONFIG["schedule"], "total_steps": 4}}
FUZZ_VALUES = [0, -1, 2**62, 10**30, 1e308, 5e-324, float("nan"), float("inf"), "x", None,
               [], {}, True]
FUZZ_EDITS = st.lists(st.tuples(st.sampled_from(_leaves(FUZZ_BASE)),
                                st.sampled_from(FUZZ_VALUES)),
                      min_size=1, max_size=2, unique_by=lambda edit: edit[0])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(FUZZ_EDITS)
@example([(("data", "per_class"), 2**62)])
@example([(("data", "per_class"), 10**30)])
@example([(("data", "per_class"), 1e308)])
def test_train_on_a_config_with_odd_leaves_ends_in_a_result_or_one_error_line(edits):
    """Whatever one or two leaves hold, train completes (0), diverges (3), or
    exits 2 with one `error:` line; it never ends in a traceback."""
    doc = copy.deepcopy(FUZZ_BASE)
    for path, value in edits:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        write_json(config, doc)
        result = CliRunner().invoke(main, ["train", "--config", str(config)])
    if result.exit_code not in (0, 3):
        assert result.exit_code == 2, (edits, result.exception, result.output)
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (edits, result.stderr)


# a document of each of the other JSON options, the command that reads it with
# its other arguments, and what a leaf or the whole document may be replaced by
FUZZED_DOCS = {
    "space-continuous": ("tune", [{"name": "schedule.eta_peak", "kind": "continuous",
                                   "lo": 0.01, "hi": 1.0, "scaling": "log"}]),
    "space-discrete-set": ("tune", [{"name": "schedule.eta_peak", "kind": "discrete_set",
                                     "values": [0.1, 0.3]}]),
    "overrides": ("ablate", [["BN init", "model.bn_gamma_init", 0.5]]),
    "results": ("report", [SUMMARY]),
}
DOC_OPTION = {"tune": "--space", "ablate": "--overrides", "report": "--results"}
DOC_FUZZ_VALUES = FUZZ_VALUES + [float("-inf"), ""]


def _fuzz_doc_args(command, tmp, doc_path):
    config = tmp / "config.json"
    write_json(config, FUZZ_BASE)
    return {"tune": ["--config", str(config), "--out", str(tmp / "trials.jsonl"),
                     "--trials", "1"],
            "ablate": ["--config", str(config), "--seeds", "0"],
            "report": []}[command] + [DOC_OPTION[command], str(doc_path)]


@pytest.mark.parametrize("name", list(FUZZED_DOCS))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_other_documents_with_an_odd_leaf_end_in_a_result_or_one_error_line(name, data):
    """Whatever one leaf of a search space, an override list or a summaries
    file holds, or the whole document, tune, ablate and report exit 0, or 2
    with one `error:` line; they never end in a traceback."""
    command, doc = FUZZED_DOCS[name]
    path = data.draw(st.sampled_from([()] + _leaves(doc)), label="path")
    value = data.draw(st.sampled_from(DOC_FUZZ_VALUES), label="value")
    doc = copy.deepcopy(doc)
    if path:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        doc = value
    with tempfile.TemporaryDirectory() as tmp:
        doc_path = Path(tmp) / "doc.json"
        write_json(doc_path, doc)
        result = CliRunner().invoke(main, [command] + _fuzz_doc_args(command, Path(tmp),
                                                                      doc_path))
    if result.exit_code != 0:
        assert result.exit_code == 2, (path, value, result.exception, result.output)
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (path, value, result.stderr)
