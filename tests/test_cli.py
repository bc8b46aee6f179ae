import json

import pytest
from click.testing import CliRunner

from optparity.cli import main


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


def _valid_inputs(tmp_path, base_config):
    """A valid file for every JSON option of train, tune, ablate and report."""
    paths = {"config": tmp_path / "config.json", "space": tmp_path / "space.json",
             "overrides": tmp_path / "overrides.json", "results": tmp_path / "summary.json"}
    write_json(paths["config"], base_config)
    write_json(paths["space"], [{"name": "schedule.eta_peak", "kind": "continuous",
                                 "lo": 0.01, "hi": 1.0, "scaling": "log"}])
    write_json(paths["overrides"], [["BN init", "model.bn_gamma_init", 0.5]])
    write_json(paths["results"], [{"label": "Base", "median": 0.9, "q1": 0.85, "q3": 0.95,
                                   "min": 0.8, "max": 1.0, "target_fraction": 0.7,
                                   "n_seeds": 5}])
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
])
@pytest.mark.parametrize("content", [b"{bad", b"", b"\xff\xfe{"])
def test_unreadable_json_exits_2_with_one_error_line(tmp_path, base_config, command,
                                                     bad_file, content):
    paths = _valid_inputs(tmp_path, base_config)
    paths[bad_file].write_bytes(content)
    result = CliRunner().invoke(main, COMMANDS[command](paths))
    assert_one_error_line(result, str(paths[bad_file]))


def _base_with(**fields):
    """The base config with top-level fields replaced."""
    return lambda base: {**base, **fields}


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
    ("train", "config", _base_with(eval_every=2.7), []),
], ids=["tune-space-unknown-key", "tune-space-object", "tune-space-name-not-text",
        "tune-config-list", "tune-no-budget",
        "ablate-two-element-override", "ablate-overrides-object", "ablate-seeds-not-int",
        "report-results-object", "schedule-config-list",
        "train-budget-text", "train-seed-text", "train-target-text", "train-optimizer-number",
        "train-route-number", "train-model-number", "train-batch-bool",
        "train-eval-every-fraction"])
def test_bad_document_exits_2_with_one_error_line(tmp_path, base_config, command,
                                                  bad_file, doc, extra):
    paths = _valid_inputs(tmp_path, base_config)
    if callable(doc):
        doc = doc(base_config)
    if bad_file:
        write_json(paths[bad_file], doc)
    result = CliRunner().invoke(main, COMMANDS[command](paths) + extra)
    assert_one_error_line(result, str(paths[bad_file]) if bad_file else "--seeds")


@pytest.mark.parametrize("command", ["train", "tune", "ablate", "report", "schedule export"])
def test_unwritable_out_exits_2_with_one_error_line(tmp_path, base_config, command):
    paths = _valid_inputs(tmp_path, base_config)
    out = str(tmp_path / "missing_dir" / "out.json")
    # click keeps the last --out given
    result = CliRunner().invoke(main, COMMANDS[command](paths) + ["--out", out])
    assert_one_error_line(result, out)


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
