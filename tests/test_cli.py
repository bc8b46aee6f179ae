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
    """A valid file for every JSON option of train, tune and ablate."""
    paths = {"config": tmp_path / "config.json", "space": tmp_path / "space.json",
             "overrides": tmp_path / "overrides.json"}
    write_json(paths["config"], base_config)
    write_json(paths["space"], [{"name": "schedule.eta_peak", "kind": "continuous",
                                 "lo": 0.01, "hi": 1.0, "scaling": "log"}])
    write_json(paths["overrides"], [["BN init", "model.bn_gamma_init", 0.5]])
    return paths


COMMANDS = {
    "train": lambda p: ["train", "--config", str(p["config"])],
    "tune": lambda p: ["tune", "--config", str(p["config"]), "--space", str(p["space"]),
                       "--out", str(p["config"].parent / "trials.jsonl"), "--trials", "1"],
    "ablate": lambda p: ["ablate", "--config", str(p["config"]),
                         "--overrides", str(p["overrides"]), "--seeds", "0"],
}


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
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
    assert str(paths[bad_file]) in lines[0]


def test_train_has_no_workers_option(tmp_path, base_config):
    paths = _valid_inputs(tmp_path, base_config)
    result = CliRunner().invoke(main, COMMANDS["train"](paths) + ["--workers", "2"])
    assert result.exit_code == 2
    assert "No such option" in result.output
