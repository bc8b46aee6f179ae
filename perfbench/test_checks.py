"""The benchmark's checks pass on optparity's real outputs and fail when
the reference they compare against is perturbed.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

import copy
import dataclasses
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import checks  # noqa: E402
import configs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from optparity import harness, model, optim, tuner  # noqa: E402
from optparity.tuner import SearchDim  # noqa: E402


def _second_step(doc, perturb=None, dt=0):
    """Program and (optionally perturbed) reference at the second step."""
    groups, t, eta, program = list(workloads.composite_steps(doc, 2))[-1]
    routes = copy.deepcopy(doc["optimizer"])
    if perturb:
        perturb(routes)
    return program, checks.reference_composite_step(groups, routes, eta, t + dt)


DOCS = {
    "nesterov": configs.parity_base("nesterov", 0),
    "lars_hybrid": configs.parity_base("lars_hybrid", 0),
    "lamb_adam": configs.deep_ablation_config(0),
}


def _scale(route_index, key, factor):
    def perturb(routes):
        routes[route_index]["config"][key] *= factor
    return perturb


def _set(route_index, key, value):
    def perturb(routes):
        routes[route_index]["config"][key] = value
    return perturb


@pytest.mark.parametrize("name", list(DOCS))
def test_composite_step_matches_vector_reference(name):
    workloads.check_composite_step(DOCS[name])


def test_composite_step_matches_on_large_batch():
    workloads.check_composite_step(configs.large_batch_config(0), steps=1)


@pytest.mark.parametrize("name, perturb, dt", [
    pytest.param("nesterov", _set(0, "momentum", 0.9 + 1e-6), 0, id="nesterov-momentum"),
    pytest.param("lars_hybrid", _scale(0, "trust_coefficient", 1 + 1e-6), 0,
                 id="lars-trust-coefficient"),
    pytest.param("lars_hybrid", _set(0, "exclude_tags", ["weight"]), 0, id="lars-no-trust-ratio"),
    pytest.param("lars_hybrid", _set(1, "kind", "nesterov"), 0, id="heavy-ball-routed-wrong"),
    pytest.param("lamb_adam", _scale(0, "decay", 1 + 1e-6), 0, id="lamb-decay"),
    pytest.param("lamb_adam", _set(0, "exclude_tags", ["weight"]), 0, id="lamb-no-trust-ratio"),
    pytest.param("lamb_adam", _set(1, "beta2", 0.999 + 1e-7), 0, id="adam-beta2"),
    pytest.param("lamb_adam", None, 1, id="adam-bias-correction-step"),
])
def test_perturbed_optimizer_reference_fails(name, perturb, dt):
    program, reference = _second_step(DOCS[name])
    checks.check_step_matches(program, reference, name)
    program, reference = _second_step(DOCS[name], perturb, dt)
    with pytest.raises(checks.CheckFailed):
        checks.check_step_matches(program, reference, name)


DIMS = [("schedule.eta_peak", 1e-2, 2.0), ("optimizer.*.config.decay", 1e-6, 1e-2)]
SPACE = [SearchDim(path, "continuous", lo, hi, scaling="log") for path, lo, hi in DIMS]


def test_halton_assignments_match_and_perturbation_fails():
    for i in range(configs.PARITY_TRIALS):
        checks.check_assignment(tuner.sample_trial(SPACE, i), DIMS, i)
    with pytest.raises(checks.CheckFailed):
        checks.check_assignment(tuner.sample_trial(SPACE, 2), DIMS, 2, offset=1)
    bumped = {k: v * (1 + 1e-9) for k, v in tuner.sample_trial(SPACE, 0).items()}
    with pytest.raises(checks.CheckFailed):
        checks.check_assignment(bumped, DIMS, 0)


@pytest.mark.parametrize("doc", [configs.parity_base("nesterov", 0),
                                 configs.large_batch_config(0)])
def test_logged_lr_matches_closed_form_and_perturbation_fails(doc):
    doc = copy.deepcopy(doc)
    doc["budget_steps"] = doc["schedule"]["total_steps"] = 40
    doc["model"]["layer_widths"][1:-1] = [8] * (len(doc["model"]["layer_widths"]) - 2)
    doc["eval_every"] = 10
    cfg = harness.parse_config(doc)
    result = harness.run_training(cfg)
    schedule = dataclasses.asdict(cfg.schedule)
    checks.check_logged_lr(result.history, schedule, "run")
    history = copy.deepcopy(result.history)
    history[1]["lr"] *= 1 + 1e-9
    with pytest.raises(checks.CheckFailed):
        checks.check_logged_lr(history, schedule, "run")


def test_parity_threshold():
    checks.check_parity(0.9927, configs.PARITY_TARGET, "run")
    with pytest.raises(checks.CheckFailed):
        checks.check_parity(0.9878, configs.PARITY_TARGET, "run")


def test_large_batch_properties():
    checks.check_above_chance(0.8, 10, "run")
    checks.check_loss_falls([{"train_loss": x} for x in (1.7, 1.1, 0.9)], "run")
    with pytest.raises(checks.CheckFailed):
        checks.check_above_chance(0.3, 10, "run")
    with pytest.raises(checks.CheckFailed):
        checks.check_loss_falls([{"train_loss": x} for x in (1.7, 0.9, 0.9)], "run")


VALUES = [0.93, 0.97, 0.9, 0.99, 0.95]


def test_summary_matches_own_order_stats_and_perturbation_fails():
    s = dataclasses.asdict(tuner.summarize(VALUES, 0.95))
    checks.check_summary(s, 5, "arm")
    checks.check_summary_matches(s, VALUES, 0.95, "arm")
    with pytest.raises(checks.CheckFailed):
        checks.check_summary_matches(s, VALUES[:-1] + [0.96], 0.95, "arm")
    with pytest.raises(checks.CheckFailed):
        checks.check_summary_matches(s, VALUES, 0.96, "arm")


@pytest.mark.parametrize("field, value", [("q1", math.nan), ("q3", 0.5),
                                          ("target_fraction", 0.5), ("n_seeds", 4)])
def test_broken_summary_fails(field, value):
    s = dataclasses.asdict(tuner.summarize(VALUES, 0.95))
    checks.check_summary(s, 5, "arm")
    s[field] = value
    with pytest.raises(checks.CheckFailed):
        checks.check_summary(s, 5, "arm")


def test_summary_with_diverged_seeds_fails():
    # diverged seeds count as -inf; summarize interpolates a NaN quartile
    with np.errstate(invalid="ignore"):
        s = dataclasses.asdict(tuner.summarize([-math.inf, -math.inf, 0.9, 0.95, 0.99, 1.0],
                                               0.99))
    with pytest.raises(checks.CheckFailed):
        checks.check_summary(s, 6, "arm")


def test_report_rows_and_missing_row_fails(tmp_path):
    rows = [(label, tuner.summarize(VALUES, 0.95)) for label in ("Base", "No BN")]
    path = tmp_path / "summaries.json"
    harness.write_summaries(rows, path)
    assert harness.read_summaries(path) == rows
    _, csv_text = harness.report(rows)
    checks.check_report(csv_text, ["Base", "No BN"])
    with pytest.raises(checks.CheckFailed):
        checks.check_report(csv_text, ["Base", "No BN", "BN init"])
    with pytest.raises(checks.CheckFailed):
        checks.check_report(csv_text.replace("target_fraction", "fraction"), ["Base", "No BN"])


def test_trace_self_times_add_up_and_originals_return():
    doc = configs.deep_ablation_config(0)
    doc["budget_steps"] = doc["schedule"]["total_steps"] = 20
    doc["eval_every"] = 10
    originals = (harness.run_training, model.bn_forward, optim._UPDATE_FNS["lamb"])
    config = harness.parse_config(doc)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = tracer.span("bench.round", harness.run_training)(config)
    finally:
        tracer.uninstall()
    assert (harness.run_training, model.bn_forward, optim._UPDATE_FNS["lamb"]) == originals
    assert result.steps_run == 20
    totals = tracer.totals()
    root = totals["bench.round"]["total_s"]
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(root, rel=1e-9)
    assert totals["optim.composite_step"]["calls"] == 20
    assert totals["optim.lamb_update"]["calls"] == 20 * 7
    assert tracer.kernel_elements["adam_moments"] == 20 * sum(
        g.values.size for g in model.init_mlp(config.model))


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    """One real round of each workload at seed 0 (about 15 s in all)."""
    out_dir = tmp_path_factory.mktemp("rounds")
    recorder = workloads.RunRecorder()
    recorder.install()
    try:
        return {name: run(0, recorder, out_dir)
                for name, (run, _, _) in workloads.WORKLOADS.items()}
    finally:
        recorder.uninstall()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_checks_pass_on_a_real_round(rounds, name):
    _, check, docs_of = workloads.WORKLOADS[name]
    assert all(workloads.completed(call) for call in _calls(name, rounds[name]))
    check(rounds[name])
    for doc in docs_of(rounds[name]):
        workloads.check_composite_step(doc, steps=1)


def _calls(name, out):
    if name == "parity_study":
        return [call for res in out.values() for call in res["calls"]]
    return out["calls"]


def _bump_assignment(out):
    rec = out["nesterov"]["records"][1]
    rec.assignment["schedule.eta_peak"] *= 1 + 1e-9


def _other_eval_seed(out):
    calls = out["lars_hybrid"]["calls"]
    config, result, seconds = calls[-1]
    calls[-1] = (dataclasses.replace(config, base_seed=9), result, seconds)


def _low_median(out):
    res = out["nesterov"]
    res["summary"] = dataclasses.replace(res["summary"], median=0.985)


def _flat_loss(out):
    history = out["calls"][0][1].history
    history[-1]["train_loss"] = history[-2]["train_loss"]


def _chance_accuracy(out):
    out["calls"][1][1].final_train_accuracy = 0.15


def _lost_in_round_trip(out):
    label, summary = out["back"][-1]
    out["back"][-1] = (label, dataclasses.replace(summary, q3=summary.q3 + 1e-9))


def _missing_report_row(out):
    out["csv"] = "".join(out["csv"].splitlines(keepends=True)[:-1])


def _nan_quartile(out):
    label, summary = out["rows"][0]
    out["rows"][0] = (label, dataclasses.replace(summary, q1=math.nan))


@pytest.mark.parametrize("name, perturb", [
    ("parity_study", _bump_assignment),
    ("parity_study", _other_eval_seed),
    ("parity_study", _low_median),
    ("large_batch", _flat_loss),
    ("large_batch", _chance_accuracy),
    ("deep_ablation", _lost_in_round_trip),
    ("deep_ablation", _missing_report_row),
    ("deep_ablation", _nan_quartile),
], ids=lambda p: getattr(p, "__name__", p).strip("_"))
def test_workload_check_fails_on_perturbed_output(rounds, name, perturb):
    out = copy.deepcopy(rounds[name])
    perturb(out)
    _, check, _ = workloads.WORKLOADS[name]
    with pytest.raises(checks.CheckFailed):
        check(out)


def test_recorder_times_the_calibration_kernel_around_each_call():
    config = harness.parse_config(configs.deep_ablation_config(0))
    recorder = workloads.RunRecorder(calibrate.Calibrator("dispatch"))
    recorder.install()
    try:
        harness.run_training(config)
        harness.run_training(config)
    finally:
        recorder.uninstall()
    assert len(recorder.calls) == len(recorder.calibration) == 2
    assert all(0 < t < 10 for pair in recorder.calibration for t in pair)


def test_end_to_end_scales_times_to_the_reference_speed():
    result = types.SimpleNamespace(steps_run=100)
    calls = [(None, result, 0.5), (None, result, 0.5), (None, result, 1.0)]
    # kernel at twice, twice and four times its reference time of 0.01 s
    calibration = [(0.02, 0.02), (0.01, 0.03), (0.04, 0.04)]
    rounds = [(2.36, 0, 3)]  # 2.0 s in calls, 0.16 s in kernels, 0.2 s else
    metrics, extra = run.end_to_end([0.1, 0.3, 0.2], rounds, calls, calibration, 0.01)
    assert extra["calibrated_run_training_s"] == pytest.approx([0.25, 0.25, 0.25])
    assert metrics["run_ms_p50"]["value"] == pytest.approx(250.0)
    assert metrics["steps_per_s"]["value"] == pytest.approx(400.0)
    assert metrics["workload_s"]["value"] == pytest.approx(0.75 + 0.2 * 0.5)
    assert metrics["setup_s"]["value"] == pytest.approx(0.2)
