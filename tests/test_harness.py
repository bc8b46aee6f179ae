import ast
import concurrent.futures
import contextlib
import copy
import cProfile
import dataclasses
import json
import math
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import BASE_CONFIG
from optparity import harness, model, tuner
from optparity.errors import (
    ConfigPathUnknown,
    CorruptRecord,
    EmptyInput,
    InvalidConfig,
    IoFailure,
    ParseError,
    ValidationError,
)
from optparity.model import MlpConfig
from optparity.optim import KINDS, OptimizerConfig
from optparity.param_store import TAGS
from optparity.schedule import ScheduleSpec, eval_schedule
from optparity.harness import SeedSummary, TrialRecord
from optparity.tuner import SearchDim


class TestParseConfig:
    def test_round_trip_from_text(self, base_config):
        cfg = harness.parse_config(harness.decode_json(json.dumps(base_config)))
        assert cfg.budget_steps == 200
        assert cfg.schedule.family == "cosine"
        assert cfg.routing.covers_all()

    def test_config_b_values_accepted(self, base_config):
        base_config["schedule"] = {
            "family": "poly_warmup_decay", "eta_init": 0.0, "eta_peak": 7.05,
            "eta_final": 6e-6, "p_warmup": 2, "p_decay": 2, "t_warmup": 706,
            "total_steps": 2512,
        }
        base_config["budget_steps"] = 2512
        base_config["optimizer"][0]["config"]["momentum"] = 1.0 - 0.02397
        base_config["optimizer"][0]["config"]["decay"] = 5.8e-5
        base_config["model"]["label_smoothing"] = 0.15
        base_config["model"]["bn_gamma_init"] = 0.4138
        cfg = harness.parse_config(base_config)
        assert cfg.schedule.eta_peak == 7.05
        assert cfg.model.label_smoothing == 0.15

    def test_budget_schedule_mismatch(self, base_config):
        base_config["budget_steps"] = 300
        with pytest.raises(ValidationError) as exc:
            harness.parse_config(base_config)
        assert "total_steps" in str(exc.value)

    def test_batch_divisibility(self, base_config):
        base_config["batch_size"] = 96
        base_config["model"]["virtual_batch_size"] = 64
        with pytest.raises(ValidationError) as exc:
            harness.parse_config(base_config)
        assert "batch_size" in str(exc.value)

    def test_unknown_key_rejected_with_path(self, base_config):
        base_config["model"]["hidden_dropout"] = 0.5
        with pytest.raises(ValidationError) as exc:
            harness.parse_config(base_config)
        assert "model.hidden_dropout" in str(exc.value)

    def test_routing_gap_rejected(self, base_config):
        base_config["optimizer"][0]["tags"] = ["weight", "bias", "bn_scale"]
        with pytest.raises(ValidationError):
            harness.parse_config(base_config)

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            harness.parse_config("{not json")

    @pytest.mark.parametrize("text", [json.dumps(BASE_CONFIG), "[" * 100_000],
                             ids=["object", "nested"])
    def test_text_is_no_config(self, text):
        """A config is decoded before it is parsed: JSON text is no object."""
        with pytest.raises(ParseError, match="^config must be a JSON object$"):
            harness.parse_config(text)

    def test_integral_floats_read_as_ints(self, base_config):
        want = harness.parse_config(copy.deepcopy(base_config))
        base_config["model"]["layer_widths"] = [2.0, 16.0, 16, 2]
        base_config["model"]["virtual_batch_size"] = 32.0
        base_config["model"]["init_seed"] = 0.0
        base_config["schedule"]["total_steps"] = 200.0
        got = harness.parse_config(base_config)
        assert got == want
        assert all(type(w) is int for w in got.model.layer_widths)
        assert type(got.model.virtual_batch_size) is int

    @pytest.mark.parametrize("section,key,value", [
        ("model", "init_seed", -1),
        ("model", "label_smoothing", float("nan")),
        ("model", "bn_gamma_init", float("-inf")),
        ("model", "use_bn", [True, 1]),
        ("schedule", "eta_peak", float("inf")),
        ("optimizer", "beta2", float("nan")),
        ("optimizer", "bias_correction", "false"),
    ])
    def test_bad_field_names_its_path(self, base_config, section, key, value):
        if section == "optimizer":
            base_config["optimizer"][0]["config"][key] = value
            path = f"optimizer.0.config.{key}"
        else:
            base_config[section][key] = value
            path = f"{section}.{key}"
        with pytest.raises(ValidationError) as exc:
            harness.parse_config(base_config)
        assert exc.value.path == path


# values of each JSON kind, and whether no declared field of a config takes them
WRONG_KINDS = st.sampled_from([("text", True), ([1, "a"], True), ({"k": 1}, True),
                               (float("nan"), True), (float("inf"), False), (True, False),
                               (None, False), (10 ** 400, False), (-1e308, False)])
CONFIG_FIELDS = [(section, name) for section, names in {
    "": sorted(BASE_CONFIG),
    "model": [f.name for f in dataclasses.fields(MlpConfig)],
    "data": [f.name for f in dataclasses.fields(harness.DataConfig)],
    "schedule": [f.name for f in dataclasses.fields(ScheduleSpec)],
    "optimizer.0": ["tags", "config"],
    "optimizer.0.config": [f.name for f in dataclasses.fields(OptimizerConfig)],
}.items() for name in names]
SUMMARY = {"label": "Base", "median": 0.9, "q1": 0.85, "q3": 0.95, "min": 0.8, "max": 1.0,
           "target_fraction": 0.7, "n_seeds": 5}
RECORD = dataclasses.asdict(TrialRecord(0, {"schedule.eta_peak": 0.1}, 0, "completed",
                                        0.9, 0.8, 0.3, 100))


class TestWronglyTypedDocuments:
    """One field of a valid document holds a value of another JSON kind: the
    readers raise only their own errors, never TypeError or ValueError."""

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(CONFIG_FIELDS), WRONG_KINDS)
    def test_config(self, where, wrong):
        (section, name), (value, never_fits) = where, wrong
        doc = copy.deepcopy(BASE_CONFIG)
        node = doc
        for key in filter(None, section.split(".")):
            node = node[int(key)] if isinstance(node, list) else node[key]
        node[name] = value
        try:
            harness.parse_config(doc)
        except (ParseError, ValidationError):
            return
        assert not never_fits, f"{section}.{name} = {value!r} parsed"

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(SUMMARY)), WRONG_KINDS)
    def test_summaries(self, name, wrong):
        value, never_fits = wrong
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "summary.json"
            path.write_text(json.dumps([{**SUMMARY, name: value}]))
            try:
                rows = harness.read_summaries(path)
            except ParseError:
                return
        fits = isinstance(value, str) if name == "label" else not never_fits
        assert fits, f"{name} = {value!r} parsed"
        harness.report(rows)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(RECORD)), WRONG_KINDS)
    def test_records(self, name, wrong):
        value, _ = wrong
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trials.jsonl"
            path.write_text(json.dumps({**RECORD, name: value}) + "\n")
            try:
                harness.read_results(path)
            except CorruptRecord as exc:
                assert exc.line_number == 1
                return
        # a mixed list and NaN fit no field of a record
        assert not (isinstance(value, list) or value != value), f"{name} = {value!r} read"


class TestPatchConfig:
    def test_scalar_patch(self, base_config):
        harness.patch_config(base_config, "schedule.eta_peak", 1.5)
        assert base_config["schedule"]["eta_peak"] == 1.5

    def test_list_index_patch(self, base_config):
        harness.patch_config(base_config, "optimizer.0.config.decay", 0.01)
        assert base_config["optimizer"][0]["config"]["decay"] == 0.01

    def test_wildcard_patch(self, base_config):
        base_config["optimizer"].append(
            {"tags": ["bias"], "config": {"kind": "heavy_ball"}}
        )
        harness.patch_config(base_config, "optimizer.*.config.kind", "adam")
        assert all(r["config"]["kind"] == "adam" for r in base_config["optimizer"])

    def test_unknown_path_fails_fast(self, base_config):
        with pytest.raises(ConfigPathUnknown):
            harness.patch_config(base_config, "schedule.nonexistent", 1)
        with pytest.raises(ConfigPathUnknown):
            harness.patch_config(base_config, "optimizer.9.config.decay", 1)

    def test_a_declared_field_the_document_leaves_out_is_set(self, base_config):
        del base_config["eval_every"], base_config["optimizer"][0]["config"]["momentum"]
        base_config["optimizer"].append({"tags": ["bias"], "config": {"kind": "adam"}})
        harness.patch_config(base_config, "eval_every", 5)
        harness.patch_config(base_config, "optimizer.*.config.momentum", 0.5)
        harness.patch_config(base_config, "model.layer_widths.1", 8)
        config = harness.parse_config(base_config)
        assert config.eval_every == 5 and config.model.layer_widths == [2, 8, 16, 2]
        assert [cfg.momentum for _, cfg in config.routing.routes] == [0.5, 0.5]

    @pytest.mark.parametrize("path", [
        "model.bogus", "routing", "optimizer.1.config.decay", "optimizer.2.config.decay",
        "optimizer.*", "schedule.eta_peak.0",
    ], ids=["undeclared", "not-an-init-field", "missing-section", "index-past-the-end",
            "wildcard-last", "under-a-number"])
    def test_a_path_to_no_declared_field_is_refused(self, base_config, path):
        base_config["optimizer"].append({"tags": ["bias"]})  # its config left to the default
        kept = copy.deepcopy(base_config)
        with pytest.raises(ConfigPathUnknown):
            harness.patch_config(base_config, path, 1)
        assert base_config == kept

    def test_unknown_path_is_its_jobs_error(self, base_config):
        jobs = harness.expand_jobs(base_config, [({"model.nonexistent": 1}, 0),
                                                 ({"schedule.eta_peak": 0.1}, 0)])
        assert isinstance(jobs[0], ValidationError)
        assert str(jobs[0]) == "model.nonexistent: unknown config path"
        assert isinstance(jobs[1], harness.ExperimentConfig) and jobs[1].schedule.eta_peak == 0.1

    def test_a_job_runs_at_its_own_seed_and_no_patch_may_set_it(self, base_config):
        seedless = {k: v for k, v in base_config.items() if k != "base_seed"}
        for base in (base_config, seedless):
            jobs = harness.expand_jobs(base, [({}, 5), ({"base_seed": 9}, 5),
                                              ({"schedule.eta_peak": 0.1, "base_seed": 9}, 5)])
            assert isinstance(jobs[0], harness.ExperimentConfig) and jobs[0].base_seed == 5
            for job in jobs[1:]:
                assert isinstance(job, ValidationError) and job.path == "base_seed"
        assert "base_seed" not in seedless  # the base is copied, not patched


class TestRunTraining:
    def test_converges_on_separable_blobs(self, base_config):
        # plain SGD, no decay, no smoothing, constant lr, nearly separated blobs
        base_config["data"]["spread"] = 0.15
        base_config["optimizer"][0]["config"] = {"kind": "heavy_ball", "momentum": 0.0}
        base_config["schedule"] = {"family": "constant", "eta_peak": 0.3,
                                   "total_steps": 200}
        base_config["model"]["label_smoothing"] = 0.0
        cfg = harness.parse_config(base_config)
        result = harness.run_training(cfg)
        assert result.status == "completed"
        assert result.final_train_accuracy == 1.0

    def test_deterministic_history(self, base_config):
        cfg = harness.parse_config(base_config)
        a = harness.run_training(cfg)
        b = harness.run_training(cfg)
        assert a.history == b.history
        assert a.final_loss == b.final_loss

    def test_logged_lr_matches_schedule(self, base_config):
        cfg = harness.parse_config(base_config)
        result = harness.run_training(cfg)
        spec = ScheduleSpec(**base_config["schedule"])
        steps = [h["step"] for h in result.history]
        assert steps == sorted(steps)
        for h in result.history:
            assert h["lr"] == eval_schedule(spec, h["step"])

    def test_divergence_detected_and_clean(self, base_config):
        base_config["schedule"] = {"family": "constant", "eta_peak": 1e6,
                                   "total_steps": 200}
        cfg = harness.parse_config(base_config)
        result = harness.run_training(cfg)
        assert result.status == "diverged"
        assert result.diverged_step is not None
        assert result.final_loss is None
        for h in result.history:
            assert all(v == v for v in h.values())  # no NaN persisted

    def test_nan_gradient_is_divergence(self, base_config, monkeypatch):
        real_backward = harness.backward
        calls = []

        def poisoned(cache, params, config, out=None):
            grads = real_backward(cache, params, config, out=out)
            calls.append(1)
            if len(calls) == 60:
                grads["b2"][:] = np.nan  # a view of the flat gradient
            return grads

        monkeypatch.setattr(harness, "backward", poisoned)
        result = harness.run_training(harness.parse_config(base_config))
        assert result.status == "diverged"
        assert result.diverged_step == 60
        assert result.steps_run == 59
        assert [h["step"] for h in result.history] == [50]



def _route_config(draw):
    return {
        "kind": draw(st.sampled_from(KINDS)),
        "momentum": draw(st.sampled_from([0.0, 0.5, 0.9])),
        "beta1": draw(st.sampled_from([0.5, 0.9])),
        "beta2": draw(st.sampled_from([0.9, 0.999])),
        "epsilon": draw(st.sampled_from([1e-8, 1e-3])),
        "bias_correction": draw(st.booleans()),
        "trust_coefficient": draw(st.sampled_from([1e-3, 0.1])),
        "decay_mode": draw(st.sampled_from(["l2_into_gradient", "decoupled"])),
        "decay": draw(st.sampled_from([0.0, 1e-4, 1e-2])),
        "exclude_tags": sorted(draw(st.frozensets(st.sampled_from(TAGS)))),
    }


@st.composite
def training_docs(draw):
    """Small whole-run configs over every axis run_training branches on."""
    hidden = draw(st.lists(st.integers(1, 32), min_size=1, max_size=3))
    features, classes = draw(st.integers(1, 8)), draw(st.integers(2, 4))
    batch = draw(st.integers(1, 32))
    steps = draw(st.integers(1, 40))
    routes = [{"tags": sorted(draw(st.frozensets(st.sampled_from(TAGS), min_size=1))),
               "config": _route_config(draw)} for _ in range(draw(st.integers(0, 2)))]
    routes.append({"tags": list(TAGS), "config": _route_config(draw)})
    return {
        "model": {
            "layer_widths": [features, *hidden, classes],
            "use_bn": [draw(st.booleans()) for _ in hidden],
            "bn_stats_decay": draw(st.sampled_from([0.0, 0.9])),
            "virtual_batch_size": draw(st.sampled_from(
                [k for k in range(1, batch + 1) if batch % k == 0])),
            "label_smoothing": draw(st.sampled_from([0.0, 0.1, 1.0])),
            "init_seed": draw(st.integers(0, 3)),
        },
        "data": {"classes": classes, "features": features,
                 "per_class": draw(st.integers(3, 20)),
                 "spread": draw(st.sampled_from([0.5, 2.0])), "seed": draw(st.integers(0, 3))},
        "optimizer": routes,
        "schedule": {"family": draw(st.sampled_from(["constant", "cosine"])),
                     "eta_peak": draw(st.sampled_from([1e-3, 0.1, 1.0, 1e4, 1e10])),
                     "total_steps": steps},
        "budget_steps": steps,
        "batch_size": batch,
        "eval_every": draw(st.integers(1, steps + 1)),
        "base_seed": draw(st.integers(0, 3)),
    }


def _diverging(eta, use_bn=True, **optimizer):
    doc = copy.deepcopy(BASE_CONFIG)
    doc["schedule"] = {"family": "constant", "eta_peak": eta, "total_steps": 200}
    doc["model"]["use_bn"] = use_bn
    doc["optimizer"][0]["config"].update(optimizer)
    return doc


# the tests' base config at eta 1e6: non-finite logits at step 81
DIVERGES_AT_LOGITS = _diverging(1e6)
# without BN on the first layer, heavy-ball at eta 1e12: a NaN reaches the
# second layer's BN input at step 18
DIVERGES_AT_BN_INPUT = _diverging(1e12, [False, True], kind="heavy_ball")
# LAMB with epsilon=0 meets a zero second moment at step 1: DivisionHazard
DIVISION_HAZARD = _diverging(0.01, False, kind="lamb", epsilon=0.0, decay=0.0)
# step 10 is clean, but the forward pass of its eval point meets non-finite
# logits: the run diverges at step 10 with the history of steps 1-9
DIVERGES_AT_EVAL_POINT = {
    "model": {"layer_widths": [3, 12, 5, 3], "use_bn": [False, True],
              "bn_stats_decay": 0.0, "virtual_batch_size": 7},
    "data": {"classes": 3, "features": 3, "per_class": 3, "spread": 0.5, "seed": 0},
    "optimizer": [{"tags": list(TAGS), "config": {"kind": "nesterov", "momentum": 0.5}}],
    "schedule": {"family": "constant", "eta_peak": 1e10, "total_steps": 10},
    "budget_steps": 10, "batch_size": 7, "eval_every": 1,
}
# LAMB at eta 1e4: step 22 is clean and its eval point's logits are finite, but
# so far apart that the train loss there is NaN: the run diverges at step 22
NAN_LOSS_AT_EVAL_POINT = {
    "model": {"layer_widths": [3, 29, 8, 18, 3], "use_bn": [True, False, False],
              "bn_stats_decay": 0.9, "virtual_batch_size": 2, "label_smoothing": 0.0,
              "init_seed": 1},
    "data": {"classes": 3, "features": 3, "per_class": 10, "spread": 0.5, "seed": 1},
    "optimizer": [{"tags": list(TAGS),
                   "config": {"kind": "lamb", "momentum": 0.0, "beta1": 0.5, "beta2": 0.9,
                              "epsilon": 1e-8, "bias_correction": False,
                              "decay_mode": "decoupled", "decay": 1e-4, "exclude_tags": []}}],
    "schedule": {"family": "cosine", "eta_peak": 1e4, "total_steps": 24},
    "budget_steps": 24, "batch_size": 8, "eval_every": 1,
}

_NON_WEIGHT = ["bias", "bn_scale", "bn_shift"]
# the deep_ablation benchmark's model and routing at a 30-step budget: six BN
# layers of width 8, LAMB on the weights and Adam on the rest
DEEP_ABLATION = {
    "model": {"layer_widths": [4, 8, 8, 8, 8, 8, 8, 3], "use_bn": True,
              "virtual_batch_size": 8, "label_smoothing": 0.1},
    "data": {"classes": 3, "features": 4, "per_class": 128, "spread": 1.0, "seed": 21},
    "optimizer": [
        {"tags": ["weight"],
         "config": {"kind": "lamb", "decay": 1e-3, "exclude_tags": _NON_WEIGHT}},
        {"tags": _NON_WEIGHT,
         "config": {"kind": "adam", "decay": 1e-3, "exclude_tags": _NON_WEIGHT}},
    ],
    "schedule": {"family": "cosine", "eta_peak": 0.01, "total_steps": 30},
    "budget_steps": 30, "batch_size": 16, "eval_every": 10,
}


def _deep_ablation_with(*routes):
    """DEEP_ABLATION with its routes replaced by (tags, config) pairs."""
    return {**copy.deepcopy(DEEP_ABLATION),
            "optimizer": [{"tags": tags, "config": config} for tags, config in routes]}


# the edges of the optimizer's moment runs, where adjacent Adam-family parts
# advance their moments in one pass only when they share beta1, beta2,
# epsilon and bias correction and take no L2 decay: LAMB and Adam with
# different beta2 (two passes), LAMB with L2 decay beside Adam (two passes),
# and Adam / heavy-ball / Adam, whose Adam parts are not adjacent
MOMENTS_APART = _deep_ablation_with(
    (["weight"], {"kind": "lamb", "decay": 1e-3, "exclude_tags": _NON_WEIGHT}),
    (_NON_WEIGHT, {"kind": "adam", "beta2": 0.99, "exclude_tags": _NON_WEIGHT}))
LAMB_L2_BESIDE_ADAM = _deep_ablation_with(
    (["weight"], {"kind": "lamb", "decay": 1e-3, "decay_mode": "l2_into_gradient"}),
    (_NON_WEIGHT, {"kind": "adam", "decay": 1e-3, "exclude_tags": _NON_WEIGHT}))
ADAM_HEAVY_BALL_ADAM = _deep_ablation_with(
    (["weight"], {"kind": "adam", "decay": 1e-3}),
    (["bias"], {"kind": "heavy_ball", "momentum": 0.9}),
    (["bn_scale", "bn_shift"], {"kind": "adam", "decay": 1e-3}))
# a spread whose generated inputs stay finite but overflow the first BN
# layer's sums: the run diverges at step 1
HUGE_SPREAD = {**copy.deepcopy(BASE_CONFIG),
               "data": {**BASE_CONFIG["data"], "spread": 5e307}}
# the parity study's lars_hybrid routing on the tests' base config at a
# 40-step budget: LARS on the weights, heavy-ball on the rest, L2 on both
LARS_HYBRID = {
    **copy.deepcopy(BASE_CONFIG),
    "optimizer": [
        {"tags": ["weight"],
         "config": {"kind": "lars", "momentum": 0.9, "decay": 1e-4,
                    "trust_coefficient": 0.001, "exclude_tags": _NON_WEIGHT}},
        {"tags": _NON_WEIGHT, "config": {"kind": "heavy_ball", "momentum": 0.9, "decay": 1e-4}},
    ],
    "schedule": {"family": "cosine", "eta_peak": 20.0, "total_steps": 40},
    "budget_steps": 40, "eval_every": 20,
}

# the large_batch workload's model, routing and data (benchmark seed 1) at a
# 3-step budget with an eval point every step: 4096 train rows make eight eval
# blocks, 1024 eval rows two; with 256-row blocks its train losses change bits
LARGE_BATCH = {
    "model": {"layer_widths": [16, 256, 256, 10], "use_bn": True, "virtual_batch_size": 64},
    "data": {"classes": 10, "features": 16, "per_class": 512, "spread": 3.0, "seed": 11},
    "optimizer": [
        {"tags": ["weight"],
         "config": {"kind": "lamb", "decay": 1e-4, "exclude_tags": _NON_WEIGHT}},
        {"tags": _NON_WEIGHT, "config": {"kind": "adam", "exclude_tags": _NON_WEIGHT}},
    ],
    "schedule": {"family": "poly_warmup_decay", "eta_init": 0.0, "eta_peak": 0.01,
                 "eta_final": 0.0, "t_warmup": 1, "total_steps": 3},
    "budget_steps": 3, "batch_size": 1024, "eval_every": 1,
}


class TestRunMatchesReference:
    """run_training against oracles.reference_run_training, == on the TrainResult."""

    @settings(max_examples=50, deadline=None)
    @given(training_docs())
    @example(DIVERGES_AT_LOGITS)
    @example(DIVERGES_AT_BN_INPUT)
    @example(DIVISION_HAZARD)
    @example(DIVERGES_AT_EVAL_POINT)
    @example(NAN_LOSS_AT_EVAL_POINT)
    @example(DEEP_ABLATION)
    @example(LARS_HYBRID)
    @example(LARGE_BATCH)
    @example(MOMENTS_APART)
    @example(LAMB_L2_BESIDE_ADAM)
    @example(ADAM_HEAVY_BALL_ADAM)
    @example(HUGE_SPREAD)
    def test_whole_run(self, doc):
        self._check(doc)

    def test_large_batch_run_with_the_worker(self, worker_on):
        """LARGE_BATCH with its steps in two row pieces, one on the model's worker
        thread."""
        self._check(LARGE_BATCH)

    def _check(self, doc):
        config = harness.parse_config(doc)
        want = oracles.reference_run_training(config)
        assert harness.run_training(config) == harness.TrainResult(**want)

    @pytest.mark.parametrize("doc,step", [(DIVERGES_AT_LOGITS, 81),
                                          (DIVERGES_AT_BN_INPUT, 18),
                                          (DIVISION_HAZARD, 1),
                                          (DIVERGES_AT_EVAL_POINT, 10),
                                          (NAN_LOSS_AT_EVAL_POINT, 22),
                                          (HUGE_SPREAD, 1)],
                             ids=["logits", "bn-input", "division-hazard", "eval-point",
                                  "eval-point-loss", "huge-spread"])
    def test_examples_diverge_where_stated(self, doc, step):
        result = harness.run_training(harness.parse_config(doc))
        assert (result.status, result.diverged_step) == ("diverged", step)
        assert result.steps_run == step - 1
        assert all(h["step"] < step for h in result.history)
        assert all(math.isfinite(v) for h in result.history for v in h.values())


# acceptance test 10's Nesterov config as its study starts from it: two BN
# layers of width 16, 500 steps at batch 64, an eval point every 100 steps
PARITY_NESTEROV = {
    **copy.deepcopy(BASE_CONFIG),
    "optimizer": [{"tags": list(TAGS),
                   "config": {"kind": "nesterov", "momentum": 0.9, "decay": 0.0,
                              "exclude_tags": _NON_WEIGHT}}],
    "schedule": {"family": "cosine", "eta_peak": 0.5, "total_steps": 500},
    "budget_steps": 500, "eval_every": 100,
}


def _reductions(doc) -> int:
    """The ufunc .reduce and .accumulate calls that one run_training of `doc`
    makes on the calling thread, counted from the profiler's c_call events."""
    config = harness.parse_config(doc)
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if (event == "c_call" and isinstance(getattr(arg, "__self__", None), np.ufunc)
                and arg.__name__ in ("reduce", "accumulate")):
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = harness.run_training(config)
    finally:
        sys.setprofile(previous)
    assert result.status == "completed"
    return count


@pytest.mark.parametrize("doc,count", [(PARITY_NESTEROV, 10_084), (DEEP_ABLATION, 1_276)],
                         ids=["test-10-nesterov", "deep-ablation"])
def test_reductions_per_run(doc, count):
    """At these sizes a reduction costs about as much as a small step's
    element-wise call, so the count is pinned exactly: a change that adds a
    reduction to the step changes it and must say so. A train step makes,
    per BN layer, two for the statistics and one per BN block of the
    backward; one over its pair of sums dgamma and dbeta; one per bias
    gradient; one accumulate over the running statistics; four in the loss;
    and the finiteness checks of the BN means, the logits and the gradient.
    Test 10's config read 12,594 and DEEP_ABLATION 1,672 before the paired
    sums and the label check folded into the targets' take."""
    assert _reductions(doc) == count


def _costs(doc) -> tuple[int, int]:
    """(the calls the profiler counts, the tracemalloc peak in bytes) of one
    run_training of `doc`, each over its own run after a warm-up run that
    starts the imports, caches and worker a first run pays for.

    The calls are summed over the profiler's own entries, one per function.
    pstats.Stats(profile).total_calls keys them by (file, line, name) and
    keeps one entry per key, and every dataclass's generated __init__ is
    "<string>:2:__init__", so its total drops the calls of all but one of
    them, and which one depends on the process."""
    config = harness.parse_config(doc)
    harness.run_training(config)
    profile = cProfile.Profile()
    assert profile.runcall(harness.run_training, config).status == "completed"
    tracemalloc.start()
    try:
        harness.run_training(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return sum(entry.callcount for entry in profile.getstats()), peak


@pytest.mark.parametrize("doc,calls,peak", [(PARITY_NESTEROV, 46_424, 331_000),
                                            (DEEP_ABLATION, 7_575, 386_000)],
                         ids=["test-10-nesterov", "deep-ablation"])
def test_costs_per_run(doc, calls, peak):
    """On these small runs a step costs mostly the calls it makes, so the
    calls per run are pinned exactly: a change that adds or removes a call
    per step or per run changes the count and must say so. The profiler
    sees Python functions, ufunc reductions and ndarray methods on the
    calling thread only. It does not see a ufunc call such as
    np.add(a, b, out=a), or the C code under np.dot, so element-wise work
    is not counted here. The traced peak moves by up to 2.5 KB from run to
    run (329,954-332,431 B and 385,791-386,206 B over six runs each), so it
    is pinned within 1%, which a leaked or widened buffer of test 10's
    (64 rows of 16, 8 KB) still exceeds. Test 10's config read 46,497 calls
    and DEEP_ABLATION 7,784 before the store, the optimizer state and the
    layer plan shared one parameter layout."""
    got_calls, got_peak = _costs(doc)
    assert got_calls == calls
    assert abs(got_peak - peak) <= 0.01 * peak


FAST_PATH_DOCS = pytest.mark.parametrize("doc", [PARITY_NESTEROV, DEEP_ABLATION, LARGE_BATCH],
                                         ids=["test-10-nesterov", "deep-ablation",
                                              "large-batch"])


def _row_plans(doc):
    """(the train row plan at the batch size, the eval row plans at the train
    and eval sets' sizes) of a run of `doc`."""
    config = harness.parse_config(doc)
    d = config.data
    sets = model.gen_synthetic_dataset(d.classes, d.features, d.per_class, d.spread, d.seed)
    plan = model.layer_plan(model.init_mlp(config.model), config.model)
    return (plan.row_plan(config.batch_size, "train"),
            [plan.row_plan(len(batch), "eval") for batch in sets])


@FAST_PATH_DOCS
@pytest.mark.parametrize("worker", [False, True], ids=["one-piece", "worker"])
def test_row_plans_take_the_fast_paths(doc, worker, monkeypatch):
    """Every BN block's mean, variance and 1/std views are C-contiguous, so
    that the ufuncs over them skip numpy's general iterator, and a row plan
    makes its products with np.dot where none is wider than WIDE_PRODUCT,
    else with np.matmul, whether or not it splits."""
    monkeypatch.setattr(model, "_USE_WORKER", worker)
    train, evals = _row_plans(doc)
    wide = doc is LARGE_BATCH  # 2.6-67 M multiply-adds, the others at most 0.13 M
    for rows in [train, *evals]:
        assert rows.product is (np.matmul if wide else np.dot)
        assert len(rows.pieces) == (2 if wide and worker else 1)
    caches = [cache for *_, cache in train.back if cache is not None]
    assert caches
    for cache in caches:
        for _, _, mu, _, var, inv, _ in cache["blocks"]:
            assert mu.flags.c_contiguous and var.flags.c_contiguous and inv.flags.c_contiguous


def _dot_products(doc, rng):
    """(name, a, b) for each product shape that the row plans of a run of
    `doc` make with np.dot, with random operands laid out as the plans' are."""
    config = harness.parse_config(doc)
    widths, n = config.model.layer_widths, config.batch_size
    train, evals = _row_plans(doc)
    assert train.product is np.dot and all(rows.product is np.dot for rows in evals)
    eval_rows = sorted({blk.stop - blk.start for rows in evals for blk in rows.blocks})
    last = len(widths) - 2
    for i, (c_in, c_out) in enumerate(zip(widths, widths[1:])):
        layer = "output layer" if i == last else f"layer {i + 1}"
        yield f"train {layer}", rng.normal(size=(n, c_in)), rng.normal(size=(c_in, c_out))
        for m in eval_rows:
            yield (f"eval {layer}, {m}-row block", rng.normal(size=(m, c_in)),
                   rng.normal(size=(c_in, c_out)))
        yield (f"{'x' if i == 0 else 'act'}.T @ dz of {layer}", rng.normal(size=(n, c_in)).T,
               rng.normal(size=(n, c_out)))
        if i > 0:
            yield (f"dz @ W.T of {layer}", rng.normal(size=(n, c_out)),
                   rng.normal(size=(c_in, c_out)).T)


@pytest.mark.parametrize("doc", [PARITY_NESTEROV, DEEP_ABLATION],
                         ids=["test-10-nesterov", "deep-ablation"])
def test_dot_products_match_matmul_bitwise(doc):
    """np.dot, which narrow row plans make their products with, gives
    np.matmul's bits on each product shape those plans take; so a numpy or
    OpenBLAS whose two calls part ways fails here, naming the product.
    LARGE_BATCH's plans are all wide and make none with np.dot."""
    for name, a, b in _dot_products(doc, np.random.default_rng(41)):
        got, want = np.empty((a.shape[0], b.shape[1])), np.empty((a.shape[0], b.shape[1]))
        np.dot(a, b, out=got)
        np.matmul(a, b, out=want)
        assert got.tobytes() == want.tobytes(), f"{name}: {a.shape} @ {b.shape}"


class TestStudy:
    SPACE = [
        SearchDim("schedule.eta_peak", "continuous", 0.01, 1.0, scaling="log"),
        SearchDim("optimizer.*.config.decay", "continuous", 1e-6, 1e-2, scaling="log"),
    ]

    def test_study_deterministic(self, base_config):
        a = tuner.run_study(self.SPACE, base_config, 3, 100, "final_train_accuracy")
        b = tuner.run_study(self.SPACE, base_config, 3, 100, "final_train_accuracy")
        assert a == b
        assert [r.trial_index for r in a] == [0, 1, 2]
        assert [r.seed for r in a] == [0, 1, 2]

    def test_negative_offset_and_fractional_budget_fail_before_any_run(self, base_config,
                                                                     monkeypatch):
        monkeypatch.setattr(harness, "run_training", lambda config: pytest.fail("a run began"))
        with pytest.raises(InvalidConfig, match="offset must be >= 0, got -5"):
            tuner.run_study(self.SPACE, base_config, 2, 10, "final_train_accuracy", offset=-5)
        for budget in (20.7, True, None):
            with pytest.raises(ValidationError, match="budget_steps: must be an integer"):
                tuner.run_study(self.SPACE, base_config, 2, budget, "final_train_accuracy")
        for budget in (0, -3):
            with pytest.raises(ValidationError, match="^budget_steps: must be > 0$"):
                tuner.run_study(self.SPACE, base_config, 2, budget, "final_train_accuracy")

    def test_single_trial(self, base_config):
        records = tuner.run_study(self.SPACE, base_config, 1, 50,
                                  "final_train_accuracy")
        assert len(records) == 1
        assert records[0].trial_index == 0

    def test_divergent_trial_recorded_and_study_continues(self, base_config):
        space = [SearchDim("schedule.eta_peak", "discrete_set",
                           values=[1e30, 0.1, 1e30, 0.1])]
        records = tuner.run_study(space, base_config, 4, 100, "final_train_accuracy")
        statuses = [r.status for r in records]
        assert "diverged" in statuses
        assert "completed" in statuses
        assert len(records) == 4

    def test_errored_trial_records_why(self, base_config):
        # batch 64 is not a multiple of virtual batch 7: parse_config rejects it
        space = [SearchDim("model.virtual_batch_size", "discrete_set", values=[7, 32])]
        records = tuner.run_study(space, base_config, 2, 50, "final_train_accuracy")
        # Halton points 1 and 2 in base 2 are 0.5 and 0.25: 32, then 7
        assert [r.status for r in records] == ["completed", "error"]
        assert records[0].error is None
        assert records[1].error == ("ValidationError: batch_size: "
                                    "64 not divisible by virtual_batch_size 7")

    def test_invalid_base_config_fails_before_any_run(self, base_config, monkeypatch):
        base_config["model"]["bogus"] = 1
        monkeypatch.setattr(harness, "run_training", pytest.fail)
        with pytest.raises(ValidationError, match="model.bogus: unknown key"):
            tuner.run_study(self.SPACE, base_config, 3, 50, "final_train_accuracy")

    def test_unknown_metric_fails_before_any_run(self, base_config, monkeypatch):
        monkeypatch.setattr(harness, "run_training", lambda config: pytest.fail("a run began"))
        with pytest.raises(ValidationError, match="target_metric: must be one of"):
            tuner.run_study(self.SPACE, base_config, 2, 10, "final_accuracy")

    def test_one_and_two_workers_give_identical_records(self, base_config, monkeypatch):
        space = [SearchDim("schedule.eta_peak", "discrete_set", values=[1e30, 0.1, 0.3])]
        monkeypatch.setattr(harness, "usable_cpus", lambda: 2)
        one = tuner.run_study(space, base_config, 3, 30, "final_train_accuracy", workers=1)
        two = tuner.run_study(space, base_config, 3, 30, "final_train_accuracy", workers=2)
        assert [r.status for r in one] == ["completed", "diverged", "completed"]
        assert one == two

    class InProcessPool:
        """A stand-in for ProcessPoolExecutor that starts no process: it records
        its size and runs the initializer and the jobs in this process."""
        started = []

        def __init__(self, max_workers, mp_context, initializer, initargs):
            self.started.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    def test_workers_capped_at_cpu_count(self, base_config, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", self.InProcessPool)
        monkeypatch.setattr(self.InProcessPool, "started", [])
        monkeypatch.setattr(harness, "usable_cpus", lambda: 3)
        monkeypatch.setattr(model, "_USE_WORKER", False)
        records = tuner.run_study(self.SPACE, base_config, 2, 10, "final_train_accuracy",
                                  workers=64)
        assert self.InProcessPool.started == [3]
        assert [r.trial_index for r in records] == [0, 1]

    # (usable CPUs, workers asked for, whether a pool process keeps the model's
    # worker thread): a pool that fills the CPUs leaves no core for it
    @pytest.mark.parametrize("cpus,workers,keeps", [(2, 2, False), (2, 8, False),
                                                    (3, 3, False), (4, 2, True)])
    def test_pool_process_drops_the_model_worker_when_the_pool_fills_the_cpus(
            self, base_config, monkeypatch, cpus, workers, keeps):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", self.InProcessPool)
        monkeypatch.setattr(harness, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(model, "_USE_WORKER", True)
        seen, run = [], harness.run_training
        monkeypatch.setattr(harness, "run_training",
                            lambda config: seen.append(model._USE_WORKER) or run(config))
        tuner.run_study(self.SPACE, base_config, 2, 10, "final_train_accuracy", workers=workers)
        assert seen == [keeps, keeps]

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, base_config, workers):
        with pytest.raises(InvalidConfig, match="workers"):
            tuner.run_study(self.SPACE, base_config, 1, 10, "final_train_accuracy",
                            workers=workers)

    def test_unknown_search_path(self, base_config):
        space = [SearchDim("schedule.bogus", "continuous", 0.0, 1.0)]
        with pytest.raises(ConfigPathUnknown):
            tuner.run_study(space, base_config, 1, 50, "final_train_accuracy")


class TestMultiSeedEval:
    def test_summary_shape(self, base_config):
        s = tuner.multi_seed_eval(base_config, [0, 1, 2], target=0.9,
                                  metric="final_train_accuracy")
        assert s.n_seeds == 3
        assert s.min <= s.median <= s.max

    def test_unknown_metric_fails_before_any_run(self, base_config, monkeypatch):
        monkeypatch.setattr(harness, "run_training", lambda config: pytest.fail("a run began"))
        with pytest.raises(ValidationError, match="metric: must be one of"):
            tuner.multi_seed_eval(base_config, [0, 1], 0.9, "final_accuracy")

    @pytest.mark.parametrize("metric, worst", [("final_loss", math.inf),
                                               ("final_eval_accuracy", -math.inf)])
    def test_diverged_seed_counts_as_the_metric_worst_value(self, base_config, metric,
                                                            worst):
        base_config["schedule"]["eta_peak"] = 1e30
        s = tuner.multi_seed_eval(base_config, [0, 1], target=0.5, metric=metric)
        assert s.min == s.median == s.max == worst
        assert s.target_fraction == 0.0

    def test_duplicate_seeds_rejected(self, base_config):
        with pytest.raises(Exception):
            tuner.multi_seed_eval(base_config, [0, 0], target=0.9)


class TestAblation:
    OVERRIDES = [
        ("BN init", "model.bn_gamma_init", 0.4138),
        ("Virtual BN", "model.virtual_batch_size", 64),
        ("L2 variables", "optimizer.*.config.exclude_tags", []),
    ]

    def test_rows_and_base_present(self, base_config):
        rows = harness.run_ablation(base_config, self.OVERRIDES, [0, 1])
        assert [label for label, _ in rows] == ["Base", "BN init", "Virtual BN",
                                                "L2 variables"]
        for _, s in rows:
            assert isinstance(s, SeedSummary)
            assert s.n_seeds == 2

    def test_empty_overrides(self, base_config):
        rows = harness.run_ablation(base_config, [], [0])
        assert len(rows) == 1 and rows[0][0] == "Base"

    def test_bad_path_fails_before_any_run(self, base_config, monkeypatch):
        monkeypatch.setattr(harness, "run_training", lambda config: pytest.fail("a run began"))
        # an unknown path, and an arm that patches cleanly but does not parse
        # (batch 64 is not a multiple of virtual batch 7); both name the arm
        for override, match in [
                (("x", "model.bogus", 1),
                 "arm 'x' .*: model.bogus: unknown config path"),
                (("VBS 7", "model.virtual_batch_size", 7),
                 "arm 'VBS 7' .*: batch_size: 64 not divisible")]:
            with pytest.raises(ValidationError, match=match):
                harness.run_ablation(base_config, [override], [0])

    def test_an_arm_that_sets_the_seed_is_named_before_any_run(self, base_config,
                                                                 monkeypatch):
        monkeypatch.setattr(harness, "run_training", lambda config: pytest.fail("a run began"))
        with pytest.raises(ValidationError) as info:
            harness.run_ablation(base_config, [("seed 77", "base_seed", 77)], [0, 1])
        assert str(info.value).startswith("arm 'seed 77' (base_seed = 77): base_seed: ")


@contextlib.contextmanager
def recorded_runs():
    """The configs that harness.run_training gets, in the order it gets them."""
    seen, run = [], harness.run_training
    with mock.patch.object(harness, "run_training",
                           lambda config: seen.append(config) or run(config)):
        yield seen


def fields_at(config, path: str) -> list:
    """The values a parsed config holds at a dotted path; `*` stands for every item."""
    nodes = [config]
    for key in path.split("."):
        if key == "*":
            nodes = [item for node in nodes for item in node]
        elif isinstance(nodes[0], list):
            nodes = [node[int(key)] for node in nodes]
        else:
            nodes = [getattr(node, key) for node in nodes]
    return nodes


def holds(config, path: str, value) -> bool:
    held = fields_at(config, path)
    return bool(held) and all(item == value for item in held)


class TestEachJobRunsWhatItsRecordClaims:
    """A trial record and an ablation row name the seed and the values that
    their runs got, whatever the space, offset, trial count and budget."""
    DIMS = {dim.name: dim for dim in [
        SearchDim("schedule.eta_peak", "continuous", 0.01, 1.0, scaling="log"),
        SearchDim("optimizer.*.config.decay", "continuous", 1e-6, 1e-2, scaling="log"),
        SearchDim("optimizer.0.config.momentum", "continuous", 0.0, 0.99),
        SearchDim("model.label_smoothing", "discrete_set", values=[0.0, 0.05, 0.1]),
    ]}

    @settings(max_examples=30, deadline=None)
    @given(names=st.lists(st.sampled_from(sorted(DIMS)), min_size=1, max_size=4, unique=True),
           offset=st.integers(0, 100), n_trials=st.integers(1, 4), steps=st.integers(5, 10),
           base_seed=st.integers(0, 1000))
    def test_study(self, names, offset, n_trials, steps, base_seed):
        base = {**BASE_CONFIG, "base_seed": base_seed}
        with recorded_runs() as configs:
            records = tuner.run_study([self.DIMS[name] for name in names], base, n_trials,
                                      steps, "final_train_accuracy", offset=offset)
        assert len(configs) == len(records) == n_trials
        for i, (record, config) in enumerate(zip(records, configs)):
            assert record.trial_index == i and record.seed == config.base_seed == base_seed + i
            assert config.budget_steps == config.schedule.total_steps == steps
            assert list(record.assignment) == names
            assert all(holds(config, path, value) for path, value in record.assignment.items())

    @settings(max_examples=30, deadline=None)
    @given(picks=st.lists(st.tuples(st.sampled_from(sorted(DIMS)), st.floats(0.0, 1.0)),
                          max_size=3),
           seeds=st.lists(st.integers(0, 1000), min_size=1, max_size=3, unique=True),
           steps=st.integers(5, 10))
    def test_ablation(self, picks, seeds, steps):
        base = {**BASE_CONFIG, "budget_steps": steps,
                "schedule": {**BASE_CONFIG["schedule"], "total_steps": steps}}
        overrides = [(f"arm {i}", path, tuner.map_unit(self.DIMS[path], u))
                     for i, (path, u) in enumerate(picks)]
        with recorded_runs() as configs:
            rows = harness.run_ablation(base, overrides, seeds)
        assert [label for label, _ in rows] == ["Base"] + [label for label, _, _ in overrides]
        runs = iter(configs)
        for seed in seeds:
            assert next(runs) == harness.parse_config({**base, "base_seed": seed})
        for _, path, value in overrides:
            for seed in seeds:
                config = next(runs)
                assert config.base_seed == seed and holds(config, path, value)
        assert next(runs, None) is None


class TestOverrides:
    """`ablate --overrides` items read as harness.Override triples."""

    def test_items_read_as_triples(self):
        doc = [["BN init", "model.bn_gamma_init", 0.5], ["No BN", "model.use_bn", [False]]]
        assert harness.read_as(doc, list[harness.Override], "overrides") == [
            ("BN init", "model.bn_gamma_init", 0.5), ("No BN", "model.use_bn", [False])]

    @pytest.mark.parametrize("doc,message", [
        ([[1, "model.bn_gamma_init", 0.5]], "overrides.0.0: must be a string, got 1"),
        ([["a", 5, 0.5]], "overrides.0.1: must be a string, got 5"),
        ([["a", "model.use_bn"]], "overrides.0: must be a list of 3 items"),
        ([["a", "model.use_bn", 1, 2]], "overrides.0: must be a list of 3 items"),
        ([{"a": 1}], "overrides.0: must be a list"),
        ({"a": 1}, "overrides: must be a list"),
    ], ids=["label-number", "path-number", "two-items", "four-items", "object-item",
            "object"])
    def test_bad_items_named_by_path(self, doc, message):
        with pytest.raises(ValidationError) as info:
            harness.read_as(doc, list[harness.Override], "overrides")
        assert str(info.value).startswith(message)


class TestPersistence:
    def records(self):
        return [
            TrialRecord(0, {"schedule.eta_peak": 0.1}, 0, "completed",
                        final_train_accuracy=0.9, final_eval_accuracy=0.8,
                        final_loss=0.3, steps_run=100),
            TrialRecord(1, {"schedule.eta_peak": 9.0}, 1, "diverged",
                        steps_run=17, diverged_step=18),
            TrialRecord(2, {"schedule.eta_peak": 0.2}, 2, "completed",
                        final_train_accuracy=0.95, final_eval_accuracy=0.85,
                        final_loss=0.2, steps_run=100),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "trials.jsonl"
        harness.write_results(self.records(), path)
        assert harness.read_results(path) == self.records()

    def test_append_preserves_earlier_lines(self, tmp_path):
        path = tmp_path / "trials.jsonl"
        harness.write_results(self.records(), path)
        harness.write_results(self.records(), path)
        back = harness.read_results(path)
        assert len(back) == 6
        assert back[:3] == back[3:]

    def test_corrupt_line_reports_number(self, tmp_path):
        path = tmp_path / "trials.jsonl"
        harness.write_results(self.records(), path)
        with open(path, "a") as f:
            f.write('{"truncated": ')
        with pytest.raises(CorruptRecord) as exc:
            harness.read_results(path)
        assert exc.value.line_number == 4

    def test_non_utf8_log_is_a_corrupt_record(self, tmp_path):
        path = tmp_path / "trials.jsonl"
        path.write_bytes(b'\xff\xfe{}\n')
        with pytest.raises(CorruptRecord) as exc:
            harness.read_results(path)
        assert exc.value.line_number == 1
        path = tmp_path / "latin1.jsonl"
        harness.write_results(self.records(), path)
        with open(path, "ab") as f:
            f.write(b'{"seed": "\xe9"}\n')
        with pytest.raises(CorruptRecord) as exc:
            harness.read_results(path)
        assert exc.value.line_number == 4

    def test_line_nested_past_the_recursion_limit_is_a_corrupt_record(self, tmp_path):
        path = tmp_path / "trials.jsonl"
        harness.write_results(self.records(), path)
        harness.write_text(path, "[" * 100_000 + "\n", mode="a")
        with pytest.raises(CorruptRecord) as exc:
            harness.read_results(path)
        assert exc.value.line_number == 4

    @pytest.mark.parametrize("line,match", [
        ({"trial_index": 0, "assignment": {}, "seed": 0, "status": "completed",
          "steps_run": 5},
         "a completed trial needs final_train_accuracy, final_eval_accuracy, final_loss"),
        ({**RECORD, "final_loss": None}, "a completed trial needs final_loss"),
        ({**RECORD, "status": "banana"},
         "status must be completed, diverged or error, got 'banana'"),
        ({"trial_index": -1, "assignment": {}, "seed": -5, "status": "error", "steps_run": -3},
         "trial_index must be >= 0, got -1"),
        ({**RECORD, "trial_index": -1}, "trial_index must be >= 0, got -1"),
        ({**RECORD, "seed": -5}, "seed must be >= 0, got -5"),
        ({**RECORD, "steps_run": -3}, "steps_run must be >= 0, got -3"),
        ({**RECORD, "status": "diverged", "diverged_step": 0},
         "diverged_step must be >= 1, got 0"),
        ({**RECORD, "status": "diverged", "diverged_step": -10 ** 400},
         r"diverged_step must be >= 1, got -1000.*\.\.\. \(402 characters\)"),
    ], ids=["completed-without-metrics", "completed-without-loss", "unknown-status",
            "all-negative", "negative-index", "negative-seed", "negative-steps",
            "diverged-at-step-0", "diverged-far-below-step-1"])
    def test_record_whose_status_does_not_fit_is_corrupt(self, tmp_path, line, match):
        path = tmp_path / "trials.jsonl"
        harness.write_results(self.records()[:1], path)
        with open(path, "a") as f:
            f.write(json.dumps(line) + "\n")
        with pytest.raises(CorruptRecord, match=f"line 2: record: {match}"):
            harness.read_results(path)

    def test_error_reason_round_trip(self, tmp_path):
        path = tmp_path / "trials.jsonl"
        records = [TrialRecord(0, {}, 0, "error", error="ValidationError: batch_size: bad")]
        harness.write_results(records, path)
        assert harness.read_results(path) == records

    def test_log_without_error_field_loads(self, tmp_path):
        path = tmp_path / "trials.jsonl"
        path.write_text(json.dumps({"trial_index": 0, "assignment": {}, "seed": 0,
                                    "status": "error", "steps_run": 0}) + "\n")
        assert harness.read_results(path) == [TrialRecord(0, {}, 0, "error")]

    @pytest.mark.parametrize("doc", [
        {"label": "Base", "median": 1.0},
        ["Base"],
        [{"median": 0.9, "q1": 0.85, "q3": 0.95, "min": 0.8, "max": 1.0,
          "target_fraction": 0.7, "n_seeds": 50}],
        [{"label": "Base", "median": 0.9}],
    ], ids=["object", "not-an-object", "no-label", "missing-field"])
    def test_malformed_summaries_rejected(self, tmp_path, doc):
        path = tmp_path / "summary.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="summar"):
            harness.read_summaries(path)

    @pytest.mark.parametrize("label", [1, None, [1]], ids=["number", "null", "list"])
    def test_label_that_is_not_text_rejected(self, tmp_path, label):
        path = tmp_path / "summary.json"
        path.write_text(json.dumps([{**SUMMARY, "label": "Base"}, {**SUMMARY, "label": label}]))
        with pytest.raises(ParseError, match=r"summaries\.1\.label: must be a string"):
            harness.read_summaries(path)

    @pytest.mark.parametrize("fields, match", [
        ({"n_seeds": 0}, "n_seeds must be >= 1, got 0"),
        ({"target_fraction": 1.5}, r"target_fraction must be in \[0, 1\], got 1.5"),
        ({"target_fraction": -0.25}, r"target_fraction must be in \[0, 1\], got -0.25"),
        ({"min": 0.86}, "min <= q1 <= median <= q3 <= max must hold"),
        ({"q1": 0.91}, "min <= q1 <= median <= q3 <= max must hold"),
        ({"q3": 0.89}, "min <= q1 <= median <= q3 <= max must hold"),
        ({"max": 0.94}, "min <= q1 <= median <= q3 <= max must hold"),
        ({"median": "-Infinity"}, "min <= q1 <= median <= q3 <= max must hold"),
    ], ids=["no-seeds", "fraction-above-1", "fraction-below-0", "min-above-q1",
            "q1-above-median", "q3-below-median", "max-below-q3", "median-at-minus-inf"])
    def test_impossible_summary_rejected(self, tmp_path, fields, match):
        path = tmp_path / "summary.json"
        fields = {k: -math.inf if v == "-Infinity" else v for k, v in fields.items()}
        path.write_text(json.dumps([SUMMARY, {**SUMMARY, **fields}]))
        with pytest.raises(ParseError, match=r"summaries\.1: " + match):
            harness.read_summaries(path)
        with pytest.raises(InvalidConfig, match=match):
            SeedSummary(**{k: v for k, v in {**SUMMARY, **fields}.items() if k != "label"})

    def test_infinite_order_statistics_in_order_accepted(self):
        inf = math.inf
        assert SeedSummary(inf, 0.5, inf, 0.25, inf, 0.0, 4).q3 == inf
        assert SeedSummary(-inf, -inf, 0.5, -inf, 1.0, 0.5, 4).q1 == -inf
        assert SeedSummary(inf, inf, inf, inf, inf, 1.0, 1).n_seeds == 1

    def test_summaries_round_trip(self, tmp_path):
        rows = [("Base", SeedSummary(0.9, 0.85, 0.95, 0.8, 1.0, 0.7, 50))]
        path = tmp_path / "summary.json"
        harness.write_summaries(rows, path)
        assert harness.read_summaries(path) == rows

    def test_diverged_arm_round_trips_and_reports(self, tmp_path):
        """A diverged seed counts as -inf, which the file keeps as -Infinity."""
        rows = [("Base", harness.summarize([0.9, 0.95, 0.97, 0.99, 1.0], 0.97)),
                ("Diverged", harness.summarize([-math.inf] * 3 + [0.9, 0.95], 0.97))]
        diverged = rows[1][1]
        assert diverged.median == diverged.q1 == diverged.min == -math.inf
        path = tmp_path / "summary.json"
        harness.write_summaries(rows, path)
        back = harness.read_summaries(path)
        assert back == rows
        _, csv_text = harness.report(back)
        assert csv_text.splitlines()[2].split(",") == ["Diverged", "-inf", "-inf", "0.9",
                                                       "0.000", "5"]

    @pytest.mark.parametrize("content", [b"{bad", b"\xff\xfe{"], ids=["no-json", "no-utf8"])
    def test_summaries_that_are_no_json_raise_a_parse_error(self, tmp_path, content):
        """The error names no file: the caller adds it."""
        path = tmp_path / "summary.json"
        path.write_bytes(content)
        with pytest.raises(ParseError) as exc:
            harness.read_summaries(path)
        assert str(path) not in str(exc.value)

    def test_unreadable_file_is_an_io_failure_naming_it_once(self, tmp_path):
        missing, folder = tmp_path / "missing.json", tmp_path / "folder"
        folder.mkdir()
        for call, path, reason in [(harness.read_json, missing, "No such file or directory"),
                                   (harness.read_results, folder, "Is a directory"),
                                   (harness.read_summaries, folder, "Is a directory"),
                                   (lambda p: harness.write_text(p, "x"), folder,
                                    "Is a directory"),
                                   (lambda p: harness.write_summaries([], p),
                                    tmp_path / "no" / "summary.json",
                                    "No such file or directory")]:
            with pytest.raises(IoFailure) as exc:
                call(path)
            assert str(exc.value) == f"{path}: {reason}"

    def test_text_is_written_and_read_as_utf8_as_given(self, tmp_path):
        path = tmp_path / "out.txt"
        harness.write_text(path, "a\r\n\u03b2\n")
        harness.write_text(path, iter(["c", "d\n"]), mode="a")
        assert path.read_bytes() == "a\r\n\u03b2\ncd\n".encode("utf-8")
        doc = tmp_path / "doc.json"
        harness.write_text(doc, '{"label": "\u03b2"}')
        assert harness.read_json(doc) == {"label": "\u03b2"}


def _callers_in_package(is_callee) -> set[tuple[str, str | None]]:
    """(module, function) of every call in the package whose callee node
    `is_callee` accepts; the function is None at module level."""
    callers = set()

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and is_callee(node.func):
            callers.add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for source in sorted(Path(harness.__file__).parent.glob("*.py")):
        visit(ast.parse(source.read_text(encoding="utf-8")), source.stem, None)
    return callers


def test_only_the_harness_reader_and_writer_open_files():
    """Every call of `open` (the builtin, or any `.open` attribute) in the
    package sits in harness._read_bytes or harness.write_text."""
    openers = _callers_in_package(lambda f: isinstance(f, ast.Name) and f.id == "open"
                                  or isinstance(f, ast.Attribute) and f.attr == "open")
    assert openers == {("harness", "_read_bytes"), ("harness", "write_text")}


def test_only_harness_decode_json_decodes_json():
    """Every call of `json.loads` or `json.load` in the package sits in
    harness.decode_json."""
    decoders = _callers_in_package(lambda f: isinstance(f, ast.Attribute)
                                   and f.attr in ("load", "loads")
                                   and isinstance(f.value, ast.Name) and f.value.id == "json")
    assert decoders == {("harness", "decode_json")}


def test_only_the_layout_builds_segments():
    """Every call of `Segment` in the package sits in param_store, in the
    constructor of `Layout`, the one code that assigns groups their offsets:
    the store, the optimizer state and the layer plan all read its
    segments."""
    builders = _callers_in_package(lambda f: isinstance(f, ast.Name) and f.id == "Segment"
                                   or isinstance(f, ast.Attribute) and f.attr == "Segment")
    assert builders == {("param_store", "__init__")}


class TestReport:
    def test_fraction_formatting(self):
        rows = [("Base", SeedSummary(0.9, 0.85, 0.95, 0.8, 1.0, 35 / 50, 50))]
        text, csv_text = harness.report(rows)
        assert "0.700" in text
        assert "0.700" in csv_text

    def test_single_row(self):
        rows = [("only", SeedSummary(0.5, 0.5, 0.5, 0.5, 0.5, 1.0, 1))]
        text, _ = harness.report(rows)
        assert len(text.strip().splitlines()) == 2

    def test_csv_reparses(self):
        import csv as csv_mod
        import io
        rows = [("a", SeedSummary(0.9, 0.8, 1.0, 0.7, 1.0, 0.5, 4)),
                ("b", SeedSummary(0.1, 0.0, 0.2, 0.0, 0.3, 0.0, 4))]
        _, csv_text = harness.report(rows)
        parsed = list(csv_mod.reader(io.StringIO(csv_text)))
        assert parsed[0] == ["label", "median", "q1", "q3", "target_fraction", "n"]
        assert float(parsed[1][1]) == 0.9
        assert parsed[2][0] == "b"

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            harness.report([])
