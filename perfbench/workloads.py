"""The three workloads as rounds of calls into optparity's public API.

A round is one whole piece of the workload's work; a run repeats rounds
with identical inputs.  `RunRecorder` stands in for `harness.run_training`,
which tuner and harness look up at call time, so every training run a round
makes is timed and its config and result are kept for the checks.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path

import numpy as np

from optparity import harness, model, optim, tuner
from optparity.tuner import SearchDim

import checks
import configs


class RunRecorder:
    """With a `calibrate` callable, also times it just before and just after
    each call, outside the call's clock, into `calibration`."""

    def __init__(self, calibrate=None):
        self.inner = harness.run_training
        self.calls: list[tuple] = []  # (ExperimentConfig, TrainResult or None, seconds)
        self.calibrate = calibrate
        self.calibration: list[tuple[float, float]] = []  # (before, after) per call

    def __call__(self, config):
        before = self.calibrate() if self.calibrate else 0.0
        t0 = time.perf_counter()
        result = None
        try:
            result = self.inner(config)
            return result
        finally:
            self.calls.append((config, result, time.perf_counter() - t0))
            after = self.calibrate() if self.calibrate else 0.0
            self.calibration.append((before, after))

    def install(self):
        harness.run_training = self

    def uninstall(self):
        harness.run_training = self.inner


def _patched(doc: dict, assignment: dict) -> dict:
    cfg = harness.deep_copy_config(doc)
    for path, value in assignment.items():
        harness.patch_config(cfg, path, value)
    return cfg


def completed(call) -> bool:
    return call[1] is not None and call[1].status == "completed"


def _schedule(config) -> dict:
    return dataclasses.asdict(config.schedule)


# -- parity_study ----------------------------------------------------------

def _parity_dims(routing: str) -> list[tuple[str, float, float]]:
    lo, hi = configs.PARITY_ETA_RANGE[routing]
    return [("schedule.eta_peak", lo, hi),
            ("optimizer.*.config.decay", *configs.PARITY_DECAY_RANGE)]


def parity_study(seed: int, recorder: RunRecorder, out_dir: Path) -> dict:
    """Halton study then a 5-seed evaluation of the winner, per routing."""
    out = {}
    for routing in configs.PARITY_ROUTINGS:
        base = configs.parity_base(routing, seed)
        space = [SearchDim(path, "continuous", lo, hi, scaling="log")
                 for path, lo, hi in _parity_dims(routing)]
        first = len(recorder.calls)
        records = tuner.run_study(space, base, configs.PARITY_TRIALS,
                                  configs.PARITY_STEPS, "final_train_accuracy")
        best = tuner.select_best(records, "final_train_accuracy")
        tuned = _patched(base, best.assignment)
        summary = tuner.multi_seed_eval(tuned, list(configs.PARITY_EVAL_SEEDS),
                                        configs.PARITY_TARGET, "final_train_accuracy")
        out[routing] = {"base": base, "records": records, "summary": summary,
                        "calls": recorder.calls[first:]}
    return out


def check_parity_study(out: dict) -> None:
    n_trials, n_eval = configs.PARITY_TRIALS, len(configs.PARITY_EVAL_SEEDS)
    for routing, res in out.items():
        records, calls = res["records"], res["calls"]
        checks.require(len(records) == n_trials and len(calls) == n_trials + n_eval,
                       f"{routing}: {len(records)} trials, {len(calls)} runs")
        for i, rec in enumerate(records):
            checks.require(rec.trial_index == i and rec.seed == res["base"]["base_seed"] + i,
                           f"{routing}: trial {i} has index {rec.trial_index}, seed {rec.seed}")
            checks.check_assignment(rec.assignment, _parity_dims(routing), i)
            checks.require(calls[i][0].schedule.eta_peak == rec.assignment["schedule.eta_peak"],
                           f"{routing}: trial {i} ran another eta_peak than it recorded")
        for config, result, _ in calls:
            checks.check_logged_lr(result.history, _schedule(config), routing)
        eval_seeds = [call[0].base_seed for call in calls[n_trials:]]
        checks.require(eval_seeds == list(configs.PARITY_EVAL_SEEDS),
                       f"{routing}: evaluated on seeds {eval_seeds}")
        finals = [call[1].final_train_accuracy for call in calls[n_trials:]]
        summary = dataclasses.asdict(res["summary"])
        checks.check_summary_matches(summary, finals, configs.PARITY_TARGET, routing)
        checks.check_parity(summary["median"], configs.PARITY_TARGET, routing)


def parity_docs(out: dict) -> list[dict]:
    docs = []
    for res in out.values():
        best = tuner.select_best(res["records"], "final_train_accuracy")
        docs.append(_patched(res["base"], best.assignment))
    return docs


# -- large_batch -----------------------------------------------------------

def large_batch(seed: int, recorder: RunRecorder, out_dir: Path) -> dict:
    """One run per seed of the wide ghost-BN MLP at batch 1024."""
    doc = configs.large_batch_config(seed)
    first = len(recorder.calls)
    for s in configs.large_batch_seeds(seed):
        harness.run_training(harness.parse_config(_patched(doc, {"base_seed": s})))
    return {"doc": doc, "calls": recorder.calls[first:]}


def check_large_batch(out: dict) -> None:
    calls = out["calls"]
    checks.require(len(calls) == configs.LARGE_SEEDS, f"{len(calls)} runs")
    for config, result, _ in calls:
        label = f"seed {config.base_seed}"
        checks.check_logged_lr(result.history, _schedule(config), label)
        checks.check_above_chance(result.final_train_accuracy, config.data.classes, label)
        checks.check_loss_falls(result.history, label)


def large_batch_docs(out: dict) -> list[dict]:
    return [out["doc"]]


# -- deep_ablation ---------------------------------------------------------

def _arm_docs(seed: int) -> list[tuple[str, dict]]:
    doc = configs.deep_ablation_config(seed)
    return [("Base", doc)] + [(label, _patched(doc, {path: value}))
                              for label, path, value in configs.ABLATION_OVERRIDES]


def deep_ablation(seed: int, recorder: RunRecorder, out_dir: Path) -> dict:
    """run_ablation, then write_summaries -> read_summaries -> report."""
    doc = configs.deep_ablation_config(seed)
    first = len(recorder.calls)
    rows = harness.run_ablation(doc, configs.ABLATION_OVERRIDES,
                                configs.deep_ablation_seeds(seed))
    path = out_dir / "summaries.json"
    harness.write_summaries(rows, path)
    back = harness.read_summaries(path)
    _, csv_text = harness.report(back)
    return {"seed": seed, "rows": rows, "back": back, "csv": csv_text,
            "calls": recorder.calls[first:]}


def check_deep_ablation(out: dict) -> None:
    arms = _arm_docs(out["seed"])
    n = configs.ABLATION_SEEDS
    labels = [label for label, _ in arms]
    rows, calls = out["rows"], out["calls"]
    checks.require([label for label, _ in rows] == labels,
                   f"arms {[label for label, _ in rows]} != {labels}")
    checks.require(len(calls) == n * len(arms), f"{len(calls)} runs")
    target = arms[0][1]["target_value"]
    for k, (label, summary) in enumerate(rows):
        s = dataclasses.asdict(summary)
        checks.check_summary(s, n, label)
        finals = [call[1].final_train_accuracy for call in calls[k * n:(k + 1) * n]]
        checks.check_summary_matches(s, finals, target, label)
    for config, result, _ in calls:
        checks.check_logged_lr(result.history, _schedule(config), "deep_ablation")
    checks.require(out["back"] == rows, "summaries changed in the file round trip")
    checks.check_report(out["csv"], labels)


def deep_ablation_docs(out: dict) -> list[dict]:
    return [doc for _, doc in _arm_docs(out["seed"])]


WORKLOADS = {
    "parity_study": (parity_study, check_parity_study, parity_docs),
    "large_batch": (large_batch, check_large_batch, large_batch_docs),
    "deep_ablation": (deep_ablation, check_deep_ablation, deep_ablation_docs),
}


# -- composite steps against the vector reference -------------------------

def composite_steps(doc: dict, steps: int):
    """Run `steps` composite steps on the doc's model, first batch and peak lr.

    Yields, per step, the groups as the reference takes them (state before
    the step), the step count t before it, the lr, and the program's
    concatenated theta and slots after it.
    """
    cfg = harness.parse_config(harness.deep_copy_config(doc))
    d = cfg.data
    train, _ = model.gen_synthetic_dataset(d.classes, d.features, d.per_class, d.spread, d.seed)
    batch = model.Batch(train.inputs[:cfg.batch_size], train.labels[:cfg.batch_size])
    params = model.init_mlp(cfg.model, rng_seed=cfg.model.init_seed + cfg.base_seed)
    stats = model.BnRunningStats.for_config(cfg.model)
    state = optim.OptimizerState.for_store(params)
    eta = cfg.schedule.eta_peak
    for _ in range(steps):
        _, _, cache, stats = model.forward(params, stats, batch, cfg.model, "train")
        grads = model.backward(cache, params, cfg.model)
        groups = [{"tag": grp.tag, "theta": grp.values.copy(), "g": grads[grp.name].copy(),
                   "v": state.slots[grp.name].v.copy(), "m": state.slots[grp.name].m.copy(),
                   "s": state.slots[grp.name].s.copy()} for grp in params]
        t = state.t
        params, state = optim.composite_step(params, grads, cfg.routing, eta, state)
        checks.require(state.t == t + 1, "composite_step did not advance t by one")
        program = {"theta": np.concatenate([grp.values for grp in params])}
        for slot in ("v", "m", "s"):
            program[slot] = np.concatenate([getattr(state.slots[grp.name], slot)
                                            for grp in params])
        yield groups, t, eta, program


def check_composite_step(doc: dict, steps: int = 3) -> None:
    """Each of `steps` composite steps against the reference from the same state."""
    for groups, t, eta, program in composite_steps(doc, steps):
        reference = checks.reference_composite_step(groups, doc["optimizer"], eta, t)
        checks.check_step_matches(program, reference, f"composite_step t={t}")
