"""Experiment configuration, the training loop, ablations, and persistence.

The JSON config document mirrors the module boundaries: `model`, `data`,
`optimizer` (an ordered routing list), `schedule`, and the run-level
scalars. Unknown keys are rejected with the dotted path of the offender,
and cross-field rules (step budget vs schedule length, batch vs virtual
batch divisibility, routing coverage) are validated up front.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import (
    ConfigPathUnknown,
    CorruptRecord,
    EmptyInput,
    IoFailure,
    NonFiniteInput,
    DivisionHazard,
    ParseError,
    ValidationError,
)
from .model import (
    Batch,
    BnRunningStats,
    MlpConfig,
    accuracy,
    backward,
    forward,
    gen_synthetic_dataset,
    init_mlp,
)
from .optim import OptimizerConfig, OptimizerState, RoutingRule, apply_step
from .optim import composite_step  # noqa: F401  perfbench/tracing.py wraps this name
from .param_store import TAGS
from .schedule import ScheduleSpec, eval_schedule
from .tuner import SeedSummary, TrialRecord, multi_seed_eval

_MODEL_KEYS = {
    "layer_widths", "use_bn", "bn_gamma_init", "bn_epsilon", "bn_stats_decay",
    "virtual_batch_size", "label_smoothing", "init_seed",
}
_DATA_KEYS = {"classes", "features", "per_class", "spread", "seed"}
_OPT_KEYS = {
    "kind", "momentum", "beta1", "beta2", "epsilon", "bias_correction",
    "trust_coefficient", "decay_mode", "decay", "exclude_tags",
}
_SCHED_KEYS = {
    "family", "eta_init", "eta_peak", "eta_final", "p_warmup", "p_decay",
    "t_warmup", "total_steps",
}
_TOP_KEYS = {
    "model", "data", "optimizer", "schedule", "budget_steps", "batch_size",
    "eval_every", "base_seed", "target_metric", "target_value",
}


@dataclass
class DataConfig:
    classes: int
    features: int
    per_class: int
    spread: float
    seed: int


@dataclass
class ExperimentConfig:
    model: MlpConfig
    data: DataConfig
    routing: RoutingRule
    schedule: ScheduleSpec
    budget_steps: int
    batch_size: int
    eval_every: int = 50
    base_seed: int = 0
    target_metric: str = "final_eval_accuracy"
    target_value: float = 0.0


@dataclass
class TrainResult:
    history: list[dict] = field(default_factory=list)
    status: str = "completed"
    steps_run: int = 0
    diverged_step: int | None = None
    final_train_accuracy: float | None = None
    final_eval_accuracy: float | None = None
    final_loss: float | None = None


def _reject_unknown(section: dict, allowed: set, prefix: str):
    for key in section:
        if key not in allowed:
            raise ValidationError(f"{prefix}{key}", "unknown key")


def _typed(value, kind, path: str, what: str):
    if not isinstance(value, kind):
        raise ValidationError(path, f"must be {what}, got {value!r}")
    return value


def _integer(value, path: str) -> int:
    """An int, or a float with an integral value; never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            isinstance(value, float) and not value.is_integer()):
        raise ValidationError(path, f"must be an integer, got {value!r}")
    return int(value)


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(path, f"must be a number, got {value!r}")
    return float(value)


def parse_config(doc) -> ExperimentConfig:
    """Parse and validate a JSON config document (text or dict)."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ParseError(str(exc)) from exc
    if not isinstance(doc, dict):
        raise ParseError("config must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "")
    for req in ("model", "data", "optimizer", "schedule", "budget_steps", "batch_size"):
        if req not in doc:
            raise ValidationError(req, "missing")
    for key in ("model", "data", "schedule"):
        _typed(doc[key], dict, key, "an object")
    _reject_unknown(doc["model"], _MODEL_KEYS, "model.")
    _reject_unknown(doc["data"], _DATA_KEYS, "data.")
    _reject_unknown(doc["schedule"], _SCHED_KEYS, "schedule.")
    try:
        model = MlpConfig(**doc["model"])
    except Exception as exc:
        raise ValidationError("model", str(exc)) from exc
    try:
        data = DataConfig(**doc["data"])
    except Exception as exc:
        raise ValidationError("data", str(exc)) from exc
    try:
        sched = ScheduleSpec(**doc["schedule"])
    except Exception as exc:
        raise ValidationError("schedule", str(exc)) from exc

    routes = []
    for i, route in enumerate(_typed(doc["optimizer"], list, "optimizer", "a list")):
        prefix = f"optimizer.{i}."
        _typed(route, dict, prefix[:-1], "an object")
        _reject_unknown(route, {"tags", "config"}, prefix)
        tags = _typed(route.get("tags", []), list, prefix + "tags", "a list")
        if not tags or any(tag not in TAGS for tag in tags):
            raise ValidationError(prefix + "tags", f"invalid tag set {sorted(map(str, tags))}")
        tags = frozenset(tags)
        config = _typed(route.get("config", {}), dict, prefix + "config", "an object")
        _reject_unknown(config, _OPT_KEYS, prefix + "config.")
        try:
            cfg = OptimizerConfig(**config)
        except Exception as exc:
            raise ValidationError(prefix + "config", str(exc)) from exc
        routes.append((tags, cfg))
    routing = RoutingRule(routes)
    if not routing.covers_all():
        raise ValidationError("optimizer", "routing does not cover all tags")

    budget = _integer(doc["budget_steps"], "budget_steps")
    batch_size = _integer(doc["batch_size"], "batch_size")
    if budget <= 0:
        raise ValidationError("budget_steps", "must be > 0")
    if sched.total_steps != budget:
        raise ValidationError(
            "schedule.total_steps", f"{sched.total_steps} != budget_steps {budget}"
        )
    if batch_size <= 0 or batch_size % model.virtual_batch_size != 0:
        raise ValidationError(
            "batch_size",
            f"{batch_size} not divisible by virtual_batch_size {model.virtual_batch_size}",
        )
    eval_every = _integer(doc.get("eval_every", 50), "eval_every")
    if eval_every <= 0:
        raise ValidationError("eval_every", "must be > 0")
    return ExperimentConfig(
        model=model,
        data=data,
        routing=routing,
        schedule=sched,
        budget_steps=budget,
        batch_size=batch_size,
        eval_every=eval_every,
        base_seed=_integer(doc.get("base_seed", 0), "base_seed"),
        target_metric=doc.get("target_metric", "final_eval_accuracy"),
        target_value=_number(doc.get("target_value", 0.0), "target_value"),
    )


def deep_copy_config(doc: dict) -> dict:
    return copy.deepcopy(doc)


def patch_config(doc: dict, path: str, value):
    """Set an existing field addressed by a dotted path.

    List elements are addressed by integer index or by `*` (all elements).
    Unknown paths fail fast with ConfigPathUnknown.
    """
    parts = path.split(".")
    _patch(doc, parts, value, path)


def _patch(node, parts, value, full_path):
    key, rest = parts[0], parts[1:]
    if isinstance(node, list):
        if key == "*":
            if not rest:
                raise ConfigPathUnknown(full_path)
            for item in node:
                _patch(item, rest, value, full_path)
            return
        try:
            idx = int(key)
            target = node[idx]
        except (ValueError, IndexError):
            raise ConfigPathUnknown(full_path) from None
        if rest:
            _patch(target, rest, value, full_path)
        else:
            node[idx] = value
        return
    if not isinstance(node, dict) or key not in node:
        raise ConfigPathUnknown(full_path)
    if rest:
        _patch(node[key], rest, value, full_path)
    else:
        node[key] = value


class _BatchStream:
    """Seeded shuffled full passes over the training set, batch-size chunks."""

    def __init__(self, train: Batch, batch_size: int, seed: int):
        self.train = train
        self.batch_size = batch_size
        self.rng = np.random.default_rng(seed)
        self.buffer = np.empty(0, dtype=np.int64)

    def next_batch(self) -> Batch:
        while self.buffer.size < self.batch_size:
            perm = self.rng.permutation(len(self.train))
            self.buffer = np.concatenate([self.buffer, perm])
        idx, self.buffer = self.buffer[: self.batch_size], self.buffer[self.batch_size:]
        return Batch(self.train.inputs[idx], self.train.labels[idx])


def run_training(config: ExperimentConfig) -> TrainResult:
    """The fixed pipeline: seeded data order, forward/backward, routed update.

    The run owns one store, one optimizer state and one gradient vector and
    updates them in place. Any NaN/Inf in the loss, gradients, or parameters
    marks the run diverged; the history is truncated at the last clean eval
    point and no non-finite value is recorded.
    """
    d = config.data
    train, eval_set = gen_synthetic_dataset(
        d.classes, d.features, d.per_class, d.spread, d.seed
    )
    params = init_mlp(config.model, rng_seed=config.model.init_seed + config.base_seed)
    theta = params.flat
    grad = np.empty_like(theta)
    stats = BnRunningStats.for_config(config.model)
    opt_state = OptimizerState.for_store(params)
    stream = _BatchStream(train, config.batch_size, config.base_seed)
    result = TrainResult()

    def evaluate(step: int, lr: float):
        train_logits, train_loss, _, _ = forward(params, stats, train, config.model, mode="eval")
        eval_logits, _, _, _ = forward(params, stats, eval_set, config.model, mode="eval")
        result.history.append({
            "step": step,
            "train_loss": train_loss,
            "train_accuracy": accuracy(train_logits, train.labels),
            "eval_accuracy": accuracy(eval_logits, eval_set.labels),
            "lr": lr,
        })

    for t in range(1, config.budget_steps + 1):
        lr = eval_schedule(config.schedule, t)
        batch = stream.next_batch()
        try:
            # overflow on the way to divergence is classified explicitly
            with np.errstate(all="ignore"):
                # `cache` keeps the last step's temporaries alive until this
                # forward returns, so the allocator reuses their pages
                _, loss, cache, stats = forward(params, stats, batch, config.model, "train")
                if not math.isfinite(loss):
                    raise NonFiniteInput("non-finite loss")
                backward(cache, params, config.model, out=grad)
                apply_step(theta, grad, config.routing, lr, opt_state)
            if not np.isfinite(theta).all():
                raise NonFiniteInput("non-finite parameters")
        except (NonFiniteInput, DivisionHazard, FloatingPointError):
            result.status = "diverged"
            result.diverged_step = t
            result.steps_run = t - 1
            return result
        result.steps_run = t
        if t % config.eval_every == 0 or t == config.budget_steps:
            evaluate(t, lr)

    last = result.history[-1]
    result.final_train_accuracy = last["train_accuracy"]
    result.final_eval_accuracy = last["eval_accuracy"]
    result.final_loss = last["train_loss"]
    return result


def run_ablation(base_config: dict, overrides: list[tuple[str, str, object]],
                 seeds: list[int]) -> list[tuple[str, SeedSummary]]:
    """Base plus one-at-a-time single-field overrides, each multi-seed."""
    # validate every path before any training run
    for label, path, value in overrides:
        probe = deep_copy_config(base_config)
        patch_config(probe, path, value)
    parsed = parse_config(deep_copy_config(base_config))
    target, metric = parsed.target_value, parsed.target_metric
    rows = [("Base", multi_seed_eval(base_config, seeds, target, metric))]
    for label, path, value in overrides:
        cfg = deep_copy_config(base_config)
        patch_config(cfg, path, value)
        rows.append((label, multi_seed_eval(cfg, seeds, target, metric)))
    return rows


def write_results(records: list[TrialRecord], path) -> None:
    """Append trial records to a JSON Lines log."""
    try:
        with open(path, "a") as f:
            for rec in records:
                f.write(json.dumps(asdict(rec)) + "\n")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def read_results(path) -> list[TrialRecord]:
    try:
        with open(path) as f:
            lines = f.readlines()
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    records = []
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            d = json.loads(line)
            records.append(TrialRecord(**d))
        except (json.JSONDecodeError, TypeError) as exc:
            raise CorruptRecord(i, str(exc)) from exc
    return records


def write_summaries(rows: list[tuple[str, SeedSummary]], path) -> None:
    doc = [{"label": label, **asdict(s)} for label, s in rows]
    try:
        with open(path, "w") as f:
            json.dump(doc, f, indent=2)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def read_summaries(path) -> list[tuple[str, SeedSummary]]:
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise CorruptRecord(1, str(exc)) from exc
    if not isinstance(doc, list):
        raise ParseError(f"{path}: summaries must be a JSON list")
    rows = []
    for i, d in enumerate(doc):
        try:
            d = dict(d)
            label = d.pop("label")
            rows.append((label, SeedSummary(**d)))
        except (TypeError, ValueError, KeyError) as exc:
            raise ParseError(f"{path}: summary {i}: {type(exc).__name__}: {exc}") from exc
    return rows


_REPORT_COLS = ("label", "median", "q1", "q3", "target_fraction", "n")


def report(rows: list[tuple[str, SeedSummary]]) -> tuple[str, str]:
    """Render summaries as an aligned text table and as CSV."""
    if not rows:
        raise EmptyInput("nothing to report")
    table = [_REPORT_COLS]
    for label, s in rows:
        table.append((
            str(label),
            f"{s.median:.6g}",
            f"{s.q1:.6g}",
            f"{s.q3:.6g}",
            f"{s.target_fraction:.3f}",
            str(s.n_seeds),
        ))
    widths = [max(len(r[c]) for r in table) for c in range(len(_REPORT_COLS))]
    text_lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in table
    ]
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in table:
        writer.writerow(row)
    return "\n".join(text_lines) + "\n", buf.getvalue()
