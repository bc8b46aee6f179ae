"""Experiment configuration, the training loop, the job runner, and persistence.

Every JSON input (configs, search spaces, summaries, trial logs) is read by
`read_as` against the dataclass declarations: each key by its field's type,
an unknown or missing key named by its dotted path, each range by the
dataclass's own `__post_init__`. `parse_config` adds the cross-field rules
(step budget vs schedule length, batch vs virtual batch, routing coverage).
Every file is read by `_read_bytes` (under `read_json` and `read_results`)
and written by `write_text`, as UTF-8, and every JSON text is decoded by
`decode_json`. An IoFailure names the file once; a parse or validation error
names the field or line, and the caller the file.
"""

from __future__ import annotations

import copy
import csv
import functools
import io
import json
import math
import types
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass

import numpy as np

from .errors import (
    ConfigPathUnknown,
    CorruptRecord,
    EmptyInput,
    InvalidConfig,
    IoFailure,
    NonFiniteInput,
    DivisionHazard,
    OptparityError,
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
    usable_cpus,
)
from .optim import OptimizerConfig, OptimizerState, RoutingRule, apply_step
from .optim import composite_step  # noqa: F401  perfbench/tracing.py wraps this name
from .param_store import TAGS, all_finite
from .schedule import ScheduleSpec, eval_schedule

# the TrainResult fields a study selects on and a summary reduces, each with
# the way it gets better: +1 when higher is better, -1 when lower is
RESULT_METRICS = {"final_train_accuracy": 1, "final_eval_accuracy": 1, "final_loss": -1}


@dataclass
class DataConfig:
    classes: int
    features: int
    per_class: int
    spread: float
    seed: int

    def __post_init__(self):
        if self.classes < 2 or self.features < 1:
            raise InvalidConfig(f"classes must be >= 2 and features >= 1, "
                                f"got {self.classes} and {self.features}")
        if self.classes * self.per_class < 5:
            raise InvalidConfig("classes * per_class must be >= 5, "
                                "or the eval split (one fifth) is empty")
        if not self.spread > 0:
            raise InvalidConfig(f"spread must be > 0, got {self.spread}")


@dataclass
class Route:
    """One item of a config's `optimizer` list: a tag set and its rule."""
    tags: frozenset[str]
    config: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self):
        if not self.tags or not self.tags <= set(TAGS):
            raise InvalidConfig(f"invalid tag set {sorted(self.tags)}")


@dataclass
class ExperimentConfig:
    """The config document's fields, and `routing`: the rule its routes make."""
    model: MlpConfig
    data: DataConfig
    optimizer: list[Route]
    schedule: ScheduleSpec
    budget_steps: int
    batch_size: int
    eval_every: int = 50
    base_seed: int = 0
    target_metric: str = "final_eval_accuracy"
    target_value: float = 0.0
    routing: RoutingRule = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.routing = RoutingRule([(route.tags, route.config) for route in self.optimizer])


@dataclass
class TrainResult:
    history: list[dict] = field(default_factory=list)
    status: str = "completed"
    steps_run: int = 0
    diverged_step: int | None = None
    final_train_accuracy: float | None = None
    final_eval_accuracy: float | None = None
    final_loss: float | None = None


@dataclass
class TrialRecord:
    trial_index: int
    assignment: dict
    seed: int
    status: str  # "completed" | "diverged" | "error"
    final_train_accuracy: float | None = None
    final_eval_accuracy: float | None = None
    final_loss: float | None = None
    steps_run: int = 0
    diverged_step: int | None = None
    error: str | None = None  # "<ExceptionType>: <message>" of an "error" trial

    def __post_init__(self):
        if self.status not in ("completed", "diverged", "error"):
            raise InvalidConfig(f"status must be completed, diverged or error, "
                                f"got {_shown(self.status)}")
        if self.status == "completed":
            missing = [name for name in RESULT_METRICS if getattr(self, name) is None]
            if missing:
                raise InvalidConfig(f"a completed trial needs {', '.join(missing)}")
        for name, least in (("trial_index", 0), ("seed", 0), ("steps_run", 0),
                            ("diverged_step", 1)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise InvalidConfig(f"{name} must be >= {least}, got {_shown(value)}")


# An order statistic over seeds, where a diverged seed counts as the metric's
# worst value, -inf or +inf: the one kind of float field that may be infinite.
OrderStat = typing.NewType("OrderStat", float)
# one `ablate --overrides` item: [label, dotted path, value], the value any JSON value
Override = tuple[str, str, object]


@dataclass
class SeedSummary:
    median: OrderStat
    q1: OrderStat
    q3: OrderStat
    min: OrderStat
    max: OrderStat
    target_fraction: float
    n_seeds: int

    def __post_init__(self):
        if self.n_seeds < 1:
            raise InvalidConfig(f"n_seeds must be >= 1, got {self.n_seeds}")
        if not 0.0 <= self.target_fraction <= 1.0:
            raise InvalidConfig(f"target_fraction must be in [0, 1], got {self.target_fraction}")
        stats = (self.min, self.q1, self.median, self.q3, self.max)
        if not stats[0] <= stats[1] <= stats[2] <= stats[3] <= stats[4]:
            raise InvalidConfig(f"min <= q1 <= median <= q3 <= max must hold, got {stats}")


# an error message echoes at most this many characters of a value
SHOWN_CHARS = 80


def _cut(text: str) -> str:
    """`text` for an error message, cut after SHOWN_CHARS characters with a
    marker that gives its whole length, so that one error line stays short
    however long the text."""
    if len(text) <= SHOWN_CHARS:
        return text
    return f"{text[:SHOWN_CHARS]}... ({len(text):,} characters)"


def _shown(value) -> str:
    """repr(value) for an error message, cut as `_cut` cuts it."""
    return _cut(repr(value))


def _shown_path(path: str) -> str:
    """A dotted path for an error message, each of its keys cut as `_cut` cuts it."""
    return ".".join(map(_cut, path.split(".")))


def _typed(value, kind, path: str, what: str):
    if not isinstance(value, kind):
        raise ValidationError(path, f"must be {what}, got {_shown(value)}")
    return value


def _integer(value, path: str) -> int:
    """An int, or a float with an integral value; never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            isinstance(value, float) and not value.is_integer()):
        raise ValidationError(path, f"must be an integer, got {_shown(value)}")
    return int(value)


def _number(value, path: str) -> float:
    """An int or float, never a bool, as a float; an int past float range is +-inf."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(path, f"must be a number, got {_shown(value)}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _finite(value, path: str) -> float:
    value = _number(value, path)
    if not math.isfinite(value):
        raise ValidationError(path, f"must be finite, got {value}")
    return value


def _order_stat(value, path: str) -> float:
    value = _number(value, path)
    if math.isnan(value):
        raise ValidationError(path, "must be a number or +-inf, got nan")
    return value


_READERS = {int: _integer, float: _finite, OrderStat: _order_stat,
            object: lambda value, path: value}


def _seed(value, path: str) -> int:
    seed = _integer(value, path)
    if seed < 0:
        raise ValidationError(path, f"must be >= 0, got {seed}")
    return seed


# how an error message names each declared type that is not a list or union
_KINDS = {bool: "a bool", str: "a string", dict: "an object", list: "a list",
          type(None): "null", int: "an integer", float: "a finite number",
          OrderStat: "a number"}


def _what(hint) -> str:
    if typing.get_origin(hint) in (list, frozenset):
        return f"a list of {_what(typing.get_args(hint)[0]).split(' ', 1)[1]}s"
    return _KINDS[hint]


def read_as(value, hint, path: str):
    """The decoded JSON `value` at the dotted `path` read as the declared type
    `hint`, or a ValidationError at the path: int through _integer, float
    through _finite, OrderStat through _order_stat; bool, str, dict, None and a
    bare list as they are, and any value as object; list[X] and frozenset[X]
    from a JSON list, item i at `path.i`; tuple[X, Y, ...] from a JSON list of
    as many items, item i read as the i-th type; a union as its first
    alternative that fits; a dataclass through _section."""
    return _reader(hint)(value, path)


@functools.cache
def _reader(hint):
    """read_as for one declared type, built once per type."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:
        # only the alternatives of the value's shape, list or not, can fit it
        options = [(_reader(a), a is list or typing.get_origin(a) in (list, frozenset))
                   for a in args]

        def read_union(value, path):
            for read, takes_list in options:
                if takes_list == isinstance(value, list):
                    try:
                        return read(value, path)
                    except ValidationError:
                        pass
            raise ValidationError(path, f"must be {' or '.join(map(_what, args))}, "
                                        f"got {_shown(value)}")
        return read_union
    if origin in (list, frozenset):
        read_item = _reader(args[0])
        return lambda value, path: origin([read_item(v, f"{path}.{i}") for i, v
                                           in enumerate(_typed(value, list, path, "a list"))])
    if origin is tuple:
        read_items = [_reader(a) for a in args]

        def read_tuple(value, path):
            if len(_typed(value, list, path, "a list")) != len(read_items):
                raise ValidationError(path, f"must be a list of {len(read_items)} items, "
                                            f"got {_shown(value)}")
            return tuple(read(v, f"{path}.{i}")
                         for i, (read, v) in enumerate(zip(read_items, value)))
        return read_tuple
    if is_dataclass(hint):
        return lambda value, path: _section(value, hint, path)
    return _READERS.get(hint) or (lambda value, path: _typed(value, hint, path, _KINDS[hint]))


_hints = functools.cache(typing.get_type_hints)  # a dataclass's field types by name


@functools.cache
def _declared(cls) -> tuple[dict, tuple]:
    """The reader of each init field of the dataclass `cls` by name, and the
    names of the fields that have no default, in declaration order."""
    hints = _hints(cls)
    return ({f.name: _reader(hints[f.name]) for f in fields(cls) if f.init},
            tuple(f.name for f in fields(cls)
                  if f.default is MISSING and f.default_factory is MISSING and f.init))


def _section(doc, cls, path: str):
    """The dataclass `cls` built from the JSON object `doc` at `path` ("" for
    a whole document): each key read as its field's declared type, an unknown
    or missing key rejected, and a failed range check of `cls` raised at `path`."""
    readers, required = _declared(cls)
    prefix = f"{path}." if path else ""
    values = {}
    for key, value in _typed(doc, dict, path, "an object").items():
        if key not in readers:
            raise ValidationError(prefix + _cut(key), "unknown key")
        values[key] = readers[key](value, prefix + key)
    for name in required:
        if name not in values:
            raise ValidationError(prefix + name, "missing")
    try:
        return cls(**values)
    except OptparityError as exc:  # what the range checks raise
        raise ValidationError(path, str(exc)) from exc


def seed_of(doc: dict) -> int:
    """A config document's base_seed: an integer >= 0, 0 when it is left out."""
    return _seed(doc.get("base_seed", ExperimentConfig.base_seed), "base_seed")


def check_metric(name, path: str) -> str:
    """`name` if it names one of RESULT_METRICS; a ValidationError at `path` if not."""
    if not isinstance(name, str) or name not in RESULT_METRICS:
        raise ValidationError(path,
                              f"must be one of {', '.join(RESULT_METRICS)}, "
                              f"got {_shown(name)}")
    return name


def parse_config(doc) -> ExperimentConfig:
    """Parse and validate a decoded JSON config document, a dict."""
    if not isinstance(doc, dict):
        raise ParseError("config must be a JSON object")
    config = _section(doc, ExperimentConfig, "")
    model, data, budget = config.model, config.data, config.budget_steps
    if not config.routing.covers_all():
        raise ValidationError("optimizer", "routing does not cover all tags")
    for path, seed in (("base_seed", config.base_seed), ("model.init_seed", model.init_seed),
                       ("data.seed", data.seed)):
        _seed(seed, path)
    widths = model.layer_widths
    if data.features != widths[0]:
        raise ValidationError("data.features",
                              f"{data.features} != model.layer_widths[0] {widths[0]}")
    if data.classes > widths[-1]:
        raise ValidationError("data.classes", f"must be <= model.layer_widths[-1] "
                                              f"{widths[-1]}, got {data.classes}")
    # the generated inputs and the logits over them are (classes * per_class, width)
    # float64 arrays
    width = max(widths[0], widths[-1])
    most = np.iinfo(np.intp).max // (data.classes * width * 8)
    if data.per_class > most:
        raise ValidationError("data.per_class", f"must be <= {most}, the most rows per class "
                                                f"for which {data.classes} classes of {width} "
                                                "float64 values fit numpy's array size limit")
    if budget <= 0:
        raise ValidationError("budget_steps", "must be > 0")
    if config.schedule.total_steps != budget:
        raise ValidationError(
            "schedule.total_steps", f"{config.schedule.total_steps} != budget_steps {budget}"
        )
    if config.batch_size <= 0 or config.batch_size % model.virtual_batch_size != 0:
        raise ValidationError(
            "batch_size",
            f"{config.batch_size} not divisible by virtual_batch_size "
            f"{model.virtual_batch_size}",
        )
    # the batch buffer and the train workspace hold (batch_size, width) float64 arrays
    if config.batch_size * max(widths) * 8 > np.iinfo(np.intp).max:
        raise ValidationError("batch_size", f"{config.batch_size} rows of {max(widths)} "
                                            "float64 values exceed numpy's array size limit")
    if config.eval_every <= 0:
        raise ValidationError("eval_every", "must be > 0")
    check_metric(config.target_metric, "target_metric")
    return config


def deep_copy_config(doc: dict) -> dict:
    return copy.deepcopy(doc)


def patch_config(doc: dict, path: str, value):
    """Set the field a dotted path addresses, walking the document beside the
    dataclass declarations from ExperimentConfig down.

    List items are addressed by integer index or by `*` (all items). A last
    key that its section's dataclass declares is set even where the document
    leaves it to its default. Any other path (an undeclared key, a section
    missing above the last key, an index past a list's end) fails fast with
    ConfigPathUnknown, which names the path with each key cut as `_cut` cuts it.
    """
    _patch(doc, ExperimentConfig, path.split("."), value, _shown_path(path))


def _patch(node, hint, parts, value, full_path):
    key, rest = parts[0], parts[1:]
    if isinstance(node, list):
        item = (typing.get_args(hint) or (None,))[0]
        if key == "*":
            if not rest:
                raise ConfigPathUnknown(full_path)
            for target in node:
                _patch(target, item, rest, value, full_path)
            return
        try:
            idx = int(key)
            target = node[idx]
        except (ValueError, IndexError):
            raise ConfigPathUnknown(full_path) from None
        if rest:
            _patch(target, item, rest, value, full_path)
        else:
            node[idx] = value
        return
    declared = _declared(hint)[0] if is_dataclass(hint) else {}
    if not isinstance(node, dict) or key not in declared or rest and key not in node:
        raise ConfigPathUnknown(full_path)
    if rest:
        _patch(node[key], _hints(hint)[key], rest, value, full_path)
    else:
        node[key] = value


class _BatchStream:
    """Seeded shuffled full passes over the training set, batch-size chunks.

    Every batch is the same `Batch`, refilled in place and not validated
    again: its rows come from `train`, which was validated when it was built.
    """

    def __init__(self, train: Batch, batch_size: int, seed: int):
        self.train = train
        self.batch_size = batch_size
        self.rng = np.random.default_rng(seed)
        self.buffer = np.empty(0, dtype=np.int64)
        self.batch = object.__new__(Batch)
        self.batch.inputs = np.empty((batch_size, train.inputs.shape[1]))
        self.batch.labels = np.empty(batch_size, dtype=np.int64)

    def next_batch(self) -> Batch:
        while self.buffer.size < self.batch_size:
            perm = self.rng.permutation(len(self.train))
            self.buffer = np.concatenate([self.buffer, perm])
        idx, self.buffer = self.buffer[: self.batch_size], self.buffer[self.batch_size:]
        # every index is in range, and mode="clip" lets take write `out` unbuffered
        self.train.inputs.take(idx, axis=0, out=self.batch.inputs, mode="clip")
        self.train.labels.take(idx, out=self.batch.labels, mode="clip")
        return self.batch


def run_training(config: ExperimentConfig) -> TrainResult:
    """The fixed pipeline: seeded data order, forward/backward, routed update.

    The run owns one store, one optimizer state and one gradient vector and
    updates them in place. Any NaN/Inf in the loss, gradients, or parameters,
    or at a BN input or the logits of a step's or an eval point's forward pass,
    marks the run diverged at that step; the history is truncated at the last
    clean eval point and no non-finite value is recorded. A `data.spread` that
    overflows the generated inputs raises ValidationError before any step.
    """
    d = config.data
    with np.errstate(over="ignore"):  # an overflowing spread is rejected below
        train, eval_set = gen_synthetic_dataset(d.classes, d.features, d.per_class,
                                                d.spread, d.seed)
    if not (all_finite(train.inputs) and all_finite(eval_set.inputs)):
        raise ValidationError("data.spread", f"{_shown(d.spread)} overflows the generated inputs")
    params = init_mlp(config.model, rng_seed=config.model.init_seed + config.base_seed)
    theta = params.flat
    grad = np.empty_like(theta)
    stats = BnRunningStats.for_config(config.model)
    opt_state = OptimizerState.for_store(params)
    stream = _BatchStream(train, config.batch_size, config.base_seed)
    result = TrainResult()

    def evaluate(step: int, lr: float):
        train_logits, train_loss, _, _ = forward(params, stats, train, config.model, mode="eval")
        if not math.isfinite(train_loss):  # finite logits far apart can still give one
            raise NonFiniteInput("non-finite loss")
        eval_logits, _, _, _ = forward(params, stats, eval_set, config.model, mode="eval")
        result.history.append({
            "step": step,
            "train_loss": train_loss,
            "train_accuracy": accuracy(train_logits, train.labels),
            "eval_accuracy": accuracy(eval_logits, eval_set.labels),
            "lr": lr,
        })

    mlp, routing, budget, every = (config.model, config.routing, config.budget_steps,
                                   config.eval_every)
    # overflow on the way to divergence is classified explicitly
    with np.errstate(all="ignore"):
        for t in range(1, budget + 1):
            lr = eval_schedule(config.schedule, t)
            batch = stream.next_batch()
            try:
                _, loss, cache, stats = forward(params, stats, batch, mlp, "train")
                if not math.isfinite(loss):
                    raise NonFiniteInput("non-finite loss")
                backward(cache, params, mlp, out=grad)
                apply_step(theta, grad, routing, lr, opt_state)
                if not all_finite(theta):
                    raise NonFiniteInput("non-finite parameters")
                if t % every == 0 or t == budget:
                    evaluate(t, lr)
            except (NonFiniteInput, DivisionHazard):
                result.status = "diverged"
                result.diverged_step = t
                result.steps_run = t - 1
                return result
            result.steps_run = t

    last = result.history[-1]
    result.final_train_accuracy = last["train_accuracy"]
    result.final_eval_accuracy = last["eval_accuracy"]
    result.final_loss = last["train_loss"]
    return result


def expand_jobs(base: dict, jobs: list[tuple[dict, int]]
                ) -> list[ExperimentConfig | ParseError | ValidationError]:
    """Per job (patches, seed), `base` copied, patched at each dotted path and
    parsed with the seed as its base_seed; or the ParseError or ValidationError
    of an unknown path, a patch at base_seed or a config that does not parse.
    Every config is parsed before any job runs."""
    expanded = []
    for patches, seed in jobs:
        doc = deep_copy_config(base)
        try:
            if "base_seed" in patches:
                raise ValidationError("base_seed", "the job's seed sets it, so no patch may")
            for path, value in patches.items():
                patch_config(doc, path, value)
            doc["base_seed"] = seed  # a config may leave it out: it defaults to 0
            expanded.append(parse_config(doc))
        except (ParseError, ValidationError) as exc:
            expanded.append(exc)
    return expanded


def run_jobs(jobs: list[ExperimentConfig | ParseError | ValidationError],
             workers: int = 1) -> list:
    """Each job's TrainResult or run's exception, and a job that is an error
    as it is, in job order. At most `usable_cpus()` spawned processes run,
    and the results do not depend on their number."""
    if workers < 1:
        raise InvalidConfig(f"workers must be >= 1, got {workers}")
    configs = [job for job in jobs if not isinstance(job, Exception)]
    workers = min(workers, usable_cpus())
    if workers > 1:
        import multiprocessing  # here, so that a sequential run never loads it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("spawn"),
                                 initializer=_start_pool_process, initargs=(workers,)) as pool:
            ran = iter(list(pool.map(_run_job, configs)))
    else:
        ran = iter([_run_job(config) for config in configs])
    return [job if isinstance(job, Exception) else next(ran) for job in jobs]


def _start_pool_process(workers: int):
    """Run in each pool process: a pool filling the usable CPUs leaves no core
    for the model's worker thread, so wide steps run in one piece there."""
    if workers >= usable_cpus():
        from . import model
        model._USE_WORKER = False


def _run_job(config: ExperimentConfig):
    try:
        return run_training(config)  # looked up per call, so that it can be wrapped
    except Exception as exc:  # one failed run must not stop the others
        return exc


def _arm_summaries(base: dict, arms: list[tuple[str, dict]], seeds: list[int], target=None,
                   metric=None) -> list[SeedSummary]:
    """Each arm, (label, patches on `base`), once per seed, arm-major,
    summarized; the first invalid config raises before any run, naming the
    arm by its label and patches when it has patches. `target` and `metric`
    default to the first arm's. A diverged seed counts as the metric's worst
    value."""
    if not seeds or len(set(seeds)) != len(seeds):
        raise InvalidConfig("seeds must be non-empty and distinct")
    jobs = expand_jobs(base, [(patches, seed) for _, patches in arms for seed in seeds])
    for i, job in enumerate(jobs):
        if isinstance(job, Exception):
            label, patches = arms[i // len(seeds)]
            if not patches:
                raise job
            # a cut path that the job's error names as unknown is named there only
            unknown = job.path if isinstance(job, ConfigPathUnknown) else None
            shown = [(_shown_path(path), path, value) for path, value in patches.items()]
            named = ", ".join(f"{cut} = {_shown(value)}" for cut, path, value in shown
                              if cut == path or cut != unknown)
            arm = f"arm {_shown(label)}" + (f" ({named})" if named else "")
            raise ValidationError(arm, str(job)) from job
    target = jobs[0].target_value if target is None else target
    metric = check_metric(metric or jobs[0].target_metric, "metric")
    worst = -math.inf * RESULT_METRICS[metric]
    values = []
    for result in run_jobs(jobs):
        if isinstance(result, Exception):
            raise result
        values.append(worst if result.status == "diverged" else getattr(result, metric))
    n = len(seeds)
    return [summarize(values[i:i + n], target, metric) for i in range(0, len(values), n)]


def multi_seed_eval(config: dict, seeds: list[int], target: float,
                    metric: str = "final_eval_accuracy") -> SeedSummary:
    """Train once per seed and summarize the metric's order statistics."""
    return _arm_summaries(config, [("Base", {})], seeds, target, metric)[0]


def run_ablation(base_config: dict, overrides: list[Override],
                 seeds: list[int]) -> list[tuple[str, SeedSummary]]:
    """Base plus one-at-a-time single-field overrides, each multi-seed and
    summarized by the Base config's target value and metric."""
    arms = [("Base", {})] + [(label, {path: value}) for label, path, value in overrides]
    return list(zip([label for label, _ in arms], _arm_summaries(base_config, arms, seeds)))


def _percentile(xs: np.ndarray, q: float) -> float:
    """np.percentile(xs, q, method="linear") on sorted `xs`, except at infinities.

    numpy interpolates a diverged seed's -inf (or +inf) and a neighbour to
    nan, even at weight 0. Here a percentile that falls on or beside an
    infinite value is that value, so min <= q1 <= median <= q3 <= max holds.
    Finite neighbours interpolate exactly as numpy's lerp does.
    """
    pos = (xs.size - 1) * (q / 100.0)
    i = math.floor(pos)
    t = pos - i
    a, b = float(xs[i]), float(xs[min(i + 1, xs.size - 1)])
    if t == 0.0 or a == b:
        return a
    if math.isinf(a) or math.isinf(b):
        return a if math.isinf(a) else b
    diff = b - a
    return b - diff * (1.0 - t) if t >= 0.5 else a + diff * t


def summarize(values: list[float], target: float, metric="final_eval_accuracy") -> SeedSummary:
    """The values' order statistics and the share at or beyond `target` for `metric`."""
    better = RESULT_METRICS[check_metric(metric, "metric")]
    arr = np.sort(np.asarray(values, dtype=np.float64))
    frac = float((better * arr >= better * target).mean())
    return SeedSummary(
        median=_percentile(arr, 50),
        q1=_percentile(arr, 25),
        q3=_percentile(arr, 75),
        min=float(arr.min()),
        max=float(arr.max()),
        target_fraction=frac,
        n_seeds=len(values),
    )


def _read_bytes(path) -> bytes:
    """The bytes of the file at `path`; IoFailure naming it if it cannot be read."""
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as exc:
        raise IoFailure(f"{path}: {exc.strerror}") from exc


def decode_json(text: str):
    """The JSON value `text` holds: ParseError if it is no JSON or is nested
    past the recursion limit. The package's one JSON decoder."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(str(exc)) from exc


def read_json(path):
    """The JSON document in the UTF-8 file at `path`: IoFailure if it cannot
    be read, ParseError if it is no UTF-8 or no JSON."""
    try:
        text = _read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(str(exc)) from exc
    return decode_json(text)


def write_text(path, text: str | typing.Iterable[str], mode: str = "w") -> None:
    """Write `text`, a string or strings in turn, to `path` as UTF-8 with no
    newline translation ("a" appends); IoFailure naming the file if it fails."""
    try:
        with open(path, mode, encoding="utf-8", newline="") as f:
            f.writelines([text] if isinstance(text, str) else text)
    except OSError as exc:
        raise IoFailure(f"{path}: {exc.strerror}") from exc


def write_results(records: list[TrialRecord], path) -> None:
    """Append trial records to a JSON Lines log."""
    write_text(path, (json.dumps(asdict(rec)) + "\n" for rec in records), mode="a")


def read_results(path) -> list[TrialRecord]:
    """A JSON Lines trial log's records; CorruptRecord at its first bad line."""
    data = _read_bytes(path)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptRecord(data.count(b"\n", 0, exc.start) + 1, str(exc)) from exc
    records = []
    lines = io.StringIO(text, newline=None).readlines()  # the lines text-mode open reads
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(_section(decode_json(line), TrialRecord, "record"))
        except (ParseError, ValidationError) as exc:
            raise CorruptRecord(i, str(exc)) from exc
    return records


def write_summaries(rows: list[tuple[str, SeedSummary]], path) -> None:
    doc = [{"label": label, **asdict(s)} for label, s in rows]
    write_text(path, json.dumps(doc, indent=2))


def read_summaries(path) -> list[tuple[str, SeedSummary]]:
    """A summaries file's rows; ParseError naming the field of a bad row."""
    doc = read_json(path)
    rows = []
    try:
        for i, row in enumerate(read_as(doc, list[dict], "summaries")):
            if "label" not in row:
                raise ValidationError(f"summaries.{i}.label", "missing")
            label = read_as(row["label"], str, f"summaries.{i}.label")
            summary = {key: value for key, value in row.items() if key != "label"}
            rows.append((label, _section(summary, SeedSummary, f"summaries.{i}")))
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc
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
