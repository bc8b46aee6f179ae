"""Quasi-random hyperparameter search and multi-seed evaluation.

Trials are drawn from a Halton sequence (dimension d uses the radical
inverse in the d-th prime base) with an index offset acting as a cheap
scramble. Diverged trials are logged and kept out of best-trial
selection; trial budgets elsewhere refer to feasible trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfig, InvalidUnit, NoCompletedTrials, TooManyDims

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


@dataclass
class SearchDim:
    name: str  # dotted config path, e.g. "schedule.eta_peak"
    kind: str  # "continuous" | "discrete_set"
    lo: float = 0.0
    hi: float = 1.0
    values: list = field(default_factory=list)
    scaling: str = "linear"  # "linear" | "log"

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise InvalidConfig(f"search dim name must be a dotted path, got {self.name!r}")
        if self.kind == "continuous":
            if not self.lo < self.hi:
                raise InvalidConfig(f"{self.name}: lo must be < hi")
            if self.scaling == "log" and self.lo <= 0:
                raise InvalidConfig(f"{self.name}: log scaling needs lo > 0")
            if self.scaling not in ("linear", "log"):
                raise InvalidConfig(f"{self.name}: unknown scaling {self.scaling!r}")
        elif self.kind == "discrete_set":
            if not self.values:
                raise InvalidConfig(f"{self.name}: empty value set")
        else:
            raise InvalidConfig(f"{self.name}: unknown kind {self.kind!r}")


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


@dataclass
class SeedSummary:
    median: float
    q1: float
    q3: float
    min: float
    max: float
    target_fraction: float
    n_seeds: int


def radical_inverse(index: int, base: int) -> float:
    f, r = 1.0, 0.0
    i = index
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def halton_point(index: int, n_dims: int) -> np.ndarray:
    """Point `index` (1-based) of the Halton sequence in (0,1)^n."""
    if n_dims > len(_PRIMES):
        raise TooManyDims(f"{n_dims} > {len(_PRIMES)}")
    return np.array([radical_inverse(index, _PRIMES[d]) for d in range(n_dims)])


def map_unit(dim: SearchDim, u: float):
    """Map a unit coordinate onto the dimension's range/value set."""
    if not 0.0 <= u <= 1.0:
        raise InvalidUnit(f"u={u}")
    if dim.kind == "discrete_set":
        n = len(dim.values)
        return dim.values[min(int(u * n), n - 1)]
    if dim.scaling == "log":
        return math.exp(math.log(dim.lo) + u * (math.log(dim.hi) - math.log(dim.lo)))
    return dim.lo + u * (dim.hi - dim.lo)


def sample_trial(space: list[SearchDim], trial_index: int, offset: int = 0) -> dict:
    """Deterministic assignment for one trial: Halton point `index+1+offset`."""
    point = halton_point(trial_index + 1 + offset, len(space))
    return {dim.name: map_unit(dim, point[i]) for i, dim in enumerate(space)}


def run_study(space, base_config: dict, n_trials: int, budget_steps: int,
              target_metric: str = "final_eval_accuracy", offset: int = 0,
              workers: int = 1) -> list[TrialRecord]:
    """Run `n_trials` quasi-random trials of `budget_steps` each.

    `base_config` is the JSON-shaped experiment config dict; each trial
    patches it at the dotted search-dimension paths, plus the step budget
    (budget_steps and schedule.total_steps kept in sync) and a per-trial
    seed base_seed + trial_index. Diverged trials are recorded and the
    study continues.
    """
    if n_trials < 1:
        raise InvalidConfig("n_trials must be >= 1")
    from . import harness  # local import to avoid the module cycle

    jobs = []
    base_seed = int(base_config.get("base_seed", 0))
    for i in range(n_trials):
        assignment = sample_trial(space, i, offset)
        cfg = harness.deep_copy_config(base_config)
        for path, value in assignment.items():
            harness.patch_config(cfg, path, value)
        harness.patch_config(cfg, "budget_steps", budget_steps)
        harness.patch_config(cfg, "schedule.total_steps", budget_steps)
        harness.patch_config(cfg, "base_seed", base_seed + i)
        jobs.append((i, assignment, base_seed + i, cfg))

    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_trial_job, jobs))
    else:
        results = [_run_trial_job(job) for job in jobs]
    return results


def _run_trial_job(job) -> TrialRecord:
    from . import harness

    i, assignment, seed, cfg = job
    try:
        parsed = harness.parse_config(cfg)
        result = harness.run_training(parsed)
    except Exception as exc:
        return TrialRecord(i, assignment, seed, "error", error=f"{type(exc).__name__}: {exc}")
    if result.status == "diverged":
        return TrialRecord(i, assignment, seed, "diverged",
                           steps_run=result.steps_run,
                           diverged_step=result.diverged_step)
    return TrialRecord(
        i, assignment, seed, "completed",
        final_train_accuracy=result.final_train_accuracy,
        final_eval_accuracy=result.final_eval_accuracy,
        final_loss=result.final_loss,
        steps_run=result.steps_run,
    )


def select_best(records: list[TrialRecord], metric: str, mode: str = "max") -> TrialRecord:
    """Best completed trial by `metric`; ties go to the lower trial index."""
    completed = [r for r in records if r.status == "completed"]
    if not completed:
        raise NoCompletedTrials("no completed trials")
    sign = 1.0 if mode == "max" else -1.0
    return max(completed, key=lambda r: (sign * getattr(r, metric), -r.trial_index))


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


def summarize(values: list[float], target: float, mode: str = "max") -> SeedSummary:
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if mode == "max":
        frac = float((arr >= target).mean())
    else:
        frac = float((arr <= target).mean())
    return SeedSummary(
        median=float(np.median(arr)),
        q1=_percentile(arr, 25),
        q3=_percentile(arr, 75),
        min=float(arr.min()),
        max=float(arr.max()),
        target_fraction=frac,
        n_seeds=len(values),
    )


def multi_seed_eval(config: dict, seeds: list[int], target: float,
                    metric: str = "final_eval_accuracy", mode: str = "max") -> SeedSummary:
    """Train once per seed and summarize the metric's order statistics.

    Diverged seeds count as -inf for max-mode metrics (+inf for min).
    """
    if not seeds or len(set(seeds)) != len(seeds):
        raise InvalidConfig("seeds must be non-empty and distinct")
    from . import harness

    fallback = -math.inf if mode == "max" else math.inf
    values = []
    for seed in seeds:
        cfg = harness.deep_copy_config(config)
        harness.patch_config(cfg, "base_seed", seed)
        result = harness.run_training(harness.parse_config(cfg))
        if result.status == "diverged":
            values.append(fallback)
        else:
            values.append(getattr(result, metric))
    return summarize(values, target, mode)
