"""Quasi-random hyperparameter search.

Trials are drawn from a Halton sequence (dimension d uses the radical
inverse in the d-th prime base) with an index offset acting as a cheap
scramble. Diverged trials are logged and kept out of best-trial
selection; trial budgets elsewhere refer to feasible trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import harness
from .errors import InvalidConfig, InvalidUnit, NoCompletedTrials, TooManyDims, ValidationError
from .harness import SeedSummary, TrialRecord, multi_seed_eval, summarize  # noqa: F401

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
        if self.name in ("base_seed", "budget_steps", "schedule.total_steps"):
            raise InvalidConfig(f"{self.name}: a study sets it, so no search dimension may")
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

    Each trial patches `base_config`, a JSON-shaped config dict, at the
    search-dimension paths and at the step budget (budget_steps and
    schedule.total_steps), which no dimension may name, and runs as its own
    job with the seed base_seed + trial_index. A trial
    whose config does not parse is recorded as an error; if none parses,
    the first trial's error is raised before any run. A diverged trial is
    recorded and the study goes on.
    """
    if n_trials < 1:
        raise InvalidConfig("n_trials must be >= 1")
    if offset < 0:  # Halton points 1 + offset + i <= 0 would all be point 0
        raise InvalidConfig(f"offset must be >= 0, got {offset}")
    harness.check_metric(target_metric, "target_metric")
    base_seed = harness.seed_of(base_config)
    budget_steps = harness.read_as(budget_steps, int, "budget_steps")
    if budget_steps < 1:  # in parse_config's words, before the schedule check blames the config
        raise ValidationError("budget_steps", "must be > 0")
    assignments = [sample_trial(space, i, offset) for i in range(n_trials)]
    jobs = harness.expand_jobs(base_config, [
        ({**assignment, "budget_steps": budget_steps, "schedule.total_steps": budget_steps},
         base_seed + i) for i, assignment in enumerate(assignments)])
    if all(isinstance(job, Exception) for job in jobs):
        raise jobs[0]
    results = harness.run_jobs(jobs, workers)
    return [_trial_record(i, assignment, base_seed + i, result)
            for i, (assignment, result) in enumerate(zip(assignments, results))]


def _trial_record(i: int, assignment: dict, seed: int, result) -> TrialRecord:
    if isinstance(result, Exception):
        return TrialRecord(i, assignment, seed, "error",
                           error=f"{type(result).__name__}: {result}")
    return TrialRecord(i, assignment, seed,
                       **{k: v for k, v in vars(result).items() if k != "history"})


def select_best(records: list[TrialRecord], metric: str) -> TrialRecord:
    """Best completed trial by `metric`; ties go to the lower trial index."""
    better = harness.RESULT_METRICS[harness.check_metric(metric, "metric")]
    completed = [r for r in records if r.status == "completed"]
    if not completed:
        raise NoCompletedTrials("no completed trials")
    return max(completed, key=lambda r: (better * getattr(r, metric), -r.trial_index))
