"""Learning-rate schedule engine.

Families:
  - poly_warmup_decay: polynomial warmup to a peak, polynomial decay to a
    final value; continuous at the warmup boundary by construction.
  - cosine: half-cosine from the peak to zero.
  - legacy_bert: linear warmup, but the linear decay is measured from
    step 0 and takes over at the end of warmup, producing a downward jump
    there. Kept on purpose to reproduce the historical behavior; the
    fixed variant is poly_warmup_decay with both powers set to 1.
  - constant.

Schedules are pure functions of the integer step.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import InvalidConfig, OutOfRangeStep

FAMILIES = ("poly_warmup_decay", "cosine", "legacy_bert", "constant")


@dataclass(frozen=True)
class ScheduleSpec:
    family: str
    eta_peak: float
    total_steps: int
    eta_init: float = 0.0
    eta_final: float = 0.0
    p_warmup: float = 1.0
    p_decay: float = 1.0
    t_warmup: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidConfig(f"unknown schedule family {self.family!r}")
        for name in ("eta_init", "eta_peak", "eta_final"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise InvalidConfig(f"{name} must be finite and >= 0")
        if self.eta_peak <= 0:
            raise InvalidConfig("eta_peak must be > 0")
        if self.p_warmup <= 0 or self.p_decay <= 0:
            raise InvalidConfig("powers must be > 0")
        if not 0 <= self.t_warmup < self.total_steps:
            raise InvalidConfig("need total_steps > t_warmup >= 0")
        if self.total_steps > 2**53:  # past it, float64 tells no neighbouring steps apart
            raise InvalidConfig(f"total_steps must be <= 2**53, got {self.total_steps}")


def eval_schedule(spec: ScheduleSpec, t: int) -> float:
    if not 0 <= t <= spec.total_steps:
        raise OutOfRangeStep(f"t={t} outside [0, {spec.total_steps}]")
    if spec.family == "constant":
        return spec.eta_peak
    if spec.family == "cosine":
        return 0.5 * spec.eta_peak * (1.0 + math.cos(math.pi * t / spec.total_steps))
    if spec.family == "legacy_bert":
        if spec.t_warmup > 0 and t < spec.t_warmup:
            return spec.eta_peak * t / spec.t_warmup
        return spec.eta_peak * (1.0 - t / spec.total_steps)
    # poly_warmup_decay
    if t <= spec.t_warmup:
        if spec.t_warmup == 0:
            return spec.eta_peak
        frac = (t / spec.t_warmup) ** spec.p_warmup
        return spec.eta_init + (spec.eta_peak - spec.eta_init) * frac
    frac = ((spec.total_steps - t) / (spec.total_steps - spec.t_warmup)) ** spec.p_decay
    return spec.eta_final + (spec.eta_peak - spec.eta_final) * frac


def max_discontinuity(spec: ScheduleSpec) -> tuple[int, float]:
    """Step with the largest drop/rise between consecutive values.

    For legacy_bert the reported gap at the warmup boundary is the true
    branch discontinuity (the left limit eta_peak minus the decay-branch
    value, i.e. eta_peak * t_warmup / total_steps), not just the discrete
    difference, so the bug's magnitude is exact.
    """
    best_step, best_gap = 0, 0.0
    prev = eval_schedule(spec, 0)
    for t in range(1, spec.total_steps + 1):
        cur = eval_schedule(spec, t)
        gap = abs(cur - prev)
        if gap > best_gap:
            best_step, best_gap = t, gap
        prev = cur
    if spec.family == "legacy_bert" and spec.t_warmup > 0:
        jump = spec.eta_peak - eval_schedule(spec, spec.t_warmup)
        if jump >= best_gap:
            best_step, best_gap = spec.t_warmup, jump
    return best_step, best_gap


def export_schedule(spec: ScheduleSpec, path) -> None:
    """Write the `step,lr` CSV rows (CRLF-ended) of every step in [0, total_steps]."""
    from .harness import write_text  # here, as harness imports this module
    rows = (f"{t},{eval_schedule(spec, t):.17g}\r\n" for t in range(spec.total_steps + 1))
    write_text(path, itertools.chain(["step,lr\r\n"], rows))
