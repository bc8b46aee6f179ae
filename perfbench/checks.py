"""Correctness checks made apart from optparity.

Nothing here calls the package.  Each check recomputes what the program
produced with its own formulas (a vector form of the five update rules,
exact Halton radical inverses, the closed-form schedules, order statistics)
or tests a property the method must have, and raises CheckFailed on a
mismatch.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
from fractions import Fraction

import numpy as np

REL_TOL = 1e-12
PRIMES = (2, 3, 5, 7, 11, 13)  # Halton base of dimension d
REPORT_COLUMNS = ["label", "median", "q1", "q3", "target_fraction", "n"]


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


# -- optimizer: one composite step as a vector over all groups -------------

_RULE_DEFAULTS = {
    "momentum": 0.0, "beta1": 0.9, "beta2": 0.999, "epsilon": 1e-8,
    "bias_correction": True, "trust_coefficient": 0.001, "decay_mode": None,
    "decay": 0.0, "exclude_tags": (),
}


def _route(routes: list[dict], tag: str) -> dict:
    """First route listing the tag, with the documented defaults filled in."""
    for route in routes:
        if tag in route["tags"]:
            cfg = {**_RULE_DEFAULTS, **route["config"]}
            if cfg["decay_mode"] is None:
                adam_family = cfg["kind"] in ("adam", "lamb")
                cfg["decay_mode"] = "decoupled" if adam_family else "l2_into_gradient"
            return cfg
    raise CheckFailed(f"no route covers tag {tag!r}")


def reference_composite_step(groups: list[dict], routes: list[dict], eta: float,
                             t: int) -> dict[str, np.ndarray]:
    """One routed step over the concatenation of all groups.

    `groups` lists dicts with `tag` and flat float64 `theta`, `g`, `v`, `m`,
    `s`; `routes` is the config document's `optimizer` list and `t` the step
    count before the step.  Per-group settings are broadcast to elements, and
    the LARS/LAMB trust ratios come from segment sums over group offsets.
    Returns the new concatenated `theta`, `v`, `m` and `s`.
    """
    sizes = np.array([grp["theta"].size for grp in groups])
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    theta, g, v, m, s = (np.concatenate([grp[k] for grp in groups])
                         for k in ("theta", "g", "v", "m", "s"))
    cfgs = [_route(routes, grp["tag"]) for grp in groups]
    excluded = np.array([grp["tag"] in cfg["exclude_tags"] for grp, cfg in zip(groups, cfgs)])
    decay = np.where(excluded, 0.0, [cfg["decay"] for cfg in cfgs])
    is_l2 = np.array([cfg["decay_mode"] == "l2_into_gradient" for cfg in cfgs])
    kind_of_group = np.array([cfg["kind"] for cfg in cfgs])

    def per_group(key):
        return np.array([float(cfg[key]) for cfg in cfgs])

    def expand(per_group_values):
        return np.repeat(per_group_values, sizes)

    def group_norm(x):
        return np.sqrt(np.add.reduceat(x * x, starts))

    kind = expand(kind_of_group)
    l2 = expand(np.where(is_l2, decay, 0.0))
    wd = expand(np.where(is_l2, 0.0, decay))
    mu, b1, b2, eps = (expand(per_group(k)) for k in ("momentum", "beta1", "beta2", "epsilon"))
    corrected = expand(np.array([bool(cfg["bias_correction"]) for cfg in cfgs]))

    g_eff = g + l2 * theta
    theta_norm = group_norm(theta)

    # momentum family
    v_plain = mu * v + g_eff
    theta_hb = theta - eta * (v_plain + wd * theta)
    theta_nesterov = theta - eta * (mu * v_plain + g_eff + wd * theta)
    g_norm = group_norm(g_eff)
    use_lars_ratio = ~excluded & (theta_norm > 0) & (g_norm > 0)
    lars_ratio = np.where(use_lars_ratio,
                          per_group("trust_coefficient") * theta_norm
                          / np.where(g_norm > 0, g_norm, 1.0), 1.0)
    v_lars = mu * v + (expand(lars_ratio) * eta) * g_eff
    theta_lars = theta - v_lars
    theta_lars = theta_lars - eta * wd * theta_lars

    # Adam family, with the bias correction of step t + 1
    m_new = b1 * m + (1.0 - b1) * g_eff
    s_new = b2 * s + (1.0 - b2) * g_eff * g_eff
    c1 = np.where(corrected, 1.0 - b1 ** (t + 1), 1.0)
    c2 = np.where(corrected, 1.0 - b2 ** (t + 1), 1.0)
    direction = (m_new / c1) / (np.sqrt(s_new / c2) + eps)
    theta_adam = theta - eta * (direction + wd * theta)
    u = direction + wd * theta
    u_norm = group_norm(u)
    use_lamb_ratio = ~excluded & (theta_norm > 0) & (u_norm > 0)
    lamb_ratio = np.where(use_lamb_ratio, theta_norm / np.where(u_norm > 0, u_norm, 1.0), 1.0)
    theta_lamb = theta - eta * expand(lamb_ratio) * u

    kinds = ["heavy_ball", "nesterov", "lars", "adam", "lamb"]
    masks = [kind == k for k in kinds]
    new_theta = np.select(masks, [theta_hb, theta_nesterov, theta_lars, theta_adam, theta_lamb])
    momentum_family = masks[0] | masks[1]
    adam_family = masks[3] | masks[4]
    new_v = np.where(momentum_family, v_plain, np.where(masks[2], v_lars, v))
    return {
        "theta": new_theta,
        "v": new_v,
        "m": np.where(adam_family, m_new, m),
        "s": np.where(adam_family, s_new, s),
    }


def check_step_matches(program: dict[str, np.ndarray], reference: dict[str, np.ndarray],
                       label: str) -> None:
    """Every entry of theta and the slots within REL_TOL of the reference."""
    for key, ref in reference.items():
        got = program[key]
        require(got.shape == ref.shape, f"{label}: {key} shape {got.shape} != {ref.shape}")
        err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
        worst = float(err.max()) if err.size else 0.0
        require(np.all(np.isfinite(got)) and worst <= REL_TOL,
                f"{label}: {key} differs from the vector reference by {worst:.3g} (rel)")


# -- schedule --------------------------------------------------------------

def expected_lr(family: str, eta_peak: float, total_steps: int, t: int, *,
                eta_init: float = 0.0, eta_final: float = 0.0, p_warmup: float = 1.0,
                p_decay: float = 1.0, t_warmup: int = 0) -> float:
    """Closed form of the two schedule families the workloads use."""
    if family == "cosine":
        return eta_peak * (1.0 + math.cos(math.pi * t / total_steps)) / 2.0
    if family == "poly_warmup_decay":
        if t <= t_warmup:
            if t_warmup == 0:
                return eta_peak
            return eta_init + (eta_peak - eta_init) * (t / t_warmup) ** p_warmup
        left = (total_steps - t) / (total_steps - t_warmup)
        return eta_final + (eta_peak - eta_final) * left ** p_decay
    raise CheckFailed(f"no closed form for schedule family {family!r}")


def check_logged_lr(history: list[dict], schedule: dict, label: str) -> None:
    require(len(history) > 0, f"{label}: empty history")
    for entry in history:
        want = expected_lr(t=entry["step"], **schedule)
        require(close(entry["lr"], want),
                f"{label}: lr {entry['lr']!r} at step {entry['step']} != {want!r}")


# -- Halton assignments ----------------------------------------------------

def radical_inverse(index: int, base: int) -> Fraction:
    """Digits of `index` in `base`, mirrored about the radix point, exactly."""
    value, scale = Fraction(0), Fraction(1, base)
    while index:
        index, digit = divmod(index, base)
        value += digit * scale
        scale /= base
    return value


def expected_assignment(dims: list[tuple[str, float, float]], trial_index: int,
                        offset: int = 0) -> dict[str, float]:
    """Log-scaled dims (path, lo, hi) at Halton point trial_index + 1 + offset."""
    point = trial_index + 1 + offset
    return {path: lo * (hi / lo) ** float(radical_inverse(point, PRIMES[d]))
            for d, (path, lo, hi) in enumerate(dims)}


def check_assignment(assignment: dict, dims: list[tuple[str, float, float]],
                     trial_index: int, offset: int = 0) -> None:
    want = expected_assignment(dims, trial_index, offset)
    require(list(assignment) == list(want),
            f"trial {trial_index}: dims {list(assignment)} != {list(want)}")
    for path, value in want.items():
        require(close(assignment[path], value),
                f"trial {trial_index}: {path} = {assignment[path]!r}, Halton gives {value!r}")


# -- training outcomes -----------------------------------------------------

def check_parity(median_accuracy: float, target: float, label: str) -> None:
    require(median_accuracy >= target,
            f"{label}: 5-seed median train accuracy {median_accuracy} < {target}")


def check_above_chance(accuracy: float, classes: int, label: str) -> None:
    floor = 5.0 / classes
    require(accuracy >= floor,
            f"{label}: final accuracy {accuracy} below {floor} (5x chance)")


def check_loss_falls(history: list[dict], label: str) -> None:
    losses = [entry["train_loss"] for entry in history]
    require(len(losses) >= 2 and all(b < a for a, b in zip(losses, losses[1:])),
            f"{label}: train loss does not fall across evaluations: {losses}")


# -- seed summaries, their file round trip and the report ------------------

def order_stats(values: list[float], target: float) -> dict:
    """Median, linear-interpolated quartiles, extremes and target share."""
    xs = sorted(values)
    n = len(xs)

    def quantile(p):
        h = (n - 1) * p
        lo = math.floor(h)
        hi = min(lo + 1, n - 1)
        return xs[lo] + (h - lo) * (xs[hi] - xs[lo])

    return {"median": statistics.median(xs), "q1": quantile(0.25), "q3": quantile(0.75),
            "min": xs[0], "max": xs[-1],
            "target_fraction": sum(x >= target for x in xs) / n, "n_seeds": n}


def check_summary(summary: dict, n_seeds: int, label: str) -> None:
    fields = ("min", "q1", "median", "q3", "max", "target_fraction")
    require(all(math.isfinite(summary[f]) for f in fields),
            f"{label}: non-finite summary field in {summary}")
    require(summary["min"] <= summary["q1"] <= summary["median"]
            <= summary["q3"] <= summary["max"],
            f"{label}: min <= q1 <= median <= q3 <= max fails for {summary}")
    require(summary["n_seeds"] == n_seeds, f"{label}: n_seeds {summary['n_seeds']} != {n_seeds}")
    k = summary["target_fraction"] * n_seeds
    require(abs(k - round(k)) < 1e-9 and 0 <= round(k) <= n_seeds,
            f"{label}: target_fraction {summary['target_fraction']} is not k/{n_seeds}")


def check_summary_matches(summary: dict, values: list[float], target: float,
                          label: str) -> None:
    want = order_stats(values, target)
    for key, value in want.items():
        require(close(summary[key], value),
                f"{label}: {key} {summary[key]!r} != {value!r} from the seed results")


def check_report(csv_text: str, labels: list[str]) -> None:
    rows = list(csv.reader(io.StringIO(csv_text)))
    require(rows and rows[0] == REPORT_COLUMNS, f"report header {rows[:1]}")
    require([r[0] for r in rows[1:]] == labels,
            f"report rows {[r[0] for r in rows[1:]]} != arms {labels}")
