"""Inputs of the three workloads, built from the benchmark seed.

Only the standard library is imported here: the set-up probe loads this
module before it starts its clock, so that the clock covers the import of
numpy and optparity and nothing else.

Every workload keeps the shape of its work fixed (steps, widths, batch,
trial and seed counts); the seed moves only values, so two seeds cost the
same and a seed never changes how many runs a round makes.
"""

from __future__ import annotations

import copy

# -- parity_study: acceptance test 10 at a reduced trial count -------------

PARITY_STEPS = 500
PARITY_TRIALS = 2
# The paper experiment evaluates each tuned point on seeds 0-4.  Every one of
# the first seven Halton points of both spaces reaches a 5-seed median train
# accuracy of at least 0.99 on these seeds, so the parity check holds
# whichever of the first PARITY_TRIALS trials wins on a given benchmark seed.
PARITY_EVAL_SEEDS = (0, 1, 2, 3, 4)
PARITY_TARGET = 0.99

_ALL_TAGS = ["weight", "bias", "bn_scale", "bn_shift"]
_NON_WEIGHT = ["bias", "bn_scale", "bn_shift"]

PARITY_ROUTINGS = {
    "nesterov": [
        {"tags": _ALL_TAGS,
         "config": {"kind": "nesterov", "momentum": 0.9, "decay": 0.0,
                    "exclude_tags": _NON_WEIGHT}},
    ],
    "lars_hybrid": [
        {"tags": ["weight"],
         "config": {"kind": "lars", "momentum": 0.9, "decay": 0.0,
                    "trust_coefficient": 0.001, "exclude_tags": _NON_WEIGHT}},
        {"tags": _NON_WEIGHT,
         "config": {"kind": "heavy_ball", "momentum": 0.9, "decay": 0.0}},
    ],
}

# (eta_peak lo, hi) of each routing's log-scaled search dimension.
PARITY_ETA_RANGE = {"nesterov": (1e-2, 2.0), "lars_hybrid": (1.0, 200.0)}
PARITY_DECAY_RANGE = (1e-6, 1e-2)


def parity_base(routing_name: str, seed: int) -> dict:
    """Config of test 10: 2-16-16-2 ghost-BN MLP, 418 params in 10 groups."""
    return {
        "model": {"layer_widths": [2, 16, 16, 2], "use_bn": True,
                  "bn_gamma_init": 1.0, "virtual_batch_size": 32,
                  "label_smoothing": 0.0, "init_seed": 0},
        "data": {"classes": 2, "features": 2, "per_class": 256,
                 "spread": 0.5, "seed": 7},
        "optimizer": copy.deepcopy(PARITY_ROUTINGS[routing_name]),
        "schedule": {"family": "cosine", "eta_peak": 0.5,
                     "total_steps": PARITY_STEPS},
        "budget_steps": PARITY_STEPS, "batch_size": 64, "eval_every": 100,
        # the study gives trial i the training seed base_seed + i
        "base_seed": 1000 + 100 * seed,
        "target_metric": "final_train_accuracy", "target_value": PARITY_TARGET,
    }


# -- large_batch: wide MLP, batch 1024 split into 16 ghost batches ---------

LARGE_SEEDS = 3


def large_batch_config(seed: int) -> dict:
    return {
        "model": {"layer_widths": [16, 256, 256, 10], "use_bn": True,
                  "virtual_batch_size": 64, "label_smoothing": 0.0,
                  "init_seed": seed},
        "data": {"classes": 10, "features": 16, "per_class": 512,
                 "spread": 3.0, "seed": 10 + seed},
        "optimizer": [
            {"tags": ["weight"],
             "config": {"kind": "lamb", "decay": 1e-4,
                        "exclude_tags": _NON_WEIGHT}},
            {"tags": _NON_WEIGHT,
             "config": {"kind": "adam", "decay": 0.0,
                        "exclude_tags": _NON_WEIGHT}},
        ],
        "schedule": {"family": "poly_warmup_decay", "eta_init": 0.0,
                     "eta_peak": 0.01, "eta_final": 0.0, "t_warmup": 5,
                     "total_steps": 40},
        "budget_steps": 40, "batch_size": 1024, "eval_every": 10,
        "base_seed": 0,
        "target_metric": "final_train_accuracy", "target_value": 0.9,
    }


def large_batch_seeds(seed: int) -> list[int]:
    return [100 * seed + k for k in range(LARGE_SEEDS)]


# -- deep_ablation: 6 hidden layers of width 8, 26 groups, batch 16 --------

ABLATION_STEPS = 120
ABLATION_SEEDS = 5


def deep_ablation_config(seed: int) -> dict:
    return {
        "model": {"layer_widths": [4, 8, 8, 8, 8, 8, 8, 3], "use_bn": True,
                  "bn_gamma_init": 1.0, "virtual_batch_size": 8,
                  "label_smoothing": 0.1, "init_seed": 0},
        "data": {"classes": 3, "features": 4, "per_class": 128,
                 "spread": 1.0, "seed": 20 + seed},
        "optimizer": [
            {"tags": ["weight"],
             "config": {"kind": "lamb", "decay": 1e-3,
                        "exclude_tags": _NON_WEIGHT}},
            {"tags": _NON_WEIGHT,
             "config": {"kind": "adam", "decay": 1e-3,
                        "exclude_tags": _NON_WEIGHT}},
        ],
        "schedule": {"family": "cosine", "eta_peak": 0.01,
                     "total_steps": ABLATION_STEPS},
        "budget_steps": ABLATION_STEPS, "batch_size": 16, "eval_every": 40,
        "base_seed": 0,
        "target_metric": "final_train_accuracy", "target_value": 0.9,
    }


# Four one-field arms beside Base; "No BN" takes every BN layer out.
ABLATION_OVERRIDES = [
    ("BN init", "model.bn_gamma_init", 0.5),
    ("Virtual BN", "model.virtual_batch_size", 16),
    ("L2 variables", "optimizer.*.config.exclude_tags", []),
    ("No BN", "model.use_bn", False),
]


def deep_ablation_seeds(seed: int) -> list[int]:
    return [100 * seed + k for k in range(ABLATION_SEEDS)]


def first_config(workload: str, seed: int) -> dict:
    """Config the workload's first run_training call is built from."""
    if workload == "parity_study":
        return parity_base("nesterov", seed)
    if workload == "large_batch":
        return large_batch_config(seed)
    if workload == "deep_ablation":
        return deep_ablation_config(seed)
    raise ValueError(f"unknown workload {workload!r}")
