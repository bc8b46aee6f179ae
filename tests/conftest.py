import copy

import numpy as np
import pytest

from optparity import model

BASE_CONFIG = {
    "model": {
        "layer_widths": [2, 16, 16, 2],
        "use_bn": True,
        "bn_gamma_init": 1.0,
        "bn_epsilon": 1e-5,
        "bn_stats_decay": 0.9,
        "virtual_batch_size": 32,
        "label_smoothing": 0.0,
        "init_seed": 0,
    },
    "data": {"classes": 2, "features": 2, "per_class": 256, "spread": 0.5, "seed": 7},
    "optimizer": [
        {
            "tags": ["weight", "bias", "bn_scale", "bn_shift"],
            "config": {
                "kind": "nesterov",
                "momentum": 0.9,
                "decay": 1e-4,
                "decay_mode": "l2_into_gradient",
                "exclude_tags": ["bias", "bn_scale", "bn_shift"],
            },
        }
    ],
    "schedule": {"family": "cosine", "eta_peak": 0.4, "total_steps": 200},
    "budget_steps": 200,
    "batch_size": 64,
    "eval_every": 50,
    "base_seed": 0,
    "target_metric": "final_train_accuracy",
    "target_value": 0.99,
}


@pytest.fixture
def base_config():
    return copy.deepcopy(BASE_CONFIG)


@pytest.fixture(autouse=True)
def numpy_error_state_kept():
    """Fail any test that leaves numpy's floating-point error state changed.

    A training run sets the state once for the whole run, so every way out
    of it, a diverged run's return included, must put the old state back.
    """
    before = np.geterr()
    yield
    after = np.geterr()
    if after != before:
        np.seterr(**before)  # so that the next test starts clean
        pytest.fail(f"numpy error state left at {after}, was {before}")


@pytest.fixture
def worker_on(monkeypatch):
    """Run wide steps in two row pieces, one on the model's worker thread, as
    they run where OpenBLAS is pinned to one thread and the process may use
    two CPUs. A train workspace keeps the split it was built with, so only
    workspaces built under the fixture take it; every eval forward reads it
    anew."""
    monkeypatch.setattr(model, "_USE_WORKER", True)
