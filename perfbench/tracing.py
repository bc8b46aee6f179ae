"""Spans around the calls that cross optparity's layer boundaries.

The tracer replaces module-level names with timing wrappers for one traced
round and puts the originals back afterwards; nothing inside the package
changes.  Each span keeps a name, a start, an end and the index of the span
open when it began (its parent), in flat arrays held in memory until the
benchmark writes them out.  A span's self time is its duration minus the
durations of its direct children, so the self times of all spans under the
root add up to the root's duration.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from optparity import harness, kernels, model, optim, param_store, tuner

# Kernel -> flat float64 arrays it reads plus arrays it writes, for the
# bytes a call moves as computed from array sizes.
KERNEL_TRANSFERS = {"heavy_ball_step": 5, "nesterov_step": 5, "adam_moments": 5,
                    "adam_direction": 3, "trust_momentum_step": 5}
KERNELS = tuple(KERNEL_TRANSFERS)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._open = [-1]
        self.kernel_elements = dict.fromkeys(KERNELS, 0)
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name_of, fn):
        """Wrap fn; name_of is a span name or a function of the call's args."""
        clock = time.perf_counter_ns
        names, parents, starts, ends, open_ = (self.name, self.parent, self.start,
                                               self.end, self._open)
        fixed = None if callable(name_of) else self._id(name_of)

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(fixed if fixed is not None else self._id(name_of(args, kwargs)))
            parents.append(open_[-1])
            starts.append(0)
            ends.append(0)
            open_.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                open_.pop()

        return traced

    def _counted(self, name, fn):
        """Count the elements a kernel call updates, outside its span."""
        elements = self.kernel_elements

        def counted(*args):
            elements[name] += args[0].size
            return fn(*args)
        return counted

    def kernel_bytes(self) -> int:
        return sum(8 * n * KERNEL_TRANSFERS[k] for k, n in self.kernel_elements.items())

    def _patch(self, owner, key, name_of, kernel=False):
        is_dict = isinstance(owner, dict)
        original = owner[key] if is_dict else getattr(owner, key)
        wrapped = self.span(name_of, original)
        if kernel:
            wrapped = self._counted(key, wrapped)
        self._patched.append((owner, key, original))
        if is_dict:
            owner[key] = wrapped
        else:
            setattr(owner, key, wrapped)

    def install(self) -> None:
        """Wrap every boundary at the name its caller looks up."""
        p = self._patch
        # harness calls these through names it imported from other modules
        p(harness, "run_training", "harness.run_training")
        p(harness, "parse_config", "harness.parse_config")
        p(harness, "patch_config", "harness.patch_config")
        p(harness, "deep_copy_config", "harness.deep_copy_config")
        p(harness, "run_ablation", "harness.run_ablation")
        p(harness, "write_summaries", "harness.write_summaries")
        p(harness, "read_summaries", "harness.read_summaries")
        p(harness, "report", "harness.report")
        p(harness, "gen_synthetic_dataset", "model.gen_synthetic_dataset")
        p(harness, "init_mlp", "model.init_mlp")
        p(harness, "forward", _forward_name)
        p(harness, "backward", "model.backward")
        p(harness, "accuracy", "model.accuracy")
        p(model, "bn_forward", "model.bn_forward")
        p(model, "bn_backward", "model.bn_backward")
        p(harness, "eval_schedule", "schedule.eval_schedule")
        p(harness, "composite_step", "optim.composite_step")
        for kind in list(optim._UPDATE_FNS):
            p(optim._UPDATE_FNS, kind, f"optim.{kind}_update")
        p(param_store.ParamStore, "copy", "param_store.copy")
        for name in KERNELS:
            p(kernels, name, f"kernels.{name}", kernel=True)
        p(tuner, "run_study", "tuner.run_study")
        p(tuner, "sample_trial", "tuner.sample_trial")
        p(tuner, "select_best", "tuner.select_best")
        p(tuner, "summarize", "tuner.summarize")
        p(tuner, "multi_seed_eval", "tuner.multi_seed_eval")
        p(harness, "multi_seed_eval", "tuner.multi_seed_eval")

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self time in seconds."""
        a = self.arrays()
        duration = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        child_time = np.zeros_like(duration)
        nested = a["parent"] >= 0
        np.add.at(child_time, a["parent"][nested], duration[nested])
        self_time = duration - child_time
        out = {}
        for i, name in enumerate(self.names):
            mine = a["name"] == i
            out[name] = {"calls": int(mine.sum()),
                         "total_s": float(duration[mine].sum()) / 1e9,
                         "self_s": float(self_time[mine].sum()) / 1e9}
        return out


def _forward_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[4] if len(args) > 4 else "train")
    return f"model.forward.{mode}"
