"""End-to-end and per-layer benchmark of optparity.

Usage (from the repository root):

    python3 perfbench/run.py --workload parity_study --seed 1 --seconds 25 --trace 0

Workloads: parity_study, large_batch, deep_ablation (see README.md).

--trace 0 measures the end-to-end metrics: it times the set-up in fresh
interpreters, then repeats whole rounds of the workload until --seconds
have passed; its times are scaled to a reference machine speed by a
calibration kernel timed beside each measurement (calibrate.py).
--trace 1 runs one untraced round and one traced round and reports
per-layer metrics.  Both check the program's outputs; a failed check
prints the reason on stderr and exits 1.  The last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and `metrics`; the
full record goes to perfbench-out/ at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("parity_study", "large_batch", "deep_ablation")
# span-name prefixes; "bench" is the root span of the traced round
LAYERS = ("bench", "harness", "model", "optim", "param_store", "kernels", "schedule", "tuner")

# One BLAS thread: on two shared cores numpy's default of two OpenBLAS
# threads makes large_batch steps swing by ~20% between runs.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# set-up samples per run (after one discarded warm-up that fills __pycache__)
SETUP_SAMPLES = 11


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters, raw and calibrated (calibrate.py)."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    raw, calibrated = [], []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            raise RuntimeError(f"set-up probe failed: {tail[0]}")
        if i:
            seconds, scale = map(float, proc.stdout.split()[-2:])
            raw.append(seconds)
            calibrated.append(seconds * scale)
    return raw, calibrated


def environment() -> dict:
    import numpy as np
    from optparity import kernels

    sha = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or sha
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "optparity").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "backend": kernels.BACKEND,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    out_dir = ROOT / "perfbench-out"
    out_dir.mkdir(exist_ok=True)

    setup_raw, setup = ([], []) if args.trace else measure_setup(args.workload, args.seed)

    import calibrate
    import checks
    import workloads

    run_round, check_round, docs_of = workloads.WORKLOADS[args.workload]
    # untraced runs time a calibration kernel beside every training run
    calibrator = None if args.trace else calibrate.Calibrator(calibrate.KERNEL_OF[args.workload])
    recorder = workloads.RunRecorder(calibrator)
    rounds = []  # (wall seconds, first call index, one past last call index)

    def timed_round(fn):
        first = len(recorder.calls)
        t0 = time.perf_counter()
        out = fn(args.seed, recorder, out_dir)
        rounds.append((time.perf_counter() - t0, first, len(recorder.calls)))
        return out

    def check(out):
        first = rounds[-1][1]
        failed = [c for c in recorder.calls[first:] if not workloads.completed(c)]
        checks.require(not failed, f"{len(failed)} training runs raised or diverged")
        check_round(out)

    tracer = None
    recorder.install()
    try:
        if args.trace:
            import tracing

            check(timed_round(run_round))
            tracer = tracing.Tracer()
            tracer.install()
            try:
                out = timed_round(tracer.span("bench.round", run_round))
            finally:
                tracer.uninstall()
            check(out)
        else:
            t_start = time.perf_counter()
            while True:
                out = timed_round(run_round)
                check(out)
                if time.perf_counter() - t_start >= args.seconds:
                    break
        for doc in docs_of(out):
            workloads.check_composite_step(doc)
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        recorder.uninstall()

    env = environment()
    calls = recorder.calls
    if tracer is None:
        metrics, extra = end_to_end(setup, rounds, calls, recorder.calibration,
                                    calibrator.reference_s)
        extra["notes"]["wall: setup median s"] = statistics.median(setup_raw)
        extra["setup_samples_wall_s"] = setup_raw
    else:
        metrics, extra = per_layer(tracer, rounds, calls)
        import numpy as np

        np.savez_compressed(out_dir / f"spans-{args.workload}-seed{args.seed}.npz",
                            names=np.array(tracer.names), **tracer.arrays())
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "metrics": metrics, **extra}
    name = f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")

    for key, value in env.items():
        print(f"# {key}: {value}")
    for key, value in extra.get("notes", {}).items():
        print(f"# {key}: {value}")
    for key, m in metrics.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": True, "attempted": len(calls), "failed": 0,
                      "metrics": metrics}))
    return 0


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(setup: list[float], rounds: list[tuple], calls: list[tuple],
               calibration: list[tuple], reference_s: float):
    """Times are scaled to the reference machine speed (see calibrate.py)."""
    run_s = [c[2] for c in calls]
    steps = sum(c[1].steps_run for c in calls)
    scale = [reference_s / ((before + after) / 2) for before, after in calibration]
    cal_run_s = [t * k for t, k in zip(run_s, scale)]
    # A round is its calibrated calls plus the rest of its wall time (tuner,
    # summaries; the kernels timed inside it left out) scaled by the calls'
    # median factor.
    cal_round_s = [sum(cal_run_s[first:last])
                   + (wall - sum(run_s[first:last]) - sum(map(sum, calibration[first:last])))
                   * statistics.median(scale[first:last]) for wall, first, last in rounds]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "workload_s": _metric(statistics.median(cal_round_s), "s"),
        "steps_per_s": _metric(steps / sum(cal_run_s), "1/s"),
        "run_ms_p50": _metric(statistics.median(cal_run_s) * 1e3, "ms"),
        "peak_rss_mb": _metric(peak_kib / 1024, "MB"),
    }
    kernel_s = [t for pair in calibration for t in pair]
    notes = {"rounds": len(rounds), "run_training calls": len(calls), "steps": steps,
             "setup samples": len(setup),
             "calibration kernel median s (reference)":
                 f"{statistics.median(kernel_s):.6g} ({reference_s})",
             "wall: round median s": statistics.median(r[0] for r in rounds),
             "wall: steps/s": steps / sum(run_s),
             "wall: run_training median ms": statistics.median(run_s) * 1e3}
    extra = {"notes": notes, "round_s": [r[0] for r in rounds], "setup_samples_s": setup,
             "run_training_s": run_s, "calibration_s": calibration,
             "calibrated_run_training_s": cal_run_s, "calibrated_round_s": cal_round_s}
    return metrics, extra


def per_layer(tracer, rounds: list[tuple], calls: list[tuple]):
    import tracing

    totals = tracer.totals()
    root = totals["bench.round"]
    self_sum = sum(t["self_s"] for t in totals.values())
    if abs(self_sum - root["total_s"]) > 1e-6 * max(1.0, root["total_s"]):
        raise RuntimeError(f"self times add to {self_sum} s, traced round took {root['total_s']} s")
    (untraced_s, _, _), (traced_s, first, last) = rounds
    steps = sum(c[1].steps_run for c in calls[first:last])

    def get(name, field="total_s"):
        return totals.get(name, {}).get(field, 0.0)

    def per_call(name, scale):
        n = totals.get(name, {}).get("calls", 0)
        return get(name) / n * scale if n else 0.0

    m = {}
    us, ms = 1e6, 1e3
    m["optim.composite_step.us_per_step"] = _metric(get("optim.composite_step") / steps * us, "us")
    m["optim.composite_step.self_us_per_step"] = _metric(
        get("optim.composite_step", "self_s") / steps * us, "us")
    update_calls = 0
    for kind in ("heavy_ball", "nesterov", "lars", "adam", "lamb"):
        name = f"optim.{kind}_update"
        m[f"{name}.us_per_call"] = _metric(per_call(name, us), "us")
        update_calls += totals.get(name, {}).get("calls", 0)
    m["optim.update_calls_per_step"] = _metric(update_calls / steps, "count")
    m["param_store.copy.us_per_call"] = _metric(per_call("param_store.copy", us), "us")
    for name in tracing.KERNELS:
        m[f"kernels.{name}.us_per_call"] = _metric(per_call(f"kernels.{name}", us), "us")
    m["kernels.elements_per_step"] = _metric(sum(tracer.kernel_elements.values()) / steps,
                                             "count")
    m["kernels.bytes_per_step"] = _metric(tracer.kernel_bytes() / steps, "bytes-computed")
    m["model.forward.train_us_per_step"] = _metric(get("model.forward.train") / steps * us, "us")
    m["model.backward.us_per_step"] = _metric(get("model.backward") / steps * us, "us")
    m["model.bn_forward.us_per_call"] = _metric(per_call("model.bn_forward", us), "us")
    m["model.bn_backward.us_per_call"] = _metric(per_call("model.bn_backward", us), "us")
    m["model.bn_forward.calls_per_step"] = _metric(
        totals.get("model.bn_forward", {}).get("calls", 0) / steps, "count")
    m["model.forward.eval_ms_per_call"] = _metric(per_call("model.forward.eval", ms), "ms")
    m["model.gen_synthetic_dataset.ms_per_call"] = _metric(
        per_call("model.gen_synthetic_dataset", ms), "ms")
    m["model.init_mlp.us_per_call"] = _metric(per_call("model.init_mlp", us), "us")
    m["harness.parse_config.us_per_call"] = _metric(per_call("harness.parse_config", us), "us")
    m["harness.patch_config.us_per_call"] = _metric(per_call("harness.patch_config", us), "us")
    m["harness.run_training.self_us_per_step"] = _metric(
        get("harness.run_training", "self_s") / steps * us, "us")
    m["schedule.eval_schedule.us_per_call"] = _metric(per_call("schedule.eval_schedule", us), "us")
    m["tuner.sample_trial.us_per_call"] = _metric(per_call("tuner.sample_trial", us), "us")
    m["tuner.run_study.self_ms"] = _metric(get("tuner.run_study", "self_s") * ms, "ms")
    m["tuner.multi_seed_eval.self_ms"] = _metric(get("tuner.multi_seed_eval", "self_s") * ms, "ms")
    for name in ("write_summaries", "read_summaries", "report"):
        m[f"harness.{name}.ms"] = _metric(get(f"harness.{name}") * ms, "ms")
    layer_self = {}
    for name, t in totals.items():
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + t["self_s"]
    for layer in LAYERS:
        m[f"layer.{layer}.self_pct"] = _metric(
            100.0 * layer_self.get(layer, 0.0) / root["total_s"], "%")
    m["trace.wall_s"] = _metric(traced_s, "s")
    m["trace.overhead_s"] = _metric(traced_s - untraced_s, "s")
    notes = {"traced steps": steps, "spans": len(tracer.start),
             "untraced round s": untraced_s, "traced round s": traced_s}
    extra = {"notes": notes, "spans_by_name": totals}
    return m, extra


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # no result line: the traceback, then a non-zero exit
        traceback.print_exc()
        sys.exit(2)
