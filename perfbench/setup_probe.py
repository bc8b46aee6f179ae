"""Time optparity's set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

The clock starts just before `import optparity` (which loads numpy) and
stops when the workload's first run could take its first step: its config
parsed, its dataset generated and its model initialised.  Interpreter
start-up falls outside the clock.  It prints the time in seconds and the
factor that scales it to the reference machine speed: the `interpreter`
calibration kernel's reference time over the mean of its medians of three
runs just before the clock starts and three just after it stops (see
calibrate.py).  run.py starts this script several times with the BLAS
thread count already pinned in the environment.
"""

import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calibrate  # noqa: E402  (loads numpy only when a numpy kernel runs)
import configs  # noqa: E402  (standard library only)


def main() -> None:
    doc = configs.first_config(sys.argv[1], int(sys.argv[2]))
    kernel = calibrate.Calibrator("interpreter")
    before = statistics.median(kernel() for _ in range(3))
    t0 = time.perf_counter()
    from optparity import harness, model

    cfg = harness.parse_config(doc)
    d = cfg.data
    model.gen_synthetic_dataset(d.classes, d.features, d.per_class, d.spread, d.seed)
    model.init_mlp(cfg.model, rng_seed=cfg.model.init_seed + cfg.base_seed)
    seconds = time.perf_counter() - t0
    after = statistics.median(kernel() for _ in range(3))
    print(repr(seconds), repr(kernel.reference_s / ((before + after) / 2)))


if __name__ == "__main__":
    main()
