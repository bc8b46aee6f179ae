import csv
import math

import pytest

from optparity.errors import InvalidConfig, OutOfRangeStep
from optparity.schedule import (
    ScheduleSpec,
    eval_schedule,
    export_schedule,
    max_discontinuity,
)

CONFIG_B = ScheduleSpec("poly_warmup_decay", eta_peak=7.05, total_steps=2512,
                        eta_init=0.0, eta_final=6e-6, p_warmup=2, p_decay=2,
                        t_warmup=706)
BERT_PHASE1 = ScheduleSpec("legacy_bert", eta_peak=5.9415e-4, total_steps=14063,
                           t_warmup=3125)


class TestPolyWarmupDecay:
    def test_config_b_midpoint_of_warmup(self):
        assert eval_schedule(CONFIG_B, 353) == pytest.approx(7.05 * 0.25, rel=1e-12)

    def test_peak_and_final_exact(self):
        assert eval_schedule(CONFIG_B, 706) == 7.05
        assert eval_schedule(CONFIG_B, 2512) == 6e-6

    def test_continuous_at_warmup_boundary(self):
        spec = CONFIG_B
        warm = spec.eta_init + (spec.eta_peak - spec.eta_init) * 1.0 ** spec.p_warmup
        decay = spec.eta_final + (spec.eta_peak - spec.eta_final) * 1.0 ** spec.p_decay
        assert abs(warm - decay) <= 1e-15

    def test_monotone_warmup_then_decay(self):
        vals = [eval_schedule(CONFIG_B, t) for t in range(CONFIG_B.total_steps + 1)]
        for a, b in zip(vals[:706], vals[1:707]):
            assert a <= b
        for a, b in zip(vals[706:-1], vals[707:]):
            assert a >= b

    def test_no_warmup_starts_at_peak(self):
        spec = ScheduleSpec("poly_warmup_decay", eta_peak=1.0, total_steps=10)
        assert eval_schedule(spec, 0) == 1.0


class TestCosine:
    def test_endpoints_and_midpoint(self):
        spec = ScheduleSpec("cosine", eta_peak=2.0, total_steps=100)
        assert eval_schedule(spec, 0) == 2.0
        assert eval_schedule(spec, 100) == pytest.approx(0.0, abs=1e-15)
        assert eval_schedule(spec, 50) == pytest.approx(1.0, rel=1e-12)

    def test_symmetry(self):
        spec = ScheduleSpec("cosine", eta_peak=0.7, total_steps=64)
        for t in range(65):
            total = eval_schedule(spec, t) + eval_schedule(spec, 64 - t)
            assert total == pytest.approx(0.7, abs=1e-12)

    def test_strictly_decreasing(self):
        spec = ScheduleSpec("cosine", eta_peak=1.0, total_steps=200)
        vals = [eval_schedule(spec, t) for t in range(201)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestLegacyBert:
    def test_warmup_then_jump(self):
        spec = BERT_PHASE1
        below = eval_schedule(spec, spec.t_warmup - 1)
        at = eval_schedule(spec, spec.t_warmup)
        assert below == pytest.approx(5.9415e-4 * 3124 / 3125, rel=1e-12)
        assert at == pytest.approx(5.9415e-4 * (1 - 3125 / 14063), rel=1e-12)
        assert below > at

    def test_single_downward_jump(self):
        spec = ScheduleSpec("legacy_bert", eta_peak=1.0, total_steps=100, t_warmup=20)
        vals = [eval_schedule(spec, t) for t in range(101)]
        drops = [t for t in range(1, 101)
                 if vals[t] < vals[t - 1] - 1.5 / spec.total_steps]
        assert drops == [20]
        step, gap = max_discontinuity(spec)
        assert step == 20
        assert gap >= 1.0 * 20 / 100 - 1e-12  # at least eta_peak * t_warmup / T

    def test_max_discontinuity_table9(self):
        step, gap = max_discontinuity(BERT_PHASE1)
        assert step == 3125
        assert gap == pytest.approx(5.9415e-4 * 3125 / 14063, rel=1e-9)


class TestMaxDiscontinuity:
    def test_poly_is_continuous(self):
        # no jump: the gap is bounded by the max local slope (quadratic
        # warmup peaks at 2*eta_peak/t_warmup per step)
        step, gap = max_discontinuity(CONFIG_B)
        assert gap <= 2 * 7.05 / 706 + 1e-12

    def test_constant_gap_zero(self):
        spec = ScheduleSpec("constant", eta_peak=0.1, total_steps=10)
        assert max_discontinuity(spec) == (0, 0.0)


class TestExport:
    def test_row_count_and_round_trip(self, tmp_path):
        path = tmp_path / "config_b.csv"
        export_schedule(CONFIG_B, path)
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["step", "lr"]
        assert len(rows) == 2514  # header + steps 0..2512
        for t, lr in rows[1:]:
            assert float(lr) == eval_schedule(CONFIG_B, int(t))

    def test_constant_rows_identical(self, tmp_path):
        spec = ScheduleSpec("constant", eta_peak=0.25, total_steps=3)
        path = tmp_path / "const.csv"
        export_schedule(spec, path)
        with open(path) as f:
            rows = list(csv.reader(f))[1:]
        assert len(rows) == 4
        assert len({lr for _, lr in rows}) == 1

    def test_lars_and_config_b_shapes(self, tmp_path):
        lars = ScheduleSpec("poly_warmup_decay", eta_peak=29.0, total_steps=2512,
                            eta_final=1e-4, p_warmup=1, p_decay=2, t_warmup=706)
        export_schedule(lars, tmp_path / "lars.csv")
        # linear warmup vs quadratic warmup: half-way point differs
        assert eval_schedule(lars, 353) == pytest.approx(29.0 * 353 / 706, rel=1e-12)
        assert eval_schedule(CONFIG_B, 353) == pytest.approx(7.05 * 0.25, rel=1e-12)


def test_out_of_range_step():
    with pytest.raises(OutOfRangeStep):
        eval_schedule(CONFIG_B, 2513)
    with pytest.raises(OutOfRangeStep):
        eval_schedule(CONFIG_B, -1)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        ScheduleSpec("poly_warmup_decay", eta_peak=1.0, total_steps=10, t_warmup=10)
    with pytest.raises(ValueError):
        ScheduleSpec("cosine", eta_peak=0.0, total_steps=10)
    with pytest.raises(ValueError):
        ScheduleSpec("mystery", eta_peak=1.0, total_steps=10)
    with pytest.raises(ValueError):
        ScheduleSpec("cosine", eta_peak=math.nan, total_steps=10)


def test_total_steps_bounded_where_float64_tells_steps_apart():
    """Past 2**53, t / total_steps of neighbouring steps coincide."""
    assert ScheduleSpec("cosine", eta_peak=1.0, total_steps=2**53).total_steps == 2**53
    with pytest.raises(InvalidConfig, match=r"total_steps must be <= 2\*\*53"):
        ScheduleSpec("cosine", eta_peak=1.0, total_steps=2**53 + 1)
