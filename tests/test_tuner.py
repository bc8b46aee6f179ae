import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from optparity.errors import (
    InvalidConfig,
    InvalidUnit,
    NoCompletedTrials,
    TooManyDims,
    ValidationError,
)
from optparity import harness
from optparity.harness import RESULT_METRICS
from optparity.tuner import (
    SearchDim,
    TrialRecord,
    halton_point,
    map_unit,
    radical_inverse,
    sample_trial,
    select_best,
    summarize,
)


def ref_radical_inverse(index, base):
    # digit-reversal in exact rational arithmetic
    r = Fraction(0)
    f = Fraction(1, base)
    while index:
        r += f * (index % base)
        index //= base
        f /= base
    return float(r)


class TestHalton:
    def test_base2_first_indices(self):
        expected = [0.5, 0.25, 0.75, 0.125, 0.625, 0.375, 0.875, 0.0625]
        got = [halton_point(i, 1)[0] for i in range(1, 9)]
        assert got == expected

    def test_base3_first_index(self):
        assert halton_point(1, 2)[1] == pytest.approx(1 / 3, abs=1e-15)

    def test_strictly_inside_unit_interval(self):
        for i in range(1, 200):
            p = halton_point(i, 5)
            assert np.all(p > 0.0) and np.all(p < 1.0)

    def test_matches_exact_rational_reference(self):
        for base in (2, 3, 5, 7):
            for i in range(1, 100):
                assert radical_inverse(i, base) == pytest.approx(
                    ref_radical_inverse(i, base), abs=1e-15
                )

    def test_too_many_dims(self):
        with pytest.raises(TooManyDims):
            halton_point(1, 21)

    def test_discrepancy_beats_uniform_random(self):
        # 1-D star discrepancy of the first 64 base-2 points vs seeded
        # uniform sets, won in at least 95 of 100 comparisons
        def star_discrepancy(points):
            pts = np.sort(points)
            n = len(pts)
            up = np.max(np.arange(1, n + 1) / n - pts)
            down = np.max(pts - np.arange(0, n) / n)
            return max(up, down)

        halton = np.array([radical_inverse(i, 2) for i in range(1, 65)])
        d_h = star_discrepancy(halton)
        wins = 0
        rng = np.random.default_rng(0)
        for _ in range(100):
            d_r = star_discrepancy(rng.uniform(size=64))
            wins += d_h < d_r
        assert wins >= 95


class TestMapUnit:
    def test_log_midpoint(self):
        dim = SearchDim("x", "continuous", 1e-5, 1e-1, scaling="log")
        assert map_unit(dim, 0.5) == pytest.approx(1e-3, rel=1e-12)

    def test_linear_endpoints(self):
        dim = SearchDim("x", "continuous", 0.4, 1.0)
        assert map_unit(dim, 0.0) == 0.4
        assert map_unit(dim, 1.0) == 1.0

    def test_discrete_clamped_at_one(self):
        dim = SearchDim("x", "discrete_set", values=[1e-4, 1e-3, 1e-2, 1e-1])
        assert map_unit(dim, 1.0) == 1e-1
        assert map_unit(dim, 0.0) == 1e-4
        assert map_unit(dim, 0.26) == 1e-3

    def test_invalid_unit(self):
        dim = SearchDim("x", "continuous", 0.0, 1.0)
        with pytest.raises(InvalidUnit):
            map_unit(dim, 1.5)

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_monotone_linear(self, u1, u2):
        dim = SearchDim("x", "continuous", -2.0, 5.0)
        if u1 <= u2:
            assert map_unit(dim, u1) <= map_unit(dim, u2)

    @given(st.floats(0, 0.5), st.floats(0, 0.5))
    def test_log_geometric_structure(self, u1, u2):
        dim = SearchDim("x", "continuous", 1e-4, 1e2, scaling="log")
        lhs = math.log(map_unit(dim, u1)) + math.log(map_unit(dim, u2))
        rhs = math.log(map_unit(dim, 0.0)) + math.log(map_unit(dim, u1 + u2))
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_validation(self):
        with pytest.raises(InvalidConfig):
            SearchDim("x", "continuous", 1.0, 0.5)
        with pytest.raises(InvalidConfig):
            SearchDim("x", "continuous", 0.0, 1.0, scaling="log")
        with pytest.raises(InvalidConfig):
            SearchDim("x", "discrete_set", values=[])

    @pytest.mark.parametrize("name", ["base_seed", "budget_steps", "schedule.total_steps"])
    def test_a_field_the_study_sets_is_no_dimension(self, name):
        with pytest.raises(InvalidConfig, match=f"^{name}: a study sets it"):
            SearchDim(name, "discrete_set", values=[3, 9])
        with pytest.raises(ValidationError, match=f"^space.0: {name}: a study sets it"):
            harness.read_as([{"name": name, "kind": "continuous"}], list[SearchDim], "space")


class TestSampleTrial:
    SPACE = [
        SearchDim("a", "continuous", 0.0, 1.0),
        SearchDim("b", "continuous", 0.0, 1.0),
    ]

    def test_deterministic(self):
        assert sample_trial(self.SPACE, 3, 5) == sample_trial(self.SPACE, 3, 5)

    def test_index_zero_units(self):
        a = sample_trial(self.SPACE, 0, 0)
        assert a["a"] == pytest.approx(0.5)
        assert a["b"] == pytest.approx(1 / 3)

    def test_offset_shifts_point_set(self):
        assert sample_trial(self.SPACE, 0, 0) != sample_trial(self.SPACE, 0, 7)
        # offset k, index i equals offset 0, index i+k
        assert sample_trial(self.SPACE, 0, 7) == sample_trial(self.SPACE, 7, 0)


class TestSelectBest:
    def rec(self, i, status="completed", acc=0.5):
        return TrialRecord(i, {}, i, status, final_train_accuracy=acc,
                           final_eval_accuracy=acc, final_loss=1.0 - acc)

    def test_all_diverged(self):
        with pytest.raises(NoCompletedTrials):
            select_best([self.rec(0, "diverged"), self.rec(1, "error")],
                        "final_eval_accuracy")

    def test_tie_goes_to_lower_index(self):
        records = [self.rec(0, acc=0.9), self.rec(1, acc=0.9), self.rec(2, acc=0.1)]
        assert select_best(records, "final_eval_accuracy").trial_index == 0

    def test_lowest_loss_is_best(self):
        records = [self.rec(0, acc=0.2), self.rec(1, acc=0.9)]
        assert select_best(records, "final_loss").trial_index == 1

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValidationError, match="metric: must be one of"):
            select_best([self.rec(0)], "final_accuracy")

    def test_diverged_excluded(self):
        records = [self.rec(0, "diverged", acc=1.0), self.rec(1, acc=0.5)]
        assert select_best(records, "final_eval_accuracy").trial_index == 1


class TestSummarize:
    def test_even_n_median(self):
        s = summarize([1.0, 2.0, 3.0, 4.0], target=2.0)
        assert s.median == 2.5
        assert s.target_fraction == 0.75
        assert s.n_seeds == 4

    def test_single_value(self):
        s = summarize([0.7], target=0.9)
        assert s.median == s.min == s.max == s.q1 == s.q3 == 0.7
        assert s.target_fraction == 0.0

    def test_fraction_from_counts(self):
        values = [1.0] * 35 + [0.0] * 15
        s = summarize(values, target=0.5)
        assert s.target_fraction == pytest.approx(0.70)

    def test_median_interpolates_as_the_quartiles_do(self):
        """The median is the 50th percentile, taken as q1 and q3 are: it does not
        overflow between two huge losses, and on an even seed count it is
        np.percentile's, which here is one ulp below (a + b) / 2."""
        with np.errstate(all="raise"):
            s = summarize([1e308, 1.7e308], 0.0, "final_loss")
        assert math.isfinite(s.median) and s.q1 <= s.median <= s.q3
        xs = [95 / 196, 9 / 196]
        assert summarize(xs, 0.5).median == np.percentile(xs, 50)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=40))
    def test_order_statistics_invariants(self, values):
        s = summarize(values, target=0.0)
        assert s.min <= s.q1 <= s.median <= s.q3 <= s.max
        assert s.q1 == np.percentile(values, 25, method="linear")
        assert s.q3 == np.percentile(values, 75, method="linear")
        assert 0.0 <= s.target_fraction <= 1.0
        ordered = sorted(values)
        assert s.min == ordered[0]
        assert s.max == ordered[-1]

    def test_quartile_beside_a_diverged_seed_is_infinite(self):
        inf = math.inf
        with np.errstate(all="raise"):
            s = summarize([-inf, -inf, 0.9, 0.95, 0.99, 1.0], 0.99)
        assert s.q1 == -inf
        assert s.median == pytest.approx(0.925)
        assert s.q3 == pytest.approx(0.98)
        assert s.min <= s.q1 <= s.median <= s.q3 <= s.max
        s = summarize([0.1, 0.2, inf, inf], 0.15, "final_loss")
        assert s.q3 == inf
        assert s.min <= s.q1 <= s.median <= s.q3 <= s.max

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=40),
           st.integers(0, 40), st.sampled_from(list(RESULT_METRICS)))
    def test_order_statistics_with_diverged_seeds(self, finite, n_diverged, metric):
        worst = math.inf if metric == "final_loss" else -math.inf
        s = summarize(finite + [worst] * n_diverged, target=0.0, metric=metric)
        fields = (s.min, s.q1, s.median, s.q3, s.max)
        assert not any(math.isnan(x) for x in fields)
        assert s.min <= s.q1 <= s.median <= s.q3 <= s.max


# values drawn often from a few points, so that ties and values at the target occur
VALUES = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(-5, 5)


class TestMetricDirection:
    """Each metric alone says which way is better: lower for final_loss,
    higher for the accuracies."""

    @staticmethod
    def reaches(metric, value, target):
        return value <= target if metric == "final_loss" else value >= target

    @given(st.sampled_from(list(RESULT_METRICS)),
           st.lists(st.tuples(st.sampled_from(["completed", "diverged", "error"]),
                              st.tuples(VALUES, VALUES, VALUES)), max_size=12),
           st.randoms(use_true_random=False))
    def test_select_best_matches_a_scan(self, metric, rows, rng):
        records = [TrialRecord(i, {}, i, status, *(values if status != "error" else ()))
                   for i, (status, values) in enumerate(rows)]
        rng.shuffle(records)
        completed = [r for r in records if r.status == "completed"]
        if not completed:
            with pytest.raises(NoCompletedTrials):
                select_best(records, metric)
            return
        best = None
        for r in sorted(completed, key=lambda r: r.trial_index):
            if best is None or (getattr(r, metric) != getattr(best, metric) and self.reaches(
                    metric, getattr(r, metric), getattr(best, metric))):
                best = r
        assert select_best(records, metric) is best

    @given(st.sampled_from(list(RESULT_METRICS)), st.lists(VALUES, min_size=1, max_size=20),
           st.integers(0, 5), VALUES)
    def test_target_fraction_matches_a_count(self, metric, finite, n_diverged, target):
        worst = math.inf if metric == "final_loss" else -math.inf
        values = finite + [worst] * n_diverged
        count = sum(self.reaches(metric, v, target) for v in values)
        assert summarize(values, target, metric).target_fraction == count / len(values)
