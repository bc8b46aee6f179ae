import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from optparity import harness, kernels, model, optim
from optparity.errors import (
    IndivisibleBatch,
    InvalidConfig,
    LengthMismatch,
    NonFiniteInput,
    ShapeMismatch,
    StaleCache,
)
from optparity.model import (
    Batch,
    BnRunningStats,
    MlpConfig,
    backward,
    bn_backward,
    bn_forward,
    finite_difference_check,
    forward,
    gen_synthetic_dataset,
    init_mlp,
    layer_plan,
    target_table,
)
from optparity.param_store import ParamStore


def small_config(**kw):
    defaults = dict(layer_widths=[2, 16, 2], use_bn=True, bn_gamma_init=1.0,
                    virtual_batch_size=8, label_smoothing=0.0, init_seed=0)
    defaults.update(kw)
    return MlpConfig(**defaults)


def random_batch(config, n, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, config.layer_widths[0]))
    y = rng.integers(0, config.n_classes, size=n)
    return Batch(x, y)


class TestInit:
    def test_determinism(self):
        cfg = small_config()
        a, b = init_mlp(cfg), init_mlp(cfg)
        for ga, gb in zip(a, b):
            np.testing.assert_array_equal(ga.values, gb.values)

    def test_group_layout(self):
        store = init_mlp(small_config())
        assert store.names() == ["w1", "b1", "bn1_scale", "bn1_shift", "w2", "b2"]
        tags = [g.tag for g in store]
        assert tags == ["weight", "bias", "bn_scale", "bn_shift", "weight", "bias"]

    def test_gamma0_applied_to_last_bn_layer(self):
        cfg = MlpConfig([2, 8, 8, 2], use_bn=True, bn_gamma_init=0.4138,
                        virtual_batch_size=4)
        store = init_mlp(cfg)
        assert np.all(store["bn1_scale"].values == 1.0)
        assert np.all(store["bn2_scale"].values == 0.4138)

    def test_bad_config(self):
        with pytest.raises(InvalidConfig):
            MlpConfig([2], virtual_batch_size=4)
        with pytest.raises(InvalidConfig):
            MlpConfig([2, 4, 2], label_smoothing=1.5)


class TestBnForward:
    def test_constant_column_outputs_beta(self):
        x = np.full((8, 1), 3.7)
        y, _, _, _ = bn_forward(x, np.array([2.0]), np.array([0.5]), 1e-5, 8,
                                "train", np.zeros(1), np.ones(1), 0.9)
        np.testing.assert_allclose(y, 0.5, atol=1e-12)

    def test_two_point_column(self):
        x = np.array([[1.0], [3.0]])
        y, _, _, _ = bn_forward(x, np.ones(1), np.zeros(1), 1e-300, 2,
                                "train", np.zeros(1), np.ones(1), 0.9)
        np.testing.assert_allclose(y.ravel(), [-1.0, 1.0], atol=1e-12)

    def test_full_batch_vbs_is_standard_bn(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(32, 5))
        args = (np.ones(5), np.zeros(5), 1e-5)
        y_full, _, m1, v1 = bn_forward(x, *args, 32, "train", np.zeros(5), np.ones(5), 0.9)
        mu, var = x.mean(axis=0), x.var(axis=0)
        expected = (x - mu) / np.sqrt(var + 1e-5)
        np.testing.assert_allclose(y_full, expected, atol=1e-12)

    def test_sub_batch_statistics_normalized(self):
        rng = np.random.default_rng(1)
        x = rng.normal(2.0, 3.0, size=(64, 4))
        y, _, _, _ = bn_forward(x, np.ones(4), np.zeros(4), 1e-13, 16,
                                "train", np.zeros(4), np.ones(4), 0.9)
        for k in range(4):
            sub = y[k * 16:(k + 1) * 16]
            np.testing.assert_allclose(sub.mean(axis=0), 0.0, atol=1e-10)
            np.testing.assert_allclose(sub.var(axis=0), 1.0, atol=1e-8)

    def test_indivisible_batch_rejected(self):
        x = np.zeros((10, 2))
        with pytest.raises(IndivisibleBatch):
            bn_forward(x, np.ones(2), np.zeros(2), 1e-5, 4, "train",
                       np.zeros(2), np.ones(2), 0.9)

    def test_eval_mode_uses_running_stats(self):
        x = np.array([[4.0], [6.0]])
        y, cache, m, v = bn_forward(x, np.ones(1), np.zeros(1), 0.0, 2, "eval",
                                    np.array([5.0]), np.array([1.0]), 0.9)
        assert cache is None
        np.testing.assert_allclose(y.ravel(), [-1.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("mode", ["Eval", "evaluate", "TRAIN", None])
    def test_unknown_mode_rejected(self, mode):
        x = np.full((4, 1), 10.0)
        with pytest.raises(InvalidConfig, match="mode must be 'train' or 'eval'"):
            bn_forward(x, np.ones(1), np.zeros(1), 1e-5, 4, mode, np.zeros(1), np.ones(1), 0.9)

    def test_cache_serves_only_the_array_it_was_built_over(self):
        """Given a cache, or a piece of one, with another array, bn_forward
        raises before any write: neither that array nor the cache's is changed."""
        rng = np.random.default_rng(27)
        x1, x2 = rng.normal(size=(8, 3)), rng.normal(size=(8, 3))
        args = (np.ones(3), np.zeros(3), 1e-5, 4, "train", np.zeros(3), np.ones(3), 0.9)
        y1, cache, _, _ = bn_forward(x1, *args)
        kept1, kept2 = y1.copy(), x2.copy()
        for x, given in [(x2, cache), (y1[:4], cache), (y1.copy(), cache),
                         (y1, cache["pieces"][0])]:
            with pytest.raises(StaleCache):
                bn_forward(x, *args, cache=given)
        np.testing.assert_array_equal(y1, kept1)
        np.testing.assert_array_equal(x2, kept2)

    def test_running_stats_update_direction(self):
        x = np.full((4, 1), 10.0)
        _, _, m, v = bn_forward(x, np.ones(1), np.zeros(1), 1e-5, 4, "train",
                                np.zeros(1), np.ones(1), 0.9)
        assert m[0] == pytest.approx(0.9 * 0.0 + 0.1 * 10.0)
        assert v[0] == pytest.approx(0.9 * 1.0 + 0.1 * 0.0)


class TestBlockedGhostBnMatchesLoop:
    """Train-mode bn_forward/bn_backward against the per-virtual-batch loops.

    Blocks hold whole virtual batches and at most BN_BLOCK_ELEMS values, so
    large draws span several blocks, some ending in a partial one, and a
    virtual batch wider than the cap is a block of its own.
    """

    @settings(max_examples=120, deadline=None)
    @given(n_sub=st.integers(1, 24), vbs=st.integers(1, 64), width=st.integers(1, 300),
           columns=st.sampled_from(["normal", "offset", "integer", "constant"]),
           eps=st.sampled_from([1e-5, 1e-3, 1e-300]), rho=st.sampled_from([0.0, 0.5, 0.9]),
           seed=st.integers(0, 2**32 - 1))
    # 4 full blocks (the large-batch shape); 3 blocks, the last one partial;
    # virtual batches wider than the cap; 24 running-sum terms in one column;
    # then shapes that were several blocks under a cap of 16,384 values
    @example(n_sub=16, vbs=64, width=256, columns="normal", eps=1e-5, rho=0.9, seed=0)
    @example(n_sub=11, vbs=64, width=256, columns="offset", eps=1e-5, rho=0.9, seed=1)
    @example(n_sub=3, vbs=256, width=300, columns="normal", eps=1e-5, rho=0.0, seed=2)
    @example(n_sub=24, vbs=40, width=1, columns="normal", eps=1e-5, rho=0.0, seed=3)
    @example(n_sub=5, vbs=64, width=128, columns="offset", eps=1e-5, rho=0.9, seed=1)
    @example(n_sub=3, vbs=64, width=300, columns="normal", eps=1e-5, rho=0.0, seed=2)
    def test_bitwise(self, n_sub, vbs, width, columns, eps, rho, seed):
        rng = np.random.default_rng(seed)
        shape = (n_sub * vbs, width)
        if columns == "constant":
            x = np.broadcast_to(rng.normal(size=width), shape).copy()
        elif columns == "integer":
            x = rng.integers(-3, 4, size=shape).astype(np.float64)
        else:
            x = rng.normal(size=shape)
            if columns == "offset":
                x = 1e4 + rng.uniform(0.0, 10.0, size=width) * x
        gamma = rng.normal(size=width)
        gamma[rng.random(width) < 0.1] = 0.0
        beta = rng.normal(size=width)
        running_mean, running_var = rng.normal(size=width), rng.uniform(0.5, 2.0, width)
        dy = rng.normal(size=shape)
        x_in, dy_in = x.copy(), dy.copy()

        y, cache, new_mean, new_var = bn_forward(x, gamma, beta, eps, vbs, "train",
                                                 running_mean, running_var, rho)
        want = oracles.ghost_bn_forward(x, gamma, beta, eps, vbs,
                                        running_mean, running_var, rho)
        for got, ref in zip((y, cache["xhat"], cache["inv_stds"], new_mean, new_var), want):
            np.testing.assert_array_equal(got, ref)
        got_back = bn_backward(dy, cache)
        want_back = oracles.ghost_bn_backward(dy, want[1], want[2], gamma, vbs)
        for got, ref in zip(got_back, want_back):
            np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(x, x_in)
        np.testing.assert_array_equal(dy, dy_in)


class TestForward:
    def test_all_zero_logits_loss_is_log_k(self):
        cfg = small_config(use_bn=False, label_smoothing=0.3)
        store = init_mlp(cfg)
        store["w1"].values[:] = 0.0
        store["w2"].values[:] = 0.0
        batch = random_batch(cfg, 8)
        _, loss, _, _ = forward(store, BnRunningStats.for_config(cfg), batch, cfg)
        assert loss == pytest.approx(math.log(2), rel=1e-12)

    def test_loss_decomposition(self):
        for tau in (0.0, 0.15, 0.7, 1.0):
            cfg = small_config(label_smoothing=tau)
            store = init_mlp(cfg)
            stats = BnRunningStats.for_config(cfg)
            batch = random_batch(cfg, 16, seed=3)
            _, loss, _, _ = forward(store, stats, batch, cfg)
            cfg0 = small_config(label_smoothing=0.0)
            _, ce_onehot, _, _ = forward(store, stats, batch, cfg0)
            cfg1 = small_config(label_smoothing=1.0)
            _, ce_uniform, _, _ = forward(store, stats, batch, cfg1)
            assert loss == pytest.approx((1 - tau) * ce_onehot + tau * ce_uniform,
                                         abs=1e-12)

    def test_feature_mismatch_rejected(self):
        cfg = small_config()
        store = init_mlp(cfg)
        bad = Batch(np.zeros((8, 3)), np.zeros(8, dtype=int))
        with pytest.raises(ShapeMismatch):
            forward(store, BnRunningStats.for_config(cfg), bad, cfg)

    @pytest.mark.parametrize("store_cfg,cfg", [
        (small_config(use_bn=False), small_config()),
        (small_config(), small_config(use_bn=False)),
        # 14 parameters each: w1 (1, 1), b1, w2 (1, 6), b2 against w1 (1, 3), b1, w2 (3, 2), b2
        (small_config(layer_widths=[1, 1, 6], use_bn=False),
         small_config(layer_widths=[1, 3, 2], use_bn=False)),
    ], ids=["no-bn-store-under-bn", "bn-store-under-no-bn", "same-size-other-shapes"])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_a_store_laid_out_for_another_model_is_rejected(self, store_cfg, cfg, mode):
        """The layer plan compares the store's layout with the config's and
        raises before any write: the store keeps its values and its plan."""
        store = init_mlp(store_cfg)
        kept = store.flat.copy()
        with pytest.raises(ShapeMismatch, match="the store has"):
            forward(store, BnRunningStats.for_config(cfg), random_batch(cfg, 8), cfg, mode=mode)
        np.testing.assert_array_equal(store.flat, kept)
        assert store.layer_plan is None

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_label_out_of_range_rejected(self, mode):
        """Before the pass writes anything: the last train forward's cache,
        targets included, stays fresh and backward still takes it."""
        cfg = small_config()
        store = init_mlp(cfg)
        stats = BnRunningStats.for_config(cfg)
        batch = random_batch(cfg, 8)
        _, _, cache, _ = forward(store, stats, batch, cfg)
        want = backward(cache, store, cfg)
        _, _, cache, _ = forward(store, stats, batch, cfg)
        # every in-range label differs from the cached batch's, the last is out of range
        labels = 1 - batch.labels
        labels[-1] = 2
        bad = Batch(np.zeros((8, 2)), labels)
        with pytest.raises(InvalidConfig, match="label out of range"):
            forward(store, stats, bad, cfg, mode=mode)
        got = backward(cache, store, cfg)
        for name in want:
            np.testing.assert_array_equal(got[name], want[name])

    @pytest.mark.parametrize("mode", ["Eval", "evaluate", "TRAIN"])
    def test_unknown_mode_rejected_before_the_pass(self, mode):
        """No pass runs: the last train forward's cache stays fresh and backward
        still takes it."""
        cfg = small_config()
        store = init_mlp(cfg)
        stats = BnRunningStats.for_config(cfg)
        batch = random_batch(cfg, 16)
        _, _, cache, _ = forward(store, stats, batch, cfg)
        want = backward(cache, store, cfg)
        _, _, cache, _ = forward(store, stats, batch, cfg)
        with pytest.raises(InvalidConfig, match="mode must be 'train' or 'eval'"):
            forward(store, stats, batch, cfg, mode=mode)
        got = backward(cache, store, cfg)
        for name in want:
            np.testing.assert_array_equal(got[name], want[name])

    def test_determinism_bitwise(self):
        cfg = small_config(label_smoothing=0.1)
        batch = random_batch(cfg, 16, seed=5)
        outs = []
        for _ in range(2):
            store = init_mlp(cfg)
            stats = BnRunningStats.for_config(cfg)
            logits, loss, cache, _ = forward(store, stats, batch, cfg)
            grads = backward(cache, store, cfg)
            outs.append((logits, loss, grads))
        np.testing.assert_array_equal(outs[0][0], outs[1][0])
        assert outs[0][1] == outs[1][1]
        for name in outs[0][2]:
            np.testing.assert_array_equal(outs[0][2][name], outs[1][2][name])


class TestBackward:
    def test_logit_gradient_rows_sum_to_zero(self):
        cfg = small_config(use_bn=False)
        store = init_mlp(cfg)
        batch = random_batch(cfg, 8)
        _, _, cache, _ = forward(store, BnRunningStats.for_config(cfg), batch, cfg)
        probs = np.exp(cache["log_p"])
        dlogits = probs - cache["targets"]
        np.testing.assert_allclose(dlogits.sum(axis=1), 0.0, atol=1e-12)

    def test_tau_one_uniform_target_gradient(self):
        labels = np.array([0, 1])
        targets = target_table(2, 1.0)[labels]
        np.testing.assert_allclose(targets, 0.5)

    def test_eval_cache_rejected(self):
        cfg = small_config()
        store = init_mlp(cfg)
        batch = random_batch(cfg, 8)
        _, _, cache, _ = forward(store, BnRunningStats.for_config(cfg), batch, cfg,
                                 mode="eval")
        with pytest.raises(StaleCache):
            backward(cache, store, cfg)

    @pytest.mark.parametrize("cache", [None, (1, 2), "train", {}, {"mode": "train"}],
                             ids=["none", "tuple", "text", "empty", "mode-only"])
    def test_anything_but_a_train_cache_rejected_before_any_write(self, cache):
        cfg = small_config()
        store = init_mlp(cfg)
        out = np.full(store.flat.size, 7.0)
        with pytest.raises(StaleCache):
            backward(cache, store, cfg, out=out)
        assert (out == 7.0).all()

    def test_cache_of_another_store_rejected(self):
        cfg = small_config()
        store, other = init_mlp(cfg, rng_seed=1), init_mlp(cfg, rng_seed=2)
        _, _, cache, _ = forward(store, BnRunningStats.for_config(cfg), random_batch(cfg, 8),
                                 cfg)
        with pytest.raises(StaleCache, match="another store"):
            backward(cache, other, cfg)
        # a rejected store leaves the cache usable
        backward(cache, store, cfg)

    def test_out_of_the_wrong_length_rejected(self):
        cfg = small_config(layer_widths=[2, 4, 2])
        store = init_mlp(cfg)
        _, _, cache, _ = forward(store, BnRunningStats.for_config(cfg), random_batch(cfg, 8),
                                 cfg)
        for out in (np.empty(store.flat.size + 5), np.empty(3)):
            with pytest.raises(LengthMismatch):
                backward(cache, store, cfg, out=out)
        # a rejected `out` leaves the cache usable
        backward(cache, store, cfg, out=np.empty(store.flat.size))

    def test_out_numpy_cannot_write_into_rejected_before_any_write(self):
        """A right-length `out` that is strided, float32 or int64 is not one a
        product can write into; it is refused before the plan's stamp moves,
        so the same cache still serves a backward, with the gradients of a
        fresh store's."""
        cfg = small_config(layer_widths=[2, 16, 2])
        batch = random_batch(cfg, 16, seed=42)
        other = init_mlp(cfg)
        _, _, fresh, _ = forward(other, BnRunningStats.for_config(cfg), batch, cfg)
        want = backward(fresh, other, cfg)
        store = init_mlp(cfg)
        _, _, cache, _ = forward(store, BnRunningStats.for_config(cfg), batch, cfg)
        size = store.flat.size
        for out in (np.full(2 * size, 7.0)[::2], np.full(size, 7, dtype=np.float32),
                    np.full(size, 7, dtype=np.int64)):
            with pytest.raises(LengthMismatch, match="C-contiguous float64"):
                backward(cache, store, cfg, out=out)
            assert (out == 7).all()
        got = backward(cache, store, cfg, out=np.empty(size))
        for name in want:
            np.testing.assert_array_equal(got[name], want[name])


class TestTrainWorkspace:
    """A train forward runs in its store's row plan for the batch size."""

    def _step(self, store, cfg, batch):
        stats = BnRunningStats.for_config(cfg)
        logits, loss, cache, new_stats = forward(store, stats, batch, cfg)
        return logits, loss, new_stats.values, backward(cache, store, cfg)

    def _assert_same(self, got, want):
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1] == want[1]
        np.testing.assert_array_equal(got[2], want[2])
        for name in want[3]:
            np.testing.assert_array_equal(got[3][name], want[3][name])

    def test_next_train_forward_reuses_buffers_and_stales_cache(self):
        cfg = small_config(layer_widths=[2, 16, 8, 2])
        store = init_mlp(cfg)
        stats = BnRunningStats.for_config(cfg)
        logits1, _, first, _ = forward(store, stats, random_batch(cfg, 16, seed=1), cfg)
        logits2, _, second, _ = forward(store, stats, random_batch(cfg, 16, seed=2), cfg)
        assert np.shares_memory(first["work"].top, second["work"].top)
        assert not np.shares_memory(logits1, logits2)
        with pytest.raises(StaleCache):
            backward(first, store, cfg)
        grads = backward(second, store, cfg)
        assert not any(np.shares_memory(g, second["work"].top) for g in grads.values())
        with pytest.raises(StaleCache, match="a backward"):
            backward(second, store, cfg)

    def test_eval_forward_leaves_train_cache_valid(self):
        cfg = small_config(layer_widths=[2, 16, 8, 2])
        batch = random_batch(cfg, 16, seed=3)
        want = self._step(init_mlp(cfg), cfg, batch)
        store = init_mlp(cfg)
        stats = BnRunningStats.for_config(cfg)
        logits, loss, cache, new_stats = forward(store, stats, batch, cfg)
        forward(store, new_stats, random_batch(cfg, 16, seed=4), cfg, mode="eval")
        forward(store, new_stats, random_batch(cfg, 24, seed=5), cfg, mode="eval")
        self._assert_same((logits, loss, new_stats.values, backward(cache, store, cfg)),
                          want)

    def test_train_forward_reads_the_store_as_it_is_then(self):
        """A narrow model's train forward gathers its tiles of the biases, BN
        scales and shifts from `flat` anew: after new values are written into
        `flat`, its logits, loss, running statistics and gradients equal, bit
        for bit, those of a fresh store that holds those values."""
        cfg = small_config(layer_widths=[2, 16, 8, 3], label_smoothing=0.1)
        store = init_mlp(cfg, rng_seed=43)
        batch = random_batch(cfg, 16, seed=44)
        self._step(store, cfg, batch)
        assert layer_plan(store, cfg).row_plan(16, "train").tiles is not None
        values = np.random.default_rng(45).normal(size=store.flat.size)
        store.flat[:] = values
        fresh = ParamStore(store.layout, values.copy())
        self._assert_same(self._step(store, cfg, batch), self._step(fresh, cfg, batch))

    def test_batch_sizes_each_match_a_fresh_store(self):
        cfg = small_config(layer_widths=[2, 16, 8, 2])
        store = init_mlp(cfg)
        for n, seed in ((16, 6), (32, 7), (16, 8), (8, 9)):
            batch = random_batch(cfg, n, seed=seed)
            self._assert_same(self._step(store, cfg, batch),
                              self._step(init_mlp(cfg), cfg, batch))

    def test_forward_after_non_finite_input_matches_fresh_store(self):
        cfg = small_config(layer_widths=[2, 16, 8, 2])
        store = init_mlp(cfg)
        batch = random_batch(cfg, 16, seed=11)
        # the second BN layer's input overflows once the first has run; the
        # layers after it run on, and no warning comes before the error
        w2 = store["w2"].values
        kept = w2.copy()
        w2[:] = 1e308
        with np.errstate(over="ignore"), warnings.catch_warnings(), \
                pytest.raises(NonFiniteInput, match="BN input"):
            warnings.simplefilter("error")
            forward(store, BnRunningStats.for_config(cfg), batch, cfg)
        w2[:] = kept
        self._assert_same(self._step(store, cfg, batch),
                          self._step(init_mlp(cfg), cfg, batch))

    def test_running_stats_are_per_layer_views(self):
        cfg = small_config(layer_widths=[2, 16, 8, 2])
        stats = BnRunningStats.for_config(cfg)
        _, _, _, new_stats = forward(init_mlp(cfg), stats, random_batch(cfg, 16), cfg)
        for each in (stats, new_stats):
            assert [m.shape for m in each.means] == [(16,), (8,)]
            assert [v.shape for v in each.vars] == [(16,), (8,)]
            assert all(np.shares_memory(a, each.values) for a in each.means + each.vars)
        for mean, var in zip(stats.means, stats.vars):
            np.testing.assert_array_equal(mean, 0.0)
            np.testing.assert_array_equal(var, 1.0)

    @pytest.mark.parametrize("widths,use_bn,n,vbs", [([2, 16, 8, 2], True, 32, 8),
                                                     ([2, 16, 8, 12, 2], [True, False, True],
                                                      32, 8),
                                                     ([2, 1, 1, 2], True, 64, 4)],
                             ids=["bn-16-8", "bn-16-plain-8-bn-12", "bn-1-1"])
    def test_running_stats_of_unequal_widths_match_the_oracle(self, widths, use_bn, n, vbs):
        """BN layers narrower than the widest keep their statistics in narrower
        views of the row plan's layer-major buffers; the running statistics
        still come out side by side, as oracles.ghost_bn_forward gives them.
        The width-1 layers' 16 virtual batches are where the sums must stay an
        accumulate down the sub-batches: np.add.reduce over that axis sums a
        width-1 column pairwise, in another order, from 8 virtual batches on."""
        cfg = small_config(layer_widths=widths, use_bn=use_bn, bn_stats_decay=0.8,
                           virtual_batch_size=vbs)
        store = init_mlp(cfg, rng_seed=12)
        stats = BnRunningStats.for_config(cfg)
        want = [(np.zeros(c), np.ones(c)) for c, on in zip(widths[1:-1], cfg.use_bn) if on]
        for seed in (13, 14):
            batch = random_batch(cfg, n, seed=seed)
            _, _, _, stats = forward(store, stats, batch, cfg)
            x, k = batch.inputs, 0
            for i, (c_in, c_out) in enumerate(zip(widths, widths[1:-1])):
                z = x @ store[f"w{i + 1}"].values.reshape(c_in, c_out) + store[f"b{i + 1}"].values
                if cfg.use_bn[i]:
                    z, _, _, *want[k] = oracles.ghost_bn_forward(
                        z, store[f"bn{i + 1}_scale"].values, store[f"bn{i + 1}_shift"].values,
                        cfg.bn_epsilon, cfg.virtual_batch_size, *want[k], cfg.bn_stats_decay)
                    k += 1
                x = np.maximum(z, 0.0)
            assert len(stats.means) == len(stats.vars) == len(want)
            for mean, var, (want_mean, want_var) in zip(stats.means, stats.vars, want):
                np.testing.assert_array_equal(mean, want_mean)
                np.testing.assert_array_equal(var, want_var)

    def test_padding_of_a_narrower_bn_layer_stays_zero(self):
        """A BN layer narrower than the widest leaves the columns of `values`
        past its width at zero in both rows, through every train step."""
        cfg = small_config(layer_widths=[2, 16, 8, 2], virtual_batch_size=4)
        store = init_mlp(cfg, rng_seed=15)
        stats = BnRunningStats.for_config(cfg)
        assert stats.values.shape == (2, 2, 16)
        for seed in (16, 17, 18):
            _, _, _, stats = forward(store, stats, random_batch(cfg, 8, seed=seed), cfg)
            np.testing.assert_array_equal(stats.values[:, 1, 8:], np.zeros((2, 8)))


@st.composite
def _poisoned_forwards(draw):
    """(config, store, batch) of a small model, BN on, off or mixed, with one
    value poisoned: a batch input at +-inf or NaN, a weight of a layer past
    the first at +-1e308 (one entry or all), or an output weight at +-inf or
    NaN."""
    hidden = draw(st.lists(st.sampled_from([2, 4, 8, 16]), min_size=1, max_size=3))
    widths = [draw(st.integers(1, 4)), *hidden, draw(st.integers(2, 4))]
    vbs = draw(st.sampled_from([1, 2, 4, 8]))
    cfg = MlpConfig(layer_widths=widths, use_bn=draw(st.lists(
        st.booleans(), min_size=len(hidden), max_size=len(hidden))), virtual_batch_size=vbs,
        label_smoothing=draw(st.sampled_from([0.0, 0.1])))
    store = init_mlp(cfg, rng_seed=draw(st.integers(0, 999)))
    batch = random_batch(cfg, vbs * draw(st.integers(1, 4)), seed=draw(st.integers(0, 999)))
    where = draw(st.sampled_from(["input", "deep", "output"]))
    if where == "input":
        target = batch.inputs.reshape(-1)
        values = st.sampled_from([np.inf, -np.inf, np.nan])
    else:
        last = len(widths) - 1
        layer = last if where == "output" else draw(st.integers(2, last))
        target = store[f"w{layer}"].values
        values = st.sampled_from([np.inf, -np.inf, np.nan] if where == "output"
                                 else [1e308, -1e308])
    if where == "deep" and draw(st.booleans()):
        target[:] = draw(values)
    else:
        target[draw(st.integers(0, target.size - 1))] = draw(values)
    return cfg, store, batch


class TestDeferredChecks:
    """A train forward checks its BN means and logits only where its loss is
    not finite, and then raises what the eager checks raise, in their order."""

    @settings(max_examples=200, deadline=None)
    @given(_poisoned_forwards())
    def test_poisoned_forward_matches_the_eager_order(self, case):
        """The same message as the oracle's first failing check, or the same
        loss: equal where it is finite or infinite, NaN where it is NaN (the
        sign of a NaN hangs on where the loss is negated). No warning but
        overflow's comes before the result."""
        cfg, store, batch = case
        want = oracles.reference_train_forward(store, cfg, batch.inputs, batch.labels)
        with np.errstate(over="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = forward(store, BnRunningStats.for_config(cfg), batch, cfg)[1]
            except NonFiniteInput as exc:
                got = str(exc)
        if isinstance(want, str) or not math.isnan(want):
            assert type(got) is type(want) and got == want
        else:
            assert isinstance(got, float) and math.isnan(got)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("use_bn", [False, True], ids=["plain", "bn"])
    def test_non_finite_logits_are_named(self, mode, use_bn):
        """An infinite output weight leaves every BN input finite and makes a
        column of logits infinite or NaN: either mode names the logits."""
        cfg = small_config(layer_widths=[2, 16, 8, 3], use_bn=use_bn)
        store = init_mlp(cfg, rng_seed=19)
        store["w3"].values[0] = np.inf
        with np.errstate(invalid="ignore"), \
                pytest.raises(NonFiniteInput, match="^non-finite logits$"):
            forward(store, BnRunningStats.for_config(cfg), random_batch(cfg, 16, seed=20), cfg,
                    mode=mode)

    def test_finite_logits_may_give_a_non_finite_loss(self):
        """Logits finite but far apart overflow log-softmax: both checks pass,
        and the train forward returns the non-finite loss as the oracle does."""
        cfg = small_config(layer_widths=[2, 16, 2], use_bn=False)
        store = init_mlp(cfg, rng_seed=21)
        store["w2"].values[:] = [1e307, -1e307] * 16
        batch = random_batch(cfg, 16, seed=22)
        with np.errstate(over="ignore", invalid="ignore"):
            logits, loss, _, _ = forward(store, BnRunningStats.for_config(cfg), batch, cfg)
        assert np.isfinite(logits).all() and not math.isfinite(loss)
        want = oracles.reference_train_forward(store, cfg, batch.inputs, batch.labels)
        assert math.isnan(loss) == math.isnan(want) and (math.isnan(loss) or loss == want)


LARGE_BATCH_WIDTHS = [16, 256, 256, 10]
BLOCKED_SHAPES = [(LARGE_BATCH_WIDTHS, 4096), (LARGE_BATCH_WIDTHS, 1024),
                  (LARGE_BATCH_WIDTHS, 1300), ([2, 16, 16, 2], 513)]
BLOCKED_IDS = ["large-4096", "large-1024", "large-1300", "parity-513"]


class TestEvalBuffers:
    """An eval forward walks its rows in blocks through its store's eval
    buffers, which hold one block each."""

    def _trained_stats(self, store, cfg):
        _, _, _, stats = forward(store, BnRunningStats.for_config(cfg),
                                 random_batch(cfg, 16, seed=20), cfg)
        return stats

    @pytest.mark.parametrize("use_bn", [True, False])
    def test_row_counts_each_match_a_fresh_store(self, use_bn):
        cfg = small_config(layer_widths=[2, 16, 8, 2], use_bn=use_bn)
        store = init_mlp(cfg)
        stats = self._trained_stats(store, cfg)
        for n, seed in ((24, 21), (8, 22), (40, 23)):
            batch = random_batch(cfg, n, seed=seed)
            logits, loss, _, _ = forward(store, stats, batch, cfg, mode="eval")
            want_logits, want_loss, _, _ = forward(init_mlp(cfg), stats, batch, cfg,
                                                   mode="eval")
            np.testing.assert_array_equal(logits, want_logits)
            assert loss == want_loss

    def test_next_eval_forward_leaves_logits_and_inputs_alone(self):
        cfg = small_config(layer_widths=[2, 16, 8, 2])
        store = init_mlp(cfg)
        stats = self._trained_stats(store, cfg)
        first, second = random_batch(cfg, 24, seed=24), random_batch(cfg, 24, seed=25)
        inputs = first.inputs.copy()
        logits, _, cache, _ = forward(store, stats, first, cfg, mode="eval")
        kept = logits.copy()
        forward(store, stats, second, cfg, mode="eval")
        np.testing.assert_array_equal(logits, kept)
        np.testing.assert_array_equal(first.inputs, inputs)
        buffers = layer_plan(store, cfg)._eval
        assert not any(np.shares_memory(value, buf) for value in cache.values()
                       if isinstance(value, np.ndarray) for buf in buffers)

    def test_standalone_bn_forward_leaves_its_input_alone(self):
        rng = np.random.default_rng(26)
        x = rng.normal(size=(12, 4))
        gamma, beta = rng.normal(size=4), rng.normal(size=4)
        mean, var = rng.normal(size=4), rng.uniform(0.5, 2.0, size=4)
        kept = x.copy()
        y, cache, _, _ = bn_forward(x, gamma, beta, 1e-5, 4, "eval", mean, var, 0.9)
        np.testing.assert_array_equal(x, kept)
        assert cache is None and not np.shares_memory(y, x)
        np.testing.assert_array_equal(y, (kept - mean) * (1.0 / np.sqrt(var + 1e-5))
                                      * gamma + beta)

    def test_second_forward_allocates_less_than_one_activation(self):
        cfg = MlpConfig(layer_widths=[16, 256, 256, 10], use_bn=True, virtual_batch_size=64)
        store = init_mlp(cfg)
        stats = BnRunningStats.for_config(cfg)
        n = 1024
        batch = random_batch(cfg, n, seed=27)
        want, _, _, _ = forward(store, stats, batch, cfg, mode="eval")
        tracemalloc.start()
        try:
            logits, _, _, _ = forward(store, stats, batch, cfg, mode="eval")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(logits, want)
        assert peak < n * 256 * 8

    def test_first_forward_on_a_fresh_store_allocates_less_than_one_activation(self):
        cfg = MlpConfig(layer_widths=LARGE_BATCH_WIDTHS, use_bn=True, virtual_batch_size=64)
        store = init_mlp(cfg)
        stats = BnRunningStats.for_config(cfg)
        n = 4096
        batch = random_batch(cfg, n, seed=28)
        tracemalloc.start()
        try:
            forward(store, stats, batch, cfg, mode="eval")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * 256 * 8

    @pytest.mark.parametrize("widths,n", BLOCKED_SHAPES, ids=BLOCKED_IDS)
    @pytest.mark.parametrize("use_bn", [True, False])
    def test_blocked_forward_matches_reference_bitwise(self, use_bn, widths, n):
        self._check_blocked_forward(use_bn, widths, n)

    @pytest.mark.parametrize("widths,n", BLOCKED_SHAPES, ids=BLOCKED_IDS)
    @pytest.mark.parametrize("use_bn", [True, False])
    def test_blocked_forward_with_the_worker_matches_reference_bitwise(self, worker_on,
                                                                       use_bn, widths, n):
        self._check_blocked_forward(use_bn, widths, n)

    def _check_blocked_forward(self, use_bn, widths, n):
        # 1300 and 513 rows end in a block that overlaps the one before it
        cfg = MlpConfig(layer_widths=widths, use_bn=use_bn, virtual_batch_size=64)
        store = init_mlp(cfg, rng_seed=29)
        stats = BnRunningStats.for_config(cfg)
        rng = np.random.default_rng(30)
        # one draw of means, then one of variances, over the layers side by side
        size = sum(mean.size for mean in stats.means)
        cuts = np.cumsum([mean.size for mean in stats.means])[:-1]
        for views, draw in ((stats.means, rng.normal(size=size)),
                            (stats.vars, rng.uniform(0.5, 2.0, size=size))):
            for view, part in zip(views, np.split(draw, cuts)):
                view[:] = part
        batch = random_batch(cfg, n, seed=31)
        logits, loss, _, _ = forward(store, stats, batch, cfg, mode="eval")

        p = {g.name: g.values.reshape(g.shape) for g in store}
        layers = [(f"w{i}", f"b{i}", f"bn{i}_scale" if use_bn and i < 3 else None,
                   f"bn{i}_shift" if use_bn and i < 3 else None) for i in (1, 2, 3)]
        running = list(zip(stats.means, stats.vars))
        want_logits, want_loss, _ = oracles._reference_forward(
            p, layers, running, batch.inputs, batch.labels, cfg, "eval")
        np.testing.assert_array_equal(logits, want_logits)
        assert loss == want_loss


def _train_step(store, cfg, batch):
    """A train forward and backward: logits, loss, BN stats and the gradient."""
    stats = BnRunningStats.for_config(cfg)
    logits, loss, cache, new_stats = forward(store, stats, batch, cfg)
    grad = np.empty_like(store.flat)
    backward(cache, store, cfg, out=grad)
    return logits, loss, new_stats.values, grad


def _wide_step_in_child(store, cfg, batch, want_loss):
    # exits 0 only if a train step split into two row pieces runs and
    # gives the parent's loss
    _, loss, _, _ = _train_step(store, cfg, batch)
    sys.exit(0 if loss == want_loss else 3)


# a run of the large-batch model whose weights reach about 1e200 after the
# first step, so that the next products overflow, on the worker too
OVERFLOWING_WIDE_RUN = {
    "model": {"layer_widths": LARGE_BATCH_WIDTHS, "use_bn": False},
    "data": {"classes": 10, "features": 16, "per_class": 16, "spread": 3.0, "seed": 1},
    "optimizer": [{"tags": ["weight", "bias", "bn_scale", "bn_shift"],
                   "config": {"kind": "heavy_ball", "momentum": 0.0}}],
    "schedule": {"family": "constant", "eta_peak": 1e200, "total_steps": 5},
    "budget_steps": 5, "batch_size": 64, "eval_every": 1,
}

# the large-batch model with BN at batch 1024 over 1,024 train rows: its
# steps split at row 512, and so does its 256-row eval set's forward at 128
WIDE_BN_RUN = {
    "model": {"layer_widths": LARGE_BATCH_WIDTHS, "use_bn": True, "virtual_batch_size": 64},
    "data": {"classes": 10, "features": 16, "per_class": 128, "spread": 3.0, "seed": 1},
    "optimizer": [{"tags": ["weight", "bias", "bn_scale", "bn_shift"],
                   "config": {"kind": "heavy_ball", "momentum": 0.9}}],
    "schedule": {"family": "constant", "eta_peak": 0.01, "total_steps": 3},
    "budget_steps": 3, "batch_size": 1024, "eval_every": 1,
}


# the large-batch model and routing, LAMB on the weights and Adam on the rest,
# with an eval point after each of its two steps over 1,024 train rows
WIDE_LAMB_RUN = {
    "model": {"layer_widths": LARGE_BATCH_WIDTHS, "use_bn": True, "virtual_batch_size": 64},
    "data": {"classes": 10, "features": 16, "per_class": 128, "spread": 3.0, "seed": 2},
    "optimizer": [{"tags": ["weight"], "config": {"kind": "lamb", "decay": 1e-4,
                                                  "exclude_tags": ["bias", "bn_scale",
                                                                   "bn_shift"]}},
                  {"tags": ["bias", "bn_scale", "bn_shift"], "config": {"kind": "adam"}}],
    "schedule": {"family": "constant", "eta_peak": 0.01, "total_steps": 2},
    "budget_steps": 2, "batch_size": 1024, "eval_every": 1,
}


def _block_spans(cache):
    """Per piece of a train-mode BN cache, the (start, stop) rows of each of its
    ghost-BN blocks, read from where the block views sit in the cache's "x"."""
    x, spans = cache["x"], []
    for piece in cache["pieces"]:
        spans.append([])
        for ys, *_ in piece["blocks"]:
            start = (ys.ctypes.data - x.ctypes.data) // x.strides[0]
            spans[-1].append((start, start + ys.shape[0] * ys.shape[1]))
    return spans


@st.composite
def _train_plan_shapes(draw):
    """(layer widths, use_bn per hidden layer, virtual batch size, rows): some
    BN layers wide enough for blocks of a few virtual batches, some plans wide
    enough to split, and rows that are a multiple of the virtual batch."""
    width = st.sampled_from([2, 8, 16, 40, 64, 200, 256, 300])
    hidden = draw(st.lists(st.tuples(width, st.booleans()), min_size=1, max_size=3))
    vbs = draw(st.integers(1, 320))
    n = vbs * draw(st.integers(1, 2100 // vbs))
    widths = [draw(width), *(c for c, _ in hidden), draw(st.integers(2, 10))]
    return widths, [on for _, on in hidden], vbs, n


def _poisoned_at_step_2(row):
    """A `_BatchStream.next_batch` that makes one input of the second batch's
    `row` infinite, so that only that row's BN input is non-finite."""
    next_batch, calls = harness._BatchStream.next_batch, []

    def poisoned(stream):
        batch = next_batch(stream)
        calls.append(row)
        if len(calls) == 2:
            batch.inputs[row, 0] = np.inf
        return batch
    return poisoned


class TestWorker:
    """Wide steps run in two row pieces, one on a worker thread, where the
    process may use two or more CPUs beside numpy's bundled OpenBLAS, which
    `model` pins to one thread, with every result unchanged."""

    # (widths, virtual batch size, rows, mode, blocks, pieces with the worker
    # on): the cut points of the large-batch and parity models at their eval
    # sets' and batches' sizes. Eval blocks are row spans, train blocks are
    # each BN layer's ghost-BN blocks, and eval pieces are spans of a block.
    CUTS = [
        (LARGE_BATCH_WIDTHS, 64, 1300, "eval", [(0, 512), (512, 1024), (800, 1300)],
         [(0, 256), (256, 512)]),
        (LARGE_BATCH_WIDTHS, 64, 4096, "eval", [(k, k + 512) for k in range(0, 4096, 512)],
         [(0, 256), (256, 512)]),
        (LARGE_BATCH_WIDTHS, 64, 1024, "train", [[(0, 256), (256, 512), (512, 768),
                                                  (768, 1024)]] * 2, [(0, 512), (512, 1024)]),
        ([2, 16, 16, 2], 32, 64, "train", [[(0, 64)]] * 2, [(0, 64)]),
        ([2, 16, 16, 2], 32, 64, "eval", [(0, 64)], [(0, 64)]),
        ([2, 16, 16, 2], 32, 512, "train", [[(0, 512)]] * 2, [(0, 512)]),
    ]

    @pytest.mark.parametrize("on", [True, False])
    def test_only_wide_products_split(self, monkeypatch, on):
        monkeypatch.setattr(model, "_USE_WORKER", on)

        def spans(cuts):
            return [spans(cut) if isinstance(cut, list) else (cut.start, cut.stop)
                    for cut in cuts]
        for widths, vbs, n, mode, blocks, pieces in self.CUTS:
            cfg = MlpConfig(layer_widths=widths, use_bn=True, virtual_batch_size=vbs)
            cut = layer_plan(init_mlp(cfg), cfg).row_plan(n, mode)
            if mode == "eval":
                assert spans(cut.blocks) == blocks
            else:  # each BN layer's blocks, piece after piece
                assert [[span for piece in _block_spans(cache) for span in piece]
                        for *_, cache in cut.back if cache is not None] == blocks
            whole = min(n, 512) if mode == "eval" else n
            assert spans(cut.pieces) == (pieces if on else [(0, whole)])
            if mode == "train":  # only the last piece runs on the calling thread
                assert [(rows, here) for rows, _, here in cut.walk] == [
                    (piece, piece is cut.pieces[-1]) for piece in cut.pieces]

    @settings(max_examples=200, deadline=None)
    @given(shape=_train_plan_shapes())
    def test_train_plans_split_where_every_bn_layer_starts_a_block(self, shape):
        """With the worker on, a train plan with a wide product splits at the
        multiple of EVAL_BLOCK_ALIGN rows nearest the middle at which a ghost-BN
        block of every BN layer starts (the lower on a tie), unless that leaves
        a piece under 3/8 of the rows; each BN layer's blocks tile each piece."""
        widths, use_bn, vbs, n = shape
        cfg = MlpConfig(layer_widths=widths, use_bn=use_bn, virtual_batch_size=vbs)
        with mock.patch.object(model, "_USE_WORKER", True):
            rows = model.RowPlan(model.LayerPlan(init_mlp(cfg), cfg), n, "train")
        block_rows = [max(1, model.BN_BLOCK_ELEMS // (vbs * c)) * vbs
                      for c, on in zip(widths[1:-1], use_bn) if on]
        align = model.EVAL_BLOCK_ALIGN
        starts = [row for row in range(align, n, align)
                  if all(row % rows_per_block == 0 for rows_per_block in block_rows)]
        split = min(starts, key=lambda row: abs(2 * row - n), default=0)
        if (8 * min(split, n - split) < 3 * n
                or all(n * a * b <= model.WIDE_PRODUCT for a, b in zip(widths, widths[1:]))):
            split = 0
        assert [(piece.start, piece.stop) for piece in rows.pieces] == (
            [(0, split), (split, n)] if split else [(0, n)])
        for piece in rows.pieces[1:]:
            assert piece.start % align == 0
            assert all(piece.start % rows_per_block == 0 for rows_per_block in block_rows)
        caches = [cache for *_, cache in rows.back if cache is not None]
        assert len(caches) == len(block_rows)
        for cache, rows_per_block in zip(caches, block_rows):
            for piece, spans in zip(rows.pieces, _block_spans(cache), strict=True):
                assert spans[0][0] == piece.start and spans[-1][1] == piece.stop
                assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
                assert all(0 < stop - start <= rows_per_block for start, stop in spans)
                assert all(stop - start == rows_per_block for start, stop in spans[:-1])

    # (virtual batch size, rows, the split with BN, without): BN walks blocks of
    # max(256, vbs) rows here. 96 rows split only at row 64 with BN, too far
    # from the middle; 1000 split at row 496 without BN, so the second piece is
    # not a multiple of 16 rows, and at 512 with BN, since 496 is inside a
    # block; 960 rows in 320-row BN blocks have no split near the middle.
    @pytest.mark.parametrize("vbs,n,bn_split,split", [
        pytest.param(8, 96, 0, 48, id="96"),
        pytest.param(8, 1000, 512, 496, id="1000"),
        pytest.param(8, 1024, 512, 512, id="1024"),
        pytest.param(320, 960, 0, 480, id="vbs320-960"),
    ])
    @pytest.mark.parametrize("use_bn", [True, False])
    def test_train_step_matches_one_call_products_bitwise(self, monkeypatch, use_bn, vbs, n,
                                                          bn_split, split):
        cfg = MlpConfig(layer_widths=LARGE_BATCH_WIDTHS, use_bn=use_bn, virtual_batch_size=vbs)
        batch = random_batch(cfg, n, seed=32)
        monkeypatch.setattr(model, "_USE_WORKER", False)
        want = _train_step(init_mlp(cfg, rng_seed=33), cfg, batch)
        monkeypatch.setattr(model, "_USE_WORKER", True)
        store = init_mlp(cfg, rng_seed=33)
        got = _train_step(store, cfg, batch)
        assert layer_plan(store, cfg).row_plan(n, "train").pieces[-1].start == (
            bn_split if use_bn else split)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("widths,vbs,n,mode,products,on_worker", [
        (LARGE_BATCH_WIDTHS, 64, 1024, "train", 10, 4),
        ([2, 16, 16, 2], 32, 64, "train", 8, 0),
        (LARGE_BATCH_WIDTHS, 64, 1300, "eval", 15, 6),
    ], ids=["large-train-1024", "parity-train-64", "large-eval-1300"])
    def test_every_product_goes_through_the_plan(self, worker_on, widths, vbs, n, mode,
                                                 products, on_worker):
        """Every matrix product of a train forward and backward, or of an eval
        forward, calls its row plan's `product`, those of a split backward
        included: per hidden layer and piece one forward product, per hidden
        layer the weight gradient (on the worker where the plan splits) and
        the gradient at its input, then the input layer's weight gradient and
        one output product per eval block or train step."""
        cfg = MlpConfig(layer_widths=widths, use_bn=True, virtual_batch_size=vbs)
        store = init_mlp(cfg, rng_seed=40)
        rows = layer_plan(store, cfg).row_plan(n, mode)
        product, threads, lock = rows.product, [], threading.Lock()

        def counted(*args, **kwargs):
            with lock:
                threads.append(threading.current_thread().name)
            return product(*args, **kwargs)
        rows.product = counted
        batch = random_batch(cfg, n, seed=41)
        if mode == "train":
            _train_step(store, cfg, batch)
        else:
            forward(store, BnRunningStats.for_config(cfg), batch, cfg, mode="eval")
        assert len(threads) == products
        assert threads.count("optparity-worker") == on_worker

    def test_worker_runs_under_the_callers_error_state(self, monkeypatch):
        """The run ignores overflow (np.errstate) and classifies it; the worker's
        piece must too, or its warning would stop the run. A non-finite BN input
        in the worker's rows alone, or in the calling thread's alone, ends the
        run as it does without the worker, and the worker is free afterwards."""
        wide_bn = harness.parse_config(WIDE_BN_RUN)
        monkeypatch.setattr(model, "_USE_WORKER", True)
        plan = layer_plan(init_mlp(wide_bn.model), wide_bn.model)
        assert plan.row_plan(1024, "train").pieces[-1].start == 512
        # (run, poisoned batch row or None, the step at which it diverges)
        for doc, row, step in [(OVERFLOWING_WIDE_RUN, None, 1), (WIDE_BN_RUN, 0, 2),
                               (WIDE_BN_RUN, 1023, 2)]:
            config = harness.parse_config(doc)
            results = []
            for on in (False, True):
                with monkeypatch.context() as patch:
                    patch.setattr(model, "_USE_WORKER", on)
                    if row is not None:
                        patch.setattr(harness._BatchStream, "next_batch", _poisoned_at_step_2(row))
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        results.append(harness.run_training(config))
                # a worker left held would block the next run for good
                assert not model._the_worker()._busy.locked()
            assert results[0] == results[1]
            assert (results[1].status, results[1].diverged_step) == ("diverged", step)
        monkeypatch.setattr(model, "_USE_WORKER", False)
        want = harness.run_training(wide_bn)
        monkeypatch.setattr(model, "_USE_WORKER", True)
        got = harness.run_training(wide_bn)
        assert got == want and got.status == "completed"

    def test_bn_entry_points_run_on_the_main_thread_once_per_layer(self, worker_on,
                                                                   monkeypatch):
        """perfbench's tracer wraps bn_forward and bn_backward and keeps one
        span stack, so the worker calls neither: each runs on the main thread
        once per BN layer and step, while the worker normalizes its own rows."""
        cfg = MlpConfig(layer_widths=LARGE_BATCH_WIDTHS, use_bn=True, virtual_batch_size=64)
        store = init_mlp(cfg, rng_seed=38)
        batch = random_batch(cfg, 1024, seed=39)
        calls = []

        def recording(name):
            fn = getattr(model, name)

            def record(*args, **kwargs):
                calls.append((name, threading.current_thread()))
                return fn(*args, **kwargs)
            monkeypatch.setattr(model, name, record)

        for name in ("bn_forward", "bn_backward", "_normalize"):
            recording(name)
        _train_step(store, cfg, batch)
        main = threading.main_thread()
        assert [call for call in calls if call[0] != "_normalize"] == (
            [("bn_forward", main)] * 2 + [("bn_backward", main)] * 2)
        assert sorted(t.name for name, t in calls if name == "_normalize") == (
            sorted([main.name, "optparity-worker"] * 2))

    def test_worker_enters_no_traced_name(self, worker_on, monkeypatch):
        """perfbench's tracer wraps bn_forward, bn_backward, every update rule
        and every kernel, and keeps one span stack: a whole wide run, eval
        points included, enters each on the main thread only, while the
        worker normalizes its rows."""
        calls = []

        def recording(owner, name, fn):
            def record(*args, **kwargs):
                calls.append((name, threading.current_thread()))
                return fn(*args, **kwargs)
            if isinstance(owner, dict):
                monkeypatch.setitem(owner, name, record)
            else:
                monkeypatch.setattr(owner, name, record)

        for name in ("bn_forward", "bn_backward", "_normalize"):
            recording(model, name, getattr(model, name))
        for kind, fn in list(optim._UPDATE_FNS.items()):
            recording(optim._UPDATE_FNS, kind, fn)
        for name, fn in list(vars(kernels).items()):
            if callable(fn) and getattr(fn, "__module__", None) == kernels.__name__:
                recording(kernels, name, fn)
        result = harness.run_training(harness.parse_config(WIDE_LAMB_RUN))
        assert result.status == "completed" and len(result.history) == 2
        main = threading.main_thread()
        entered = {name for name, thread in calls if thread is main}
        assert entered >= {"bn_forward", "bn_backward", "lamb", "adam", "adam_moments",
                           "adam_direction"}
        assert {name for name, thread in calls if thread is not main} == {"_normalize"}

    def test_threads_sharing_the_worker_each_get_their_own_products(self, worker_on):
        cfg = MlpConfig(layer_widths=LARGE_BATCH_WIDTHS, use_bn=True, virtual_batch_size=64)
        batch = random_batch(cfg, 512, seed=36)  # two BN blocks, split at row 256
        want = _train_step(init_mlp(cfg, rng_seed=37), cfg, batch)
        assert layer_plan(init_mlp(cfg), cfg).row_plan(512, "train").pieces[-1].start == 256
        results = {}

        def steps(i):
            store = init_mlp(cfg, rng_seed=37)
            results[i] = [_train_step(store, cfg, batch) for _ in range(5)]

        threads = [threading.Thread(target=steps, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(results) == [0, 1, 2, 3]
        for got in (step for runs in results.values() for step in runs):
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)

    def test_forked_child_starts_its_own_worker(self, worker_on):
        cfg = MlpConfig(layer_widths=LARGE_BATCH_WIDTHS, use_bn=True, virtual_batch_size=64)
        store = init_mlp(cfg, rng_seed=34)
        batch = random_batch(cfg, 1024, seed=35)
        _, want_loss, _, _ = _train_step(store, cfg, batch)  # starts the worker
        assert model._worker is not None
        child = multiprocessing.get_context("fork").Process(
            target=_wide_step_in_child, args=(store, cfg, batch, want_loss))
        child.start()
        child.join(timeout=60)
        hung = child.is_alive()
        if hung:
            child.kill()
            child.join()
        assert not hung and child.exitcode == 0


# a 5-step run shaped like the large-batch benchmark; at 2 steps, two OpenBLAS
# threads and one still gave the same bits
PINNED_RUN = {
    "model": {"layer_widths": LARGE_BATCH_WIDTHS, "use_bn": True, "virtual_batch_size": 64,
              "init_seed": 1},
    "data": {"classes": 10, "features": 16, "per_class": 512, "spread": 3.0, "seed": 11},
    "optimizer": [{"tags": ["weight"], "config": {"kind": "lamb", "decay": 1e-4,
                                                  "exclude_tags": ["bias", "bn_scale",
                                                                   "bn_shift"]}},
                  {"tags": ["bias", "bn_scale", "bn_shift"], "config": {"kind": "adam"}}],
    "schedule": {"family": "poly_warmup_decay", "eta_peak": 0.01, "t_warmup": 2,
                 "total_steps": 5},
    "budget_steps": 5, "batch_size": 1024, "eval_every": 5,
}

# numpy's bundled OpenBLAS, found as `model` looks for it
FIND_BLAS = ("import ctypes, glob, os, numpy as np; home = os.path.dirname(np.__file__); "
             "blas = ctypes.CDLL((glob.glob(home + '.libs/*openblas*') "
             "+ glob.glob(home + '/.dylibs/*openblas*'))[0]); ")


def _in_child(code, *args, threads=None):
    """The output of `code` run with `args` in a fresh interpreter, with none of
    OpenBLAS's thread variables set but OPENBLAS_NUM_THREADS=`threads`, if given."""
    src = str(Path(model.__file__).resolve().parents[1])
    env = {name: value for name, value in os.environ.items()
           if name not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    child = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                           text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    return child.stdout


class TestBlasPin:
    """Importing `model` pins numpy's bundled OpenBLAS to one thread for the
    process, so a config gives one result whatever the environment says."""

    def test_wide_run_gives_one_result_whatever_the_thread_variables(self):
        code = ("import json, sys; from optparity import harness; "
                "print(repr(harness.run_training(harness.parse_config(json.loads(sys.argv[1])))))")
        results = [_in_child(code, json.dumps(PINNED_RUN), threads=threads)
                   for threads in (None, "2", "1")]
        assert "completed" in results[0]
        assert results[1] == results[0] and results[2] == results[0]

    @pytest.mark.parametrize("found", [True, False])
    def test_pin_and_worker_follow_the_library_lookup(self, found):
        """Set to two threads before the import, the bundled OpenBLAS runs one
        after it; when the lookup finds no library, nothing is pinned and the
        worker stays off."""
        hide = "" if found else "glob.glob = lambda pattern, **kw: []; "
        code = (FIND_BLAS + "blas.scipy_openblas_set_num_threads64_(2); " + hide +
                "from optparity import model; "
                "print(model._USE_WORKER, blas.scipy_openblas_get_num_threads64_())")
        worker = found and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1
        assert _in_child(code).split() == [str(worker), "1" if found else "2"]


class TestFiniteDifference:
    @pytest.mark.parametrize("use_bn,vbs,tau,seed", [
        (True, 8, 0.0, 0),
        (True, 16, 0.1, 1),
        (False, 16, 1.0, 2),
        (True, 8, 0.1, 3),
    ])
    def test_gradcheck(self, use_bn, vbs, tau, seed):
        cfg = MlpConfig([3, 12, 8, 3], use_bn=use_bn, virtual_batch_size=vbs,
                        label_smoothing=tau, init_seed=seed)
        store = init_mlp(cfg)
        stats = BnRunningStats.for_config(cfg)
        batch = random_batch(cfg, 16, seed=seed)
        err = finite_difference_check(store, stats, batch, cfg, 1e-5, seed=seed)
        assert err <= 1e-5

    def test_frozen_gamma_layer_still_checked(self):
        cfg = MlpConfig([2, 8, 8, 2], use_bn=True, bn_gamma_init=0.0,
                        virtual_batch_size=8, init_seed=1)
        store = init_mlp(cfg)
        # move the frozen layer's shift off zero so no ReLU input sits
        # exactly on the kink; gamma stays 0
        store["bn2_shift"].values[:] = np.linspace(-0.4, 0.4, 8)
        stats = BnRunningStats.for_config(cfg)
        batch = random_batch(cfg, 16, seed=1)
        err = finite_difference_check(store, stats, batch, cfg, 1e-5, seed=1)
        assert err <= 1e-5

    def test_h_zero_rejected(self):
        cfg = small_config()
        store = init_mlp(cfg)
        with pytest.raises(InvalidConfig):
            finite_difference_check(store, BnRunningStats.for_config(cfg),
                                    random_batch(cfg, 8), cfg, 0.0)


class TestSyntheticDataset:
    def test_determinism(self):
        a = gen_synthetic_dataset(2, 2, 64, 1.0, 42)
        b = gen_synthetic_dataset(2, 2, 64, 1.0, 42)
        np.testing.assert_array_equal(a[0].inputs, b[0].inputs)
        np.testing.assert_array_equal(a[1].labels, b[1].labels)

    def test_split_sizes(self):
        train, ev = gen_synthetic_dataset(2, 2, 256, 1.0, 0)
        assert len(train) == 410
        assert len(ev) == 102

    def test_tiny_spread_linearly_separable(self):
        train, _ = gen_synthetic_dataset(3, 2, 50, 1e-6, 11)
        # nearest-centroid classification should be perfect
        centroids = np.stack([
            train.inputs[train.labels == c].mean(axis=0) for c in range(3)
        ])
        d = ((train.inputs[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        assert (d.argmin(axis=1) == train.labels).all()

    def test_bad_args(self):
        with pytest.raises(InvalidConfig):
            gen_synthetic_dataset(1, 2, 10, 1.0, 0)
        with pytest.raises(InvalidConfig):
            gen_synthetic_dataset(2, 2, 10, 0.0, 0)
