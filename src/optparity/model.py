"""Desk-scale supervised workload.

A fully-connected ReLU network with optional batch normalization per
hidden layer. BN statistics are computed over fixed-size "virtual"
sub-batches of the training batch, so the training objective matches the
small-batch one even when the optimizer sees a large batch. The loss is
label-smoothed softmax cross-entropy. Backprop is hand-derived and
verified coordinate-wise against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    IndivisibleBatch,
    InvalidConfig,
    LengthMismatch,
    NonFiniteInput,
    ShapeMismatch,
    StaleCache,
    UnknownGroupName,
)
from .param_store import ParamGroup, ParamStore, all_finite, build_param_store, const


@dataclass
class MlpConfig:
    layer_widths: list[int]
    use_bn: list[bool] | bool = False
    bn_gamma_init: list[float] | float = 1.0
    bn_epsilon: float = 1e-5
    bn_stats_decay: float = 0.9
    virtual_batch_size: int = 64
    label_smoothing: float = 0.0
    init_seed: int = 0

    def __post_init__(self):
        if len(self.layer_widths) < 2 or any(w <= 0 for w in self.layer_widths):
            raise InvalidConfig("layer_widths needs >= 2 positive entries")
        if self.layer_widths[-1] < 2:
            raise InvalidConfig("need at least 2 classes")
        n_hidden = len(self.layer_widths) - 2
        if isinstance(self.use_bn, bool):
            self.use_bn = [self.use_bn] * n_hidden
        if len(self.use_bn) != n_hidden:
            raise InvalidConfig("use_bn must have one entry per hidden layer")
        n_bn = sum(self.use_bn)
        if isinstance(self.bn_gamma_init, (int, float)):
            # scalar = gamma_0 policy: 1.0 everywhere, the given value on
            # the last BN layer (mirrors the residual-block init rule)
            gammas = [1.0] * n_bn
            if n_bn:
                gammas[-1] = float(self.bn_gamma_init)
            self.bn_gamma_init = gammas
        if len(self.bn_gamma_init) != n_bn:
            raise InvalidConfig("bn_gamma_init must have one entry per BN layer")
        if self.bn_epsilon <= 0:
            raise InvalidConfig("bn_epsilon must be > 0")
        if not 0.0 <= self.bn_stats_decay < 1.0:
            raise InvalidConfig("bn_stats_decay must be in [0, 1)")
        if self.virtual_batch_size <= 0:
            raise InvalidConfig("virtual_batch_size must be positive")
        if not 0.0 <= self.label_smoothing <= 1.0:
            raise InvalidConfig("label_smoothing must be in [0, 1]")

    @property
    def n_classes(self) -> int:
        return self.layer_widths[-1]


@dataclass
class Batch:
    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2 or self.inputs.shape[0] != self.labels.shape[0]:
            raise ShapeMismatch("inputs/labels row mismatch")
        if self.inputs.shape[0] < 1:
            raise ShapeMismatch("empty batch")
        if np.any(self.labels < 0):
            raise InvalidConfig("negative label")

    def __len__(self):
        return self.inputs.shape[0]


class BnRunningStats:
    """Per-BN-layer exponential moving averages used at eval time.

    Every BN layer's statistics sit side by side, in model order, in one
    (2, W) array `values`: means in row 0, variances in row 1. `means` and
    `vars` are per-layer views of it. A train step makes a new array and
    never writes into one, so stats objects may share theirs.
    """

    def __init__(self, values: np.ndarray, layers: tuple[slice, ...]):
        self.values = values
        self.layers = layers

    @property
    def means(self) -> list[np.ndarray]:
        return [self.values[0, layer] for layer in self.layers]

    @property
    def vars(self) -> list[np.ndarray]:
        return [self.values[1, layer] for layer in self.layers]

    def updated(self, sums: np.ndarray, decay: tuple) -> "BnRunningStats":
        """The statistics after a train batch whose virtual batches' means and
        variances sum to `sums`, laid out like `values`; `decay` is as
        `_running_update` takes it, and `sums` is overwritten."""
        return BnRunningStats(_running_update(self.values, sums, decay), self.layers)

    @classmethod
    def for_config(cls, config: MlpConfig) -> "BnRunningStats":
        layers, start = [], 0
        for i, on in enumerate(config.use_bn):
            if on:
                layers.append(slice(start, start + config.layer_widths[i + 1]))
                start = layers[-1].stop
        values = np.zeros((2, start))
        values[1] = 1.0
        return cls(values, tuple(layers))


def _running_update(old, sums, decay):
    """rho * old + (1 - rho) * sums / n_sub as a new array, for any number of BN
    layers at once, where `decay` is (rho, 1 - rho, n_sub); `sums` is overwritten."""
    rho, keep, n_sub = decay
    sums *= keep
    sums /= n_sub
    new = np.multiply(rho, old)
    new += sums
    return new


def init_mlp(config: MlpConfig, rng_seed: int | None = None) -> ParamStore:
    """Seeded init: weights uniform with scale 1/sqrt(fan_in), biases zero,
    BN scales set per the gamma_0 policy, BN shifts zero."""
    seed = config.init_seed if rng_seed is None else rng_seed
    rng = np.random.default_rng(seed)
    groups = []
    widths = config.layer_widths
    bn_idx = 0
    for i in range(len(widths) - 1):
        fan_in, fan_out = widths[i], widths[i + 1]
        scale = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-scale, scale, size=(fan_in, fan_out))
        groups.append(ParamGroup(f"w{i + 1}", "weight", w.ravel(), (fan_in, fan_out)))
        groups.append(ParamGroup(f"b{i + 1}", "bias", np.zeros(fan_out), (fan_out,)))
        if i < len(widths) - 2 and config.use_bn[i]:
            gamma0 = config.bn_gamma_init[bn_idx]
            groups.append(
                ParamGroup(f"bn{i + 1}_scale", "bn_scale",
                           np.full(fan_out, gamma0), (fan_out,))
            )
            groups.append(
                ParamGroup(f"bn{i + 1}_shift", "bn_shift", np.zeros(fan_out), (fan_out,))
            )
            bn_idx += 1
    return build_param_store(groups)


# Ghost BN walks the batch in blocks of whole virtual batches holding at most
# this many float64 values (128 KB): one 64x256 sub-batch of the large-batch
# workload. A block's temporaries then stay in cache however large the batch
# is, while a small batch is one block and costs one numpy call per operation.
BN_BLOCK_ELEMS = 16_384

# An eval forward walks the rows in blocks of at most this many, so each
# hidden layer's activations take one (512, width) buffer however large the
# eval set is. A block ends at a multiple of 512 rows or at the last row, and
# starts at a multiple of EVAL_BLOCK_ALIGN rows: past the first 512 rows the
# last block starts at the first such multiple that leaves it at most 512
# rows, so it overlaps the block before it. OpenBLAS gives each row of a
# product the bits of the one-call product only when the call runs the
# kernel path of the one call and its rows sit on the same offsets within
# the kernel's row tiles: with OpenBLAS 0.3.31 a 276-row or one-row
# remainder block, or 256-row blocks, change bits (tests/test_model.py).
EVAL_BLOCK_ROWS = 512
EVAL_BLOCK_ALIGN = 16

_ZERO, _ONE = const(0.0), const(1.0)


def _eval_blocks(n):
    """The row slices an eval forward over n rows walks (see EVAL_BLOCK_ROWS)."""
    last = max(0, -(-(n - EVAL_BLOCK_ROWS) // EVAL_BLOCK_ALIGN) * EVAL_BLOCK_ALIGN)
    starts = [*range(0, last, EVAL_BLOCK_ROWS), last]
    return [slice(start, min(start + EVAL_BLOCK_ROWS, n)) for start in starts]


def _vb_blocks(n_sub, vbs, width):
    """Slices of the virtual-batch axis, each a block of whole virtual batches."""
    per_block = max(1, BN_BLOCK_ELEMS // (vbs * width))
    return [slice(k, k + per_block) for k in range(0, n_sub, per_block)]


def _ghost_bn_cache(y, gamma, vbs, stat_rows, dx=None):
    """A train-mode BN cache over the (n, c) buffer `y`, with its block views.

    bn_forward normalizes `y` in place through the cache: it writes x-hat and
    the per-virtual-batch inverse standard deviations into the cache's own
    buffers and each virtual batch's mean and variance into `stat_rows`, a
    (2, n // vbs, c) view. Given the (n, c) buffer `dx`, the cache also holds
    the views through which bn_backward writes dx over dy there; it then
    uses `y`, which the model's backward has read by that time, as scratch.
    """
    n, c = y.shape
    n_sub = n // vbs
    xhat = np.empty((n, c))
    inv_stds = np.empty((n_sub, c))
    y3, xhat3 = y.reshape(n_sub, vbs, c), xhat.reshape(n_sub, vbs, c)
    blocks = []
    for blk in _vb_blocks(n_sub, vbs, c):
        mu, var, inv = stat_rows[0, blk], stat_rows[1, blk], inv_stds[blk]
        blocks.append((y3[blk], xhat3[blk], mu, mu[:, None], var, inv, inv[:, None]))
    cache = {"xhat": xhat, "inv_stds": inv_stds, "vbs": const(vbs), "gamma": gamma,
             "blocks": blocks, "dx": dx}
    if dx is not None:
        cache["dx_blocks"] = _dx_blocks(dx, xhat, inv_stds, scratch=y)
    return cache


def _dx_blocks(dx, xhat, inv_stds, scratch=None):
    """bn_backward's views over `dx`: the (n, c) `scratch` (allocated when not
    given), and per block (dx, x-hat, scratch, a (blocks, 1, c) column buffer,
    1/std as a column)."""
    n, c = dx.shape
    n_sub = inv_stds.shape[0]
    vbs = n // n_sub
    if scratch is None:
        scratch = np.empty((n, c))
    cols = np.empty((n_sub, 1, c))
    dx3, xhat3, scratch3 = (a.reshape(n_sub, vbs, c) for a in (dx, xhat, scratch))
    return scratch, [(dx3[blk], xhat3[blk], scratch3[blk], cols[blk], inv_stds[blk, None])
                     for blk in _vb_blocks(n_sub, vbs, c)]


def bn_forward(x, gamma, beta, bn_epsilon, virtual_batch_size, mode,
               running_mean, running_var, stats_decay, cache=None):
    """Ghost batch normalization over consecutive sub-batches.

    Train mode normalizes each sub-batch with its own biased statistics
    and updates the running averages with the sub-batch mean statistic:
    running <- rho * running + (1 - rho) * batch.
    Eval mode normalizes with the running statistics.
    Returns (y, cache, running_mean', running_var').

    Given a train-mode `cache` built over `x` (see `_ghost_bn_cache`), the
    call reuses it: y is written over `x` and the running statistics are
    returned as given, since the caller updates every layer's at once from
    the sums the cache's stat rows hold.
    """
    _check_bn_input(x)
    n = x.shape[0]
    if mode == "eval":
        y = _bn_eval(np.array(x, dtype=np.float64), gamma, beta, running_mean, running_var,
                     bn_epsilon)
        return y, None, running_mean, running_var
    if n % virtual_batch_size != 0:
        raise IndivisibleBatch(f"{n} rows vs virtual batch {virtual_batch_size}")
    if cache is not None:
        _normalize(cache["blocks"], gamma, beta, bn_epsilon, cache["vbs"])
        return x, cache, running_mean, running_var
    n_sub = n // virtual_batch_size
    y = np.array(x, dtype=np.float64)
    # Per-sub-batch means and variances after a zero row each, so that the
    # running sums below add them to zero in sub-batch order, as a loop does.
    sub_stats = np.zeros((2, n_sub + 1, x.shape[1]))
    cache = _ghost_bn_cache(y, np.asarray(gamma, dtype=np.float64), virtual_batch_size,
                            sub_stats[:, 1:])
    _normalize(cache["blocks"], gamma, beta, bn_epsilon, cache["vbs"])
    sums = np.add.accumulate(sub_stats, axis=1)[:, -1]
    new_mean, new_var = _running_update(np.stack([running_mean, running_var]), sums,
                                        (stats_decay, 1.0 - stats_decay, n_sub))
    return y, cache, new_mean, new_var


def _check_bn_input(x):
    if not all_finite(x):
        raise NonFiniteInput("BN input contains NaN/Inf")


def _bn_eval(z, gamma, beta, running_mean, running_var, bn_epsilon):
    """Eval-mode BN written over `z`: (z - mean) * inv * gamma + beta, in that order."""
    inv = 1.0 / np.sqrt(running_var + bn_epsilon)
    z -= running_mean
    z *= inv
    z *= gamma
    z += beta
    return z


def _normalize(blocks, gamma, beta, bn_epsilon, vbs):
    """Train-mode ghost BN in place over the block views of `_ghost_bn_cache`."""
    for ys, d, mu, mu_col, var, inv, inv_col in blocks:
        # np.mean's and np.var's own steps (sum, then divide by the count), so
        # the results match theirs bit for bit, with x - mu computed once;
        # ys holds x, then the squares, then y
        np.add.reduce(ys, axis=1, out=mu)
        mu /= vbs
        np.subtract(ys, mu_col, out=d)
        np.add.reduce(np.square(d, out=ys), axis=1, out=var)
        var /= vbs
        np.add(var, bn_epsilon, out=inv)
        np.sqrt(inv, out=inv)
        np.divide(_ONE, inv, out=inv)
        d *= inv_col
        np.multiply(d, gamma, out=ys)
        ys += beta


def bn_backward(dy, cache, out=None):
    """Gradient through ghost BN; returns (dx, dgamma, dbeta).

    `out`, if given, is the (dx, dgamma, dbeta) arrays to write; dx may be
    `dy` itself, which is then overwritten once dgamma and dbeta are summed.
    """
    xhat, gamma, vbs = cache["xhat"], cache["gamma"], cache["vbs"]
    dx, dgamma, dbeta = out if out is not None else (None, None, None)
    if dx is None:
        dx = dy.copy()
    elif dx is not dy:
        np.copyto(dx, dy)
    if dx is cache["dx"]:
        scratch, blocks = cache["dx_blocks"]
    else:
        scratch, blocks = _dx_blocks(dx, xhat, cache["inv_stds"])
    dgamma = np.add.reduce(np.multiply(dy, xhat, out=scratch), axis=0, out=dgamma)
    dbeta = np.add.reduce(dy, axis=0, out=dbeta)
    for d, xh, dxhat, col, inv_col in blocks:
        # (inv / vbs) * (vbs * dxhat - sum(dxhat) - xh * sum(dxhat * xh)),
        # evaluated in this order, as the per-virtual-batch loop did; d holds
        # dy until dxhat is taken from it
        np.multiply(d, gamma, out=dxhat)
        sum_dxhat = np.add.reduce(dxhat, axis=1, keepdims=True, out=col)
        np.multiply(vbs, dxhat, out=d)
        d -= sum_dxhat
        dxhat *= xh
        np.multiply(xh, np.add.reduce(dxhat, axis=1, keepdims=True, out=col), out=dxhat)
        d -= dxhat
        d *= np.divide(inv_col, vbs, out=col)
    return dx, dgamma, dbeta


def _loss_buffers(n, k):
    """What `_smoothed_loss` writes for n rows of k classes: (log_p, an (n, k)
    scratch buffer, an (n, 1) column, an (n,) row buffer)."""
    return np.empty((n, k)), np.empty((n, k)), np.empty((n, 1)), np.empty(n)


def _smoothed_loss(logits, targets, buffers):
    """(loss, log_p): the mean cross-entropy of `logits` against the rows of
    `targets`, and the log-softmax, written into the `_loss_buffers` given.

    The steps are z = logits - max, log_p = z - log(sum(exp(z))) and
    -(targets * log_p).sum(axis=1).mean(), each as numpy computes it.
    """
    log_p, scratch, col, rows = buffers
    np.subtract(logits, np.maximum.reduce(logits, axis=1, keepdims=True, out=col), out=log_p)
    col = np.add.reduce(np.exp(log_p, out=scratch), axis=1, keepdims=True, out=col)
    log_p -= np.log(col, out=col)
    np.add.reduce(np.multiply(targets, log_p, out=scratch), axis=1, out=rows)
    return -float(np.add.reduce(rows) / rows.shape[0]), log_p


def target_table(n_classes, tau):
    """Row k is the smoothed target of label k: (1-tau)*onehot(k) + tau/K."""
    return (1.0 - tau) * np.eye(n_classes) + tau / n_classes


def smoothed_targets(labels, n_classes, tau):
    return target_table(n_classes, tau)[labels]


class LayerPlan:
    """What forward and backward need of one store under one model config.

    `layers` holds, per affine layer, its weight matrix, bias and (for a
    hidden layer with BN) BN scale and shift as views into the store's
    `flat`, which a store never replaces; `targets` is the smoothed-target
    table and `eps` the BN epsilon as a constant. `grad_views(out)` gives the
    same groups' views into a gradient vector laid out like `flat`,
    `workspace(n)` the train-mode buffers for batches of n rows, and
    `eval_buffers(n)` the eval-mode activation buffers of one row block.
    """

    def __init__(self, params: ParamStore, config: MlpConfig):
        self.config = config
        segments = {seg.name: seg for seg in params.segments}
        n_layers = len(config.layer_widths) - 1
        self._segments = []
        for i in range(1, n_layers + 1):
            names = [f"w{i}", f"b{i}"]
            if i < n_layers and config.use_bn[i - 1]:
                names += [f"bn{i}_scale", f"bn{i}_shift"]
            try:
                self._segments.append([segments[name] for name in names])
            except KeyError as exc:
                raise UnknownGroupName(exc.args[0]) from None
        covered = sum(seg.stop - seg.start for segs in self._segments for seg in segs)
        if covered != params.flat.size:
            raise ShapeMismatch(f"store holds {params.flat.size} parameters, "
                                f"the model {covered}")
        self.layers = self._views(params.flat)
        self.targets = target_table(config.n_classes, config.label_smoothing)
        self.eps = const(config.bn_epsilon)
        self._out = None
        self._workspaces = {}
        self._eval = None

    def _views(self, vec: np.ndarray) -> list[tuple]:
        """Per layer (weight, bias, BN scale or None, BN shift or None) over `vec`."""
        views = []
        for segs in self._segments:
            layer = [vec[seg.start:seg.stop].reshape(seg.shape) for seg in segs]
            views.append(tuple(layer + [None] * (4 - len(layer))))
        return views

    def grad_views(self, out: np.ndarray):
        """(per-layer views, {group name: flat view}) into `out`."""
        if out is not self._out:
            self._layer_grads = self._views(out)
            self._named_grads = {seg.name: out[seg.start:seg.stop]
                                 for segs in self._segments for seg in segs}
            self._out = out
        return self._layer_grads, self._named_grads

    def workspace(self, n: int) -> "TrainWorkspace":
        """The train-mode buffers for batches of `n` rows, built on first use."""
        work = self._workspaces.get(n)
        if work is None:
            work = self._workspaces[n] = TrainWorkspace(self, n)
        return work

    def eval_buffers(self, n: int) -> list[np.ndarray]:
        """Per hidden layer a (min(n, EVAL_BLOCK_ROWS), width) activation buffer
        for an eval-mode pass over n rows: the first rows of (EVAL_BLOCK_ROWS,
        width) buffers built on first use, which every eval forward on the
        store shares. A store that only trains never builds them."""
        if self._eval is None:
            self._eval = [np.empty((EVAL_BLOCK_ROWS, w.shape[1]))
                          for w, _, _, _ in self.layers[:-1]]
        rows = min(n, EVAL_BLOCK_ROWS)
        return [buf[:rows] for buf in self._eval]


class TrainWorkspace:
    """The buffers every train forward and backward of one plan at one batch
    size reuse; each train forward overwrites them.

    `hidden` holds per hidden layer (weight, bias, BN scale, BN shift, act,
    mask, dz, BN cache or None): the layer's parameters as in the plan; the
    affine output, over which BN writes y and the ReLU its output, which the
    next layer reads; the ReLU mask; and the gradient at the affine output,
    over which BN's backward writes dx. A BN cache holds x-hat, the inverse
    standard deviations and the block views (`_ghost_bn_cache`); BN's
    backward overwrites the activation, so a cache serves one backward.
    `back` holds per hidden layer what backward reads: the next layer's
    weight and this layer's input transposed (None for the batch's inputs),
    the mask, dz and the BN cache. `sub_stats` holds every BN layer's
    per-virtual-batch means and variances after a zero row, side by side as
    in `BnRunningStats.values`, and `decay` is the running update's
    constants. `targets` holds the batch's smoothed targets and `loss` the
    `_loss_buffers`, whose scratch buffer backward reuses for the logits'
    gradient; `n_rows` is the batch size as a constant. `stamp` counts the
    train forwards and backwards that have written the workspace, so that a
    cache can tell it is stale.
    """

    def __init__(self, plan: LayerPlan, n: int):
        config = plan.config
        vbs = config.virtual_batch_size
        bn_width = sum(w.shape[1] for w, _, gamma, _ in plan.layers[:-1] if gamma is not None)
        self.stamp = 0
        self.sub_stats = self.stat_sums = self.decay = None
        if bn_width:
            if n % vbs != 0:
                raise IndivisibleBatch(f"{n} rows vs virtual batch {vbs}")
            self.sub_stats = np.zeros((2, n // vbs + 1, bn_width))
            self.stat_sums = np.empty_like(self.sub_stats)
            rho = config.bn_stats_decay
            self.decay = (const(rho), const(1.0 - rho), const(n // vbs))
        self.hidden, self.back = [], []
        start, x_in_t = 0, None
        for (w, b, gamma, beta), (w_next, _, _, _) in zip(plan.layers, plan.layers[1:]):
            c = w.shape[1]
            act, mask, dz = np.empty((n, c)), np.empty((n, c), dtype=bool), np.empty((n, c))
            bn_cache = None
            if gamma is not None:
                rows = self.sub_stats[:, 1:, start:start + c]
                bn_cache = _ghost_bn_cache(act, gamma, vbs, rows, dx=dz)
                start += c
            self.hidden.append((w, b, gamma, beta, act, mask, dz, bn_cache))
            self.back.append((w_next.T, x_in_t, mask, dz, bn_cache))
            x_in_t = act.T
        self.targets = np.empty((n, config.n_classes))
        self.loss = _loss_buffers(n, config.n_classes)
        self.n_rows = const(n)


def layer_plan(params: ParamStore, config: MlpConfig) -> LayerPlan:
    """The store's plan for `config`, built on first use and kept with the store."""
    plan = params.layer_plan
    if plan is None or plan.config is not config:
        plan = params.layer_plan = LayerPlan(params, config)
    return plan


def forward(params: ParamStore, stats: BnRunningStats, batch: Batch,
            config: MlpConfig, mode: str = "train"):
    """Full forward pass. Returns (logits, loss, cache, stats').

    Hidden layers: affine -> BN (if enabled) -> ReLU. The loss is the
    mean cross-entropy against (1-tau)*onehot + tau/K targets.

    A train-mode pass runs in the plan's workspace for the batch size, so its
    cache holds views of it and goes stale once a backward has used it or at
    the next train forward on the same store and batch size. An eval-mode
    pass walks the rows in blocks (`_eval_blocks`): each block runs through
    every hidden layer in the plan's eval buffers, which the next block and
    the next eval forward on the store overwrite, and writes its output-layer
    product into its rows of the logits; the bias, the logits check and the
    loss then run once over all rows. Its cache holds no view of the
    buffers. The logits are a new array in both modes.
    """
    x, labels = batch.inputs, batch.labels
    widths = config.layer_widths
    if x.shape[1] != widths[0]:
        raise ShapeMismatch(f"batch has {x.shape[1]} features, model expects {widths[0]}")
    if np.maximum.reduce(labels) >= widths[-1]:  # a Batch holds no negative label
        raise InvalidConfig("label out of range")
    plan = layer_plan(params, config)
    n = x.shape[0]
    new_stats = stats
    w_out, b_out, _, _ = plan.layers[-1]
    if mode == "eval":
        running = list(zip(stats.means, stats.vars))
        block_buffers = plan.eval_buffers(n)
        logits = np.empty((n, widths[-1]))
        for rows in _eval_blocks(n):
            h, bn_stats = x[rows], iter(running)
            for (w, b, gamma, beta), buf in zip(plan.layers, block_buffers):
                z = buf[:h.shape[0]]
                np.matmul(h, w, out=z)
                z += b
                if gamma is not None:
                    _check_bn_input(z)
                    _bn_eval(z, gamma, beta, *next(bn_stats), plan.eps)
                np.maximum(z, _ZERO, out=z)
                h = z
            np.matmul(h, w_out, out=logits[rows])
        targets, buffers = None, _loss_buffers(n, widths[-1])
        cache = {"mode": mode}
    else:
        work = plan.workspace(n)
        work.stamp += 1
        cache = {"mode": mode, "plan": plan, "work": work, "stamp": work.stamp, "inputs": x}
        for w, b, gamma, beta, act, mask, _, bn_cache in work.hidden:
            np.matmul(x, w, out=act)
            act += b
            if gamma is not None:
                bn_forward(act, gamma, beta, plan.eps, config.virtual_batch_size,
                           mode, None, None, config.bn_stats_decay, cache=bn_cache)
            np.greater(act, _ZERO, out=mask)
            np.maximum(act, _ZERO, out=act)
            x = act
        if work.decay is not None:
            sums = np.add.accumulate(work.sub_stats, axis=1, out=work.stat_sums)[:, -1]
            new_stats = stats.updated(sums, work.decay)
        targets, buffers = work.targets, work.loss
        cache["last_input"] = x
        logits = np.matmul(x, w_out)
    # every label is in range, and mode="clip" lets take write `out` unbuffered
    targets = plan.targets.take(labels, axis=0, out=targets, mode="clip")
    logits += b_out
    if not all_finite(logits):
        raise NonFiniteInput("non-finite logits")
    loss, cache["log_p"] = _smoothed_loss(logits, targets, buffers)
    cache["targets"] = targets
    return logits, loss, cache, new_stats


def backward(cache, params: ParamStore, config: MlpConfig,
             out: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """Exact gradients of the smoothed loss for every group.

    Each group's gradient is written into its slice of `out`, a vector laid
    out like the store's `flat` (allocated when not given); returns the
    flat views of those slices by group name. `cache` must come from the
    latest train forward on this store at its batch size, and serves one
    backward: BN's backward uses the activations, once read, as scratch.
    """
    if cache.get("mode") != "train":
        raise StaleCache("backward needs a train-mode forward cache")
    work = cache["work"]
    if cache["stamp"] != work.stamp:
        raise StaleCache("a backward or a later train forward at this batch size "
                         "overwrote the cache")
    if out is None:
        out = np.empty(params.flat.size)
    elif out.shape != params.flat.shape:
        raise LengthMismatch(f"out {out.shape} vs the store's {params.flat.shape}")
    work.stamp += 1
    layer_grads, named = cache["plan"].grad_views(out)
    dz = np.exp(cache["log_p"], out=work.loss[1])
    dz -= cache["targets"]
    dz /= work.n_rows
    gw, gb, _, _ = layer_grads[-1]
    np.matmul(cache["last_input"].T, dz, out=gw)
    np.add.reduce(dz, axis=0, out=gb)
    for k in range(len(work.back) - 1, -1, -1):
        w_next_t, x_in_t, mask, dx, bn_cache = work.back[k]
        gw, gb, gscale, gshift = layer_grads[k]
        np.matmul(dz, w_next_t, out=dx)
        dx *= mask
        if bn_cache is not None:
            bn_backward(dx, bn_cache, out=(dx, gscale, gshift))
        np.matmul(cache["inputs"].T if x_in_t is None else x_in_t, dx, out=gw)
        np.add.reduce(dx, axis=0, out=gb)
        dz = dx
    return named


def _loss_highprec(values: dict[str, np.ndarray], batch: Batch, config: MlpConfig):
    """Straight-line extended-precision re-implementation of the train loss.

    Independent of forward(); used only as the finite-difference oracle.
    Extended precision keeps the difference quotient noise floor below the
    check tolerance even for structurally flat coordinates (a bias feeding
    a BN layer is cancelled exactly by the mean subtraction).
    """
    ld = np.longdouble
    x = batch.inputs.astype(ld)
    widths = config.layer_widths
    vbs = config.virtual_batch_size
    for i in range(len(widths) - 2):
        z = x @ values[f"w{i + 1}"].reshape(widths[i], widths[i + 1])
        z = z + values[f"b{i + 1}"]
        if config.use_bn[i]:
            y = np.empty_like(z)
            for k in range(z.shape[0] // vbs):
                sl = slice(k * vbs, (k + 1) * vbs)
                mu = z[sl].mean(axis=0)
                var = ((z[sl] - mu) ** 2).mean(axis=0)
                y[sl] = (z[sl] - mu) / np.sqrt(var + ld(config.bn_epsilon))
            z = y * values[f"bn{i + 1}_scale"] + values[f"bn{i + 1}_shift"]
        x = np.maximum(z, ld(0.0))
    last = len(widths) - 1
    logits = x @ values[f"w{last}"].reshape(widths[-2], widths[-1])
    logits = logits + values[f"b{last}"]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    tau = ld(config.label_smoothing)
    k = config.n_classes
    onehot = np.zeros(logits.shape, dtype=ld)
    onehot[np.arange(len(batch)), batch.labels] = 1.0
    targets = (1 - tau) * onehot + tau / k
    return -(targets * log_p).sum(axis=1).mean()


def finite_difference_check(params: ParamStore, stats: BnRunningStats, batch: Batch,
                            config: MlpConfig, h: float, n_coords: int = 200,
                            seed: int = 0) -> float:
    """Max relative error between backprop and central differences.

    Samples at least `n_coords` coordinates spanning every group. The
    relative error denominator is max(|analytic|, |numeric|, 1e-8).
    """
    if h <= 0:
        raise InvalidConfig("h must be > 0")
    _, _, cache, _ = forward(params, stats, batch, config, mode="train")
    grads = backward(cache, params, config)
    values = {g.name: g.values.astype(np.longdouble) for g in params}
    rng = np.random.default_rng(seed)
    names = params.names()
    per_group = max(1, -(-n_coords // len(names)))
    worst = 0.0
    hl = np.longdouble(h)
    for name in names:
        vec = values[name]
        k = min(per_group, vec.size)
        idx = rng.choice(vec.size, size=k, replace=False)
        for j in idx:
            orig = vec[j]
            vec[j] = orig + hl
            lp = _loss_highprec(values, batch, config)
            vec[j] = orig - hl
            lm = _loss_highprec(values, batch, config)
            vec[j] = orig
            numeric = float((lp - lm) / (2 * hl))
            analytic = grads[name][j]
            denom = max(abs(numeric), abs(analytic), 1e-8)
            worst = max(worst, abs(numeric - analytic) / denom)
    return worst


def accuracy(logits, labels) -> float:
    return float((logits.argmax(axis=1) == labels).mean())


def gen_synthetic_dataset(classes: int, features: int, per_class: int,
                          spread: float, seed: int) -> tuple[Batch, Batch]:
    """Gaussian blobs at seeded random centers with a deterministic 80/20 split."""
    if classes < 2 or features < 1 or per_class < 1 or spread <= 0:
        raise InvalidConfig("classes>=2, features>=1, per_class>=1, spread>0 required")
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 2.0, size=(classes, features))
    xs, ys = [], []
    for c in range(classes):
        xs.append(centers[c] + spread * rng.normal(size=(per_class, features)))
        ys.append(np.full(per_class, c, dtype=np.int64))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    perm = rng.permutation(x.shape[0])
    x, y = x[perm], y[perm]
    n_eval = x.shape[0] // 5
    n_train = x.shape[0] - n_eval
    return Batch(x[:n_train], y[:n_train]), Batch(x[n_train:], y[n_train:])
