"""Desk-scale supervised workload.

A fully-connected ReLU network with optional batch normalization per
hidden layer. BN statistics are computed over fixed-size "virtual"
sub-batches of the training batch, so the training objective matches the
small-batch one even when the optimizer sees a large batch. The loss is
label-smoothed softmax cross-entropy. Backprop is hand-derived and
verified coordinate-wise against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IndivisibleBatch,
    InvalidConfig,
    NonFiniteInput,
    ShapeMismatch,
    StaleCache,
)
from .param_store import ParamGroup, ParamStore, build_param_store


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


@dataclass
class BnRunningStats:
    """Per-BN-layer exponential moving averages used at eval time."""

    means: list[np.ndarray] = field(default_factory=list)
    vars: list[np.ndarray] = field(default_factory=list)

    def copy(self) -> "BnRunningStats":
        # the arrays are shared: a step replaces them and never writes in place
        return BnRunningStats(list(self.means), list(self.vars))

    @classmethod
    def for_config(cls, config: MlpConfig) -> "BnRunningStats":
        means, vars_ = [], []
        for i, on in enumerate(config.use_bn):
            if on:
                w = config.layer_widths[i + 1]
                means.append(np.zeros(w))
                vars_.append(np.ones(w))
        return cls(means, vars_)


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


def _vb_blocks(n_sub, vbs, width):
    """Slices of the virtual-batch axis, each a block of whole virtual batches."""
    per_block = max(1, BN_BLOCK_ELEMS // (vbs * width))
    return [slice(k, k + per_block) for k in range(0, n_sub, per_block)]


def bn_forward(x, gamma, beta, bn_epsilon, virtual_batch_size, mode,
               running_mean, running_var, stats_decay):
    """Ghost batch normalization over consecutive sub-batches.

    Train mode normalizes each sub-batch with its own biased statistics
    and updates the running averages with the sub-batch mean statistic:
    running <- rho * running + (1 - rho) * batch.
    Eval mode normalizes with the running statistics.
    Returns (y, cache, running_mean', running_var').
    """
    if not np.isfinite(x).all():
        raise NonFiniteInput("BN input contains NaN/Inf")
    n = x.shape[0]
    if mode == "eval":
        inv = 1.0 / np.sqrt(running_var + bn_epsilon)
        y = (x - running_mean) * inv * gamma + beta
        return y, None, running_mean, running_var
    if n % virtual_batch_size != 0:
        raise IndivisibleBatch(f"{n} rows vs virtual batch {virtual_batch_size}")
    vbs, c = virtual_batch_size, x.shape[1]
    n_sub = n // vbs
    y = np.empty((n, c))
    xhat = np.empty((n, c))
    x3, y3, xhat3 = (a.reshape(n_sub, vbs, c) for a in (x, y, xhat))
    # Per-sub-batch means and variances after a zero row each, so that the
    # running sums below add them to zero in sub-batch order, as a loop does.
    sub_stats = np.zeros((2, n_sub + 1, c))
    means, variances = sub_stats[0, 1:], sub_stats[1, 1:]
    inv_stds = np.empty((n_sub, c))
    for blk in _vb_blocks(n_sub, vbs, c):
        xs, d, yb = x3[blk], xhat3[blk], y3[blk]
        # np.mean's and np.var's own steps (sum, then divide by the count), so
        # the results match theirs bit for bit, with x - mu computed once;
        # yb holds the squares until y is written
        mu = np.add.reduce(xs, axis=1, out=means[blk])
        mu /= vbs
        np.subtract(xs, mu[:, None], out=d)
        var = np.add.reduce(np.square(d, out=yb), axis=1, out=variances[blk])
        var /= vbs
        inv = np.divide(1.0, np.sqrt(var + bn_epsilon), out=inv_stds[blk])
        d *= inv[:, None]
        np.multiply(d, gamma, out=yb)
        yb += beta
    mean_acc, var_acc = np.add.accumulate(sub_stats, axis=1)[:, -1]
    rho = stats_decay
    new_mean = rho * running_mean + (1.0 - rho) * mean_acc / n_sub
    new_var = rho * running_var + (1.0 - rho) * var_acc / n_sub
    cache = {"xhat": xhat, "inv_stds": inv_stds, "vbs": vbs,
             "gamma": np.asarray(gamma, dtype=np.float64)}
    return y, cache, new_mean, new_var


def bn_backward(dy, cache):
    """Gradient through ghost BN; returns (dx, dgamma, dbeta)."""
    xhat = cache["xhat"]
    gamma = cache["gamma"]
    vbs = cache["vbs"]
    inv_stds = cache["inv_stds"]
    dgamma = (dy * xhat).sum(axis=0)
    dbeta = dy.sum(axis=0)
    n, c = dy.shape
    n_sub = n // vbs
    dx = np.empty((n, c))
    dy3, xhat3, dx3 = (a.reshape(n_sub, vbs, c) for a in (dy, xhat, dx))
    for blk in _vb_blocks(n_sub, vbs, c):
        xh, out = xhat3[blk], dx3[blk]
        # (inv / vbs) * (vbs * dxhat - sum(dxhat) - xh * sum(dxhat * xh)),
        # evaluated in this order, as the per-virtual-batch loop did
        dxhat = dy3[blk] * gamma
        sum_dxhat = np.add.reduce(dxhat, axis=1)
        np.multiply(vbs, dxhat, out=out)
        out -= sum_dxhat[:, None]
        dxhat *= xh
        np.multiply(xh, np.add.reduce(dxhat, axis=1)[:, None], out=dxhat)
        out -= dxhat
        out *= (inv_stds[blk] / vbs)[:, None]
    return dx, dgamma, dbeta


def _log_softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def smoothed_targets(labels, n_classes, tau):
    onehot = np.zeros((labels.shape[0], n_classes))
    onehot[np.arange(labels.shape[0]), labels] = 1.0
    return (1.0 - tau) * onehot + tau / n_classes


def forward(params: ParamStore, stats: BnRunningStats, batch: Batch,
            config: MlpConfig, mode: str = "train"):
    """Full forward pass. Returns (logits, loss, cache, stats').

    Hidden layers: affine -> BN (if enabled) -> ReLU. The loss is the
    mean cross-entropy against (1-tau)*onehot + tau/K targets.
    """
    widths = config.layer_widths
    if batch.inputs.shape[1] != widths[0]:
        raise ShapeMismatch(
            f"batch has {batch.inputs.shape[1]} features, model expects {widths[0]}"
        )
    if np.any(batch.labels >= config.n_classes):
        raise InvalidConfig("label out of range")
    x = batch.inputs
    new_stats = stats.copy()
    layer_caches = []
    bn_idx = 0
    for i in range(len(widths) - 2):
        w = params[f"w{i + 1}"].as_matrix()
        b = params[f"b{i + 1}"].values
        z = x @ w + b
        lc = {"x_in": x, "layer": i}
        if config.use_bn[i]:
            gamma = params[f"bn{i + 1}_scale"].values
            beta = params[f"bn{i + 1}_shift"].values
            y, bn_cache, new_stats.means[bn_idx], new_stats.vars[bn_idx] = bn_forward(
                z, gamma, beta, config.bn_epsilon, config.virtual_batch_size, mode,
                new_stats.means[bn_idx], new_stats.vars[bn_idx], config.bn_stats_decay,
            )
            lc["bn"] = bn_cache
            bn_idx += 1
        else:
            y = z
        a = np.maximum(y, 0.0)
        lc["relu_mask"] = y > 0.0
        layer_caches.append(lc)
        x = a
    w = params[f"w{len(widths) - 1}"].as_matrix()
    b = params[f"b{len(widths) - 1}"].values
    logits = x @ w + b
    if not np.all(np.isfinite(logits)):
        raise NonFiniteInput("non-finite logits")
    log_p = _log_softmax(logits)
    targets = smoothed_targets(batch.labels, config.n_classes, config.label_smoothing)
    loss = float(-(targets * log_p).sum(axis=1).mean())
    cache = {
        "mode": mode,
        "layers": layer_caches,
        "last_input": x,
        "log_p": log_p,
        "targets": targets,
        "batch_size": len(batch),
    }
    return logits, loss, cache, new_stats


def backward(cache, params: ParamStore, config: MlpConfig) -> dict[str, np.ndarray]:
    """Exact gradients of the smoothed loss for every group, flat vectors."""
    if cache.get("mode") != "train":
        raise StaleCache("backward needs a train-mode forward cache")
    widths = config.layer_widths
    n = cache["batch_size"]
    probs = np.exp(cache["log_p"])
    dlogits = (probs - cache["targets"]) / n
    grads: dict[str, np.ndarray] = {}
    last = len(widths) - 1
    x = cache["last_input"]
    grads[f"w{last}"] = (x.T @ dlogits).ravel()
    grads[f"b{last}"] = dlogits.sum(axis=0)
    da = dlogits @ params[f"w{last}"].as_matrix().T
    for lc in reversed(cache["layers"]):
        i = lc["layer"]
        dy = da * lc["relu_mask"]
        if "bn" in lc:
            dz, dgamma, dbeta = bn_backward(dy, lc["bn"])
            grads[f"bn{i + 1}_scale"] = dgamma
            grads[f"bn{i + 1}_shift"] = dbeta
        else:
            dz = dy
        x_in = lc["x_in"]
        grads[f"w{i + 1}"] = (x_in.T @ dz).ravel()
        grads[f"b{i + 1}"] = dz.sum(axis=0)
        da = dz @ params[f"w{i + 1}"].as_matrix().T
    return grads


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
