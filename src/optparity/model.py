"""Desk-scale supervised workload.

A fully-connected ReLU network with optional batch normalization per
hidden layer. BN statistics are computed over fixed-size "virtual"
sub-batches of the training batch, so the training objective matches the
small-batch one even when the optimizer sees a large batch. The loss is
label-smoothed softmax cross-entropy. Backprop is hand-derived and
verified coordinate-wise against central finite differences.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    IndivisibleBatch,
    InvalidConfig,
    LengthMismatch,
    NonFiniteInput,
    ShapeMismatch,
    StaleCache,
)
from .param_store import Layout, ParamStore, all_finite, const


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

    Every BN layer's statistics sit in one (2, L, c_max) array `values`, laid
    out as a train row plan sums them (`RowPlan.stat_sums`): means in row 0
    and variances in row 1, one row per BN layer in model order, each
    layer's values in its first `widths` columns and zeros past them, which
    every update keeps. `means` and `vars` are per-layer views of it. A
    train step makes a new array and never writes into one, so stats
    objects may share theirs.
    """

    def __init__(self, values: np.ndarray, widths: tuple[int, ...]):
        self.values = values
        self.widths = widths

    @property
    def means(self) -> list[np.ndarray]:
        return [self.values[0, k, :c] for k, c in enumerate(self.widths)]

    @property
    def vars(self) -> list[np.ndarray]:
        return [self.values[1, k, :c] for k, c in enumerate(self.widths)]

    def updated(self, sums: np.ndarray, decay: tuple) -> "BnRunningStats":
        """rho * values + (1 - rho) * sums / n_sub, as new statistics, for a
        train batch whose virtual batches' means and variances sum to `sums`,
        laid out like `values`; `decay` is (rho, 1 - rho, n_sub). `sums` may
        be a strided view: it is read once, into a new contiguous array."""
        rho, keep, n_sub = decay
        scaled = np.multiply(sums, keep)
        scaled /= n_sub
        new = np.multiply(rho, self.values)
        new += scaled
        return BnRunningStats(new, self.widths)

    @classmethod
    def for_config(cls, config: MlpConfig) -> "BnRunningStats":
        widths = tuple(c for c, on in zip(config.layer_widths[1:], config.use_bn) if on)
        values = np.zeros((2, len(widths), max(widths, default=0)))
        for k, c in enumerate(widths):
            values[1, k, :c] = 1.0
        return cls(values, widths)


def _groups(config: MlpConfig) -> list[tuple]:
    """(name, tag, shape) of each of the model's groups in model order: per
    layer its weight and bias, then a BN layer's scale and shift."""
    widths, groups = config.layer_widths, []
    for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:]), 1):
        groups += [(f"w{i}", "weight", (fan_in, fan_out)), (f"b{i}", "bias", (fan_out,))]
        if i < len(widths) - 1 and config.use_bn[i - 1]:
            groups += [(f"bn{i}_scale", "bn_scale", (fan_out,)),
                       (f"bn{i}_shift", "bn_shift", (fan_out,))]
    return groups


def init_mlp(config: MlpConfig, rng_seed: int | None = None) -> ParamStore:
    """Seeded init: weights uniform with scale 1/sqrt(fan_in), biases zero,
    BN scales set per the gamma_0 policy, BN shifts zero."""
    seed = config.init_seed if rng_seed is None else rng_seed
    rng = np.random.default_rng(seed)
    layout = Layout(_groups(config))
    flat = np.zeros(layout.size)
    gammas = iter(config.bn_gamma_init)
    for seg, values in zip(layout.segments, layout.views(flat).values()):
        if seg.tag == "weight":
            scale = 1.0 / np.sqrt(seg.shape[0])
            values[:] = rng.uniform(-scale, scale, size=values.size)
        elif seg.tag == "bn_scale":
            values[:] = next(gammas)
    return ParamStore(layout, flat)


# Ghost BN walks the batch in blocks of whole virtual batches holding at most
# this many float64 values (512 KB): four 64x256 sub-batches of the
# large-batch workload. A block's temporaries then stay in cache however large
# the batch is, while a small batch is one block and costs one numpy call per
# operation. With one sub-batch per block, each of the two threads of a split
# large-batch step made 9 numpy calls per 64-row block, and BN's passes ran
# hardly faster in two pieces than in one: every call takes the interpreter
# lock, which the threads then hand back and forth.
BN_BLOCK_ELEMS = 65_536

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

# A train step or eval block with a product of more than this many
# multiply-adds runs in two pieces of rows when `_USE_WORKER` holds: a worker
# thread carries the first piece through every hidden layer while the calling
# thread carries the second (`_cut`), and the backward computes each
# weight gradient above the first layer on the worker while it takes the
# gradient at the layer's input. Handing work over costs tens of
# microseconds, so below this size a step runs in one piece: the parity
# model's products are at most 0.13 M multiply-adds, the large-batch model's
# 2.6-67 M. Output-layer products never split: the 256x10 product of a
# 512-row eval block changed bits in two 256-row halves (OpenBLAS takes
# another kernel path for the smaller call).
WIDE_PRODUCT = 1 << 21

# A hidden layer whose train activation holds at most this many values meets
# its bias, BN scale and BN shift as float64 tiles shaped like the arrays they
# meet, and its ReLU mask is float64; so do the logits' bias where the logits
# are that small. At these sizes a ufunc with a broadcast row or a bool operand
# takes numpy's general iterator: on (2, 8, 8) a multiply took 0.67 us against
# a same-shape float64 array and 1.17 us against an (8,) row, and on (16, 8)
# float x bool 1.14 us against float x float 0.48 us. A train forward refreshes
# every tile with one gather, at about 0.6 ns a value. Timed on a BN layer's
# five such calls per step (bias add, scale and shift in the forward, scale in
# the backward, the mask multiply), tiles and their gather took 0.61-0.65 of
# the rows' time at 128 values, 0.89-0.91 at 2,048 and 1.08-1.13 at 4,096
# (2-vCPU VM). Every benchmark model's layers but the large-batch model's
# (1,024 x 256 activations, 1,024 x 10 logits) are this small.
SMALL_ACTIVATION = 2048

_ZERO, _ONE = const(0.0), const(1.0)
# x > 0 as a bool mask, called as _POSITIVE(x, out=mask) like np.sign
_POSITIVE = functools.partial(np.less, _ZERO)


def _pin_blas() -> bool:
    """Pin numpy's bundled OpenBLAS (scipy-openblas, which wheels ship in
    numpy.libs/ or numpy/.dylibs/) to one thread for the whole process, so no
    product's bits hang on OPENBLAS_NUM_THREADS and the like; whether one was
    found. Another BLAS (MKL, Accelerate, a system OpenBLAS) keeps its threads."""
    home = os.path.dirname(np.__file__)
    for lib in glob.glob(f"{home}.libs/*openblas*") + glob.glob(f"{home}/.dylibs/*openblas*"):
        with contextlib.suppress(OSError, AttributeError):  # unloadable, or another build
            set_threads = ctypes.CDLL(lib).scipy_openblas_set_num_threads64_
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)
            return True
    return False


def usable_cpus() -> int:
    """The CPUs this process may run on: os.sched_getaffinity where it exists."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


# beside a BLAS that spreads each product over every core the worker only contends
_USE_WORKER = _pin_blas() and usable_cpus() > 1


class _Worker:
    """One daemon thread that runs the calls handed to it, one at a time, each
    in a copy of its caller's context, so under its np.errstate. A call writes
    only its own piece of rows, or a weight gradient the caller does not touch
    until it has joined, and calls no function that perfbench's tracer wraps
    (bn_forward, bn_backward): those run on the caller's thread, once per BN
    layer and step, and the tracer keeps one span stack. One caller thread at
    a time holds the worker, for one `beside` block."""

    def __init__(self):
        import contextvars
        import queue
        import threading

        self._copy_context = contextvars.copy_context
        self._jobs, self._done = queue.SimpleQueue(), queue.SimpleQueue()
        self._busy = threading.Lock()
        threading.Thread(target=self._serve, name="optparity-worker", daemon=True).start()

    def _serve(self):
        while True:
            job = self._jobs.get()
            try:
                job[0].run(job[1], *job[2])
            except Exception as exc:  # raised again on the caller's thread
                self._done.put(exc)
            else:
                self._done.put(None)
            # hold no array while idle, so that a finished run's buffers can go
            del job

    @contextlib.contextmanager
    def beside(self, fn, *args):
        """fn(*args) on the worker while the block runs, which must not touch
        what fn writes or write what it reads; on leaving the block, wait for
        it and raise what it raised."""
        self._busy.acquire()
        self._jobs.put((self._copy_context(), fn, args))
        try:
            yield
        finally:
            try:
                exc = self._done.get()
            finally:
                self._busy.release()
            if exc is not None:
                raise exc


_worker = None


def _the_worker() -> _Worker:
    global _worker
    if _worker is None:
        _worker = _Worker()
    return _worker


def _forget_worker():
    # a forked child has no worker thread: it starts its own on first use
    global _worker
    _worker = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _cut(n, layers, unit) -> tuple:
    """(pieces, product): how a row plan runs n rows through `layers` (plan
    layer tuples). Where no product is wider than WIDE_PRODUCT, one piece and
    np.dot, the cheaper call; else np.matmul, in two pieces, the worker's rows
    before the split and the calling thread's from it, where `_USE_WORKER`
    holds and the multiple of `unit` rows nearest the middle (the lower on a
    tie) leaves neither piece under 3/8 of the rows. Both functions make the
    same OpenBLAS call and give the same bits; np.dot was timed faster on
    narrow products only, and on both threads of a split step it read slower."""
    if not any(n * w.size > WIDE_PRODUCT for w, _, _ in layers):
        return [slice(0, n)], np.dot
    split = (n + unit - 1) // (2 * unit) * unit  # n / 2 rounded half down to units
    if _USE_WORKER and 8 * min(split, n - split) >= 3 * n:
        return [slice(0, split), slice(split, n)], np.matmul
    return [slice(0, n)], np.matmul


def _walk(pass_, pieces, *args):
    """pass_(piece, *args) for each of a row plan's one or two pieces, as
    `_cut` cut its rows: of two, the worker runs the first while this thread
    runs the second. A row-wise pass keeps its bits in pieces: each product
    row sits at the same offset in OpenBLAS's row tiles and takes the same
    kernel path as in the one call (pieces begin at multiples of
    EVAL_BLOCK_ALIGN rows), and ghost BN walks the same blocks."""
    if len(pieces) == 1:
        pass_(pieces[0], *args)
        return
    with _the_worker().beside(pass_, pieces[0], *args):
        pass_(pieces[1], *args)


def _walk_call(pass_, pieces, *args):
    """A call of `_walk(pass_, pieces, *args)`, without `_walk` over one piece."""
    if len(pieces) == 1:
        return functools.partial(pass_, pieces[0], *args)
    return functools.partial(_walk, pass_, pieces, *args)


def _bn_block_rows(vbs, width):
    """The rows of a block ghost BN walks over a layer `width` wide: whole
    virtual batches of vbs rows, at most BN_BLOCK_ELEMS values (or one batch)."""
    return max(1, BN_BLOCK_ELEMS // (vbs * width)) * vbs


def _ghost_bn_cache(y, gamma, beta, vbs, stat_rows, pieces, pair, mask=None):
    """A train-mode BN cache over the (n, c) buffer `y`, walked in `pieces`,
    row slices each of which begins at a multiple of `_bn_block_rows(vbs,
    c)` rows and is cut into blocks of that many rows counted from its own
    first row, the last block ending with the piece.

    bn_forward normalizes `y`, the cache's "x", in place through the cache,
    or through one of its "pieces" on its "x", its view of the piece's rows:
    it writes x-hat and the per-virtual-batch inverse standard deviations
    into the cache's own buffers and each virtual batch's mean and variance
    into `stat_rows`, a (2, n // vbs, c) view. A row plan's rows of it are
    C-contiguous where the layer is as wide as its widest BN layer: a ufunc
    with a strided operand takes numpy's general iterator, at two to three
    times the cost at these sizes. The scale and shift `gamma` and `beta`
    are (c,) rows, or tiles shaped like `y` cut into virtual batches, (n //
    vbs, vbs, c) (see SMALL_ACTIVATION), which each block carries cut to its
    rows. bn_backward works in the (2, n, c) buffer `pair`, scratch in row 0
    and dx written over dy in row 1, so that each of its paired sums is one
    reduction over the pair; given the `mask` of the ReLU that reads BN's
    output, it first multiplies dy there by the mask. "passes" are its two
    passes over "back" (`_walk_call`), which holds its views per piece: the
    piece's rows of dx, of the mask (or None), of x-hat and of scratch, then
    per block (its rows of the pair, of scratch, of dx and of x-hat, a (2,
    blocks, 1, c) column pair and its two rows, 1/std as a column, its scale).
    """
    n, c = y.shape
    n_sub = n // vbs
    xhat = np.empty((n, c))
    inv_stds = np.empty((n_sub, c))
    cols = np.empty((2, n_sub, 1, c))
    scratch, dx = pair
    y3, xhat3 = (a.reshape(n_sub, vbs, c) for a in (y, xhat))
    pair4 = pair.reshape(2, n_sub, vbs, c)
    vbs_const = const(vbs)
    forward_pieces, back = [], []
    step = _bn_block_rows(vbs, c)
    for rows in pieces:
        forward_blocks, back_blocks = [], []
        for start in range(rows.start, rows.stop, step):
            sub = slice(start // vbs, min(start + step, rows.stop) // vbs)
            mu, var, inv = stat_rows[0, sub], stat_rows[1, sub], inv_stds[sub]
            scale = gamma[sub] if gamma.shape == y3.shape else gamma
            shift = beta[sub] if beta.shape == y3.shape else beta
            forward_blocks.append((y3[sub], xhat3[sub], mu, mu[:, None], var, inv,
                                   inv[:, None], scale, shift))
            block_pair, block_cols = pair4[:, sub], cols[:, sub]
            back_blocks.append((block_pair, *block_pair, xhat3[sub], block_cols, *block_cols,
                                inv[:, None], scale))
        forward_pieces.append({"x": y[rows], "blocks": forward_blocks, "vbs": vbs_const})
        back.append((dx[rows], None if mask is None else mask[rows], xhat[rows],
                     scratch[rows], back_blocks))
    return {"x": y, "xhat": xhat, "inv_stds": inv_stds, "vbs": vbs_const,
            "blocks": [blk for piece in forward_pieces for blk in piece["blocks"]],
            "pieces": forward_pieces, "pair": pair, "dx": dx, "back": back,
            "passes": (_walk_call(_bn_backward_scale, back),
                       _walk_call(_bn_backward_dx, back, vbs_const))}


def bn_forward(x, gamma, beta, bn_epsilon, virtual_batch_size, mode,
               running_mean, running_var, stats_decay, cache=None):
    """Ghost batch normalization over consecutive sub-batches.

    Train mode normalizes each sub-batch with its own biased statistics
    and updates the running averages with the sub-batch mean statistic:
    running <- rho * running + (1 - rho) * batch.
    Eval mode normalizes with the running statistics.
    Returns (y, cache, running_mean', running_var').

    Given a train-mode `cache` built over `x` (see `_ghost_bn_cache`), or one
    of its pieces with `x` the piece's own view of its rows, the call reuses
    it; any other `x` raises StaleCache before any write. y is written
    over `x` and the running statistics are returned as given, since the
    caller updates every layer's at once from the sums the cache's stat rows
    hold, and `x` is not checked: forward checks the means in the stat rows
    where its loss is not finite.
    Nor are `gamma` and `beta` read: the cache's blocks carry the scale and
    shift it was built with. A cache made here holds its own pair buffer,
    so it serves one bn_backward.
    """
    if (mode == "train" and cache is not None and x.shape[0] % virtual_batch_size == 0
            and cache["x"] is x):  # what the checks below would let through to _normalize
        _normalize(cache["blocks"], bn_epsilon, cache["vbs"])
        return x, cache, running_mean, running_var
    if mode not in ("train", "eval"):
        raise InvalidConfig(f"mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval" or cache is None:
        _check_bn_input(x)
    n = x.shape[0]
    if mode == "eval":
        y = _bn_eval(np.array(x, dtype=np.float64), gamma, beta, running_mean, running_var,
                     bn_epsilon)
        return y, None, running_mean, running_var
    if n % virtual_batch_size != 0:
        raise IndivisibleBatch(f"{n} rows vs virtual batch {virtual_batch_size}")
    if cache is not None:
        raise StaleCache("a BN cache serves only the array it was built over")
    n_sub = n // virtual_batch_size
    y = np.array(x, dtype=np.float64)
    # Per-sub-batch means and variances after a zero row each, laid out as a
    # row plan's for one BN layer, so that the running sums below add them to
    # zero in sub-batch order, as a loop does.
    sub_stats = np.zeros((2, 1, n_sub + 1, x.shape[1]))
    cache = _ghost_bn_cache(y, np.asarray(gamma, dtype=np.float64),
                            np.asarray(beta, dtype=np.float64), virtual_batch_size,
                            sub_stats[:, 0, 1:], [slice(0, n)], np.empty((2, *y.shape)))
    _normalize(cache["blocks"], bn_epsilon, cache["vbs"])
    stats = BnRunningStats(np.stack([running_mean, running_var])[:, None], (x.shape[1],))
    stats = stats.updated(np.add.accumulate(sub_stats, axis=2)[:, :, -1],
                          (stats_decay, 1.0 - stats_decay, n_sub))
    return y, cache, stats.means[0], stats.vars[0]


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


def _normalize(blocks, bn_epsilon, vbs):
    """Train-mode ghost BN in place over the block views of `_ghost_bn_cache`,
    each with the scale and shift it carries."""
    for ys, d, mu, mu_col, var, inv, inv_col, gamma, beta in blocks:
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

    dx is written into the cache's `dx` buffer, which dy may be; `out`, if
    given, is the (2, c) array whose rows dgamma and dbeta are written into.

    With a cache of a train row plan, dy must be that buffer: it holds the
    gradient at the output of the ReLU after BN, which the call first
    multiplies by the ReLU's mask. Its row-wise passes walk the cache's
    pieces (the cache's "passes"), and dgamma and dbeta are summed over all
    rows on this thread, as one reduction over the pair of dy * x-hat and dy.
    """
    dx, (scale_pass, dx_pass) = cache["dx"], cache["passes"]
    if dy is not dx:
        np.copyto(dx, dy)
    scale_pass()
    sums = np.add.reduce(cache["pair"], axis=1, out=out)
    dx_pass()
    return dx, sums[0], sums[1]


def _bn_backward_scale(piece):
    """bn_backward's first pass over one piece of its cache's "back": dy
    times the ReLU's mask, if any, then dy * x-hat into the scratch rows."""
    dy, mask, xhat, scratch, _ = piece
    if mask is not None:
        dy *= mask
    np.multiply(dy, xhat, out=scratch)


def _bn_backward_dx(piece, vbs):
    """bn_backward's dx over dy, per block of one piece of its cache's "back",
    with the scale the block carries."""
    for pair, dxhat, d, xh, cols, sum_dxhat, sum_dxhat_xh, inv_col, gamma in piece[4]:
        # (inv / vbs) * (vbs * dxhat - sum(dxhat) - xh * sum(dxhat * xh)),
        # evaluated in this order, as the per-virtual-batch loop did; d holds
        # dy until dxhat is taken from it, then dxhat * xh, so that both sums
        # are one reduction over the pair
        np.multiply(d, gamma, out=dxhat)
        np.multiply(dxhat, xh, out=d)
        np.add.reduce(pair, axis=2, keepdims=True, out=cols)
        np.multiply(vbs, dxhat, out=d)
        d -= sum_dxhat
        np.multiply(xh, sum_dxhat_xh, out=dxhat)
        d -= dxhat
        d *= np.divide(inv_col, vbs, out=sum_dxhat)


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


class LayerPlan:
    """What forward and backward need of one store under one model config.

    The store's `layout` must be the one `_groups(config)` lays out, or the
    plan raises ShapeMismatch before any write. `layers` holds `_views` of
    the store's `flat`, which a store never replaces, and `grad_views(out)`
    the same views of a gradient vector; `targets` is the smoothed-target
    table, `eps` the BN epsilon as a constant and `row_plan(n, mode)` how
    passes over n rows cut them. `_eval` holds per hidden layer an
    (EVAL_BLOCK_ROWS, width) buffer, which the store's first eval plan
    builds and every eval plan views.
    """

    def __init__(self, params: ParamStore, config: MlpConfig):
        self.config = config
        want = Layout(_groups(config))
        for have, need in itertools.zip_longest(params.layout.segments, want.segments):
            if have != need:
                raise ShapeMismatch(f"the store has {have} where the model has {need}")
        self.layout = params.layout
        segments = iter(self.layout.segments)
        self._segments = [[next(segments) for _ in range(4 if bn else 2)]
                          for bn in (*config.use_bn, False)]
        self.layers = self._views(params.flat)
        self.targets = target_table(config.n_classes, config.label_smoothing)
        self.eps = const(config.bn_epsilon)
        self._out = None
        self._row_plans = {}
        self._eval = None

    def _views(self, vec: np.ndarray) -> list[tuple]:
        """Per layer (weight, bias, BN scale and shift as the rows of one
        (2, c) view or None) over `vec`, a vector laid out like `flat`."""
        views, step = [], vec.strides[0]
        for w, b, *bn in self._segments:
            pair = None
            if bn:
                scale, shift = bn
                pair = np.lib.stride_tricks.as_strided(
                    vec[scale.start:], (2, scale.stop - scale.start),
                    ((shift.start - scale.start) * step, step))
            views.append((vec[w.start:w.stop].reshape(w.shape), vec[b.start:b.stop], pair))
        return views

    def grad_views(self, out: np.ndarray):
        """(`_views(out)`, the layout's views of `out` by group name), built
        once per `out`."""
        if out is not self._out:
            self._grads, self._out = (self._views(out), self.layout.views(out)), out
        return self._grads

    def row_plan(self, n: int, mode: str) -> "RowPlan":
        """The `RowPlan` of passes over n rows in `mode`, "train" or "eval",
        built on first use."""
        rows = self._row_plans.get((n, mode))
        if rows is None:
            rows = self._row_plans[n, mode] = RowPlan(self, n, mode)
        return rows


class RowPlan:
    """How the passes of one layer plan over n rows in one mode cut the rows,
    and the buffers and views each piece of rows works in.

    `_cut` decides, over all of the plan's layers, the `pieces` of rows a
    pass runs the hidden layers in (two where a product is wider than
    WIDE_PRODUCT, the worker thread carrying the first, else one) and
    `product`, which every matrix product of the plan's passes calls. An
    eval plan walks the rows in `blocks` (see EVAL_BLOCK_ROWS), cutting each
    as the first, so that a last block of up to 15 rows fewer splits at the
    same row; `walks` holds per block its rows, its pieces as `_eval_pass`
    takes them (their rows of the block and of the plan's views of the
    layer plan's eval buffers) and its rows of the last view, or None with
    no hidden layer.

    A train plan splits its n rows at a multiple of EVAL_BLOCK_ALIGN and of
    every BN layer's `_bn_block_rows`, so that each BN layer's blocks lie
    inside the pieces (`_ghost_bn_cache`); `walk` holds the pieces as
    `_train_pass` takes them: (the piece's rows, per hidden layer (weight,
    the bias operand, the piece's rows of the activation (for a BN layer
    its BN piece's "x") and of the mask, the function that writes the
    mask, its piece of the BN cache or None), whether it runs on this
    thread). Its buffers serve every train forward and backward at this
    batch size, and each train forward overwrites them. Per hidden layer
    there is a (2, n, c) buffer holding the activation, over which BN
    writes y and the ReLU its output, which the next layer reads, and the
    gradient at the affine output, over which BN's backward writes dx; the
    ReLU mask; and for a BN layer a cache holding x-hat, the inverse
    standard deviations and the block views (`_ghost_bn_cache`), whose pair
    buffer is the layer's. A layer at most SMALL_ACTIVATION values large
    meets its bias as an (n, c) tile and its BN scale and shift as (n //
    vbs, vbs, c) tiles, cut into the piece and block views of the arrays
    they meet, and its mask is float64, written by np.sign after the ReLU;
    a larger layer meets the (c,) rows of the store's `flat`, and its mask
    is bool. `tiles` holds every tile of the plan, the output layer's bias
    included where the logits are that small, and `tile_index` where in
    `flat` each tile value sits, so that one take refreshes them all (both
    None with no tile); `out_bias` is what the logits' bias add takes, a
    tile or the row. BN's backward
    overwrites the activation, so a cache serves one backward. `top` is the
    last hidden layer's activation, or None with no hidden layer. `back`
    holds per hidden layer what backward reads: this layer's activation and
    the next layer's weight transposed, the mask, dz and the BN cache.
    `sub_stats` holds every BN layer's per-virtual-batch means and variances
    after a zero row, layer-major, as (2, BN layers, n // vbs + 1, widest BN
    width) zeros: a layer's stat rows are its first `width` columns, so each
    block's mean and variance views are C-contiguous wherever the layer is
    as wide as the widest. `stat_sums` holds their running sums down the
    sub-batches, whose last rows, `stat_sums[:, :, -1]`, are laid out as
    `BnRunningStats.values`, and `decay` the running update's constants.
    `targets` holds the batch's smoothed targets and `loss` the
    `_loss_buffers`, whose scratch buffer backward reuses for the logits'
    gradient; `n_rows` is the batch size as a constant. `stamp` counts the
    train forwards and backwards that have written the plan, so that a cache
    can tell it is stale.
    """

    def __init__(self, plan: LayerPlan, n: int, mode: str):
        hidden = plan.layers[:-1]
        if mode == "eval":
            last = max(0, -(-(n - EVAL_BLOCK_ROWS) // EVAL_BLOCK_ALIGN) * EVAL_BLOCK_ALIGN)
            self.blocks = [slice(start, min(start + EVAL_BLOCK_ROWS, n))
                           for start in [*range(0, last, EVAL_BLOCK_ROWS), last]]
            block_rows = min(n, EVAL_BLOCK_ROWS)
            self.pieces, self.product = _cut(block_rows, plan.layers, EVAL_BLOCK_ALIGN)
            if plan._eval is None:
                plan._eval = [np.empty((EVAL_BLOCK_ROWS, w.shape[1])) for w, _, _ in hidden]
            buffers = [buf[:block_rows] for buf in plan._eval]
            self.walks = []
            for block in self.blocks:
                size = block.stop - block.start
                pieces = [slice(piece.start, min(piece.stop, size)) for piece in self.pieces]
                views = [(rows, [buf[rows] for buf in buffers]) for rows in pieces]
                self.walks.append((block, views, buffers[-1][:size] if buffers else None))
            return
        config = plan.config
        vbs = config.virtual_batch_size
        bn_widths = [w.shape[1] for w, _, pair in hidden if pair is not None]
        self.stamp = 0
        self.sub_stats = self.stat_sums = self.decay = None
        if bn_widths:
            if n % vbs != 0:
                raise IndivisibleBatch(f"{n} rows vs virtual batch {vbs}")
            self.sub_stats = np.zeros((2, len(bn_widths), n // vbs + 1, max(bn_widths)))
            self.stat_sums = np.empty_like(self.sub_stats)
            rho = config.bn_stats_decay
            self.decay = (const(rho), const(1.0 - rho), const(n // vbs))
        self.pieces, self.product = _cut(n, plan.layers, math.lcm(
            EVAL_BLOCK_ALIGN, *(_bn_block_rows(vbs, c) for c in bn_widths)))
        # Per layer its bias, BN scale and BN shift as its passes take them: the
        # rows of `flat`, or tiles where the layer is small, the scale's and
        # shift's cut into virtual batches, as BN's blocks meet them
        operands, tiled = [], []
        for (w, b, pair), segs in zip(plan.layers, plan._segments):
            rows = [b] if pair is None else [b, *pair]
            operands += [rows]
            if n * w.shape[1] <= SMALL_ACTIVATION:
                tiled += [(rows, segs[1:])]
        self.tiles = self.tile_index = None
        if tiled:
            size = n * sum(row.size for rows, _ in tiled for row in rows)
            self.tiles, self.tile_index = np.empty(size), np.empty(size, np.intp)
        start = 0
        for rows, segs in tiled:
            c = rows[0].size
            # each of the layer's tiles holds n copies of its segment's indices in `flat`
            np.add(np.array([seg.start for seg in segs])[:, None, None], np.arange(c),
                   out=self.tile_index[start:start + len(rows) * n * c].reshape(-1, n, c))
            for k, _ in enumerate(rows):
                view, start = self.tiles[start:start + n * c], start + n * c
                rows[k] = view.reshape((n, c) if k == 0 else (n // vbs, vbs, c))
        piece_layers = [[] for _ in self.pieces]
        self.back, self.top = [], None
        bn_index = 0
        for (w, _, _), (w_next, _, _), (bias, *scale_shift) in zip(
                plan.layers, plan.layers[1:], operands):
            tile = bias.ndim == 2
            c = w.shape[1]
            pair, mask = np.empty((2, n, c)), np.empty((n, c), dtype=np.float64 if tile else bool)
            act, dz = pair
            bn_cache, bn_pieces = None, [None] * len(self.pieces)
            if scale_shift:
                stat_rows = self.sub_stats[:, bn_index, 1:, :c]
                # BN's backward uses the activation, read by then, as scratch
                bn_cache = _ghost_bn_cache(act, *scale_shift, vbs, stat_rows, self.pieces, pair,
                                           mask)
                bn_pieces = bn_cache["pieces"]
                bn_index += 1
            for rows, layers, bn in zip(self.pieces, piece_layers, bn_pieces):
                layers.append((w, bias[rows] if tile else bias,
                               act[rows] if bn is None else bn["x"], mask[rows],
                               np.sign if tile else _POSITIVE, bn))
            self.back.append((act.T, w_next.T, mask, dz, bn_cache))
            self.top = act
        self.out_bias = operands[-1][0]
        self.walk = [(rows, layers, rows is self.pieces[-1])
                     for rows, layers in zip(self.pieces, piece_layers)]
        self.targets = np.empty((n, config.n_classes))
        self.loss = _loss_buffers(n, config.n_classes)
        self.n_rows = const(n)


def layer_plan(params: ParamStore, config: MlpConfig) -> LayerPlan:
    """The store's plan for `config`, built on first use and kept with the store."""
    plan = params.layer_plan
    if plan is None or plan.config is not config:
        plan = params.layer_plan = LayerPlan(params, config)
    return plan


def _train_pass(piece, x, eps, config, product):
    """The train forward's hidden layers over one piece of `RowPlan.walk`,
    reading its rows of the input `x`. On the calling thread BN runs through
    bn_forward; on the worker it normalizes the piece directly. Neither checks
    BN's input: forward checks every layer's means if its loss is not finite."""
    rows, layers, here = piece
    x = x[rows]
    for w, bias, act, mask, mark, bn in layers:
        product(x, w, out=act)
        act += bias
        if bn is not None and here:
            bn_forward(act, None, None, eps, config.virtual_batch_size, "train",
                       None, None, config.bn_stats_decay, cache=bn)
        elif bn is not None:
            _normalize(bn["blocks"], eps, bn["vbs"])
        np.maximum(act, _ZERO, out=act)
        # after the ReLU either mask is 1 where act > 0 and 0 elsewhere,
        # signed and denormal zeros included; a NaN raises before any backward
        mark(act, out=mask)
        x = act


def _eval_pass(piece, x, layers, running, eps, product):
    """The eval forward's hidden `layers` over one piece of a block of
    `RowPlan.walks`, whose input rows are `x`, with BN's running statistics."""
    rows, buffers = piece
    h = x[rows]
    bn_stats = iter(running)
    for (w, b, pair), z in zip(layers, buffers):
        product(h, w, out=z)
        z += b
        if pair is not None:
            _check_bn_input(z)
            _bn_eval(z, *pair, *next(bn_stats), eps)
        np.maximum(z, _ZERO, out=z)
        h = z


def forward(params: ParamStore, stats: BnRunningStats, batch: Batch,
            config: MlpConfig, mode: str = "train"):
    """Full forward pass. Returns (logits, loss, cache, stats').

    Hidden layers: affine -> BN (if enabled) -> ReLU. The loss is the
    mean cross-entropy against (1-tau)*onehot + tau/K targets.

    A pass walks the layer plan's `RowPlan` for its row count and mode. A
    train-mode pass runs in the row plan's buffers, so its cache holds views
    of them and goes stale once a backward has used it or at the next train
    forward on the same store and batch size. It first gathers the row
    plan's tiles of the small layers' parameters from the store's `flat`,
    in one take, so each train forward reads the store as it is then (see
    SMALL_ACTIVATION); the eval pass reads the parameter rows directly. An
    eval-mode pass walks the
    rows in blocks: each block runs through every hidden layer in the
    plan's eval buffers, which the next block and the next eval forward on
    the store overwrite, and writes its output-layer product into its rows
    of the logits; the bias, the logits check and the loss then run once
    over all rows. Its cache holds no view of the buffers. The logits are a
    new array in both modes. A train pass checks its BN means, then its
    logits, only if its loss is not finite; an eval pass checks each BN input.

    Where a product is wide (see WIDE_PRODUCT), the hidden layers run in two
    pieces of rows, the worker thread carrying the first through every
    hidden layer while this thread carries the second: a train batch once,
    each eval block in two halves. bn_forward runs on this thread over its
    piece, and the worker normalizes its own; the running statistics' sums,
    the output-layer product and the loss run over all rows on this thread.
    """
    if mode not in ("train", "eval"):
        raise InvalidConfig(f"mode must be 'train' or 'eval', got {mode!r}")
    x, labels = batch.inputs, batch.labels
    widths = config.layer_widths
    if x.shape[1] != widths[0]:
        raise ShapeMismatch(f"batch has {x.shape[1]} features, model expects {widths[0]}")
    plan = layer_plan(params, config)
    n = x.shape[0]
    work = plan.row_plan(n, "train") if mode == "train" else None
    try:
        # a Batch holds no negative label; mode="raise" writes `out` only once
        # every label is in range, so a bad batch leaves the buffers as they were
        targets = plan.targets.take(labels, axis=0, out=None if work is None else work.targets,
                                    mode="raise")
    except IndexError:
        raise InvalidConfig("label out of range") from None
    new_stats = stats
    w_out, bias, _ = plan.layers[-1]
    if mode == "eval":
        hidden, running = plan.layers[:-1], list(zip(stats.means, stats.vars))
        logits = np.empty((n, widths[-1]))
        blocks = plan.row_plan(n, "eval")
        for block, pieces, top in blocks.walks:
            h = x[block]
            _walk(_eval_pass, pieces, h, hidden, running, plan.eps, blocks.product)
            blocks.product(h if top is None else top, w_out, out=logits[block])
        logits += bias
        if not all_finite(logits):
            raise NonFiniteInput("non-finite logits")
        cache = {"mode": mode}
        loss, cache["log_p"] = _smoothed_loss(logits, targets, _loss_buffers(n, widths[-1]))
    else:
        work.stamp += 1
        cache = {"mode": mode, "params": params, "plan": plan, "work": work,
                 "stamp": work.stamp, "inputs": x}
        if work.tiles is not None:
            # mode="raise" would write the values into a buffer first, then copy
            # them to `out`; the index is in range by construction
            params.flat.take(work.tile_index, out=work.tiles, mode="clip")
        with np.errstate(invalid="ignore"):  # a non-finite BN input or logit raises below
            _walk(_train_pass, work.walk, x, plan.eps, config, work.product)
            if work.decay is not None:
                np.add.accumulate(work.sub_stats, axis=2, out=work.stat_sums)
                new_stats = stats.updated(work.stat_sums[:, :, -1], work.decay)
            logits = work.product(x if work.top is None else work.top, w_out)
            logits += work.out_bias
            loss, cache["log_p"] = _smoothed_loss(logits, targets, work.loss)
        if not math.isfinite(loss):
            # a non-finite virtual-batch mean (from a non-finite input or an
            # overflowing sum) makes x-hat NaN down its column, and so each logit
            # of its rows; a non-finite logit makes the loss NaN or +inf
            if work.decay is not None:
                _check_bn_input(work.sub_stats[0])
            if not all_finite(logits):
                raise NonFiniteInput("non-finite logits")
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
    if not isinstance(cache, dict) or cache.get("mode") != "train":
        raise StaleCache("backward needs a train-mode forward cache")
    if cache.get("params") is not params:
        raise StaleCache("the cache comes from a forward on another store")
    work = cache["work"]
    if cache["stamp"] != work.stamp:
        raise StaleCache("a backward or a later train forward at this batch size "
                         "overwrote the cache")
    if out is None:
        out = np.empty(params.flat.size)
    elif (out.shape != params.flat.shape or out.dtype != np.float64
          or not out.flags.c_contiguous):
        # numpy refuses any other buffer as a product's `out`, after writes
        raise LengthMismatch(f"out must be a C-contiguous float64 vector of shape "
                             f"{params.flat.shape}, got {out.dtype} {out.shape}"
                             f"{'' if out.flags.c_contiguous else ' strided'}")
    work.stamp += 1
    layer_grads, named = cache["plan"].grad_views(out)
    dz = np.exp(cache["log_p"], out=work.loss[1])
    dz -= cache["targets"]
    dz /= work.n_rows
    split, product = len(work.pieces) > 1, work.product
    for k in range(len(work.back) - 1, -1, -1):
        # dz is the gradient at layer k + 1's affine output, act layer k's output
        act_t, w_next_t, mask, dx, bn_cache = work.back[k]
        gw, gb, _ = layer_grads[k + 1]
        if split:
            # the block ends before BN's backward writes over act
            with _the_worker().beside(product, act_t, dz, gw):
                np.add.reduce(dz, axis=0, out=gb)
                product(dz, w_next_t, out=dx)
        else:
            product(act_t, dz, out=gw)
            np.add.reduce(dz, axis=0, out=gb)
            product(dz, w_next_t, out=dx)
        if bn_cache is None:
            dx *= mask
        else:  # multiplies dx by the mask first
            bn_backward(dx, bn_cache, out=layer_grads[k][2])
        dz = dx
    gw, gb, _ = layer_grads[0]
    product(cache["inputs"].T, dz, out=gw)
    np.add.reduce(dz, axis=0, out=gb)
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
