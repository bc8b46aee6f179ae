"""Independent reference implementations.

The scalar recurrences are written directly from the update-rule
definitions using plain Python floats and `math`; each replays a full
scalar trajectory and returns the list of parameter values after each
step. `per_group_step` is the numpy per-group composite step, and
`ghost_bn_forward`/`ghost_bn_backward` are the per-virtual-batch loops of
train-mode ghost batch normalization. `reference_run_training` is a whole
training run built from those; it alone imports from the package (data
generation, the parameter init and the schedule).
"""

import math

import numpy as np


def _decays(lam, mode, excluded):
    if excluded or lam == 0.0:
        return 0.0, 0.0
    if mode == "l2_into_gradient":
        return lam, 0.0
    return 0.0, lam


def heavy_ball_traj(theta, gs, etas, mu, lam=0.0, mode="l2_into_gradient", excluded=False):
    l2, wd = _decays(lam, mode, excluded)
    v = 0.0
    out = []
    for g, eta in zip(gs, etas):
        ge = g + l2 * theta
        v = mu * v + ge
        theta = theta - eta * (v + wd * theta)
        out.append(theta)
    return out


def nesterov_traj(theta, gs, etas, mu, lam=0.0, mode="l2_into_gradient", excluded=False):
    l2, wd = _decays(lam, mode, excluded)
    v = 0.0
    out = []
    for g, eta in zip(gs, etas):
        ge = g + l2 * theta
        v = mu * v + ge
        theta = theta - eta * (mu * v + ge + wd * theta)
        out.append(theta)
    return out


def adam_traj(theta, gs, etas, beta1, beta2, eps, bias_correction=True,
              lam=0.0, mode="decoupled", excluded=False):
    l2, wd = _decays(lam, mode, excluded)
    m = s = 0.0
    out = []
    for t, (g, eta) in enumerate(zip(gs, etas), start=1):
        ge = g + l2 * theta
        m = beta1 * m + (1.0 - beta1) * ge
        s = beta2 * s + (1.0 - beta2) * ge * ge
        if bias_correction:
            mhat = m / (1.0 - beta1 ** t)
            shat = s / (1.0 - beta2 ** t)
        else:
            mhat, shat = m, s
        base = mhat / (math.sqrt(shat) + eps)
        theta = theta - eta * (base + wd * theta)
        out.append(theta)
    return out


def lars_traj(theta, gs, etas, mu, trust_coefficient, lam=0.0,
              mode="l2_into_gradient", excluded=False):
    l2, wd = _decays(lam, mode, excluded)
    v = 0.0
    out = []
    for g, eta in zip(gs, etas):
        ge = g + l2 * theta
        if excluded or theta == 0.0 or ge == 0.0:
            r = 1.0
        else:
            r = trust_coefficient * abs(theta) / abs(ge)
        v = mu * v + r * eta * ge
        theta = theta - v
        theta = theta - eta * wd * theta
        out.append(theta)
    return out


def lamb_traj(theta, gs, etas, beta1, beta2, eps, bias_correction=True,
              lam=0.0, mode="decoupled", excluded=False):
    l2, wd = _decays(lam, mode, excluded)
    m = s = 0.0
    out = []
    for t, (g, eta) in enumerate(zip(gs, etas), start=1):
        ge = g + l2 * theta
        m = beta1 * m + (1.0 - beta1) * ge
        s = beta2 * s + (1.0 - beta2) * ge * ge
        if bias_correction:
            mhat = m / (1.0 - beta1 ** t)
            shat = s / (1.0 - beta2 ** t)
        else:
            mhat, shat = m, s
        u = mhat / (math.sqrt(shat) + eps) + wd * theta
        if excluded or theta == 0.0 or u == 0.0:
            ratio = 1.0
        else:
            ratio = abs(theta) / abs(u)
        theta = theta - eta * ratio * u
        out.append(theta)
    return out


# ---------------------------------------------------------------------------
# Per-group composite step: the loop the fused optimizer replaced
# ---------------------------------------------------------------------------
#
# One numpy update per parameter group, in model order, each on copies, with
# the arithmetic of the element-wise kernels written out inline. The fused
# composite step must reproduce it bit for bit. A config is any object with
# the attributes of optparity's OptimizerConfig. Division by a zero second
# moment under epsilon=0 raises ZeroDivisionError.

def _group_decays(cfg, tag):
    return _decays(cfg.decay, cfg.decay_mode, tag in cfg.exclude_tags)


def _group_g_eff(g, theta, l2):
    return g + l2 * theta if l2 else g


def _group_heavy_ball(theta, g, v, m, s, eta, cfg, tag, t):
    l2, wd = _group_decays(cfg, tag)
    g_eff = _group_g_eff(g, theta, l2)
    v = cfg.momentum * v + g_eff
    return theta - eta * (v + wd * theta), v, m, s


def _group_nesterov(theta, g, v, m, s, eta, cfg, tag, t):
    l2, wd = _group_decays(cfg, tag)
    g_eff = _group_g_eff(g, theta, l2)
    v = cfg.momentum * v + g_eff
    return theta - eta * (cfg.momentum * v + g_eff + wd * theta), v, m, s


def _group_adam_direction(g_eff, m, s, cfg, t):
    m = cfg.beta1 * m + (1.0 - cfg.beta1) * g_eff
    s = cfg.beta2 * s + (1.0 - cfg.beta2) * g_eff * g_eff
    if cfg.bias_correction:
        c1 = 1.0 - cfg.beta1 ** (t + 1)
        c2 = 1.0 - cfg.beta2 ** (t + 1)
    else:
        c1 = c2 = 1.0
    if cfg.epsilon == 0.0 and (s == 0.0).any():
        raise ZeroDivisionError("epsilon=0 with a zero second-moment entry")
    return (m / c1) / (np.sqrt(s / c2) + cfg.epsilon), m, s


def _group_adam(theta, g, v, m, s, eta, cfg, tag, t):
    l2, wd = _group_decays(cfg, tag)
    base, m, s = _group_adam_direction(_group_g_eff(g, theta, l2), m, s, cfg, t)
    return theta - eta * (base + wd * theta), v, m, s


def _group_norm(x):
    return math.sqrt(float(x @ x))


def _group_lars(theta, g, v, m, s, eta, cfg, tag, t):
    l2, wd = _group_decays(cfg, tag)
    g_eff = _group_g_eff(g, theta, l2)
    theta_norm, g_norm = _group_norm(theta), _group_norm(g_eff)
    if tag in cfg.exclude_tags or theta_norm == 0.0 or g_norm == 0.0:
        ratio = 1.0
    else:
        ratio = cfg.trust_coefficient * theta_norm / g_norm
    v = cfg.momentum * v + (ratio * eta) * g_eff
    theta = theta - v
    if wd:
        theta = theta - eta * wd * theta
    return theta, v, m, s


def _group_lamb(theta, g, v, m, s, eta, cfg, tag, t):
    l2, wd = _group_decays(cfg, tag)
    base, m, s = _group_adam_direction(_group_g_eff(g, theta, l2), m, s, cfg, t)
    u = base + wd * theta if wd else base
    theta_norm, u_norm = _group_norm(theta), _group_norm(u)
    if tag in cfg.exclude_tags or theta_norm == 0.0 or u_norm == 0.0:
        ratio = 1.0
    else:
        ratio = theta_norm / u_norm
    return theta - eta * ratio * u, v, m, s


GROUP_RULES = {
    "heavy_ball": _group_heavy_ball,
    "nesterov": _group_nesterov,
    "adam": _group_adam,
    "lars": _group_lars,
    "lamb": _group_lamb,
}


def per_group_step(groups, routes, eta, t):
    """One routed step, group by group.

    `groups` lists dicts with `tag` and flat float64 `theta`, `g`, `v`,
    `m`, `s`; `routes` lists (tag set, config), first match wins; `t` is
    the step count before the step. Returns one dict of new `theta`, `v`,
    `m`, `s` per group, in the same order.
    """
    out = []
    for grp in groups:
        cfg = next(cfg for tags, cfg in routes if grp["tag"] in tags)
        theta, v, m, s = GROUP_RULES[cfg.kind](
            grp["theta"], grp["g"], grp["v"], grp["m"], grp["s"], eta, cfg, grp["tag"], t)
        out.append({"theta": theta, "v": v, "m": m, "s": s})
    return out


# ---------------------------------------------------------------------------
# Ghost batch normalization, one virtual batch at a time
# ---------------------------------------------------------------------------
#
# The train-mode loops the blocked model functions replaced. The blocked
# versions must reproduce them bit for bit.

def ghost_bn_forward(x, gamma, beta, eps, vbs, running_mean, running_var, rho):
    """Returns (y, xhat, inv_stds, running_mean', running_var')."""
    n_sub = x.shape[0] // vbs
    y = np.empty_like(x)
    xhat = np.empty_like(x)
    inv_stds = np.empty((n_sub, x.shape[1]))
    mean_acc = np.zeros(x.shape[1])
    var_acc = np.zeros(x.shape[1])
    for k in range(n_sub):
        sl = slice(k * vbs, (k + 1) * vbs)
        xs = x[sl]
        mu = xs.mean(axis=0)
        var = xs.var(axis=0)  # biased, divisor n
        inv = 1.0 / np.sqrt(var + eps)
        xhat[sl] = (xs - mu) * inv
        y[sl] = xhat[sl] * gamma + beta
        inv_stds[k] = inv
        mean_acc += mu
        var_acc += var
    new_mean = rho * running_mean + (1.0 - rho) * mean_acc / n_sub
    new_var = rho * running_var + (1.0 - rho) * var_acc / n_sub
    return y, xhat, inv_stds, new_mean, new_var


def ghost_bn_backward(dy, xhat, inv_stds, gamma, vbs):
    """Returns (dx, dgamma, dbeta)."""
    dgamma = (dy * xhat).sum(axis=0)
    dbeta = dy.sum(axis=0)
    dx = np.empty_like(dy)
    for k in range(dy.shape[0] // vbs):
        sl = slice(k * vbs, (k + 1) * vbs)
        dxhat = dy[sl] * gamma
        xh = xhat[sl]
        inv = inv_stds[k]
        dx[sl] = (inv / vbs) * (
            vbs * dxhat - dxhat.sum(axis=0) - xh * (dxhat * xh).sum(axis=0)
        )
    return dx, dgamma, dbeta


# ---------------------------------------------------------------------------
# A whole training run, written out step by step
# ---------------------------------------------------------------------------
#
# The run `optparity.harness.run_training` must reproduce bit for bit. It
# shares only data generation, the parameter init and the schedule with the
# package; the batch stream, the affine/ghost-BN/ReLU/loss passes, the
# routed per-group step and every divergence check are written out here.
# `config` is a parsed experiment config; the result is a dict with the
# fields of optparity's TrainResult.

class _Diverged(Exception):
    pass


def _finite_or_diverge(a):
    if not np.isfinite(a).all():
        raise _Diverged


def _reference_forward(p, layers, running, x, labels, mc, mode):
    """Returns (logits, loss, caches); `running` is updated in train mode."""
    caches = []
    bn_idx = 0
    for i, (w, b, scale, shift) in enumerate(layers[:-1]):
        z = x @ p[w] + p[b]
        cache = {"x_in": x}
        if scale is not None:
            _finite_or_diverge(z)
            mean, var = running[bn_idx]
            if mode == "eval":
                inv = 1.0 / np.sqrt(var + mc.bn_epsilon)
                y = (z - mean) * inv * p[scale] + p[shift]
            else:
                y, xhat, inv_stds, mean, var = ghost_bn_forward(
                    z, p[scale], p[shift], mc.bn_epsilon, mc.virtual_batch_size,
                    mean, var, mc.bn_stats_decay)
                running[bn_idx] = (mean, var)
                cache["bn"] = (xhat, inv_stds)
            bn_idx += 1
        else:
            y = z
        cache["mask"] = y > 0.0
        caches.append(cache)
        x = np.maximum(y, 0.0)
    w, b, _, _ = layers[-1]
    logits = x @ p[w] + p[b]
    _finite_or_diverge(logits)
    z = logits - logits.max(axis=1, keepdims=True)
    log_p = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    k = logits.shape[1]
    onehot = np.zeros((labels.shape[0], k))
    onehot[np.arange(labels.shape[0]), labels] = 1.0
    targets = (1.0 - mc.label_smoothing) * onehot + mc.label_smoothing / k
    loss = float(-(targets * log_p).sum(axis=1).mean())
    caches.append({"x_in": x, "log_p": log_p, "targets": targets})
    return logits, loss, caches


def _reference_backward(p, layers, caches, mc):
    top = caches[-1]
    dlogits = (np.exp(top["log_p"]) - top["targets"]) / top["x_in"].shape[0]
    grads = {}
    w, b, _, _ = layers[-1]
    grads[w] = top["x_in"].T @ dlogits
    grads[b] = dlogits.sum(axis=0)
    da = dlogits @ p[w].T
    for (w, b, scale, shift), cache in zip(layers[-2::-1], caches[-2::-1]):
        dy = da * cache["mask"]
        if scale is not None:
            xhat, inv_stds = cache["bn"]
            dz, grads[scale], grads[shift] = ghost_bn_backward(
                dy, xhat, inv_stds, p[scale], mc.virtual_batch_size)
        else:
            dz = dy
        grads[w] = cache["x_in"].T @ dz
        grads[b] = dz.sum(axis=0)
        da = dz @ p[w].T
    return grads


def reference_run_training(config):
    from optparity.model import gen_synthetic_dataset, init_mlp
    from optparity.schedule import eval_schedule

    mc, d = config.model, config.data
    train, eval_set = gen_synthetic_dataset(d.classes, d.features, d.per_class,
                                            d.spread, d.seed)
    store = init_mlp(mc, rng_seed=mc.init_seed + config.base_seed)
    tags = {g.name: g.tag for g in store}
    p = {g.name: g.values.reshape(g.shape).copy() for g in store}
    slots = {name: {key: np.zeros(a.size) for key in "vms"} for name, a in p.items()}
    n_layers = len(mc.layer_widths) - 1
    layers = [(f"w{i}", f"b{i}",
               f"bn{i}_scale" if i < n_layers and mc.use_bn[i - 1] else None,
               f"bn{i}_shift" if i < n_layers and mc.use_bn[i - 1] else None)
              for i in range(1, n_layers + 1)]
    running = [(np.zeros(mc.layer_widths[i + 1]), np.ones(mc.layer_widths[i + 1]))
               for i, on in enumerate(mc.use_bn) if on]
    rng = np.random.default_rng(config.base_seed)
    buffer = np.empty(0, dtype=np.int64)
    result = {"history": [], "status": "completed", "steps_run": 0,
              "diverged_step": None, "final_train_accuracy": None,
              "final_eval_accuracy": None, "final_loss": None}

    for t in range(1, config.budget_steps + 1):
        lr = eval_schedule(config.schedule, t)
        while buffer.size < config.batch_size:
            buffer = np.concatenate([buffer, rng.permutation(train.labels.shape[0])])
        idx, buffer = buffer[:config.batch_size], buffer[config.batch_size:]
        try:
            with np.errstate(all="ignore"):
                _, loss, caches = _reference_forward(
                    p, layers, running, train.inputs[idx], train.labels[idx], mc, "train")
                if not math.isfinite(loss):
                    raise _Diverged
                grads = _reference_backward(p, layers, caches, mc)
                for g in grads.values():
                    _finite_or_diverge(g)
                names = list(p)
                groups = [{"tag": tags[n], "theta": p[n].ravel(), "g": grads[n].ravel(),
                           **slots[n]} for n in names]
                try:
                    new = per_group_step(groups, config.routing.routes, lr, t - 1)
                except ZeroDivisionError:
                    raise _Diverged from None
            for name, out in zip(names, new):
                _finite_or_diverge(out["theta"])
                p[name] = out["theta"].reshape(p[name].shape)
                slots[name] = {key: out[key] for key in "vms"}
        except _Diverged:
            result.update(status="diverged", diverged_step=t, steps_run=t - 1)
            return result
        result["steps_run"] = t
        if t % config.eval_every == 0 or t == config.budget_steps:
            train_logits, train_loss, _ = _reference_forward(
                p, layers, running, train.inputs, train.labels, mc, "eval")
            eval_logits, _, _ = _reference_forward(
                p, layers, running, eval_set.inputs, eval_set.labels, mc, "eval")
            result["history"].append({
                "step": t,
                "train_loss": train_loss,
                "train_accuracy": float((train_logits.argmax(axis=1) == train.labels).mean()),
                "eval_accuracy": float((eval_logits.argmax(axis=1) == eval_set.labels).mean()),
                "lr": lr,
            })

    last = result["history"][-1]
    result.update(final_train_accuracy=last["train_accuracy"],
                  final_eval_accuracy=last["eval_accuracy"], final_loss=last["train_loss"])
    return result
