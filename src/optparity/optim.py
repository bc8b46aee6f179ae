"""Update rules and the composite routing optimizer.

Five rules: classical heavy-ball momentum, Nesterov momentum, Adam (with
the bias-correction toggle), LARS, and LAMB. Weight decay comes in two
modes: ``l2_into_gradient`` folds lambda*theta into the gradient before
the rule's mechanics; ``decoupled`` subtracts eta*lambda*theta directly
in the parameter update. Groups whose tag is in ``exclude_tags`` receive
neither decay nor layer-wise normalization.

The composite optimizer routes each parameter group to a rule by tag
(first matching rule wins) and advances the global step counter once per
composite step. Because the store's flat vector is ordered by tag, the
groups one rule covers form a contiguous slice (one per run of adjacent
tags), and each rule updates its whole slice with one fused call: per-
element decay where exclusions differ, per-group LARS/LAMB trust ratios.
`apply_step` updates a flat parameter vector and the optimizer state in
place; `composite_step` is its copy-on-write form over a store and a
gradient dict, returning a new store and state.

The public ``*_update`` functions apply the same fused rules to a single
group and return new arrays, leaving their inputs untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import LengthMismatch, NonFiniteInput, DivisionHazard, UncoveredTag
from .param_store import ParamStore, Segment, TAGS

KINDS = ("heavy_ball", "nesterov", "adam", "lars", "lamb")


@dataclass
class OptimizerConfig:
    kind: str = "heavy_ball"
    momentum: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    bias_correction: bool = True
    trust_coefficient: float = 0.001
    decay_mode: str | None = None  # resolved per kind when None
    decay: float = 0.0
    exclude_tags: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ValueError("beta1/beta2 must be in [0, 1)")
        # epsilon=0 is tolerated for analytical tests; flagged at use time
        if self.trust_coefficient <= 0.0:
            raise ValueError("trust_coefficient must be > 0")
        if self.decay < 0.0:
            raise ValueError("decay must be >= 0")
        if self.decay_mode is None:
            # L2 for the momentum family, decoupled for the Adam family
            self.decay_mode = (
                "decoupled" if self.kind in ("adam", "lamb") else "l2_into_gradient"
            )
        if self.decay_mode not in ("l2_into_gradient", "decoupled"):
            raise ValueError(f"unknown decay_mode {self.decay_mode!r}")
        self.exclude_tags = frozenset(self.exclude_tags)


@dataclass
class GroupState:
    """Slot buffers for one parameter group plus the step count in effect."""

    v: np.ndarray
    m: np.ndarray
    s: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, n: int, t: int = 0) -> "GroupState":
        return cls(np.zeros(n), np.zeros(n), np.zeros(n), t)


class OptimizerState:
    """Flat slot vectors `v`, `m`, `s` laid out like the store's `flat`.

    `slots` maps each group name to a `GroupState` of views into them. The
    state also carries the routing plan of the run it belongs to, so the
    plan is built once per run and not per step.
    """

    def __init__(self, v, m, s, t: int = 0, segments: tuple[Segment, ...] = (),
                 plan: "_Plan | None" = None):
        self.v, self.m, self.s, self.t = v, m, s, t
        self.segments = segments
        self._plan = plan
        self._slots = (None, {})

    @classmethod
    def for_store(cls, store: ParamStore) -> "OptimizerState":
        n = store.flat.size
        return cls(np.zeros(n), np.zeros(n), np.zeros(n), 0, store.segments)

    @property
    def slots(self) -> dict[str, GroupState]:
        """Per-group views of the slot vectors, rebuilt when the step count moves."""
        if self._slots[0] != self.t:
            self._slots = (self.t, {
                seg.name: GroupState(self.v[seg.start:seg.stop], self.m[seg.start:seg.stop],
                                     self.s[seg.start:seg.stop], self.t)
                for seg in self.segments
            })
        return self._slots[1]

    def plan_for(self, routing: "RoutingRule") -> "_Plan":
        """The parts `routing` makes of this state's layout, built once per routing."""
        if self._plan is None or self._plan.routing is not routing:
            self._plan = _Plan(routing, tuple(sorted(self.segments, key=lambda s: s.start)))
        return self._plan


@dataclass
class RoutingRule:
    """Ordered (tag set -> config) routes; first match wins."""

    routes: list[tuple[frozenset[str], OptimizerConfig]]

    def config_for(self, tag: str) -> OptimizerConfig:
        for tags, cfg in self.routes:
            if tag in tags:
                return cfg
        raise UncoveredTag(tag)

    def covers_all(self) -> bool:
        covered = set()
        for tags, _ in self.routes:
            covered |= tags
        return covered >= set(TAGS)


def _per_element(per_group: list[float], sizes: np.ndarray):
    """One float when every group shares the value, else a per-element vector."""
    if len(set(per_group)) == 1:
        return per_group[0]
    return np.repeat(per_group, sizes)


class _Part:
    """One rule's contiguous slice of the flat vector and its per-group settings.

    `bounds` are the groups' (lo, hi) within the slice and `included` says
    which groups are not excluded, i.e. get decay and trust ratios; `l2` and
    `wd` are the decay lambdas of the two modes, each a float or a
    per-element vector.
    """

    def __init__(self, config: OptimizerConfig, segs: list[Segment]):
        self.config = config
        start = segs[0].start
        self.slice = slice(start, segs[-1].stop)
        self.bounds = [(seg.start - start, seg.stop - start) for seg in segs]
        self.sizes = np.array([seg.stop - seg.start for seg in segs])
        self.included = [seg.tag not in config.exclude_tags for seg in segs]
        decay = _per_element([config.decay if on else 0.0 for on in self.included],
                             self.sizes)
        if config.decay_mode == "l2_into_gradient":
            self.l2, self.wd = decay, 0.0
        else:
            self.l2, self.wd = 0.0, decay


class _Plan:
    """The parts a routing makes of one store layout, in flat order."""

    def __init__(self, routing: RoutingRule, flat_order: tuple[Segment, ...]):
        self.routing, self.flat_order = routing, flat_order
        runs: list[tuple[OptimizerConfig, list[Segment]]] = []
        for seg in flat_order:
            cfg = routing.config_for(seg.tag)
            if runs and runs[-1][0] is cfg:
                runs[-1][1].append(seg)
            else:
                runs.append((cfg, [seg]))
        self.parts = [_Part(cfg, segs) for cfg, segs in runs]
        kinds = {part.config.kind for part in self.parts}
        self.writes_v = bool(kinds & {"heavy_ball", "nesterov", "lars"})
        self.writes_ms = bool(kinds & {"adam", "lamb"})
        self.grad_shapes = [(seg.stop - seg.start,) for seg in flat_order]


def _check(g: np.ndarray, theta: np.ndarray):
    if g.shape != theta.shape:
        raise LengthMismatch(f"{g.shape} vs {theta.shape}")
    if not np.isfinite(g).all():
        raise NonFiniteInput("gradient contains NaN/Inf")


def _decays(config: OptimizerConfig, group_tag: str) -> tuple[float, float]:
    """(l2 lambda, decoupled lambda) effective for this group."""
    if group_tag in config.exclude_tags or config.decay == 0.0:
        return 0.0, 0.0
    if config.decay_mode == "l2_into_gradient":
        return config.decay, 0.0
    return 0.0, config.decay


def effective_gradient(
    g: np.ndarray, theta: np.ndarray, config: OptimizerConfig, group_tag: str
) -> np.ndarray:
    """g + lambda*theta under l2_into_gradient (unless the tag is excluded)."""
    if g.shape != theta.shape:
        raise LengthMismatch(f"{g.shape} vs {theta.shape}")
    l2, _ = _decays(config, group_tag)
    if l2 == 0.0:
        return g
    return g + l2 * theta


# -- fused rules: each updates theta and its slots in place over one part ---

def _active(decay) -> bool:
    return isinstance(decay, np.ndarray) or decay != 0.0


def _with_l2(g, theta, l2):
    return g + l2 * theta if _active(l2) else g


def _trust_ratios(theta, d, part: _Part, coefficient: float) -> np.ndarray:
    """Per group coefficient*|theta|/|d|; 1 when excluded or a norm is zero.

    Each norm is the square root of one dot product over the group's own
    slice, which is how np.linalg.norm computes a vector norm.
    """
    ratios = []
    for (lo, hi), on in zip(part.bounds, part.included):
        ratio = 1.0
        if on:
            a, b = theta[lo:hi], d[lo:hi]
            a_norm, b_norm = math.sqrt(a @ a), math.sqrt(b @ b)
            if a_norm != 0.0 and b_norm != 0.0:
                ratio = coefficient * a_norm / b_norm
        ratios.append(ratio)
    return np.array(ratios)


def _adam_direction(g_eff, m, s, config: OptimizerConfig, t: int):
    """Advance (m, s) in place; the m_hat/(sqrt(s_hat)+eps) direction at step t+1."""
    kernels.adam_moments(m, s, g_eff, config.beta1, config.beta2)
    if config.bias_correction:
        c1 = 1.0 - config.beta1 ** (t + 1)
        c2 = 1.0 - config.beta2 ** (t + 1)
    else:
        c1 = c2 = 1.0
    if config.epsilon == 0.0 and np.any(s == 0.0):
        raise DivisionHazard("epsilon=0 with a zero second-moment entry")
    base = np.empty_like(m)
    kernels.adam_direction(base, m, s, config.epsilon, c1, c2)
    return base


def _heavy_ball(theta, g, v, m, s, eta, part: _Part, t: int):
    kernels.heavy_ball_step(theta, _with_l2(g, theta, part.l2), v, eta,
                            part.config.momentum, part.wd)


def _nesterov(theta, g, v, m, s, eta, part: _Part, t: int):
    kernels.nesterov_step(theta, _with_l2(g, theta, part.l2), v, eta,
                          part.config.momentum, part.wd)


def _adam(theta, g, v, m, s, eta, part: _Part, t: int):
    base = _adam_direction(_with_l2(g, theta, part.l2), m, s, part.config, t)
    theta -= eta * (base + part.wd * theta)


def _lars(theta, g, v, m, s, eta, part: _Part, t: int):
    cfg = part.config
    g_eff = _with_l2(g, theta, part.l2)
    ratios = _trust_ratios(theta, g_eff, part, cfg.trust_coefficient)
    kernels.trust_momentum_step(theta, g_eff, v, np.repeat(ratios * eta, part.sizes),
                                cfg.momentum)
    if _active(part.wd):
        theta -= eta * part.wd * theta


def _lamb(theta, g, v, m, s, eta, part: _Part, t: int):
    base = _adam_direction(_with_l2(g, theta, part.l2), m, s, part.config, t)
    u = base + part.wd * theta if _active(part.wd) else base
    ratios = _trust_ratios(theta, u, part, 1.0)
    theta -= np.repeat(eta * ratios, part.sizes) * u


_UPDATE_FNS = {
    "heavy_ball": _heavy_ball,
    "nesterov": _nesterov,
    "adam": _adam,
    "lars": _lars,
    "lamb": _lamb,
}


# -- one-group updates: pure functions over the same fused rules ------------

def _update_one(kind, theta, g, state: GroupState, eta, config, group_tag):
    theta = np.array(theta, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    _check(g, theta)
    v, m, s = state.v.copy(), state.m.copy(), state.s.copy()
    part = _Part(config, [Segment("", group_tag, theta.shape, 0, theta.size)])
    _UPDATE_FNS[kind](theta, g, v, m, s, eta, part, state.t)
    return theta, GroupState(v, m, s, state.t + 1)


def heavy_ball_update(theta, g, state: GroupState, eta: float, config: OptimizerConfig,
                      group_tag: str = "weight"):
    return _update_one("heavy_ball", theta, g, state, eta, config, group_tag)


def nesterov_update(theta, g, state: GroupState, eta: float, config: OptimizerConfig,
                    group_tag: str = "weight"):
    return _update_one("nesterov", theta, g, state, eta, config, group_tag)


def adam_update(theta, g, state: GroupState, eta: float, config: OptimizerConfig,
                group_tag: str = "weight"):
    return _update_one("adam", theta, g, state, eta, config, group_tag)


def lars_update(theta, g, state: GroupState, eta: float, config: OptimizerConfig,
                group_tag: str = "weight"):
    return _update_one("lars", theta, g, state, eta, config, group_tag)


def lamb_update(theta, g, state: GroupState, eta: float, config: OptimizerConfig,
                group_tag: str = "weight"):
    return _update_one("lamb", theta, g, state, eta, config, group_tag)


def _flat_gradient(grads: dict[str, np.ndarray], plan: _Plan) -> np.ndarray:
    """The gradients concatenated in flat order, each checked for length."""
    parts = [grads[seg.name] for seg in plan.flat_order]
    shapes = [p.shape for p in parts]
    if shapes != plan.grad_shapes:
        for seg, shape, want in zip(plan.flat_order, shapes, plan.grad_shapes):
            if shape != want:
                raise LengthMismatch(f"gradient of {seg.name!r}: {shape} vs {want}")
    return np.concatenate(parts, dtype=np.float64)


def apply_step(theta: np.ndarray, g: np.ndarray, routing: RoutingRule, eta: float,
               state: OptimizerState) -> None:
    """Update every group via its routed rule with a shared learning rate, in place.

    `theta` is a store's flat vector and `g` its gradient in the same layout;
    `theta` and the slots of `state` are updated in place. The global step
    counter advances exactly once; every rule sees the pre-step count so
    Adam bias correction stays aligned. A raised error leaves them part-way.
    """
    _check(g, theta)
    plan = state.plan_for(routing)
    v, m, s, t = state.v, state.m, state.s, state.t
    for part in plan.parts:
        sl = part.slice
        _UPDATE_FNS[part.config.kind](theta[sl], g[sl], v[sl], m[sl], s[sl], eta, part, t)
    state.t = t + 1


def composite_step(
    store: ParamStore,
    grads: dict[str, np.ndarray],
    routing: RoutingRule,
    eta: float,
    state: OptimizerState,
) -> tuple[ParamStore, OptimizerState]:
    """`apply_step` on copies: returns a new store and state.

    `grads` maps every group name to its flat gradient. Neither `store`
    nor `state` is modified; slot vectors no routed rule writes are shared.
    """
    plan = state.plan_for(routing)
    g = _flat_gradient(grads, plan)
    new_store = store.copy()
    v = state.v.copy() if plan.writes_v else state.v
    m, s = (state.m.copy(), state.s.copy()) if plan.writes_ms else (state.m, state.s)
    new_state = OptimizerState(v, m, s, state.t, state.segments, plan)
    apply_step(new_store.flat, g, routing, eta, new_state)
    return new_store, new_state
