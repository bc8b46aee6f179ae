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
Adjacent Adam and LAMB slices that share their moment settings advance
their moments and take their direction in one pass before the rules run.
Every temporary of a step lives in the direction buffer that the routing
plan owns or in the gradient, which a step overwrites once it has read
it, so a step allocates no parameter-sized array. The plan also keeps
every view a step works in, down to each LARS or LAMB group's views for
its trust ratio, so a step slices no vector.
`apply_step` is the one code path that dispatches a rule: it updates a
flat parameter vector and the optimizer state in place, over the state's
`Layout`, which it shares with the store. `composite_step` runs it on
copies of a store and of every slot vector, with the gradient given as a
dict that the layout's views assemble, and returns the new store and state.

The public ``*_update`` functions run `apply_step` over a one-group
layout and return new arrays, leaving their inputs untouched.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import DivisionHazard, InvalidConfig, LengthMismatch, NonFiniteInput, UncoveredTag
from .param_store import Layout, ParamStore, Segment, TAGS, all_finite, const

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
            raise InvalidConfig(f"unknown optimizer kind {self.kind!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidConfig("momentum must be in [0, 1)")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise InvalidConfig("beta1/beta2 must be in [0, 1)")
        # epsilon=0 is tolerated for analytical tests; flagged at use time
        if self.trust_coefficient <= 0.0:
            raise InvalidConfig("trust_coefficient must be > 0")
        if self.decay < 0.0:
            raise InvalidConfig("decay must be >= 0")
        if self.decay_mode is None:
            # L2 for the momentum family, decoupled for the Adam family
            self.decay_mode = (
                "decoupled" if self.kind in ("adam", "lamb") else "l2_into_gradient"
            )
        if self.decay_mode not in ("l2_into_gradient", "decoupled"):
            raise InvalidConfig(f"unknown decay_mode {self.decay_mode!r}")
        self.exclude_tags = frozenset(self.exclude_tags)
        if not self.exclude_tags <= set(TAGS):
            raise InvalidConfig(f"exclude_tags must be among {', '.join(TAGS)}, "
                                f"got {sorted(self.exclude_tags)}")


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
    """Flat slot vectors `v`, `m`, `s` laid out by `layout`, a store's.

    Each slot vector must be `layout.size` long. `slots` maps each group
    name to a `GroupState` of the layout's views into the slot vectors. The
    state also carries the routing plan of the run it belongs to, so the
    plan is built once per run and not per step.
    """

    def __init__(self, layout: Layout, v, m, s, t: int = 0):
        for name, vec in (("v", v), ("m", m), ("s", s)):
            if vec.shape != (layout.size,):
                raise LengthMismatch(f"slot {name} {vec.shape} vs the layout's ({layout.size},)")
        self.layout, self.v, self.m, self.s, self.t = layout, v, m, s, t
        self._plan = None

    @classmethod
    def for_store(cls, store: ParamStore) -> "OptimizerState":
        n = store.layout.size
        return cls(store.layout, np.zeros(n), np.zeros(n), np.zeros(n))

    @property
    def slots(self) -> dict[str, GroupState]:
        """Per-group views of the slot vectors at the current step count."""
        v, m, s = (self.layout.views(vec) for vec in (self.v, self.m, self.s))
        return {name: GroupState(v[name], m[name], s[name], self.t) for name in v}

    def plan_for(self, routing: "RoutingRule") -> "_Plan":
        """The parts `routing` makes of this state's layout, built once per routing."""
        plan = self._plan
        if plan is None or plan.routing is not routing:
            plan = self._plan = _Plan(routing, self.layout)
        return plan


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
    """One constant when every group shares the value, else a per-element
    vector; and whether any of the values is nonzero."""
    if len(set(per_group)) == 1:
        return const(per_group[0]), per_group[0] != 0.0
    return np.repeat(per_group, sizes), True


class _Part:
    """One rule's contiguous slice of the flat vector and its per-group settings.

    `bounds` are the groups' (lo, hi) within the slice and `included` says
    which groups are not excluded, i.e. get decay and trust ratios; `l2` and
    `wd` are the decay lambdas of the two modes, each a constant or a
    per-element vector, and `l2_on` and `wd_on` say whether they act.
    `momentum` and `epsilon` are the config's as constants, and `moments` what
    an Adam-family rule's moment pass depends on (None for another rule);
    `betas` are the config's beta1, beta2, 1 - beta1 and 1 - beta2 as
    constants, as the moment pass takes them.
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
        off = (const(0.0), False)
        if config.decay_mode == "l2_into_gradient":
            (self.l2, self.l2_on), (self.wd, self.wd_on) = decay, off
        else:
            (self.l2, self.l2_on), (self.wd, self.wd_on) = off, decay
        self.momentum, self.epsilon = const(config.momentum), const(config.epsilon)
        self.moments = ((config.beta1, config.beta2, config.epsilon, config.bias_correction)
                        if config.kind in ("adam", "lamb") else None)
        self.betas = tuple(map(const, (config.beta1, config.beta2,
                                       1.0 - config.beta1, 1.0 - config.beta2)))


class _Plan:
    """The parts a routing makes of one store layout, in flat order."""

    def __init__(self, routing: RoutingRule, layout: Layout):
        self.routing = routing
        runs: list[tuple[OptimizerConfig, list[Segment]]] = []
        for seg in layout.flat_order:
            cfg = routing.config_for(seg.tag)
            if runs and runs[-1][0] is cfg:
                runs[-1][1].append(seg)
            else:
                runs.append((cfg, [seg]))
        self.parts = [_Part(cfg, segs) for cfg, segs in runs]
        # runs of adjacent Adam-family parts with equal moment settings take one
        # moment pass each per step; a part with L2 decay takes its own
        passes = [list(run) for key, run in itertools.groupby(
            self.parts, lambda p: p.moments and (p.moments, p.l2_on and id(p))) if key]
        self.moments = [(slice(run[0].slice.start, run[-1].slice.stop), run[0]) for run in passes]
        self._vectors = None

    def views(self, theta, g, v, m, s) -> tuple[list[tuple], list[tuple]]:
        """Per moment run its slices of theta, g, m, s and of a direction buffer,
        and its first part; per part its kind, its slices of theta, g, v and the
        direction, the part, and its trust groups (`_trust_groups`). Built once
        per set of vectors."""
        vectors = self._vectors
        if (vectors is None or vectors[0] is not theta or vectors[1] is not g
                or vectors[2] is not v or vectors[3] is not m or vectors[4] is not s):
            self._vectors, d = (theta, g, v, m, s), np.empty(theta.size)
            self._views = (
                [(theta[run], g[run], m[run], s[run], d[run], lead) for run, lead in self.moments],
                [(part.config.kind, theta[part.slice], g[part.slice], v[part.slice],
                  d[part.slice], part, _trust_groups(part, theta[part.slice], g[part.slice],
                                                     d[part.slice]))
                 for part in self.parts])
        return self._views


def _trust_groups(part: _Part, theta, g, d) -> list[tuple] | None:
    """Per group of a LARS or LAMB part, whether it takes a trust ratio and its
    views of the part's slices of theta, of the vector whose norm the ratio
    divides by and of the vector that `_trust_scales` fills: g and the
    direction for LARS, the direction and g for LAMB. None for another rule."""
    kind = part.config.kind
    if kind not in ("lars", "lamb"):
        return None
    u, out = (g, d) if kind == "lars" else (d, g)
    return [(on, theta[lo:hi], u[lo:hi], out[lo:hi])
            for (lo, hi), on in zip(part.bounds, part.included)]


def _check(g: np.ndarray, theta: np.ndarray):
    if g.shape != theta.shape:
        raise LengthMismatch(f"{g.shape} vs {theta.shape}")
    if not all_finite(g):
        raise NonFiniteInput("gradient contains NaN/Inf")


# -- fused rules: each updates theta and its slots in place over one part ---

def _plus_decay(x, decay, on: bool, theta, scratch):
    """x, with x + decay * theta written over it when `on`, the product taken
    in `scratch`: the L2 term of a gradient or the decoupled term of an Adam
    direction."""
    if on:
        np.multiply(decay, theta, out=scratch)
        np.add(x, scratch, out=x)
    return x


def _trust_scales(groups: list[tuple], coefficient: float, eta: float):
    """Fill each of `_trust_groups`' out views with eta * ratio, where the
    group's ratio is coefficient*|theta|/|u|, or 1 when it is excluded or a
    norm is zero.

    Each norm is the square root of one dot product over the group's own
    view, which is how np.linalg.norm computes a vector norm (`a.dot(a)`
    and `a @ a` give the same bits).
    """
    for on, theta, u, out in groups:
        ratio = 1.0
        if on:
            a_norm, b_norm = math.sqrt(theta.dot(theta)), math.sqrt(u.dot(u))
            if a_norm != 0.0 and b_norm != 0.0:
                ratio = coefficient * a_norm / b_norm
        out.fill(eta * ratio)


def _adam_direction(g_eff, m, s, out, part: _Part, t: int):
    """Advance (m, s) in place and write the m_hat/(sqrt(s_hat)+eps) direction
    at step t+1 into `out`; g_eff is scratch once the moments have read it."""
    config = part.config
    kernels.adam_moments(m, s, g_eff, *part.betas, out)
    if config.bias_correction:
        c1 = 1.0 - config.beta1 ** (t + 1)
        c2 = 1.0 - config.beta2 ** (t + 1)
    else:
        c1 = c2 = 1.0
    if config.epsilon == 0.0 and np.logical_or.reduce(s == 0.0):
        raise DivisionHazard("epsilon=0 with a zero second-moment entry")
    kernels.adam_direction(out, m, s, part.epsilon, c1, c2, g_eff)


# each rule takes its part's slices of theta, g, v and the Adam direction,
# the part and its trust groups; g is scratch once the rule has read it, and
# so is the direction for a momentum rule
def _heavy_ball(theta, g, v, d, eta, part: _Part, trust):
    kernels.heavy_ball_step(theta, _plus_decay(g, part.l2, part.l2_on, theta, d), v, eta,
                            part.momentum, part.wd, d)


def _nesterov(theta, g, v, d, eta, part: _Part, trust):
    kernels.nesterov_step(theta, _plus_decay(g, part.l2, part.l2_on, theta, d), v, eta,
                          part.momentum, part.wd, d, g)


def _adam(theta, g, v, d, eta, part: _Part, trust):
    # theta -= eta * (d + wd * theta), or eta * d without decay
    _plus_decay(d, part.wd, part.wd_on, theta, g)
    theta -= np.multiply(eta, d, out=d)


def _lars(theta, g, v, d, eta, part: _Part, trust):
    g = _plus_decay(g, part.l2, part.l2_on, theta, d)
    _trust_scales(trust, part.config.trust_coefficient, eta)  # ratios of |theta|/|g| over d
    kernels.trust_momentum_step(theta, g, v, d, part.momentum, d)
    if part.wd_on:
        # theta -= eta * wd * theta
        np.multiply(eta, part.wd, out=g)
        theta -= np.multiply(g, theta, out=g)


def _lamb(theta, g, v, d, eta, part: _Part, trust):
    # u = d + wd * theta, or d without decay; theta -= (eta * ratio) * u
    _plus_decay(d, part.wd, part.wd_on, theta, g)
    _trust_scales(trust, 1.0, eta)  # ratios of |theta|/|u| over g
    theta -= np.multiply(g, d, out=g)


_UPDATE_FNS = {
    "heavy_ball": _heavy_ball,
    "nesterov": _nesterov,
    "adam": _adam,
    "lars": _lars,
    "lamb": _lamb,
}


# -- one-group updates: apply_step over a one-segment layout ---------------

def _update_one(kind, theta, g, state: GroupState, eta, config, group_tag):
    if config.kind != kind:
        raise InvalidConfig(f"{kind}_update got a config of kind {config.kind!r}")
    theta = np.array(theta, dtype=np.float64)
    one = OptimizerState(Layout([("", group_tag, theta.shape)]), state.v.copy(),
                         state.m.copy(), state.s.copy(), state.t)
    apply_step(theta, np.array(g, dtype=np.float64),
               RoutingRule([(frozenset({group_tag}), config)]), eta, one)
    return theta, GroupState(one.v, one.m, one.s, one.t)


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


def apply_step(theta: np.ndarray, g: np.ndarray, routing: RoutingRule, eta: float,
               state: OptimizerState) -> None:
    """Update every group via its routed rule with a shared learning rate, in place.

    `theta` is a store's flat vector and `g` its gradient in the same layout;
    `theta` and the slots of `state` are updated in place, and `g` is the
    step's scratch once it has been read, so it comes back overwritten. The
    global step counter advances exactly once; every moment pass sees the
    pre-step count so Adam bias correction stays aligned. Each run of
    Adam-family parts advances its moments first, then each rule runs once
    over its part. A raised error leaves them part-way.
    """
    _check(g, theta)
    if theta.shape != state.v.shape:
        raise LengthMismatch(f"theta {theta.shape} vs the state's {state.v.shape}")
    t = state.t
    moments, parts = state.plan_for(routing).views(theta, g, state.v, state.m, state.s)
    for theta_r, g_r, m, s, d, lead in moments:
        _adam_direction(_plus_decay(g_r, lead.l2, lead.l2_on, theta_r, d), m, s, d, lead, t)
    for kind, theta_p, g_p, v, d, part, trust in parts:
        _UPDATE_FNS[kind](theta_p, g_p, v, d, eta, part, trust)
    state.t = t + 1


def composite_step(
    store: ParamStore,
    grads: dict[str, np.ndarray],
    routing: RoutingRule,
    eta: float,
    state: OptimizerState,
) -> tuple[ParamStore, OptimizerState]:
    """`apply_step` on copies: returns a new store and state.

    `grads` maps every group name to its flat gradient; a missing or
    misshapen one raises LengthMismatch naming the group. Neither `store`
    nor `state` is modified.
    """
    g = np.empty(store.layout.size)
    for name, view in store.layout.views(g).items():
        got = grads[name].shape if name in grads else "no gradient"
        if got != view.shape:
            raise LengthMismatch(f"gradient of {name!r}: {got} vs {view.shape}")
        view[:] = grads[name]
    new_store = store.copy()
    new_state = OptimizerState(state.layout, state.v.copy(), state.m.copy(), state.s.copy(),
                               state.t)
    apply_step(new_store.flat, g, routing, eta, new_state)
    return new_store, new_state
