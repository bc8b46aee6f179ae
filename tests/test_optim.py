import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from optparity.errors import (DivisionHazard, InvalidConfig, LengthMismatch, NonFiniteInput,
                              OptparityError, UncoveredTag)
from optparity.optim import (
    KINDS,
    GroupState,
    OptimizerConfig,
    OptimizerState,
    RoutingRule,
    adam_update,
    apply_step,
    composite_step,
    heavy_ball_update,
    lamb_update,
    lars_update,
    nesterov_update,
)
from optparity.param_store import TAGS, ParamGroup, build_param_store


def arr(*xs):
    return np.array(xs, dtype=np.float64)


def zero_state(n=1):
    return GroupState.zeros(n)


class TestL2IntoGradient:
    """The gradient a rule gets under l2_into_gradient, read through apply_step:
    one heavy-ball step from a zero state leaves it in `v`. That the decay is
    folded into a weight's gradient is also checked over 100 steps by
    TestOracleTrajectories.test_heavy_ball."""

    def step(self, g, **settings):
        store = build_param_store([ParamGroup("w", "weight", arr(1.5, -2.0), (2,)),
                                   ParamGroup("b", "bias", arr(3.0), (1,))])
        config = OptimizerConfig(kind="heavy_ball", momentum=0.9,
                                 decay_mode="l2_into_gradient", **settings)
        state = OptimizerState.for_store(store)
        theta = store.flat.copy()
        # apply_step overwrites the gradient it is given
        apply_step(store.flat, g.copy(), RoutingRule([(frozenset(TAGS), config)]), 0.1, state)
        return theta, state.v

    def test_excluded_tag_gets_no_decay(self):
        g = arr(0.25, -0.5, 0.75)
        theta, g_eff = self.step(g, decay=0.1, exclude_tags={"bias"})
        np.testing.assert_array_equal(g_eff[:2], g[:2] + 0.1 * theta[:2])
        np.testing.assert_array_equal(g_eff[2:], g[2:])

    def test_zero_decay_changes_nothing(self):
        g = arr(0.25, -0.5, 0.75)
        np.testing.assert_array_equal(self.step(g, decay=0.0)[1], g)

    def test_mis_sized_gradient_rejected_before_any_write(self):
        store = build_param_store([ParamGroup("w", "weight", arr(1.0, 2.0), (2,))])
        state = OptimizerState.for_store(store)
        with pytest.raises(LengthMismatch):
            apply_step(store.flat, arr(1.0), RoutingRule([(frozenset(TAGS), OptimizerConfig())]),
                       0.1, state)
        np.testing.assert_array_equal(store.flat, arr(1.0, 2.0))
        assert state.t == 0


class TestHeavyBall:
    def test_mu_zero_is_sgd(self):
        cfg = OptimizerConfig(kind="heavy_ball", momentum=0.0)
        theta, _ = heavy_ball_update(arr(1.0), arr(0.5), zero_state(), 0.1, cfg)
        assert theta[0] == pytest.approx(1.0 - 0.1 * 0.5, abs=1e-15)

    def test_first_step_scalar(self):
        cfg = OptimizerConfig(kind="heavy_ball", momentum=0.9)
        theta, state = heavy_ball_update(arr(0.0), arr(1.0), zero_state(), 0.1, cfg)
        assert state.v[0] == pytest.approx(1.0)
        assert theta[0] == pytest.approx(-0.1)

    def test_zero_gradient_coasts(self):
        cfg = OptimizerConfig(kind="heavy_ball", momentum=0.7)
        st = GroupState(arr(2.0), arr(0.0), arr(0.0), 3)
        theta, state = heavy_ball_update(arr(1.0), arr(0.0), st, 0.1, cfg)
        assert state.v[0] == pytest.approx(0.7 * 2.0)
        assert theta[0] == pytest.approx(1.0 - 0.1 * 1.4)

    def test_rejects_nan_gradient(self):
        cfg = OptimizerConfig(kind="heavy_ball")
        with pytest.raises(NonFiniteInput):
            heavy_ball_update(arr(0.0), arr(np.nan), zero_state(), 0.1, cfg)


class TestNesterov:
    def test_first_step_scalar(self):
        cfg = OptimizerConfig(kind="nesterov", momentum=0.9)
        theta, state = nesterov_update(arr(0.0), arr(1.0), zero_state(), 0.1, cfg)
        assert state.v[0] == pytest.approx(1.0)
        assert theta[0] == pytest.approx(-0.19)

    def test_mu_zero_matches_heavy_ball(self):
        rng = np.random.default_rng(0)
        cfg = OptimizerConfig(kind="nesterov", momentum=0.0)
        cfg_hb = OptimizerConfig(kind="heavy_ball", momentum=0.0)
        theta_n, theta_h = arr(*rng.normal(size=4)), None
        theta_h = theta_n.copy()
        sn, sh = zero_state(4), zero_state(4)
        for _ in range(20):
            g = rng.normal(size=4)
            theta_n, sn = nesterov_update(theta_n, g, sn, 0.05, cfg)
            theta_h, sh = heavy_ball_update(theta_h, g, sh, 0.05, cfg_hb)
        np.testing.assert_array_equal(theta_n, theta_h)

    def test_config_b_momentum_accepted(self):
        cfg = OptimizerConfig(kind="nesterov", momentum=1.0 - 0.02397)
        theta, _ = nesterov_update(arr(1.0), arr(1.0), zero_state(), 0.1, cfg)
        assert np.isfinite(theta).all()


class TestAdam:
    def test_unit_magnitude_first_step(self):
        cfg = OptimizerConfig(kind="adam", epsilon=1e-300, bias_correction=True)
        theta, _ = adam_update(arr(5.0), arr(1.0), zero_state(), 0.001, cfg)
        assert theta[0] == pytest.approx(5.0 - 0.001, abs=1e-12)

    def test_uncorrected_first_step(self):
        cfg = OptimizerConfig(kind="adam", beta1=0.9, beta2=0.999,
                              epsilon=1e-300, bias_correction=False)
        theta, _ = adam_update(arr(0.0), arr(1.0), zero_state(), 1.0, cfg)
        assert -theta[0] == pytest.approx(0.1 / np.sqrt(0.001), rel=1e-9)

    def test_tiny_epsilon_accepted(self):
        cfg = OptimizerConfig(kind="adam", epsilon=1e-11)
        theta, _ = adam_update(arr(0.0), arr(1.0), zero_state(), 0.001, cfg)
        assert np.isfinite(theta).all()

    def test_gradient_scale_invariance(self):
        rng = np.random.default_rng(1)
        gs = rng.normal(size=(30, 3)) + 0.5  # keep entries nonzero-ish
        gs[np.abs(gs) < 1e-3] = 1e-3
        cfg = OptimizerConfig(kind="adam", epsilon=1e-300, decay=0.0)
        for c in (0.5, 7.0):
            t1, t2 = arr(1.0, -2.0, 0.5), arr(1.0, -2.0, 0.5)
            s1, s2 = zero_state(3), zero_state(3)
            for g in gs:
                t1, s1 = adam_update(t1, g, s1, 0.01, cfg)
                t2, s2 = adam_update(t2, c * g, s2, 0.01, cfg)
            np.testing.assert_allclose(t1, t2, atol=1e-9)


class TestLars:
    def test_trust_ratio_example(self):
        cfg = OptimizerConfig(kind="lars", momentum=0.0, trust_coefficient=1.0, decay=0.0)
        theta, _ = lars_update(arr(3.0, 4.0), arr(0.0, 2.0), zero_state(2), 0.1, cfg)
        # |theta|=5, |g|=2 -> r=2.5; step = 2.5*0.1*(0,2) = (0, 0.5)
        np.testing.assert_allclose(theta, arr(3.0, 3.5), atol=1e-12)

    def test_zero_param_norm_fallback(self):
        cfg = OptimizerConfig(kind="lars", momentum=0.0, trust_coefficient=1.0)
        theta, _ = lars_update(arr(0.0, 0.0), arr(1.0, 1.0), zero_state(2), 0.1, cfg)
        np.testing.assert_allclose(theta, arr(-0.1, -0.1), atol=1e-15)

    def test_first_step_scale_invariance(self):
        cfg = OptimizerConfig(kind="lars", momentum=0.0, trust_coefficient=1.0, decay=0.0)
        g = arr(0.3, -1.1)
        t1, _ = lars_update(arr(1.0, 2.0), g, zero_state(2), 0.1, cfg)
        t2, _ = lars_update(arr(1.0, 2.0), 10.0 * g, zero_state(2), 0.1, cfg)
        np.testing.assert_allclose(t1, t2, atol=1e-12)

    def test_excluded_tag_gets_unit_ratio(self):
        cfg = OptimizerConfig(kind="lars", momentum=0.0, trust_coefficient=0.001,
                              exclude_tags={"bn_scale"})
        theta, _ = lars_update(arr(4.0), arr(2.0), zero_state(), 0.1, cfg, "bn_scale")
        assert theta[0] == pytest.approx(4.0 - 0.1 * 2.0)


class TestLamb:
    def test_step_one_unit_direction(self):
        cfg = OptimizerConfig(kind="lamb", epsilon=1e-300, decay=0.0)
        theta, _ = lamb_update(arr(1.0, 0.0), arr(0.0, 2.0), zero_state(2), 0.05, cfg)
        # u = (0, 1), |theta|=1=|u| -> ratio 1
        np.testing.assert_allclose(theta, arr(1.0, -0.05), atol=1e-12)

    def test_zero_param_norm_is_adam_step(self):
        cfg = OptimizerConfig(kind="lamb", epsilon=1e-300, decay=0.0)
        theta, _ = lamb_update(arr(0.0, 0.0), arr(1.0, -1.0), zero_state(2), 0.01, cfg)
        np.testing.assert_allclose(theta, arr(-0.01, 0.01), atol=1e-12)

    def test_first_step_scale_invariance(self):
        cfg = OptimizerConfig(kind="lamb", epsilon=1e-300, decay=0.0)
        g = arr(0.4, -0.2, 1.5)
        t1, _ = lamb_update(arr(1.0, 2.0, -1.0), g, zero_state(3), 0.1, cfg)
        t2, _ = lamb_update(arr(1.0, 2.0, -1.0), 0.01 * g, zero_state(3), 0.1, cfg)
        np.testing.assert_allclose(t1, t2, atol=1e-9)


class TestDecayModes:
    def test_sgd_identity_between_modes(self):
        rng = np.random.default_rng(2)
        gs = rng.normal(size=(50, 2))
        l2 = OptimizerConfig(kind="heavy_ball", momentum=0.0, decay=1e-3,
                             decay_mode="l2_into_gradient")
        dec = OptimizerConfig(kind="heavy_ball", momentum=0.0, decay=1e-3,
                              decay_mode="decoupled")
        t1, t2 = arr(1.0, -0.5), arr(1.0, -0.5)
        s1, s2 = zero_state(2), zero_state(2)
        for g in gs:
            t1, s1 = heavy_ball_update(t1, g, s1, 0.05, l2)
            t2, s2 = heavy_ball_update(t2, g, s2, 0.05, dec)
            np.testing.assert_allclose(t1, t2, atol=1e-12)

    def test_momentum_breaks_identity(self):
        rng = np.random.default_rng(3)
        gs = rng.normal(size=(20, 2))
        l2 = OptimizerConfig(kind="heavy_ball", momentum=0.9, decay=1e-2,
                             decay_mode="l2_into_gradient")
        dec = OptimizerConfig(kind="heavy_ball", momentum=0.9, decay=1e-2,
                              decay_mode="decoupled")
        t1, t2 = arr(1.0, -0.5), arr(1.0, -0.5)
        s1, s2 = zero_state(2), zero_state(2)
        for g in gs:
            t1, s1 = heavy_ball_update(t1, g, s1, 0.05, l2)
            t2, s2 = heavy_ball_update(t2, g, s2, 0.05, dec)
        assert np.max(np.abs(t1 - t2)) > 1e-8


UPDATES = {"heavy_ball": heavy_ball_update, "nesterov": nesterov_update,
           "adam": adam_update, "lars": lars_update, "lamb": lamb_update}


@pytest.mark.parametrize("kind,other", [(k, o) for k in KINDS for o in KINDS if o != k])
def test_one_group_update_rejects_a_config_of_another_kind(kind, other):
    """A rule's one-group update runs that rule only: a config of another kind
    is an error naming both, not that other rule's state or a TypeError."""
    state = GroupState.zeros(2)
    with pytest.raises(InvalidConfig, match=f"{kind}_update .*'{other}'"):
        UPDATES[kind](arr(1.0, -2.0), arr(0.5, 0.25), state, 0.1, OptimizerConfig(kind=other))
    for slot in (state.v, state.m, state.s):
        np.testing.assert_array_equal(slot, 0.0)


def test_config_out_of_range_raises_a_package_error():
    with pytest.raises(OptparityError, match="unknown optimizer kind 'bogus'"):
        OptimizerConfig(kind="bogus")


class TestOracleTrajectories:
    """Each rule against the straight-line scalar reference over 100 steps."""

    def _streams(self, seed):
        rng = np.random.default_rng(seed)
        gs = rng.normal(size=100)
        etas = rng.uniform(0.001, 0.1, size=100)
        return gs, etas

    def test_heavy_ball(self):
        gs, etas = self._streams(10)
        cfg = OptimizerConfig(kind="heavy_ball", momentum=0.85, decay=1e-3)
        ref = oracles.heavy_ball_traj(0.7, gs, etas, 0.85, lam=1e-3)
        theta, state = arr(0.7), zero_state()
        for i, (g, eta) in enumerate(zip(gs, etas)):
            theta, state = heavy_ball_update(theta, arr(g), state, eta, cfg)
            assert abs(theta[0] - ref[i]) <= 1e-12

    def test_lamb(self):
        gs, etas = self._streams(11)
        cfg = OptimizerConfig(kind="lamb", beta1=0.9, beta2=0.99, epsilon=1e-6,
                              decay=1e-2, decay_mode="decoupled")
        ref = oracles.lamb_traj(0.5, gs, etas, 0.9, 0.99, 1e-6, lam=1e-2)
        theta, state = arr(0.5), zero_state()
        for i, (g, eta) in enumerate(zip(gs, etas)):
            theta, state = lamb_update(theta, arr(g), state, eta, cfg)
            assert abs(theta[0] - ref[i]) <= 1e-12


class TestComposite:
    def make_store(self):
        return build_param_store([
            ParamGroup("w1", "weight", arr(1.0, 2.0), (2,)),
            ParamGroup("b1", "bias", arr(0.5), (1,)),
            ParamGroup("bn1_scale", "bn_scale", arr(1.0), (1,)),
            ParamGroup("bn1_shift", "bn_shift", arr(0.0), (1,)),
        ])

    def test_single_rule_equals_independent_updates(self):
        store = self.make_store()
        cfg = OptimizerConfig(kind="nesterov", momentum=0.9)
        routing = RoutingRule([(frozenset({"weight", "bias", "bn_scale", "bn_shift"}), cfg)])
        grads = {"w1": arr(0.1, -0.2), "b1": arr(0.3), "bn1_scale": arr(0.0),
                 "bn1_shift": arr(-0.1)}
        state = OptimizerState.for_store(store)
        new_store, new_state = composite_step(store, grads, routing, 0.1, state)
        assert new_state.t == 1
        for name in store.names():
            expected, _ = nesterov_update(
                store[name].values, grads[name],
                GroupState.zeros(store[name].values.size), 0.1, cfg,
            )
            np.testing.assert_array_equal(new_store[name].values, expected)
        # original store untouched
        np.testing.assert_array_equal(store["w1"].values, arr(1.0, 2.0))

    def test_lars_hybrid_routing(self):
        store = self.make_store()
        lars = OptimizerConfig(kind="lars", momentum=0.9, trust_coefficient=0.001,
                               exclude_tags=frozenset({"bias", "bn_scale", "bn_shift"}))
        hb = OptimizerConfig(kind="heavy_ball", momentum=0.9)
        routing = RoutingRule([
            (frozenset({"weight"}), lars),
            (frozenset({"bias", "bn_scale", "bn_shift"}), hb),
        ])
        grads = {n: np.ones_like(store[n].values) for n in store.names()}
        state = OptimizerState.for_store(store)
        new_store, _ = composite_step(store, grads, routing, 0.1, state)
        expected_w, _ = lars_update(store["w1"].values, grads["w1"],
                                    GroupState.zeros(2), 0.1, lars, "weight")
        expected_b, _ = heavy_ball_update(store["b1"].values, grads["b1"],
                                          GroupState.zeros(1), 0.1, hb, "bias")
        np.testing.assert_array_equal(new_store["w1"].values, expected_w)
        np.testing.assert_array_equal(new_store["b1"].values, expected_b)

    def test_uncovered_tag(self):
        store = self.make_store()
        routing = RoutingRule([
            (frozenset({"weight", "bias", "bn_scale"}), OptimizerConfig()),
        ])
        grads = {n: np.zeros_like(store[n].values) for n in store.names()}
        with pytest.raises(UncoveredTag):
            composite_step(store, grads, routing, 0.1, OptimizerState.for_store(store))

    def test_state_stays_finite(self):
        store = self.make_store()
        cfg = OptimizerConfig(kind="adam", epsilon=1e-8)
        routing = RoutingRule([(frozenset({"weight", "bias", "bn_scale", "bn_shift"}), cfg)])
        state = OptimizerState.for_store(store)
        rng = np.random.default_rng(4)
        for _ in range(25):
            grads = {n: rng.normal(size=store[n].values.size) for n in store.names()}
            store, state = composite_step(store, grads, routing, 0.05, state)
        for slot in state.slots.values():
            assert np.isfinite(slot.v).all()
            assert np.isfinite(slot.m).all()
            assert np.isfinite(slot.s).all()


    def test_wrong_length_gradient(self):
        store = self.make_store()
        routing = RoutingRule([(frozenset(TAGS), OptimizerConfig())])
        grads = {n: np.zeros_like(store[n].values) for n in store.names()}
        grads["w1"] = arr(1.0, 2.0, 3.0)
        with pytest.raises(LengthMismatch, match="w1"):
            composite_step(store, grads, routing, 0.1, OptimizerState.for_store(store))
        grads["w1"] = arr(1.0)
        grads["b1"] = arr(1.0, 2.0)  # the total length still matches
        with pytest.raises(LengthMismatch):
            composite_step(store, grads, routing, 0.1, OptimizerState.for_store(store))
        grads = {n: np.zeros_like(store[n].values) for n in store.names()}
        del grads["bn1_scale"]  # a dropped group
        with pytest.raises(LengthMismatch, match="gradient of 'bn1_scale': no gradient"):
            composite_step(store, grads, routing, 0.1, OptimizerState.for_store(store))
        np.testing.assert_array_equal(store.flat, arr(1.0, 2.0, 0.5, 1.0, 0.0))

    def test_a_state_is_built_over_its_layout(self):
        """A state built from the store's layout and zero slots steps as
        for_store's does. Slot vectors alone make no state: without its
        layout a state would route no group, so a step would leave theta as
        it was and still advance t."""
        store = self.make_store()
        routing = RoutingRule([(frozenset(TAGS), OptimizerConfig(momentum=0.9))])
        n = store.layout.size
        g = np.linspace(-1.0, 1.0, n)
        theta, want = store.flat.copy(), store.flat.copy()
        state = OptimizerState(store.layout, np.zeros(n), np.zeros(n), np.zeros(n))
        apply_step(theta, g.copy(), routing, 0.1, state)
        apply_step(want, g.copy(), routing, 0.1, OptimizerState.for_store(store))
        assert not np.array_equal(theta, store.flat)
        np.testing.assert_array_equal(theta, want)
        with pytest.raises(TypeError):
            OptimizerState(np.zeros(n), np.zeros(n), np.zeros(n))

    @pytest.mark.parametrize("slot", ["v", "m", "s"])
    @pytest.mark.parametrize("extra", [1, -1], ids=["longer", "shorter"])
    def test_a_slot_off_the_layout_is_rejected(self, slot, extra):
        layout = self.make_store().layout
        n = layout.size
        slots = {"v": np.zeros(n), "m": np.zeros(n), "s": np.zeros(n), slot: np.zeros(n + extra)}
        with pytest.raises(LengthMismatch, match=f"slot {slot} "):
            OptimizerState(layout, **slots)

    @pytest.mark.parametrize("extra", [2, -2], ids=["longer", "shorter"])
    def test_theta_off_the_states_layout_rejected_before_any_write(self, extra):
        """A theta longer or shorter than the state's layout, with a gradient
        of its own length, raises and leaves theta and the state as they were."""
        store = self.make_store()
        routing = RoutingRule([(frozenset(TAGS), OptimizerConfig(kind="adam"))])
        state = OptimizerState.for_store(store)
        theta = np.arange(1.0, store.flat.size + extra + 1)
        kept = theta.copy()
        with pytest.raises(LengthMismatch, match="state"):
            apply_step(theta, np.ones_like(theta), routing, 0.1, state)
        np.testing.assert_array_equal(theta, kept)
        assert state.t == 0
        assert not (state.v.any() or state.m.any() or state.s.any())

    def test_nan_gradient(self):
        store = self.make_store()
        routing = RoutingRule([(frozenset(TAGS), OptimizerConfig())])
        grads = {n: np.zeros_like(store[n].values) for n in store.names()}
        grads["bn1_shift"] = arr(np.nan)
        with pytest.raises(NonFiniteInput):
            composite_step(store, grads, routing, 0.1, OptimizerState.for_store(store))

    def test_one_update_call_per_routed_rule(self, monkeypatch):
        from optparity import optim

        calls = []
        for kind, fn in list(optim._UPDATE_FNS.items()):
            def counted(*args, _fn=fn, _kind=kind):
                calls.append(_kind)
                return _fn(*args)
            monkeypatch.setitem(optim._UPDATE_FNS, kind, counted)
        store = build_param_store([
            ParamGroup("w1", "weight", arr(1.0, 2.0), (2,)),
            ParamGroup("b1", "bias", arr(0.5), (1,)),
            ParamGroup("w2", "weight", arr(3.0), (1,)),
            ParamGroup("bn1_scale", "bn_scale", arr(1.0), (1,)),
            ParamGroup("b2", "bias", arr(0.5), (1,)),
        ])
        routing = RoutingRule([
            (frozenset({"weight"}), OptimizerConfig(kind="lamb")),
            (frozenset(TAGS), OptimizerConfig(kind="adam")),
        ])
        grads = {n: np.ones_like(store[n].values) for n in store.names()}
        composite_step(store, grads, routing, 0.1, OptimizerState.for_store(store))
        assert calls == ["lamb", "adam"]

    # (routes as (tags, config settings), the sizes of the moment passes): the
    # store holds 3 weights, 2 biases and 1 BN scale, in that flat order
    WEIGHT, REST = frozenset({"weight"}), frozenset(TAGS)
    MOMENT_RUNS = [
        pytest.param([(WEIGHT, {"kind": "lamb"}), (REST, {"kind": "adam"})], [6], id="lamb-adam"),
        pytest.param([(WEIGHT, {"kind": "lamb"}), (REST, {"kind": "adam", "beta2": 0.99})],
                     [3, 3], id="beta2-apart"),
        pytest.param([(WEIGHT, {"kind": "lamb", "decay": 0.01,
                                "decay_mode": "l2_into_gradient"}),
                      (REST, {"kind": "adam"})], [3, 3], id="l2-apart"),
        pytest.param([(WEIGHT, {"kind": "lamb", "decay_mode": "l2_into_gradient"}),
                      (REST, {"kind": "adam"})], [6], id="l2-without-decay"),
        pytest.param([(WEIGHT, {"kind": "adam"}), (frozenset({"bias"}), {"kind": "heavy_ball"}),
                      (REST, {"kind": "adam"})], [3, 1], id="adam-heavy-ball-adam"),
        pytest.param([(REST, {"kind": "nesterov", "momentum": 0.9})], [], id="no-adam"),
    ]

    @pytest.mark.parametrize("routes,passes", MOMENT_RUNS)
    def test_one_moment_pass_per_run_of_adjacent_adam_family_parts(self, monkeypatch,
                                                                  routes, passes):
        from optparity import kernels

        sizes, moments = [], kernels.adam_moments
        monkeypatch.setattr(kernels, "adam_moments",
                            lambda m, *args: sizes.append(m.size) or moments(m, *args))
        store = build_param_store([
            ParamGroup("w1", "weight", arr(1.0, 2.0), (2,)),
            ParamGroup("b1", "bias", arr(0.5), (1,)),
            ParamGroup("w2", "weight", arr(3.0), (1,)),
            ParamGroup("bn1_scale", "bn_scale", arr(1.0), (1,)),
            ParamGroup("b2", "bias", arr(-0.5), (1,)),
        ])
        routes = [(tags, OptimizerConfig(**settings)) for tags, settings in routes]
        grads = {n: np.linspace(-1.0, 1.0, store[n].values.size) + 0.3
                 for n in store.names()}
        state = OptimizerState.for_store(store)
        new_store, new_state = composite_step(store, grads, RoutingRule(routes), 0.1, state)
        assert sizes == passes
        want = oracles.per_group_step(
            [{"tag": store[n].tag, "theta": store[n].values, "g": grads[n],
              **{key: getattr(state.slots[n], key) for key in ("v", "m", "s")}}
             for n in store.names()], routes, 0.1, 0)
        for name, group in zip(store.names(), want):
            np.testing.assert_array_equal(new_store[name].values, group["theta"])
            for key in ("v", "m", "s"):
                np.testing.assert_array_equal(getattr(new_state.slots[name], key), group[key])

    def test_plan_follows_a_new_routing(self):
        store = self.make_store()
        grads = {n: np.ones_like(store[n].values) for n in store.names()}
        state = OptimizerState.for_store(store)
        hb = RoutingRule([(frozenset(TAGS), OptimizerConfig(kind="heavy_ball"))])
        adam = RoutingRule([(frozenset(TAGS), OptimizerConfig(kind="adam"))])
        _, after_hb = composite_step(store, grads, hb, 0.1, state)
        _, after_adam = composite_step(store, grads, adam, 0.1, after_hb)
        np.testing.assert_allclose(after_adam.m, 0.1)  # Adam ran on its own plan
        np.testing.assert_array_equal(after_adam.v, 1.0)  # heavy-ball's v carried over


def _config(draw):
    return OptimizerConfig(
        kind=draw(st.sampled_from(KINDS)),
        momentum=draw(st.sampled_from([0.0, 0.5, 0.9])),
        beta1=draw(st.floats(0.5, 0.99)),
        beta2=draw(st.floats(0.8, 0.9999)),
        epsilon=draw(st.sampled_from([0.0, 1e-8, 1e-3])),
        bias_correction=draw(st.booleans()),
        trust_coefficient=draw(st.floats(1e-3, 1.0)),
        decay_mode=draw(st.sampled_from(["l2_into_gradient", "decoupled"])),
        decay=draw(st.sampled_from([0.0, 1e-4, 1e-2])),
        exclude_tags=draw(st.frozensets(st.sampled_from(TAGS))),
    )


@st.composite
def routed_problems(draw):
    """Groups of random tags and sizes, some with zero norms, and a routing."""
    n = draw(st.integers(1, 30))
    groups = [(draw(st.sampled_from(TAGS)), draw(st.integers(1, 300)),
               draw(st.sampled_from(["", "", "theta", "grad"]))) for _ in range(n)]
    routes = [(draw(st.frozensets(st.sampled_from(TAGS), min_size=1)), _config(draw))
              for _ in range(draw(st.integers(0, 3)))]
    routes.append((frozenset(TAGS), _config(draw)))
    return groups, routes, draw(st.integers(0, 5)), draw(st.floats(1e-4, 1.0)), \
        draw(st.integers(0, 2**32 - 1))


class TestFusedMatchesPerGroupLoop:
    """The fused composite step against oracles.per_group_step, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(routed_problems())
    def test_three_steps(self, problem):
        groups, routes, t0, eta, seed = problem
        rng = np.random.default_rng(seed)
        names = [f"p{i}" for i in range(len(groups))]
        zero = dict(zip(names, (z for _, _, z in groups)))
        store = build_param_store([
            ParamGroup(name, tag, np.zeros(size) if z == "theta" else rng.normal(size=size),
                       (size,))
            for name, (tag, size, z) in zip(names, groups)
        ])
        state = OptimizerState.for_store(store)
        state.t = t0
        for name in names:
            slot = state.slots[name]
            slot.v[:] = rng.normal(size=slot.v.size)
            slot.m[:] = rng.normal(size=slot.m.size)
            # a zero second moment under a zero gradient meets epsilon=0
            slot.s[:] = 0.0 if zero[name] == "grad" else rng.uniform(0, 2, slot.s.size)
        routing = RoutingRule(routes)
        for _ in range(3):
            grads = {name: np.zeros(store[name].values.size) if zero[name] == "grad"
                     else rng.normal(size=store[name].values.size) for name in names}
            reference_in = [{"tag": store[name].tag, "theta": store[name].values.copy(),
                             "g": grads[name], "v": state.slots[name].v.copy(),
                             "m": state.slots[name].m.copy(), "s": state.slots[name].s.copy()}
                            for name in names]
            before = [a.copy() for a in (store.flat, state.v, state.m, state.s)]
            try:
                expected = oracles.per_group_step(reference_in, routes, eta, state.t)
            except ZeroDivisionError:
                with pytest.raises(DivisionHazard):
                    composite_step(store, grads, routing, eta, state)
                return
            new_store, new_state = composite_step(store, grads, routing, eta, state)
            assert new_state.t == state.t + 1
            for name, want in zip(names, expected):
                np.testing.assert_array_equal(new_store[name].values, want["theta"])
                for key in ("v", "m", "s"):
                    np.testing.assert_array_equal(getattr(new_state.slots[name], key),
                                                  want[key])
            for old, now in zip(before, (store.flat, state.v, state.m, state.s)):
                np.testing.assert_array_equal(old, now)
            store, state = new_store, new_state


@pytest.mark.parametrize("decay_mode", ["l2_into_gradient", "decoupled"])
@pytest.mark.parametrize("kind", KINDS)
def test_a_warm_step_allocates_under_one_parameter_vector(kind, decay_mode):
    """Every temporary of a step lives in the routing plan's direction buffer
    or in the gradient, so once the plan is built a step's traced peak stays
    at or below one parameter vector: a 255x256 weight and a 256-element
    bias, 65,536 values, with decay on the weight alone (a per-element decay
    vector)."""
    import tracemalloc

    rng = np.random.default_rng(0)
    store = build_param_store([
        ParamGroup("w", "weight", rng.normal(size=255 * 256), (255, 256)),
        ParamGroup("b", "bias", rng.normal(size=256), (256,))])
    config = OptimizerConfig(kind=kind, momentum=0.9, decay=1e-3, decay_mode=decay_mode,
                             exclude_tags={"bias"})
    routing = RoutingRule([(frozenset(TAGS), config)])
    state = OptimizerState.for_store(store)
    grad = rng.normal(size=store.flat.size)
    g = np.empty_like(grad)  # one gradient vector, refilled before each step
    for _ in range(2):
        np.copyto(g, grad)
        apply_step(store.flat, g, routing, 0.01, state)
    np.copyto(g, grad)
    tracemalloc.start()
    try:
        apply_step(store.flat, g, routing, 0.01, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert store.flat.size == 65_536
    assert peak <= store.flat.nbytes
