import numpy as np
import pytest

from optparity import kernels


# Straight per-element loops: the definition each vectorized kernel must
# reproduce. `wd` and `scale` are indexed per element, so they may be
# scalars (broadcast) or vectors, as the fused optimizer passes them.

def _heavy_ball_loop(theta, g, v, eta, mu, wd):
    wd = np.broadcast_to(wd, theta.shape)
    for i in range(theta.shape[0]):
        v[i] = mu * v[i] + g[i]
        theta[i] = theta[i] - eta * (v[i] + wd[i] * theta[i])


def _nesterov_loop(theta, g, v, eta, mu, wd):
    wd = np.broadcast_to(wd, theta.shape)
    for i in range(theta.shape[0]):
        v[i] = mu * v[i] + g[i]
        theta[i] = theta[i] - eta * (mu * v[i] + g[i] + wd[i] * theta[i])


def _adam_moments_loop(m, s, g, beta1, beta2):
    for i in range(m.shape[0]):
        m[i] = beta1 * m[i] + (1.0 - beta1) * g[i]
        s[i] = beta2 * s[i] + (1.0 - beta2) * g[i] * g[i]


def _adam_direction_loop(out, m, s, eps, c1, c2):
    for i in range(m.shape[0]):
        out[i] = (m[i] / c1) / (np.sqrt(s[i] / c2) + eps)


def _trust_momentum_loop(theta, g, v, scale, mu):
    scale = np.broadcast_to(scale, theta.shape)
    for i in range(theta.shape[0]):
        v[i] = mu * v[i] + scale[i] * g[i]
        theta[i] = theta[i] - v[i]


LOOPS = {
    "heavy_ball_step": _heavy_ball_loop,
    "nesterov_step": _nesterov_loop,
    "adam_moments": _adam_moments_loop,
    "adam_direction": _adam_direction_loop,
    "trust_momentum_step": _trust_momentum_loop,
}
VECTORIZED = {name: getattr(kernels, name) for name in LOOPS}


def per_element(n, seed):
    """A coefficient vector with zeros in it, like decay under exclusions."""
    c = np.random.default_rng(seed).uniform(0.0, 1e-2, size=n)
    c[: n // 3] = 0.0
    return c


@pytest.mark.parametrize("name,backend", [("numpy", VECTORIZED)])
class TestBackendAgreement:
    """The vectorized kernels compute exactly what the per-element loops define."""

    def data(self, n=257, seed=0):
        rng = np.random.default_rng(seed)
        return (rng.normal(size=n), rng.normal(size=n), rng.normal(size=n))

    def test_heavy_ball(self, name, backend):
        for wd in (1e-4, per_element(257, 5)):
            theta, g, v = self.data()
            ref_t, ref_v = theta.copy(), v.copy()
            LOOPS["heavy_ball_step"](ref_t, g, ref_v, 0.1, 0.9, wd)
            backend["heavy_ball_step"](theta, g, v, 0.1, 0.9, wd)
            np.testing.assert_array_equal(theta, ref_t)
            np.testing.assert_array_equal(v, ref_v)

    def test_nesterov(self, name, backend):
        for wd in (0.0, per_element(257, 6)):
            theta, g, v = self.data(seed=1)
            ref_t, ref_v = theta.copy(), v.copy()
            LOOPS["nesterov_step"](ref_t, g, ref_v, 0.05, 0.97, wd)
            backend["nesterov_step"](theta, g, v, 0.05, 0.97, wd)
            np.testing.assert_array_equal(theta, ref_t)
            np.testing.assert_array_equal(v, ref_v)

    def test_adam_pipeline(self, name, backend):
        theta, g, m = self.data(seed=2)
        s = np.abs(np.random.default_rng(3).normal(size=theta.size))
        ref_m, ref_s = m.copy(), s.copy()
        LOOPS["adam_moments"](ref_m, ref_s, g, 0.9, 0.999)
        backend["adam_moments"](m, s, g, 0.9, 0.999)
        np.testing.assert_array_equal(m, ref_m)
        np.testing.assert_array_equal(s, ref_s)
        out = np.empty_like(m)
        ref_out = np.empty_like(m)
        LOOPS["adam_direction"](ref_out, ref_m, ref_s, 1e-8, 0.1, 0.001)
        backend["adam_direction"](out, m, s, 1e-8, 0.1, 0.001)
        np.testing.assert_array_equal(out, ref_out)

    def test_trust_momentum(self, name, backend):
        for scale in (0.02, per_element(257, 7)):
            theta, g, v = self.data(seed=4)
            ref_t, ref_v = theta.copy(), v.copy()
            LOOPS["trust_momentum_step"](ref_t, g, ref_v, scale, 0.9)
            backend["trust_momentum_step"](theta, g, v, scale, 0.9)
            np.testing.assert_array_equal(theta, ref_t)
            np.testing.assert_array_equal(v, ref_v)


def test_backend_is_numpy():
    assert kernels.BACKEND == "numpy"
