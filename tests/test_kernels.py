import numpy as np
import pytest

from optparity import kernels
from optparity.param_store import const


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


def per_element(n, seed):
    """A coefficient vector with zeros in it, like decay under exclusions."""
    c = np.random.default_rng(seed).uniform(0.0, 1e-2, size=n)
    c[: n // 3] = 0.0
    return c


class TestBackendAgreement:
    """The vectorized kernels compute exactly what the per-element loops define."""

    def data(self, n=257, seed=0):
        rng = np.random.default_rng(seed)
        return (rng.normal(size=n), rng.normal(size=n), rng.normal(size=n))

    def test_heavy_ball(self):
        for wd in (1e-4, per_element(257, 5)):
            theta, g, v = self.data()
            ref_t, ref_v = theta.copy(), v.copy()
            _heavy_ball_loop(ref_t, g, ref_v, 0.1, 0.9, wd)
            kernels.heavy_ball_step(theta, g, v, 0.1, 0.9, wd, np.empty(257))
            np.testing.assert_array_equal(theta, ref_t)
            np.testing.assert_array_equal(v, ref_v)

    def test_nesterov(self):
        for wd in (0.0, per_element(257, 6)):
            theta, g, v = self.data(seed=1)
            ref_t, ref_v = theta.copy(), v.copy()
            _nesterov_loop(ref_t, g, ref_v, 0.05, 0.97, wd)
            kernels.nesterov_step(theta, g, v, 0.05, 0.97, wd, np.empty(257), np.empty(257))
            np.testing.assert_array_equal(theta, ref_t)
            np.testing.assert_array_equal(v, ref_v)

    def test_adam_pipeline(self):
        theta, g, m = self.data(seed=2)
        s = np.abs(np.random.default_rng(3).normal(size=theta.size))
        ref_m, ref_s = m.copy(), s.copy()
        _adam_moments_loop(ref_m, ref_s, g, 0.9, 0.999)
        kernels.adam_moments(m, s, g, 0.9, 0.999, 1.0 - 0.9, 1.0 - 0.999, np.empty_like(m))
        np.testing.assert_array_equal(m, ref_m)
        np.testing.assert_array_equal(s, ref_s)
        out = np.empty_like(m)
        ref_out = np.empty_like(m)
        _adam_direction_loop(ref_out, ref_m, ref_s, 1e-8, 0.1, 0.001)
        kernels.adam_direction(out, m, s, 1e-8, 0.1, 0.001, np.empty_like(m))
        np.testing.assert_array_equal(out, ref_out)

    def test_trust_momentum(self):
        for scale in (0.02, per_element(257, 7)):
            theta, g, v = self.data(seed=4)
            ref_t, ref_v = theta.copy(), v.copy()
            _trust_momentum_loop(ref_t, g, ref_v, scale, 0.9)
            kernels.trust_momentum_step(theta, g, v, scale, 0.9, np.empty(257))
            np.testing.assert_array_equal(theta, ref_t)
            np.testing.assert_array_equal(v, ref_v)


# The expression form each kernel replaced, which allocated its temporaries.

def _heavy_ball_expr(theta, g, v, eta, mu, wd):
    v *= mu
    v += g
    theta -= eta * (v + wd * theta)


def _nesterov_expr(theta, g, v, eta, mu, wd):
    v *= mu
    v += g
    theta -= eta * (mu * v + g + wd * theta)


def _adam_moments_expr(m, s, g, beta1, beta2):
    m *= beta1
    m += (1.0 - beta1) * g
    s *= beta2
    s += (1.0 - beta2) * g * g


def _adam_direction_expr(out, m, s, eps, c1, c2):
    np.divide(m / c1, np.sqrt(s / c2) + eps, out=out)


def _trust_momentum_expr(theta, g, v, scale, mu):
    v *= mu
    v += scale * g
    theta -= v


def edge_vector(rng, n=512):
    """Normal draws of every magnitude from subnormal to near overflow, with
    +-0.0, the smallest subnormal and the largest finite value mixed in."""
    x = rng.normal(size=n) * 10.0 ** rng.integers(-320, 300, size=n)
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, 1e300, -1.7976931348623157e308]
    x[rng.choice(n, size=4 * len(specials), replace=False)] = np.repeat(specials, 4)
    return x


def assert_same_bits(got, want):
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow, 0/0 and x/0 are meant
@pytest.mark.parametrize("seed", range(4))
class TestBuffersKeepTheBits:
    """Each kernel, given its buffers, computes bit for bit what the
    expression it replaced computes: the same operands in the same order,
    signed zeros, subnormals, infinities and NaNs included."""

    def vectors(self, seed, k):
        rng = np.random.default_rng(seed)
        return [edge_vector(rng) for _ in range(k)]

    def test_heavy_ball_and_nesterov(self, seed):
        theta, g, v, wd = self.vectors(seed, 4)
        for wd in (1e-4, np.abs(wd)):
            for eta, mu in ((0.1, 0.9), (const(1e-300), const(0.5))):
                want = [a.copy() for a in (theta, v)]
                _heavy_ball_expr(want[0], g, want[1], eta, mu, wd)
                got = [a.copy() for a in (theta, v)]
                kernels.heavy_ball_step(got[0], g, got[1], eta, mu, wd, np.empty(g.size))
                for a, b in zip(got, want):
                    assert_same_bits(a, b)

                want = [a.copy() for a in (theta, v)]
                _nesterov_expr(want[0], g, want[1], eta, mu, wd)
                # as the optimizer calls it under L2 decay: g sits in buf2
                got, buf2 = [a.copy() for a in (theta, v)], g.copy()
                kernels.nesterov_step(got[0], buf2, got[1], eta, mu, wd, np.empty(g.size), buf2)
                for a, b in zip(got, want):
                    assert_same_bits(a, b)

    def test_adam(self, seed):
        m, s, g = self.vectors(seed, 3)
        s = np.abs(s)
        beta1, beta2 = 0.9, 0.999
        want_m, want_s = m.copy(), s.copy()
        _adam_moments_expr(want_m, want_s, g, beta1, beta2)
        got_m, got_s = m.copy(), s.copy()
        kernels.adam_moments(got_m, got_s, g, const(beta1), const(beta2), const(1.0 - beta1),
                             const(1.0 - beta2), np.empty(g.size))
        assert_same_bits(got_m, want_m)
        assert_same_bits(got_s, want_s)
        for eps, c1, c2 in ((const(1e-8), 0.1, 0.001), (const(0.0), 1.0, 1.0)):
            want, got = np.empty(g.size), np.empty(g.size)
            _adam_direction_expr(want, want_m, want_s, eps, c1, c2)
            kernels.adam_direction(got, got_m, got_s, eps, c1, c2, np.empty(g.size))
            assert_same_bits(got, want)

    def test_trust_momentum(self, seed):
        theta, g, v, scale = self.vectors(seed, 4)
        for scale in (0.02, np.abs(scale)):
            want = [a.copy() for a in (theta, v)]
            _trust_momentum_expr(want[0], g, want[1], scale, 0.9)
            # as the optimizer calls it: the scale vector is the buffer
            got, buf = [a.copy() for a in (theta, v)], np.empty(g.size)
            if np.ndim(scale):
                scale = np.copyto(buf, scale) or buf
            kernels.trust_momentum_step(got[0], g, got[1], scale, 0.9, buf)
            for a, b in zip(got, want):
                assert_same_bits(a, b)


def test_backend_is_numpy():
    assert kernels.BACKEND == "numpy"
