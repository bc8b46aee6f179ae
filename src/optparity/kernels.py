"""Element-wise update kernels, vectorized with numpy.

All kernels mutate their array arguments in place; callers own copying.
Arrays are flat float64. The per-element coefficients (`wd`, `scale`)
may be scalars or arrays of the same length, so one call can update the
slice of every group that a rule covers. Each kernel takes the scratch
buffers its temporaries go into as its last arguments, each as long as its
first argument and holding no input unless its comment says so. It takes
every product and sum with the operands, and in the order, of the
expression in its comment, so it computes that expression's bits.
"""

import numpy as np

BACKEND = "numpy"


def heavy_ball_step(theta, g, v, eta, mu, wd, buf):
    # v = mu * v + g; theta -= eta * (v + wd * theta)
    v *= mu
    v += g
    np.multiply(wd, theta, out=buf)
    np.add(v, buf, out=buf)
    np.multiply(eta, buf, out=buf)
    theta -= buf


def nesterov_step(theta, g, v, eta, mu, wd, buf, buf2):
    # v = mu * v + g; theta -= eta * (mu * v + g + wd * theta); g may be buf2
    v *= mu
    v += g
    np.multiply(mu, v, out=buf)
    np.add(buf, g, out=buf)
    np.multiply(wd, theta, out=buf2)
    np.add(buf, buf2, out=buf)
    np.multiply(eta, buf, out=buf)
    theta -= buf


def adam_moments(m, s, g, beta1, beta2, keep1, keep2, buf):
    # m = beta1 * m + keep1 * g; s = beta2 * s + keep2 * g * g, with keep = 1 - beta
    m *= beta1
    np.multiply(keep1, g, out=buf)
    m += buf
    s *= beta2
    np.multiply(keep2, g, out=buf)
    np.multiply(buf, g, out=buf)
    s += buf


def adam_direction(out, m, s, eps, c1, c2, buf):
    # out = (m / c1) / (sqrt(s / c2) + eps)
    np.divide(s, c2, out=buf)
    np.sqrt(buf, out=buf)
    np.add(buf, eps, out=buf)
    np.divide(m, c1, out=out)
    np.divide(out, buf, out=out)


def trust_momentum_step(theta, g, v, scale, mu, buf):
    # v = mu * v + scale * g; theta -= v; scale may be buf
    v *= mu
    np.multiply(scale, g, out=buf)
    v += buf
    theta -= v
