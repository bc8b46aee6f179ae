"""Element-wise update kernels, vectorized with numpy.

All kernels mutate their array arguments in place; callers own copying.
Arrays are flat float64. The per-element coefficients (`wd`, `scale`)
may be scalars or arrays of the same length, so one call can update the
slice of every group that a rule covers.
"""

import numpy as np

BACKEND = "numpy"


def heavy_ball_step(theta, g, v, eta, mu, wd):
    v *= mu
    v += g
    theta -= eta * (v + wd * theta)


def nesterov_step(theta, g, v, eta, mu, wd):
    v *= mu
    v += g
    theta -= eta * (mu * v + g + wd * theta)


def adam_moments(m, s, g, beta1, beta2):
    m *= beta1
    m += (1.0 - beta1) * g
    s *= beta2
    s += (1.0 - beta2) * g * g


def adam_direction(out, m, s, eps, c1, c2):
    np.divide(m / c1, np.sqrt(s / c2) + eps, out=out)


def trust_momentum_step(theta, g, v, scale, mu):
    v *= mu
    v += scale * g
    theta -= v
