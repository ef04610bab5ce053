"""Shared fixtures and independent oracles for the test suite.

The Mittag-Leffler oracle sums the defining series in adaptive-precision
arithmetic (switching to the optimally truncated tail expansion only where
the series would need thousands of digits); it shares no code with the
production evaluator.
"""

import math
import tracemalloc
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest

from fracheat.fracops import FracOrder, TimeGrid, l1_coefficients, product_lag_weights, wright_density
from fracheat.gramian import assemble_gramian
from fracheat.lpspace import basis_matrix, theta_grid
from fracheat.spectral import build_model


@lru_cache(maxsize=4096)
def ml_oracle(alpha: float, beta: float, z: float) -> float:
    """Arbitrary-precision Mittag-Leffler reference value."""
    if alpha == 1.0:
        with mp.workdps(50):
            return float(mp.hyp1f1(1, beta, z) / mp.gamma(beta))
    s = (-z) ** (1.0 / alpha) if z < 0 else 0.0
    if s <= 120.0:
        dps = 40 + int(0.5 * s)
        with mp.workdps(dps):
            a, b, zz = mp.mpf(alpha), mp.mpf(beta), mp.mpf(z)
            total = mp.mpf(0)
            mx = mp.mpf(1)
            stop = mp.mpf(10) ** (-dps + 5)
            k = 0
            while True:
                t = zz**k / mp.gamma(a * k + b)
                total += t
                mx = max(mx, abs(t))
                if k > 4 and abs(t) < stop * mx:
                    return float(total)
                k += 1
    with mp.workdps(60):
        a, b, x = mp.mpf(alpha), mp.mpf(beta), mp.mpf(-z)
        total = mp.mpf(0)
        min_env = mp.inf
        for k in range(1, 400):
            env = x ** (-k) * mp.gamma(a * k - b + 1) / mp.pi if a * k + 1 - b > 0 else mp.inf
            if k > 10 and (env < mp.mpf(10) ** (-45) or env > 10 * min_env):
                break
            min_env = min(min_env, env)
            total += (-1) ** (k + 1) * x ** (-k) * mp.rgamma(b - a * k)
        return float(total)


def traced_peak(fn):
    """(fn(), the peak bytes tracemalloc traced while it ran): the largest
    working set above the call's entry, its result included."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@lru_cache(maxsize=16)
def density_on_gauss_grid(alpha: float, n_nodes: int = 500):
    """Wright density sampled on a Gauss-Legendre grid covering its support
    down to the ~1e-12 tail (mass beyond the cut is negligible at 1e-6)."""
    rate = (1.0 - alpha) * alpha ** (alpha / (1.0 - alpha))
    tau_cut = (28.0 / rate) ** (1.0 - alpha)
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    tau = 0.5 * tau_cut * (x + 1.0)
    weights = 0.5 * tau_cut * w
    values = wright_density(alpha, tau)
    return tau, weights, values


def rl_integral_at(values: np.ndarray, dt: float, alpha: float, k: int) -> float:
    """Fractional integral of order alpha of node values at node k: row k of
    `product_lag_weights` over Gamma(alpha), the propagator's rule."""
    c, a = product_lag_weights(alpha, k, dt)
    return float(np.append(a[k], c[:k][::-1]) @ values[: k + 1]) / math.gamma(alpha)


def caputo_at(values: np.ndarray, dt: float, alpha: float, k: int) -> float:
    """L1-scheme Caputo derivative of order alpha of node values at node k >= 1:
    `l1_coefficients`, b[0] paired with the newest increment."""
    increments = values[1 : k + 1] - values[:k]
    hist = float(l1_coefficients(alpha, k) @ increments[::-1])
    return hist / (dt**alpha * math.gamma(2.0 - alpha))


def bump_coefficients(n_modes: int, n_theta: int = 256) -> np.ndarray:
    theta = theta_grid(n_theta)
    return basis_matrix(n_modes, n_theta).T @ (theta * (math.pi - theta)) * (math.pi / n_theta)


ORDER = FracOrder(0.75, 0.4)


@pytest.fixture(scope="session")
def model_p2():
    return build_model(8, ORDER, None, None, 2.0, 256)


@pytest.fixture(scope="session")
def model_p4():
    return build_model(8, ORDER, None, None, 4.0, 256)


@pytest.fixture(scope="session")
def gram_p2(model_p2):
    return assemble_gramian(model_p2, TimeGrid(1.0, 512))


@pytest.fixture(scope="session")
def gram_p4(model_p4):
    return assemble_gramian(model_p4, TimeGrid(1.0, 512))


@pytest.fixture(scope="session")
def grid_512():
    return TimeGrid(1.0, 512)
