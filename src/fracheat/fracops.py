"""Special functions and fractional-calculus primitives on uniform grids.

Mittag-Leffler values are produced by one of three routes chosen from the
rescaled argument s = (-z)**(1/alpha): a float Taylor sum while cancellation
is provably mild (s <= 5), an exact integral representation on the negative
real axis otherwise, and the closed exponential form at alpha = 1.  The
representation used for E_{a,b}(-x), 0 < a < 1, 0 < b <= 1, x > 0 is

    (1/(pi*a)) * int_0^inf exp(-u**(1/a)) * u**((1-b)/a)
        * (u*sin(pi*b) + x*sin(pi*(b-a))) / (u**2 + 2*x*u*cos(pi*a) + x**2) du

obtained from the Hankel contour collapsed onto the cut; larger b is reduced
with E_{a,b}(z) = (E_{a,b-a}(z) - 1/Gamma(b-a)) / z.

Quadrature weights integrate the weakly singular kernel exactly against
piecewise-linear data (product trapezoidal); the same moment arrays back the
fractional integral here and the lag weights of `evolve.Propagator`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.special import rgamma as _rgamma

__all__ = [
    "FracOrder",
    "TimeGrid",
    "mittag_leffler",
    "mittag_leffler2",
    "wright_density",
    "rl_integral",
    "caputo_derivative",
    "singular_conv_weights",
    "l1_coefficients",
]

# Branch boundaries in the rescaled argument s = (-z)**(1/alpha).  Float
# Taylor while cancellation is provably mild (max term exp(5) ~ 150, i.e. ~2
# lost digits); the divergent tail expansion once its optimal-truncation
# remainder ~exp(-s) is negligible; the integral representation in between.
_TAYLOR_S_MAX = 5.0
_ASYMPTOTIC_S_MIN = 60.0
_QUAD_OPTS = {"epsabs": 1e-300, "epsrel": 1e-12, "limit": 200}


@dataclass(frozen=True)
class FracOrder:
    """Fractional order alpha in (1/2, 1) with the integrability exponent
    alpha1 in (0, alpha) attached to the forcing bound."""

    alpha: float
    alpha1: float

    def __post_init__(self) -> None:
        if not 0.5 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (1/2, 1), got {self.alpha}")
        if not 0.0 < self.alpha1 < self.alpha:
            raise ValueError(
                f"alpha1 must lie in (0, alpha), got {self.alpha1} with alpha={self.alpha}"
            )


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, horizon] with `steps` intervals (steps+1 nodes)."""

    horizon: float
    steps: int

    def __post_init__(self) -> None:
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)

    def node_index(self, t: float) -> int:
        """Index of the node equal to t; raises if t is not a grid node."""
        k = round(t / self.dt)
        if k < 0 or k > self.steps or abs(k * self.dt - t) > 1e-9 * max(1.0, self.horizon):
            raise ValueError(f"t={t} is not a node of the grid (dt={self.dt})")
        return int(k)


# ---------------------------------------------------------------------------
# Mittag-Leffler functions
# ---------------------------------------------------------------------------


def mittag_leffler(alpha: float, z: float) -> float:
    """One-parameter Mittag-Leffler E_alpha(z) for alpha in (0, 1]."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    return _ml(float(alpha), 1.0, float(z))


def mittag_leffler2(alpha: float, beta: float, z: float) -> float:
    """Two-parameter Mittag-Leffler E_{alpha,beta}(z) for alpha in (0, 1], beta > 0."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    return _ml(float(alpha), float(beta), float(z))


@lru_cache(maxsize=1 << 18)
def _ml(alpha: float, beta: float, z: float) -> float:
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    if z == 0.0:
        return 1.0 / math.gamma(beta)
    if alpha == 1.0:
        return _ml_alpha_one(beta, z)
    if z > 0.0 or (-z) ** (1.0 / alpha) <= _TAYLOR_S_MAX:
        value = _ml_taylor(alpha, beta, z)
        if value is not None:
            return value
    return _ml_negative(alpha, beta, -z)


def _ml_taylor(alpha: float, beta: float, z: float) -> float | None:
    """Series sum with exact accumulation; None when cancellation is too deep."""
    log_az = math.log(abs(z))
    sign_z = 1.0 if z > 0.0 else -1.0
    terms = [1.0 / math.gamma(beta)]
    max_term = abs(terms[0])
    prev = abs(terms[0])
    for k in range(1, 2000):
        log_t = k * log_az - math.lgamma(alpha * k + beta)
        if log_t > 700.0:
            raise OverflowError(f"E_{{{alpha},{beta}}}({z}) overflows float range")
        t = (sign_z**k) * math.exp(log_t)
        terms.append(t)
        at = abs(t)
        max_term = max(max_term, at)
        if k > 3 and at < prev and at < 1e-18 * max_term:
            break
        prev = at
    else:  # pragma: no cover - gated by _TAYLOR_S_MAX
        raise RuntimeError("Mittag-Leffler Taylor series failed to terminate")
    total = math.fsum(terms)
    if z < 0.0 and max_term * 5e-16 > 1e-12 * max(abs(total), 1e-300):
        return None
    return total


def _ml_alpha_one(beta: float, z: float) -> float:
    """E_{1,beta}: exponential family, via Kummer's function in integral form."""
    if beta == 1.0:
        return math.exp(z)
    if z >= -_TAYLOR_S_MAX:
        value = _ml_taylor(1.0, beta, z)
        if value is not None:
            return value
    # M(1, b, z) = (b-1) * int_0^1 exp(z t) (1-t)^(b-2) dt for b > 1; lift
    # beta <= 1 with M(1, b, z) = 1 + (z/b) M(1, b+1, z).
    def kummer(b: float) -> float:
        val, _ = quad(lambda t: math.exp(z * t) * (1.0 - t) ** (b - 2.0), 0.0, 1.0, **_QUAD_OPTS)
        return (b - 1.0) * val

    if beta > 1.0:
        m = kummer(beta)
    else:
        m = 1.0 + (z / beta) * kummer(beta + 1.0)
    return m / math.gamma(beta)


def _ml_negative(alpha: float, beta: float, x: float) -> float:
    """E_{alpha,beta}(-x), x > 0, for 0 < alpha < 1; beta reduced into (0, 1]."""
    if beta > 1.0:
        inner = _ml_negative(alpha, beta - alpha, x)
        return (1.0 / math.gamma(beta - alpha) - inner) / x
    if x ** (1.0 / alpha) >= _ASYMPTOTIC_S_MIN:
        return _ml_tail_series(alpha, beta, x)
    pa = math.pi * alpha
    cos_pa = math.cos(pa)
    sin_pa = math.sin(pa)
    sin_pb = math.sin(math.pi * beta)
    sin_pba = math.sin(math.pi * (beta - alpha))
    expo = (1.0 - beta) / alpha

    def integrand(u: float) -> float:
        if u <= 0.0:
            return 0.0
        den = u * u + 2.0 * x * u * cos_pa + x * x
        num = u * sin_pb + x * sin_pba
        return math.exp(-(u ** (1.0 / alpha))) * (u**expo) * num / den

    # Split at the Lorentzian peak of the denominator, the mass scale of the
    # exponential factor and (if present) the numerator's zero crossing.
    u_peak = -x * cos_pa
    width = x * sin_pa
    u_mass = 45.0**alpha
    breaks = {u_mass, u_peak, u_peak - 8.0 * width, u_peak + 8.0 * width}
    if sin_pba < 0.0 and sin_pb > 0.0:
        breaks.add(-x * sin_pba / sin_pb)
    cuts = sorted(b for b in breaks if b > 0.0)
    total = 0.0
    lo = 0.0
    for b in cuts:
        if b > lo:
            part, _ = quad(integrand, lo, b, **_QUAD_OPTS)
            total += part
            lo = b
    part, _ = quad(integrand, lo, np.inf, **_QUAD_OPTS)
    total += part
    return total / (math.pi * alpha)


def _ml_tail_series(alpha: float, beta: float, x: float) -> float:
    """Algebraic tail expansion sum_{k>=1} (-1)^(k+1) x^(-k) / Gamma(beta - a k).

    Divergent; truncated where the sin-free magnitude envelope drops below
    float resolution of the running sum (reached long before the envelope
    minimum for x**(1/alpha) >= _ASYMPTOTIC_S_MIN).
    """
    total = 0.0
    prev_env = math.inf
    for k in range(1, 400):
        total += (-1.0) ** (k + 1) * x ** (-k) * float(_rgamma(beta - alpha * k))
        arg = alpha * k - beta + 1.0
        env = math.exp(-k * math.log(x) + math.lgamma(arg)) / math.pi if arg > 0 else math.inf
        if env < 1e-18 * abs(total) or env > prev_env:
            break
        prev_env = min(prev_env, env)
    return total


def ml_multipliers(alpha: float, beta: float, arguments: np.ndarray) -> np.ndarray:
    """Vectorized E_{alpha,beta} over an array of real arguments."""
    flat = np.asarray(arguments, dtype=float).ravel()
    out = np.array([_ml(alpha, beta, float(z)) for z in flat])
    return out.reshape(np.shape(arguments))


# ---------------------------------------------------------------------------
# Wright-type density
# ---------------------------------------------------------------------------


def _wright_tail_exponent(alpha: float, tau: float) -> float:
    # xi_alpha(tau) ~ C * exp(-B * tau**(1/(1-alpha))) with the stable-law rate B.
    b = (1.0 - alpha) * alpha ** (alpha / (1.0 - alpha))
    return b * tau ** (1.0 / (1.0 - alpha))


def wright_density(alpha: float, tau: float) -> float:
    """Probability density xi_alpha on (0, inf) subordinating the heat semigroup.

    Evaluated through the ascending series
    xi_alpha(tau) = (1/(pi*alpha)) * sum_{n>=1} (-1)^(n-1) tau^(n-1)
                    * Gamma(n*alpha+1)/n! * sin(n*pi*alpha),
    in float arithmetic while cancellation is mild and in adaptive-precision
    arithmetic otherwise.  Beyond the superexponential tail the value is
    indistinguishable from zero and 0.0 is returned.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    ell = _wright_tail_exponent(alpha, tau)
    if ell > 140.0:
        return 0.0

    log_tau = math.log(tau)
    terms = []
    max_env = 0.0
    n_peak = max(8.0, (tau * alpha**alpha) ** (1.0 / (1.0 - alpha)))
    for n in range(1, 200000):
        log_mag = (n - 1) * log_tau + math.lgamma(n * alpha + 1.0) - math.lgamma(n + 1.0)
        env = math.exp(log_mag)
        s = math.sin(math.pi * ((n * alpha) % 2.0))
        terms.append((-1.0) ** (n - 1) * env * s)
        max_env = max(max_env, env)
        # stop on the sin-free envelope: sin(n pi alpha) may be ~1e-16 on
        # individual terms without the series having converged
        if n > n_peak + 5 and env < 1e-18 * max_env:
            break
    total = math.fsum(terms) / (math.pi * alpha)
    if max_env * 5e-16 <= 1e-12 * max(abs(total), 1e-300):
        return max(total, 0.0)
    return _wright_density_mp(alpha, tau, max_env, abs(total))


def _wright_density_mp(alpha: float, tau: float, max_env: float, rough: float) -> float:
    import mpmath as mp

    lost = math.log10(max_env / max(rough, 1e-300) + 1.0)
    dps = 25 + int(lost) + int(0.45 * _wright_tail_exponent(alpha, tau))
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        t = mp.mpf(tau)
        total = mp.mpf(0)
        env_max = mp.mpf(0)
        n_peak = max(8.0, (tau * alpha**alpha) ** (1.0 / (1.0 - alpha)))
        stop = mp.mpf(10) ** (-dps)
        tau_pow = mp.mpf(1)   # tau^(n-1), updated incrementally
        fact = mp.mpf(1)      # n!, updated incrementally
        for n in range(1, 500000):
            fact *= n
            env = tau_pow * mp.gamma(n * a + 1) / fact
            total += (-1) ** (n - 1) * env * mp.sinpi(n * a)
            env_max = max(env_max, env)
            tau_pow *= t
            if n > n_peak + 5 and env < stop * env_max:
                break
        value = float(total / (mp.pi * a))
    return max(value, 0.0)


# ---------------------------------------------------------------------------
# Product-integration weights and fractional operators
# ---------------------------------------------------------------------------


def pl_moment_arrays(alpha: float, m_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Left/right nodal weights of int_{m-1}^{m} u^(alpha-1) * (linear hat) du.

    A[m] multiplies the node at lag m (the left end of the lag interval),
    B[m] the node at lag m-1, for m = 1..m_max; entry 0 is unused padding.
    """
    m = np.arange(0, m_max + 1, dtype=float)
    p0 = np.zeros(m_max + 1)
    p1 = np.zeros(m_max + 1)
    p0[1:] = (m[1:] ** alpha - m[:-1] ** alpha) / alpha
    p1[1:] = (m[1:] ** (alpha + 1.0) - m[:-1] ** (alpha + 1.0)) / (alpha + 1.0)
    a = p1[1:] - m[:-1] * p0[1:]
    b = m[1:] * p0[1:] - p1[1:]
    return np.concatenate(([0.0], a)), np.concatenate(([0.0], b))


def singular_conv_weights(alpha: float, k: int, dt: float) -> np.ndarray:
    """Weights w such that int_0^{t_k} (t_k - s)^(alpha-1) phi(s) ds
    ~= sum_j w[j] phi(t_j), exact for piecewise-linear phi."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if k < 1:
        return np.zeros(1)
    a_arr, b_arr = pl_moment_arrays(alpha, k)
    w = np.zeros(k + 1)
    # phi(t_j) sits at lag m = k - j: left-end weight A(m) from interval m,
    # right-end weight B(m+1) from interval m+1.
    w[0] = a_arr[k]
    w[1:k] = a_arr[k - 1 : 0 : -1] + b_arr[k:1:-1]
    w[k] = b_arr[1]
    return w * dt**alpha


def rl_integral(values: np.ndarray, grid: TimeGrid, alpha: float, t: float) -> float:
    """Fractional integral of order alpha of grid-sampled f, evaluated at node t.

    Product-trapezoidal rule: the kernel (t-s)^(alpha-1) is integrated exactly
    against the piecewise-linear interpolant of the samples.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.steps + 1,):
        raise ValueError(f"values must have shape ({grid.steps + 1},), got {values.shape}")
    k = grid.node_index(t)
    if k == 0:
        return 0.0
    w = singular_conv_weights(alpha, k, grid.dt)
    return float(w @ values[: k + 1]) / math.gamma(alpha)


def l1_coefficients(alpha: float, n: int) -> np.ndarray:
    """L1-scheme kernel weights b_j = (j+1)^(1-alpha) - j^(1-alpha), j = 0..n-1."""
    j = np.arange(0, n, dtype=float)
    return (j + 1.0) ** (1.0 - alpha) - j ** (1.0 - alpha)


def caputo_derivative(values: np.ndarray, grid: TimeGrid, alpha: float, t: float) -> float:
    """L1-scheme Caputo derivative of order alpha in (0, 1) at node t > 0."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.steps + 1,):
        raise ValueError(f"values must have shape ({grid.steps + 1},), got {values.shape}")
    k = grid.node_index(t)
    if k == 0:
        raise ValueError("Caputo derivative is defined for t > 0 only")
    b = l1_coefficients(alpha, k)
    increments = values[1 : k + 1] - values[:k]
    # b[0] pairs with the newest increment.
    hist = float(b @ increments[::-1])
    return hist / (grid.dt**alpha * math.gamma(2.0 - alpha))
