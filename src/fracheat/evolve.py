"""The mild and L1 solvers of the mode-decoupled fractional evolution, and the
one discretization of the Duhamel family t^(alpha-1) T_alpha(t) they share.

A `Propagator` per (alpha, eigenvalues, grid) owns the Mittag-Leffler
tables and the product-integration weights read by the mild solution, the
Gramian and the closed loop; it reads the nodes, dt and steps of its
`fracops.TimeGrid`, the one owner of the time discretization.  The weights are
`fracops.product_lag_weights`: row k weighs node j >= 1 by c[k-j] and node 0
by its own a[k], so each weakly singular integral against node data is a
per-mode causal convolution with kernel c[m] E_{a,a}(lam t_m^a) (Lubich's
convolution quadrature) by real FFTs, and `terminal` sums row N directly.

`mild_solution` anchors the forcing channel at the right endpoint of each
row, where the exact kernel moment is known, which removes the leading
endpoint error; the control channel keeps the plain rule, the Gramian's own,
and both channels share one convolution.  `l1_reference` integrates the same
Caputo system with an implicit L1 scheme, solved as one triangular Toeplitz
system per mode, a block of modes at a time, and serves as an independent
cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .fracops import TimeGrid, l1_coefficients, ml_family, product_lag_weights, row_blocks
from .spectral import SpectralModel

__all__ = [
    "Propagator",
    "propagator",
    "mild_solution",
    "l1_reference",
]


def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length the real FFT factors fully."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


# Size from which numpy's temporary elision turns `a * b`, b a temporary, into
# `b *= a`: the operands swap, which moves the last bits of a complex product.
# `convolve` writes its spectral product out in the order that rule gives
# `kernel_spectrum * rfft(...)`, so its bits do not hang on the heuristic.
_ELIDE_BYTES = 256 * 1024


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Propagator:
    """Discretization data on the nodes t_k of `grid`.  Arrays are
    read-only: one instance serves every caller with the same key.

    Each table is built on first use.  `e_state` (beta = 1) and `e_moment`
    (beta = alpha + 1) come from one `fracops.ml_family` call, as both reduce
    to the base beta = 1 and share its cut integral; `e_force` (beta = alpha)
    is built alone, so the Gramian, which reads only it, never pays for the
    other two."""

    alpha: float
    eigenvalues: tuple
    grid: TimeGrid

    @cached_property
    def _t_alpha(self) -> np.ndarray:
        """Column of t_k^alpha."""
        return self.grid.nodes[:, None] ** self.alpha

    @cached_property
    def _state_and_moment(self) -> tuple[np.ndarray, np.ndarray]:
        # beta = 1 and alpha + 1 share the base 1: one cut integral
        e_state, e_ratio = ml_family(self.alpha, (1.0, self.alpha + 1.0),
                                     np.asarray(self.eigenvalues) * self._t_alpha)
        return _frozen(e_state), _frozen(self._t_alpha * e_ratio)

    @cached_property
    def e_state(self) -> np.ndarray:
        """Rows k: E_alpha(lam t_k^alpha)."""
        return self._state_and_moment[0]

    @cached_property
    def e_force(self) -> np.ndarray:
        """Rows k: E_{alpha,alpha}(lam t_k^alpha), the multipliers e(t_k)."""
        arguments = np.asarray(self.eigenvalues) * self._t_alpha
        return _frozen(ml_family(self.alpha, (self.alpha,), arguments)[0])

    @cached_property
    def e_moment(self) -> np.ndarray:
        """Rows k: t_k^a E_{a,a+1}(lam t_k^a) = int_0^{t_k} s^(a-1) E_{a,a}(lam s^a) ds."""
        return self._state_and_moment[1]

    @cached_property
    def lag_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """(c, a): c[m] weights the node at lag m = k - j when j >= 1, a[k]
        the node j = 0 of row k; m, k = 0..steps."""
        c, a = product_lag_weights(self.alpha, self.grid.steps, self.grid.dt)
        return _frozen(c), _frozen(a)

    @cached_property
    def terminal_weights(self) -> np.ndarray:
        """Row N of the rule by lag: weights of int_0^a s^(alpha-1) phi(s) ds
        on the nodes s = t_m."""
        c, a = self.lag_weights
        return _frozen(np.append(c[:-1], a[-1]))

    @cached_property
    def fft_size(self) -> int:
        """Real-FFT length of `convolve`: 5-smooth and >= 2 steps + 1, so the
        circular product has no wrap-around."""
        return _fast_len(2 * self.grid.steps + 1)

    @cached_property
    def kernel_spectrum(self) -> np.ndarray:
        """rfft of the lag kernel c[m] e(t_m) at length `fft_size`, per mode."""
        c, _ = self.lag_weights
        return _frozen(np.fft.rfft(c[:, None] * self.e_force, self.fft_size, axis=0))

    def convolve(self, u: np.ndarray) -> np.ndarray:
        """Rows k: sum_j w_k[j] e(t_k - t_j) u[j] per mode, for node data u of
        shape (steps+1, n_modes)."""
        _, a = self.lag_weights
        tail = np.array(u, dtype=float)
        tail[0] = 0.0  # node j = 0 carries its own weight a[k]
        spectrum = np.fft.rfft(tail, self.fft_size, axis=0)
        if spectrum.nbytes >= _ELIDE_BYTES:  # the order of the elided product
            np.multiply(spectrum, self.kernel_spectrum, out=spectrum)
        else:
            np.multiply(self.kernel_spectrum, spectrum, out=spectrum)
        out = np.fft.irfft(spectrum, self.fft_size, axis=0)[: self.grid.steps + 1]
        out[0] = 0.0  # row 0 integrates over an empty interval
        return out + a[:, None] * self.e_force * u[0]

    @cached_property
    def forcing_anchor(self) -> np.ndarray:
        """Rows k: e_moment[k] - sum_j w_k[j] e(t_k - t_j), the exact kernel
        moment less the rule's, which multiplies forcing[k] in `mild_solution`."""
        return _frozen(self.e_moment - self.convolve(np.ones(self.e_force.shape)))

    def terminal(self, u: np.ndarray) -> np.ndarray:
        """Row N of `convolve`, summed directly: sum_m tw_m e(t_m) u[N - m]."""
        return np.einsum("m,mn,mn->n", self.terminal_weights, self.e_force, u[::-1])


_shared = lru_cache(maxsize=16)(Propagator)


def propagator(model: SpectralModel, grid: TimeGrid) -> Propagator:
    """The propagator of `model` on `grid`, shared per (alpha, eigenvalues, grid)."""
    return _shared(model.order.alpha, tuple(model.eigenvalues), grid)


def _solver_inputs(model: SpectralModel, grid: TimeGrid, x0, forcing, control) -> tuple:
    """(x0, forcing, control) as float arrays of shape (modes,) and, where
    given, (steps+1, modes); a wrong shape raises a ValueError naming the
    input."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.n_modes,):
        raise ValueError(f"x0 must have shape ({model.n_modes},), got {x0.shape}")
    nodes = []
    for name, data in (("forcing", forcing), ("control", control)):
        arr = None if data is None else np.asarray(data, dtype=float)
        if arr is not None and arr.shape != (grid.steps + 1, model.n_modes):
            raise ValueError(
                f"{name} must have shape ({grid.steps + 1}, {model.n_modes}), got {arr.shape}"
            )
        nodes.append(arr)
    return x0, *nodes


def mild_solution(
    model: SpectralModel,
    grid: TimeGrid,
    x0: np.ndarray,
    forcing: np.ndarray | None = None,
    control: np.ndarray | None = None,
) -> np.ndarray:
    """Mild solution with node-sampled inputs that are already mapped into the
    state space (forcing = H g, control = B u, per node): the states, row k
    q(t_k), shape (steps+1, n_modes)."""
    x0, forcing, control = _solver_inputs(model, grid, x0, forcing, control)

    prop = propagator(model, grid)
    states = prop.e_state * x0
    channel = control  # forcing and control share one convolution
    if forcing is not None:
        # endpoint-anchored split: the exact kernel moment times forcing[k]
        # plus product integration of the remainder, which vanishes at t_k
        states += prop.forcing_anchor * forcing
        channel = forcing if control is None else forcing + control
    if channel is not None:
        states += prop.convolve(channel)
    return states


def _causal_product(u: np.ndarray, v: np.ndarray, m: int) -> np.ndarray:
    """First m terms of the causal convolution sum_j u[j] v[k-j] along axis 0,
    by real FFTs at a length with no wrap-around."""
    u, v = u[:m], v[:m]
    size = _fast_len(len(u) + len(v) - 1)
    return np.fft.irfft(np.fft.rfft(u, size, axis=0) * np.fft.rfft(v, size, axis=0), size,
                        axis=0)[:m]


def _series_inverse(t: np.ndarray, m: int) -> np.ndarray:
    """First m terms of the power series 1/t(x), per column, by Newton
    doubling g <- g - g (t g - 1): from k correct terms to 2k."""
    g = 1.0 / t[:1]
    while len(g) < m:
        k, k2 = len(g), min(2 * len(g), m)
        residual = _causal_product(t, g, k2)[k:]  # t g - 1 = O(x^k): its terms k..k2-1
        g = np.concatenate([g, -_causal_product(g, residual, k2 - k)])
    return g


def _l1_starting_weights(alpha: float, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Starting weights making the L1 derivative exact on t^alpha and t^(2 alpha).

    The corrections sigma_k1 (q_1 - q_0) + sigma_k2 (q_2 - 2 q_1 + q_0) repair
    the O(h^alpha) startup layer of the plain scheme on solutions with the
    characteristic t^alpha, t^(2 alpha) behaviour at the origin.  The second
    correction is dropped once 2 alpha > 1.7: the t^(2 alpha) component is
    then effectively smooth (the plain scheme already resolves it at its
    design order h^(2 - alpha)) and the correction's defect sequence stops
    decaying in k, turning it into a persistent perturbation instead of a
    startup repair.  Returned arrays are h-free factors tau_m(k); the scheme
    scales them by dt^(-alpha).
    """
    b = l1_coefficients(alpha, steps)
    k = np.arange(0, steps + 1, dtype=float)
    g2m = math.gamma(2.0 - alpha)
    d = np.zeros(steps + 1)
    d[1:] = k[1:] ** alpha - k[:-1] ** alpha
    r1 = math.gamma(1.0 + alpha) - _causal_product(b, d, steps + 1) / g2m
    if 2.0 * alpha > 1.7:
        return r1, np.zeros(steps + 1)
    d2 = np.zeros(steps + 1)
    d2[1:] = k[1:] ** (2.0 * alpha) - k[:-1] ** (2.0 * alpha)
    gam2 = math.gamma(2.0 * alpha + 1.0) / math.gamma(alpha + 1.0)
    r2 = gam2 * k**alpha - _causal_product(b, d2, steps + 1) / g2m
    tau2 = (r2 - r1) / (2.0 ** (2.0 * alpha) - 2.0**alpha)
    return r1 - (2.0**alpha - 2.0) * tau2, tau2


def l1_reference(
    model: SpectralModel,
    grid: TimeGrid,
    x0: np.ndarray,
    forcing: np.ndarray | None = None,
    control: np.ndarray | None = None,
) -> np.ndarray:
    """Implicit L1 time stepping of the Caputo system, mode by mode, with
    starting-weight corrections for the startup layer; returns the states as
    `mild_solution` does.

    Steps 1 and 2 couple through the starting weights and come from a 2x2
    solve per mode.  From step 3 on, each mode's scheme is a lower-triangular
    Toeplitz system in the increments D_i = q_i - q_{i-1},

        sum_{j=0}^{k-1} t_j D_{k-j} = lam q_0 + w_k - s1[k] d1 - s2[k] d2,
        t_j = c b_j - lam,

    with the known D_1, D_2 moved to the right-hand side: one product with
    the power series 1/t(x) gives D_3..D_N, and q = q_2 + cumsum D.  The
    modes are independent, so they are solved in column blocks
    (`fracops.row_blocks`, one (steps+1)-row per mode) into one states array:
    the symbol, the series inverse and the FFT spectra are per block."""
    x0, forcing, control = _solver_inputs(model, grid, x0, forcing, control)

    alpha, steps = model.order.alpha, grid.steps
    c = 1.0 / (grid.dt**alpha * math.gamma(2.0 - alpha))
    b = l1_coefficients(alpha, steps)
    s1, s2 = (tau / grid.dt**alpha for tau in _l1_starting_weights(alpha, steps))
    states = np.empty((steps + 1, model.n_modes))
    for cols in row_blocks(model.n_modes, steps + 1):  # the modes are independent: a block at a time
        lam, q0, q = model.eigenvalues[cols], x0[cols], states[:, cols]
        w = sum((data[:, cols] for data in (forcing, control) if data is not None),
                np.zeros((steps + 1, lam.size)))
        q[0] = q0
        # steps 1 and 2 couple through the starting weights: 2x2 solve per mode of
        #   c (q1 - q0) + s1[1] (q1 - q0) + s2[1] (q2 - 2 q1 + q0) = lam q1 + w1
        #   c [(q2 - q1) + b1 (q1 - q0)] + s1[2] (q1 - q0)
        #       + s2[2] (q2 - 2 q1 + q0) = lam q2 + w2
        a11 = c + s1[1] - 2.0 * s2[1] - lam
        a12 = np.full(lam.size, s2[1])
        a21 = np.full(lam.size, c * (b[1] - 1.0) + s1[2] - 2.0 * s2[2])
        a22 = c + s2[2] - lam
        r1 = (c + s1[1] - s2[1]) * q0 + w[1]
        r2 = (c * b[1] + s1[2] - s2[2]) * q0 + w[2]
        det = a11 * a22 - a12 * a21
        q[1] = (r1 * a22 - a12 * r2) / det
        q[2] = (a11 * r2 - a21 * r1) / det

        if steps > 2:
            d1 = q[1] - q[0]
            d2 = q[2] - 2.0 * q[1] + q[0]
            t = c * b[:, None] - lam
            rhs = (lam * q0 + w[3:] - s1[3:, None] * d1 - s2[3:, None] * d2
                   - t[2:] * d1 - t[1:-1] * (q[2] - q[1]))
            g = _series_inverse(t, steps - 2)
            del t, w  # before the last product's FFT arrays
            q[3:] = q[2] + np.cumsum(_causal_product(g, rhs, steps - 2), axis=0)
    return states
