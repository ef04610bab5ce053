"""The shared propagator against the per-node code it replaced.

The references below are the earlier implementations, kept verbatim in
substance: the product-trapezoidal rule as the two builders it had,
`singular_conv_weights` (row by row) and the propagator's lag weights from
`pl_moment_arrays`; the mild solution as a Python loop over nodes k with one
`singular_conv_weights` row per node, the Gramian as a per-sigma einsum over
the Duhamel-family multipliers, the closed loop as two mild solutions (free run
for the deficiency, then forcing plus the applied control), and the closed
loop's control channel as the dense cross-kernel tensor
C[k] = sum_j w_k[j] e(t_k - t_j) e(a - t_j)^T.  Agreement is required to
1e-12 relative to the largest entry (1e-14 against the tensor route): the FFT
convolutions sum in another order, which moves results in the last digits
only.
"""

import numpy as np
import pytest

import math

import fracheat.control as control_module
import fracheat.fracops as fracops
from fracheat.control import closed_loop_trajectory, coordinate_duality_map, \
    deficiency_vector, regularized_resolvent
from fracheat.evolve import Propagator, mild_solution
from fracheat.fracops import TimeGrid, ml_family, product_lag_weights
from fracheat.gramian import assemble_gramian
from fracheat.evolve import propagator

from conftest import bump_coefficients, rl_integral_at

REL_TOL = 1e-12
TENSOR_TOL = 1e-14


def rel_gap(new: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(new - ref)) / np.max(np.abs(ref)))


def pl_moment_arrays(alpha, m_max):
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


def singular_conv_weights(alpha, k, dt):
    """Weights w such that int_0^{t_k} (t_k - s)^(alpha-1) phi(s) ds
    ~= sum_j w[j] phi(t_j), exact for piecewise-linear phi."""
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


def reference_lag_weights(alpha, horizon, steps):
    """`Propagator.lag_weights` as it was, from `pl_moment_arrays`."""
    left, right = pl_moment_arrays(alpha, steps + 1)
    scale = (horizon / steps) ** alpha
    return (left[:-1] + right[1:]) * scale, left[:-1] * scale


def reference_rl_integral(values, dt, alpha, k):
    """The fractional integral at node k as it was, on one
    `singular_conv_weights` row."""
    if k == 0:
        return 0.0
    return float(singular_conv_weights(alpha, k, dt) @ values[: k + 1]) / math.gamma(alpha)


def reference_tables(model, grid):
    lam = model.eigenvalues
    alpha = model.order.alpha
    t = np.linspace(0.0, grid.horizon, grid.steps + 1)
    args = lam[None, :] * (t[:, None] ** alpha)
    e_state = ml_family(alpha, (1.0,), args)[0]
    e_force = ml_family(alpha, (alpha,), args)[0]
    e_moment = (t[:, None] ** alpha) * ml_family(alpha, (alpha + 1.0,), args)[0]
    return e_state, e_force, e_moment


def reference_mild_solution(model, grid, x0, forcing=None, control=None):
    alpha = model.order.alpha
    e_state, e_force, e_moment = reference_tables(model, grid)
    states = np.empty((grid.steps + 1, model.n_modes))
    states[0] = x0
    weights = [singular_conv_weights(alpha, k, grid.dt) for k in range(grid.steps + 1)]
    for k in range(1, grid.steps + 1):
        q = e_state[k] * x0
        ef_rev = e_force[k::-1]
        if forcing is not None:
            q += e_moment[k] * forcing[k]
            q += np.einsum("j,jn->n", weights[k], ef_rev * (forcing[: k + 1] - forcing[k]))
        if control is not None:
            q += np.einsum("j,jn->n", weights[k], ef_rev * control[: k + 1])
        states[k] = q
    return states


def product_rule_gramian(model, horizon, steps):
    """The Gramian by the same product-trapezoidal rule as `assemble_gramian`,
    one sigma at a time: it shares that rule's quadrature error, so it checks
    the assembly's algebra and not its accuracy."""
    h = horizon / steps
    alpha = model.order.alpha
    weights = singular_conv_weights(alpha, steps, h)[::-1]
    sigmas = np.linspace(0.0, horizon, steps + 1)
    mults = np.array([ml_family(alpha, (alpha,), model.eigenvalues * s**alpha)[0] for s in sigmas])
    bb = model.b_matrix @ model.b_matrix.T
    return np.einsum("j,jm,mn,jn->mn", weights, mults, bb, mults, optimize=True)


def reference_closed_loop(model, gram, grid, epsilon, z, x0, forcing, tol):
    free = reference_mild_solution(model, grid, x0, forcing=forcing)
    d = z - free[-1]
    solve = regularized_resolvent(gram, model, epsilon, d, tol=tol)
    jw = coordinate_duality_map(model, solve.result)
    _, e_force, _ = reference_tables(model, grid)
    control = (e_force[::-1] * jw) @ model.b_matrix
    return reference_mild_solution(model, grid, x0, forcing=forcing,
                                   control=control @ model.b_matrix.T)


def smooth_inputs(grid, n_modes, seed):
    rng = np.random.default_rng(seed)
    nodes = grid.nodes[:, None]
    forcing = np.sin(3.0 * nodes + rng.uniform(0, 3, n_modes)) * rng.standard_normal(n_modes)
    control = np.cos(2.0 * nodes) * rng.standard_normal(n_modes)
    return rng.standard_normal(n_modes), forcing, control


@pytest.mark.parametrize("steps", [64, 512])
def test_mild_solution_matches_per_node_loop(model_p2, steps):
    grid = TimeGrid(1.0, steps)
    x0, forcing, control = smooth_inputs(grid, model_p2.n_modes, steps)
    cases = [dict(), dict(forcing=forcing), dict(control=control),
             dict(forcing=forcing, control=control)]
    for inputs in cases:
        new = mild_solution(model_p2, grid, x0, **inputs)
        ref = reference_mild_solution(model_p2, grid, x0, **inputs)
        assert rel_gap(new, ref) <= REL_TOL, sorted(inputs)
        assert np.array_equal(new[0], x0)


@pytest.mark.parametrize("steps", [64, 512])
def test_gramian_matches_per_sigma_einsum(model_p2, steps):
    new = assemble_gramian(model_p2, TimeGrid(1.0, steps))
    assert rel_gap(new, product_rule_gramian(model_p2, 1.0, steps)) <= REL_TOL


@pytest.mark.parametrize("which", ["p2", "p4"])
def test_closed_loop_matches_two_pass_reference(request, which, grid_512):
    model = request.getfixturevalue(f"model_{which}")
    gram = request.getfixturevalue(f"gram_{which}")
    x0 = bump_coefficients(8)
    z = np.zeros(8)
    z[0], z[2] = 0.5, -0.1
    _, forcing, _ = smooth_inputs(grid_512, 8, 3)
    forcing = 0.1 * forcing
    run = closed_loop_trajectory(model, gram, grid_512, 1e-2, z, x0, forcing=forcing,
                                 tol=1e-13)
    ref = reference_closed_loop(model, gram, grid_512, 1e-2, z, x0, forcing, tol=1e-13)
    assert rel_gap(run.states, ref) <= REL_TOL


def test_lag_weights_reproduce_singular_conv_weights(model_p2):
    grid = TimeGrid(1.0, 40)
    c, a = propagator(model_p2, grid).lag_weights
    for k in (1, 2, 17, 40):
        w = singular_conv_weights(model_p2.order.alpha, k, grid.dt)
        assert np.array_equal(w[1:], c[k - 1 :: -1])
        assert w[0] == a[k]


@pytest.mark.parametrize("alpha", [0.51, 0.6, 0.75, 0.9, 0.99, 1.0])
@pytest.mark.parametrize("horizon,steps", [(1.0, 40), (1.0, 512), (2.5, 4096)])
def test_lag_weights_are_both_former_builders_bitwise(alpha, horizon, steps):
    """The one rule reproduces `singular_conv_weights` row by row and the
    propagator's former lag weights."""
    c, a = product_lag_weights(alpha, steps, horizon / steps)
    c_ref, a_ref = reference_lag_weights(alpha, horizon, steps)
    assert np.array_equal(c, c_ref) and np.array_equal(a, a_ref)
    for k in (1, 2, 17, 40, steps):
        w = singular_conv_weights(alpha, k, horizon / steps)
        assert np.array_equal(w[1:], c[k - 1 :: -1])
        assert w[0] == a[k]


@pytest.mark.parametrize("steps", [40, 512])
def test_propagator_reads_the_one_rule(model_p2, steps):
    prop = propagator(model_p2, TimeGrid(1.0, steps))
    c_ref, a_ref = reference_lag_weights(model_p2.order.alpha, 1.0, steps)
    c, a = prop.lag_weights
    assert np.array_equal(c, c_ref) and np.array_equal(a, a_ref)
    assert np.array_equal(prop.terminal_weights, np.append(c_ref[:-1], a_ref[-1]))


@pytest.mark.parametrize("alpha", [0.6, 0.75, 1.0])
def test_rl_integral_is_the_former_row_rule_bitwise(alpha):
    grid = TimeGrid(1.3, 256)
    values = np.exp(-grid.nodes) * np.sin(5.0 * grid.nodes) + grid.nodes
    for k in (0, 1, 2, 97, 256):
        assert rl_integral_at(values, grid.dt, alpha, k) == \
            reference_rl_integral(values, grid.dt, alpha, k)


def test_lag_weights_reject_alpha_outside_the_unit_interval():
    for alpha in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="alpha must lie in"):
            product_lag_weights(alpha, 8, 0.1)


def test_closed_loop_runs_one_mild_solution(model_p2, gram_p2, grid_512, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return mild_solution(*args, **kwargs)

    monkeypatch.setattr(control_module, "mild_solution", counted)
    z = np.zeros(8)
    z[1] = 0.3
    closed_loop_trajectory(model_p2, gram_p2, grid_512, 1e-2, z, bump_coefficients(8))
    assert len(calls) == 1


def uncached_convolve(prop, u):
    """`Propagator.convolve` as it was before the kernel spectrum was cached:
    the kernel transformed again on every call."""
    from numpy.fft import irfft, rfft

    c, a = prop.lag_weights
    size = prop.fft_size
    shape = prop.e_force.shape + (1,) * (u.ndim - 2)
    tail = np.array(u, dtype=float)
    tail[0] = 0.0
    kernel = rfft((c[:, None] * prop.e_force).reshape(shape), size, axis=0)
    out = irfft(kernel * rfft(tail, size, axis=0), size, axis=0)[: prop.grid.steps + 1]
    out[0] = 0.0
    return out + (a[:, None] * prop.e_force).reshape(shape) * u[0]


def reference_cross_kernel(prop):
    """`Propagator.cross_kernel` as it was: the (steps+1, n, n) tensor
    C[k] = sum_j w_k[j] e(t_k - t_j) e(a - t_j)^T by an n^2-channel
    convolution, with row N summed directly."""
    e = prop.e_force
    cross = uncached_convolve(prop, np.broadcast_to(e[::-1, None, :], e.shape + e.shape[1:]))
    cross[-1] = np.einsum("m,mi,mj->ij", prop.terminal_weights, e, e)
    return cross


def reference_tensor_closed_loop(model, gram, grid, epsilon, z, x0, forcing, tol):
    """The closed loop as it was: one forced run for the deficiency, then the
    control channel added as ((B B^T) o C[k]) J(w) at each node."""
    free = mild_solution(model, grid, x0, forcing=forcing)
    solve = regularized_resolvent(gram, model, epsilon, z - free[-1], tol=tol)
    jw = coordinate_duality_map(model, solve.result)
    response = (model.b_matrix @ model.b_matrix.T) * reference_cross_kernel(
        propagator(model, grid))
    return free + response @ jw


@pytest.mark.parametrize("which", ["p2", "p4"])
def test_closed_loop_matches_cross_kernel_route(request, which, grid_512):
    model = request.getfixturevalue(f"model_{which}")
    gram = request.getfixturevalue(f"gram_{which}")
    x0 = bump_coefficients(8)
    z = np.zeros(8)
    z[0], z[2] = 0.5, -0.1
    _, forcing, _ = smooth_inputs(grid_512, 8, 3)
    forcing = 0.1 * forcing
    run = closed_loop_trajectory(model, gram, grid_512, 1e-2, z, x0, forcing=forcing,
                                 tol=1e-13)
    ref = reference_tensor_closed_loop(model, gram, grid_512, 1e-2, z, x0, forcing,
                                       tol=1e-13)
    assert rel_gap(run.states, ref) <= TENSOR_TOL


@pytest.mark.parametrize("steps", [96, 512])
def test_gramian_is_the_cross_kernel_terminal_row(model_p2, steps):
    grid = TimeGrid(1.0, steps)
    cross = reference_cross_kernel(propagator(model_p2, grid))
    gram = assemble_gramian(model_p2, grid)
    bb = model_p2.b_matrix @ model_p2.b_matrix.T
    assert np.array_equal(gram, bb * cross[-1])
    assert rel_gap(gram.T, gram) <= TENSOR_TOL  # symmetric to rounding
    assert np.array_equal(cross[0], np.zeros_like(gram))


@pytest.mark.parametrize("steps", [64, 512])
def test_terminal_is_the_last_convolve_row(model_p2, steps):
    grid = TimeGrid(1.0, steps)
    prop = propagator(model_p2, grid)
    _, forcing, control = smooth_inputs(grid, model_p2.n_modes, steps)
    for u in (forcing, control, np.ones_like(forcing)):
        row = prop.convolve(u)[-1]
        assert rel_gap(prop.terminal(u), row) <= TENSOR_TOL


@pytest.mark.parametrize("steps", [64, 512])
def test_deficiency_vector_is_the_forced_run_terminal(model_p2, steps):
    grid = TimeGrid(1.0, steps)
    x0, forcing, _ = smooth_inputs(grid, model_p2.n_modes, steps)
    z = np.linspace(-0.3, 0.4, model_p2.n_modes)
    for inputs in (dict(), dict(forcing=forcing)):
        d = deficiency_vector(model_p2, grid, z, x0, **inputs)
        ref = z - mild_solution(model_p2, grid, x0, **inputs)[-1]
        assert rel_gap(d, ref) <= TENSOR_TOL, sorted(inputs)


@pytest.mark.parametrize("steps", [64, 512])
def test_cached_kernel_data_is_bitwise_the_uncached_formula(model_p2, steps):
    grid = TimeGrid(1.0, steps)
    prop = propagator(model_p2, grid)
    x0, forcing, control = smooth_inputs(grid, model_p2.n_modes, steps)
    for u in (forcing, control, forcing + control):
        assert np.array_equal(prop.convolve(u), uncached_convolve(prop, u))
    anchor = prop.e_moment - uncached_convolve(prop, np.ones_like(forcing))
    assert np.array_equal(prop.forcing_anchor, anchor)
    # forcing and control share one convolution of their sum
    states = prop.e_state * x0 + anchor * forcing + uncached_convolve(prop, forcing + control)
    new = mild_solution(model_p2, grid, x0, forcing=forcing, control=control)
    assert np.array_equal(new, states)
    # with one input it is the two-channel formula term for term
    forced = prop.e_state * x0 + anchor * forcing + uncached_convolve(prop, forcing)
    assert np.array_equal(mild_solution(model_p2, grid, x0, forcing=forcing), forced)
    controlled = prop.e_state * x0 + uncached_convolve(prop, control)
    assert np.array_equal(mild_solution(model_p2, grid, x0, control=control), controlled)


@pytest.mark.parametrize("alpha", [0.57, 0.75, 0.9, 0.99])
def test_state_and_moment_tables_share_one_cut_integral(alpha, model_p2, monkeypatch):
    """`e_state` (beta = 1) and `e_moment` (beta = alpha + 1) reduce to the
    same base and come from one family call: one tail series and one cut
    integral, not two, also where (1 + alpha) - alpha is 1 - 1 ulp in float
    (alpha = 0.57, 0.9).  `e_force` stays its own, built only when read."""
    calls = []

    def counting(name):
        original = getattr(fracops, name)

        def count(a, beta, x):
            calls.append((name, beta))
            return original(a, beta, x)
        return count

    for name in ("_ml_tail_series", "_ml_cut_integral"):
        monkeypatch.setattr(fracops, name, counting(name))
    lam = tuple(model_p2.eigenvalues)
    prop = Propagator(alpha, lam, TimeGrid(1.0, 512))  # not the shared one
    e_state, e_moment = prop.e_state, prop.e_moment
    assert calls == [("_ml_tail_series", 1.0), ("_ml_cut_integral", 1.0)]
    e_force = prop.e_force
    assert calls[2:] == [("_ml_tail_series", alpha), ("_ml_cut_integral", alpha)]
    t_alpha = np.linspace(0.0, 1.0, 513)[:, None] ** alpha
    args = np.asarray(lam) * t_alpha
    want = (ml_family(alpha, (1.0,), args)[0], ml_family(alpha, (alpha,), args)[0],
            t_alpha * ml_family(alpha, (alpha + 1.0,), args)[0])
    for got, ref in zip((e_state, e_force, e_moment), want):
        assert np.array_equal(got, ref) and not got.flags.writeable


@pytest.mark.parametrize("modes,steps", [(8, 512), (16, 512), (24, 512), (32, 512),
                                         (64, 512), (8, 4096)])
def test_convolve_keeps_its_product_order_in_named_arrays(modes, steps):
    # from 256 KiB on, numpy's temporary elision turned an unnamed
    # `kernel_spectrum * rfft(...)` into `rfft(...) *= kernel_spectrum`, and
    # the swapped complex product rounds differently; with both operands named
    # nothing is elided, so `convolve` must be kernel * spectrum below that
    # size and spectrum * kernel from it on, bit for bit
    lam = tuple(-np.arange(1.0, modes + 1) ** 2)
    prop = Propagator(0.75, lam, TimeGrid(1.0, steps))  # not the shared one
    u = np.random.default_rng(modes + steps).standard_normal((steps + 1, modes))
    tail = u.copy()
    tail[0] = 0.0
    kernel = prop.kernel_spectrum
    spectrum = np.fft.rfft(tail, prop.fft_size, axis=0)
    assert not np.array_equal(kernel * spectrum, spectrum * kernel)  # the order shows
    product = spectrum * kernel if spectrum.nbytes >= 256 * 1024 else kernel * spectrum
    _, a = prop.lag_weights
    want = np.fft.irfft(product, prop.fft_size, axis=0)[: steps + 1]
    want[0] = 0.0
    assert np.array_equal(prop.convolve(u), want + a[:, None] * prop.e_force * u[0])


def test_propagator_is_keyed_on_the_grid(model_p2):
    # the grid is the one owner of the nodes and dt: equal grids share one
    # propagator, and its tables sit on that grid's nodes
    grid = TimeGrid(1.0, 64)
    prop = propagator(model_p2, grid)
    assert propagator(model_p2, TimeGrid(1, 64)) is prop and prop.grid == grid
    want = ml_family(0.75, (0.75,), model_p2.eigenvalues * grid.nodes[:, None] ** 0.75)[0]
    assert np.array_equal(prop.e_force, want)
    c, a = product_lag_weights(0.75, grid.steps, grid.dt)
    assert np.array_equal(prop.lag_weights[0], c) and np.array_equal(prop.lag_weights[1], a)
