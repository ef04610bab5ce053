import math

import numpy as np
import pytest

from fracheat.fracops import (
    FracOrder,
    TimeGrid,
    gauss_legendre,
    l1_coefficients,
    ml_family,
    product_lag_weights,
    wright_density,
)

from conftest import caputo_at, density_on_gauss_grid, ml_oracle, rl_integral_at

# frozen from the arbitrary-precision series oracle (terms summed to 1e-35)
E_075_M1 = 0.393108302815754062
E_06_06_M3 = 0.0316939265615570265
XI_HALF_AT_1 = 0.439391289467722397
RL_06_SIN_1 = 0.627597028720523571


class TestMittagLeffler:
    def test_empty_sum_identity(self):
        assert ml_family(0.75, (1.0,), np.array([0.0]))[0][0] == 1.0

    def test_exponential_case(self):
        assert ml_family(1.0, (1.0,), np.array([1.0]))[0][0] == pytest.approx(math.e, rel=1e-14)

    def test_frozen_series_value(self):
        got = ml_family(0.75, (1.0,), np.array([-1.0]))[0][0]
        assert got == pytest.approx(E_075_M1, rel=1e-12)

    def test_domain_errors(self):
        for bad in (0.0, -0.3, 1.2):
            with pytest.raises(ValueError):
                ml_family(bad, (1.0,), np.array([1.0]))
        with pytest.raises(ValueError):
            ml_family(0.75, (1.0,), np.array([math.inf]))

    @pytest.mark.parametrize("alpha", [0.51, 0.6, 0.75, 0.9, 0.999, 1.0])
    def test_accuracy_contract(self, alpha):
        z = np.concatenate([np.linspace(-50.0, 5.0, 23), [-0.01, 0.0]])
        want = [ml_oracle(alpha, 1.0, float(v)) for v in z]
        assert ml_family(alpha, (1.0,), z)[0] == pytest.approx(want, rel=1e-10, abs=1e-300)

    @pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9])
    def test_completely_monotone_range(self, alpha):
        vals = ml_family(alpha, (1.0,), -np.linspace(0.0, 50.0, 201))[0]
        assert np.all(vals > 0.0)
        assert np.all(vals <= 1.0)
        assert np.all(np.diff(vals) < 0.0)


class TestMittagLeffler2:
    def test_first_series_term(self):
        assert ml_family(0.75, (0.75,), np.array([0.0]))[0][0] == pytest.approx(
            1.0 / math.gamma(0.75), rel=1e-14
        )

    def test_exponential_case(self):
        got = ml_family(1.0, (1.0,), np.array([-2.0]))[0][0]
        assert got == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_frozen_series_value(self):
        got = ml_family(0.6, (0.6,), np.array([-3.0]))[0][0]
        assert got == pytest.approx(E_06_06_M3, rel=1e-12)

    def test_domain_errors(self):
        for alpha, beta in ((1.5, 1.0), (0.75, 0.0), (0.75, -1.0)):
            with pytest.raises(ValueError):
                ml_family(alpha, (beta,), np.array([0.0]))

    @pytest.mark.parametrize("alpha,beta", [(0.6, 0.6), (0.75, 1.75), (0.9, 0.9), (0.75, 2.0)])
    def test_accuracy_contract(self, alpha, beta):
        z = np.linspace(-50.0, 5.0, 12)
        want = [ml_oracle(alpha, beta, float(v)) for v in z]
        assert ml_family(alpha, (beta,), z)[0] == pytest.approx(want, rel=1e-10, abs=1e-300)


class TestWrightDensity:
    def test_closed_form_half(self):
        assert wright_density(0.5, 1.0) == pytest.approx(XI_HALF_AT_1, rel=1e-12)
        for tau in (0.25, 2.0, 4.0):
            want = math.exp(-tau * tau / 4.0) / math.sqrt(math.pi)
            assert wright_density(0.5, tau) == pytest.approx(want, rel=1e-10)

    def test_probability_mass(self):
        _, w, vals = density_on_gauss_grid(0.75)
        assert abs(float(w @ vals) - 1.0) <= 1e-6

    def test_tail_decay_to_zero(self):
        assert wright_density(0.75, 1e6) == 0.0

    def test_positive_on_log_grid(self):
        for alpha in (0.6, 0.75, 0.9):
            for tau in np.logspace(-3, 1, 25):
                assert wright_density(alpha, float(tau)) >= 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            wright_density(0.5, 0.0)
        with pytest.raises(ValueError):
            wright_density(1.0, 1.0)

    @pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_subordination_identities(self, alpha, lam):
        tau, w, vals = density_on_gauss_grid(alpha)
        e_state, e_force = ml_family(alpha, (1.0, alpha), np.array([-lam]))
        first = float(w @ (vals * np.exp(-lam * tau)))
        assert abs(first - e_state[0]) <= 1e-6
        second = alpha * float(w @ (tau * vals * np.exp(-lam * tau)))
        assert abs(second - e_force[0]) <= 1e-6


class TestFractionalIntegral:
    @pytest.mark.parametrize("alpha", [0.6, 0.75, 1.0])
    def test_constant_moment(self, alpha):
        grid = TimeGrid(1.0, 64)
        ones = np.ones(grid.steps + 1)
        for k in (1, 32, 64):
            t = grid.nodes[k]
            want = t**alpha / math.gamma(alpha + 1.0)
            assert rl_integral_at(ones, grid.dt, alpha, k) == pytest.approx(want, rel=1e-10)

    def test_plain_integral_alpha_one(self):
        grid = TimeGrid(2.0, 128)
        vals = grid.nodes.copy()
        assert rl_integral_at(vals, grid.dt, 1.0, 128) == pytest.approx(2.0, rel=1e-12)

    def test_sin_against_quadrature_oracle(self):
        errs = []
        for steps in (256, 512, 1024):
            grid = TimeGrid(1.0, steps)
            errs.append(abs(rl_integral_at(np.sin(grid.nodes), grid.dt, 0.6, steps) - RL_06_SIN_1))
        assert errs[1] <= 1e-4
        order = math.log2(errs[0] / errs[2]) / 2.0
        assert order >= 1.0


class TestCaputoDerivative:
    def test_constants_vanish(self):
        grid = TimeGrid(1.0, 32)
        const = np.full(33, 3.7)
        for k in range(1, 33):
            assert abs(caputo_at(const, grid.dt, 0.7, k)) <= 1e-13

    def test_linear_is_exact(self):
        grid = TimeGrid(1.0, 128)
        vals = grid.nodes.copy()
        want = 1.0 / math.gamma(1.3)
        assert caputo_at(vals, grid.dt, 0.7, 128) == pytest.approx(want, rel=1e-12)

    def test_quadratic_on_refined_grids(self):
        alpha, t = 0.6, 0.5
        want = 2.0 * t ** (2.0 - alpha) / math.gamma(3.0 - alpha)
        errs = []
        for steps in (128, 256, 512):
            grid = TimeGrid(1.0, steps)
            got = caputo_at(grid.nodes**2, grid.dt, alpha, steps // 2)
            errs.append(abs(got - want))
        assert errs[-1] <= 1e-4
        assert math.log2(errs[0] / errs[2]) / 2.0 >= 1.0

    def test_round_trip_with_integral(self):
        # Caputo of the fractional integral recovers f, order >= 1 under refinement
        alpha = 0.75
        f = lambda s: np.exp(-s) + s
        errs = []
        for steps in (128, 256, 512):
            grid = TimeGrid(1.0, steps)
            integ = np.array([rl_integral_at(f(grid.nodes), grid.dt, alpha, k)
                              for k in range(steps + 1)])
            got = caputo_at(integ, grid.dt, alpha, steps)
            errs.append(abs(got - f(np.array([1.0]))[0]))
        assert math.log2(errs[0] / errs[2]) / 2.0 >= 1.0


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [16, 32, 50, 64])
    def test_tables_are_numpys_rules_bit_for_bit(self, n):
        x, w = gauss_legendre(n)
        want_x, want_w = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(x, want_x) and np.array_equal(w, want_w)
        # panels = 1 is the table itself, not a copy shifted by rounding
        assert all(np.array_equal(a, b) for a, b in zip(gauss_legendre(n, 1), (x, w)))

    @pytest.mark.parametrize("n", [16, 32, 50, 64])
    @pytest.mark.parametrize("panels", [2, 3, 4])
    def test_composite_rule(self, n, panels):
        x, w = gauss_legendre(n)
        xc, wc = gauss_legendre(n, panels)
        j = np.repeat(np.arange(panels), n)
        assert np.array_equal(xc, (np.tile(x, panels) + (2 * j + 1 - panels)) / panels)
        assert np.array_equal(wc, np.tile(w / panels, panels))
        assert np.all(np.diff(xc) > 0.0) and -1.0 < xc[0] and xc[-1] < 1.0
        # exact on each panel for degree 2n - 1, so for every power up to it
        for d in range(0, 2 * n, 7):
            want = (1.0 - (-1.0) ** (d + 1)) / (d + 1)
            assert wc @ xc**d == pytest.approx(want, abs=1e-14)

    def test_only_the_tabulated_sizes(self):
        with pytest.raises(KeyError):
            gauss_legendre(20)


class TestDomainTypes:
    def test_frac_order_guards(self):
        FracOrder(0.75, 0.4)
        with pytest.raises(ValueError):
            FracOrder(0.4, 0.2)
        with pytest.raises(ValueError):
            FracOrder(1.0, 0.4)
        with pytest.raises(ValueError):
            FracOrder(0.75, 0.75)
        with pytest.raises(ValueError):
            FracOrder(0.75, 0.0)

    def test_time_grid(self):
        grid = TimeGrid(2.0, 10)
        nodes = grid.nodes
        assert nodes[0] == 0.0
        assert nodes[-1] == 2.0
        assert np.all(np.diff(nodes) > 0.0)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 10)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 1)


# Every (alpha, grid, node values) at which criterion 2, TestFractionalIntegral
# and TestCaputoDerivative take a fractional integral or an L1 derivative.
def _ones(s):
    return np.ones_like(s)


def _exp_plus_linear(s):
    return np.exp(-s) + s


RL_CASES = [(alpha, 1.0, 64, _ones) for alpha in (0.6, 0.75, 0.9, 1.0)] + [
    (1.0, 2.0, 128, lambda s: s.copy()),
    *[(0.6, 1.0, steps, np.sin) for steps in (256, 512, 1024)],
    *[(0.75, 1.0, steps, _exp_plus_linear) for steps in (128, 256, 512)],
]
CAPUTO_CASES = [
    (0.75, 1.0, 512, lambda s: s.copy()),
    *[(0.75, 1.0, steps, lambda s: s**2) for steps in (128, 256, 512)],
    (0.7, 1.0, 32, lambda s: np.full_like(s, 3.7)),
    (0.7, 1.0, 128, lambda s: s.copy()),
    *[(0.6, 1.0, steps, lambda s: s**2) for steps in (128, 256, 512)],
    *[(0.75, 1.0, steps, "integral") for steps in (128, 256, 512)],
]


def former_rl_integral(values, grid, alpha, t):
    """`fracops.rl_integral` as it was, its node lookup inlined and its input
    checks left out."""
    k = int(round(t / grid.dt))
    if k == 0:
        return 0.0
    c, a = product_lag_weights(alpha, k, grid.dt)
    return float(np.append(a[k], c[k - 1 :: -1]) @ values[: k + 1]) / math.gamma(alpha)


def former_caputo_derivative(values, grid, alpha, t):
    """`fracops.caputo_derivative` as it was, its node lookup inlined and its
    input checks left out."""
    k = int(round(t / grid.dt))
    b = l1_coefficients(alpha, k)
    increments = values[1 : k + 1] - values[:k]
    # b[0] pairs with the newest increment.
    hist = float(b @ increments[::-1])
    return hist / (grid.dt**alpha * math.gamma(2.0 - alpha))


class TestHelpersAreTheFormerWrappers:
    """The test-side helpers against `fracops.rl_integral` and
    `fracops.caputo_derivative` as they were before they left the package, bit
    for bit at every node of every grid the fractional-calculus tests use."""

    @pytest.mark.parametrize("alpha,horizon,steps,f", RL_CASES)
    def test_rl_integral(self, alpha, horizon, steps, f):
        grid = TimeGrid(horizon, steps)
        values = f(grid.nodes)
        for k, t in enumerate(grid.nodes):
            assert rl_integral_at(values, grid.dt, alpha, k) == \
                former_rl_integral(values, grid, alpha, float(t))

    @pytest.mark.parametrize("alpha,horizon,steps,f", CAPUTO_CASES)
    def test_caputo_derivative(self, alpha, horizon, steps, f):
        grid = TimeGrid(horizon, steps)
        if f == "integral":  # the round trip: the derivative of the integral
            values = np.array([former_rl_integral(_exp_plus_linear(grid.nodes), grid, alpha,
                                                  float(t)) for t in grid.nodes])
        else:
            values = f(grid.nodes)
        for k, t in enumerate(grid.nodes[1:], start=1):
            assert caputo_at(values, grid.dt, alpha, k) == \
                former_caputo_derivative(values, grid, alpha, float(t))
