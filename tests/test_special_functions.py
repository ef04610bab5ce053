"""The array special functions against the scalar evaluators they replaced.

The references below are the earlier implementations, kept in substance:
Mittag-Leffler one argument at a time (a math.fsum Taylor sum, adaptive
`quad` on the cut integral, a scalar loop over the tail series), and the
Wright density as its float ascending series with an mpmath fallback where
cancellation is deep.  Both are test-only now.  The arbitrary-precision
`ml_oracle` of conftest is the independent check.  The array cut integral as
it was before zero-width panels were dropped (every peak width on every
argument, r^a and r^(a-b) as powers) is kept too: the pruned one may differ
from it in summation order and last-bit rounding only, so it must agree to
1e-13 relative.

Tolerances: 1e-10 relative, the accuracy contract of `test_fracops`; for the
Wright density 1e-10 relative wherever it is at least 1e-12 of its maximum
and 1e-13 absolute below that, where relative error is meaningless.
"""

import math
import random
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import fracheat.fracops as fracops
from fracheat.fracops import _CUT_EDGES, _CUT_W, _CUT_X, _PEAK_WIDTHS, _TAYLOR_S_MAX, \
    _ASYMPTOTIC_S_MIN, _WRIGHT_TAU0, _ml_cut_integral, gaussian_rows, ml_family, row_blocks, \
    wright_density

from conftest import ml_oracle, traced_peak

REL_TOL = 1e-10
QUAD_OPTS = {"epsabs": 1e-300, "epsrel": 1e-12, "limit": 200}


def reference_ml(alpha: float, beta: float, z: float) -> float:
    """Scalar E_{alpha,beta}(z), 0 < alpha < 1, z <= 0."""
    if z == 0.0:
        return 1.0 / math.gamma(beta)
    if (-z) ** (1.0 / alpha) <= _TAYLOR_S_MAX:
        terms = [(-1.0) ** k * math.exp(k * math.log(-z) - math.lgamma(alpha * k + beta))
                 for k in range(1, 400)]
        return math.fsum([1.0 / math.gamma(beta)] + terms)
    return reference_ml_negative(alpha, beta, -z)


def reference_ml_negative(alpha: float, beta: float, x: float) -> float:
    if beta > 1.0:
        return (1.0 / math.gamma(beta - alpha) - reference_ml_negative(alpha, beta - alpha, x)) / x
    if x ** (1.0 / alpha) >= _ASYMPTOTIC_S_MIN:
        total, prev_env = 0.0, math.inf
        for k in range(1, 400):
            arg = beta - alpha * k
            rg = 0.0 if arg <= 0 and arg == int(arg) else 1.0 / math.gamma(arg)
            total += (-1.0) ** (k + 1) * x ** (-k) * rg
            arg = alpha * k - beta + 1.0
            env = math.exp(-k * math.log(x) + math.lgamma(arg)) / math.pi if arg > 0 else math.inf
            if env < 1e-18 * abs(total) or env > prev_env:
                break
            prev_env = min(prev_env, env)
        return total
    cos_pa, sin_pa = math.cos(math.pi * alpha), math.sin(math.pi * alpha)
    sin_pb, sin_pba = math.sin(math.pi * beta), math.sin(math.pi * (beta - alpha))
    expo = (1.0 - beta) / alpha

    def integrand(u: float) -> float:
        if u <= 0.0:
            return 0.0
        den = u * u + 2.0 * x * u * cos_pa + x * x
        return math.exp(-(u ** (1.0 / alpha))) * u**expo * (u * sin_pb + x * sin_pba) / den

    u_peak, width = -x * cos_pa, x * sin_pa
    breaks = {45.0**alpha, u_peak, u_peak - 8.0 * width, u_peak + 8.0 * width}
    if sin_pba < 0.0 < sin_pb:
        breaks.add(-x * sin_pba / sin_pb)
    total, lo = 0.0, 0.0
    for b in sorted(b for b in breaks if b > 0.0):
        total += quad(integrand, lo, b, **QUAD_OPTS)[0]
        lo = b
    total += quad(integrand, lo, np.inf, **QUAD_OPTS)[0]
    return total / (math.pi * alpha)


def reference_wright(alpha: float, tau: float) -> float:
    """Float ascending series; mpmath where its cancellation is deep."""
    ell = (1.0 - alpha) * alpha ** (alpha / (1.0 - alpha)) * tau ** (1.0 / (1.0 - alpha))
    if ell > 140.0:
        return 0.0
    n_peak = max(8.0, (tau * alpha**alpha) ** (1.0 / (1.0 - alpha)))
    terms, max_env = [], 0.0
    for n in range(1, 200000):
        env = math.exp((n - 1) * math.log(tau) + math.lgamma(n * alpha + 1.0) - math.lgamma(n + 1.0))
        terms.append((-1.0) ** (n - 1) * env * math.sin(math.pi * ((n * alpha) % 2.0)))
        max_env = max(max_env, env)
        if n > n_peak + 5 and env < 1e-18 * max_env:
            break
    total = math.fsum(terms) / (math.pi * alpha)
    if max_env * 5e-16 <= 1e-12 * max(abs(total), 1e-300):
        return max(total, 0.0)
    lost = math.log10(max_env / max(abs(total), 1e-300) + 1.0)
    dps = 25 + int(lost) + int(0.45 * ell)
    with mp.workdps(dps):
        a, t = mp.mpf(alpha), mp.mpf(tau)
        total, env_max, fact, tau_pow = mp.mpf(0), mp.mpf(0), mp.mpf(1), mp.mpf(1)
        for n in range(1, 500000):
            fact *= n
            env = tau_pow * mp.gamma(n * a + 1) / fact
            total += (-1) ** (n - 1) * env * mp.sinpi(n * a)
            env_max = max(env_max, env)
            tau_pow *= t
            if n > n_peak + 5 and env < mp.mpf(10) ** (-dps) * env_max:
                break
        return max(float(total / (mp.pi * a)), 0.0)


def reference_cut_integral(alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    """The array cut integral with all twelve peak widths on every argument
    (degenerate ones clipped onto r = 1 or a fixed end, so zero-width
    panels), the integrand as exp(-r) r**(a-b) with r**a."""
    gam = alpha - beta
    cos_pa, sin_pa = math.cos(math.pi * alpha), math.sin(math.pi * alpha)
    sin_pb, sin_pba = math.sin(math.pi * beta), math.sin(math.pi * (beta - alpha))
    fixed = np.concatenate([6.0 ** -np.arange(math.ceil(5.0 / alpha), 10.0, -1.0), _CUT_EDGES])
    out = np.empty_like(x)
    for rows in row_blocks(x.size, (fixed.size + _PEAK_WIDTHS.size) * _CUT_X.size):
        xx = x[rows][:, None]
        u = xx * (_PEAK_WIDTHS * sin_pa - cos_pa)
        peak = np.where(u > 0.0, np.clip(np.abs(u) ** (1.0 / alpha), fixed[0], fixed[-1]), 1.0)
        edges = np.sort(np.hstack([np.broadcast_to(fixed, (len(xx), fixed.size)), peak]))
        half = 0.5 * np.diff(edges, axis=1)[:, :, None]
        v_max = edges[:, :1] ** (1.0 + gam)
        start = (0.5 * v_max * (1.0 + _CUT_X)) ** (1.0 / (1.0 + gam))
        r = np.hstack([start, (edges[:, :-1, None] + half * (1.0 + _CUT_X)).reshape(len(xx), -1)])
        w = np.hstack([0.5 * v_max * _CUT_W / ((1.0 + gam) * start**gam),
                       (half * _CUT_W).reshape(len(xx), -1)])
        ra = r**alpha
        f = np.exp(-r) * r**gam * (ra * sin_pb + xx * sin_pba) / ((ra + xx * cos_pa) ** 2 + (xx * sin_pa) ** 2)
        out[rows] = np.sum(f * w, axis=1) / math.pi
    return out


BETA = {"alpha": lambda a: a, "one": lambda a: 1.0, "alpha+1": lambda a: a + 1.0}
# bases in (0, 1] and reduction chains of length 1 (alpha + 1), 2 (2) and 3 (alpha + 2)
CUT_BETA = {**BETA, "alpha+2": lambda a: a + 2.0, "two": lambda a: 2.0}
BASES = {"0.3": lambda a: 0.3, "alpha": lambda a: a, "one": lambda a: 1.0}
FRAC_ALPHAS = [0.51, 0.6, 0.75, 0.9, 0.99, 0.999]


def seam_arguments(alpha: float) -> np.ndarray:
    s = np.concatenate([np.geomspace(0.05, 400.0, 14),
                        [_TAYLOR_S_MAX * (1 - 1e-9), _TAYLOR_S_MAX * (1 + 1e-9),
                         _ASYMPTOTIC_S_MIN * (1 - 1e-9), _ASYMPTOTIC_S_MIN * (1 + 1e-9)]])
    return -(s**alpha)


@pytest.mark.parametrize("alpha", [0.51, 0.6, 0.75, 0.9, 0.99, 0.999])
@pytest.mark.parametrize("beta_kind", sorted(BETA))
def test_mittag_leffler_table_against_oracle_and_scalar_reference(alpha, beta_kind):
    beta = BETA[beta_kind](alpha)
    z = seam_arguments(alpha)
    got = ml_family(alpha, (beta,), z)[0]
    oracle = np.array([ml_oracle(alpha, beta, float(v)) for v in z])
    scalar = np.array([reference_ml(alpha, beta, float(v)) for v in z])
    assert np.max(np.abs(got - oracle) / np.abs(oracle)) <= REL_TOL
    assert np.max(np.abs(got - scalar) / np.abs(scalar)) <= REL_TOL


@pytest.mark.parametrize("alpha", [0.1, 0.3])
@pytest.mark.parametrize("beta", [0.5, 1.0, 1.3])
def test_mittag_leffler_below_one_half(alpha, beta):
    # outside FracOrder but inside ml_family's domain: the cut integral
    # then needs more geometric panels toward r = 0 (r^alpha decays slowly)
    z = -(np.geomspace(5.01, 59.9, 8) ** alpha)
    got = ml_family(alpha, (beta,), z)[0]
    want = np.array([ml_oracle(alpha, beta, float(v)) for v in z])
    assert np.max(np.abs(got - want) / np.abs(want)) <= REL_TOL


@given(alpha=st.floats(0.51, 0.999), beta_kind=st.sampled_from(sorted(BETA)),
       seam=st.sampled_from([_TAYLOR_S_MAX, _ASYMPTOTIC_S_MIN]), side=st.sampled_from([-1, 1]))
@settings(max_examples=30, deadline=None)
def test_mittag_leffler_across_branch_seams(alpha, beta_kind, seam, side):
    beta = BETA[beta_kind](alpha)
    z = -((seam * (1.0 + side * 1e-9)) ** alpha)
    got = float(ml_family(alpha, (beta,), np.array([z]))[0][0])
    want = ml_oracle(alpha, beta, z)
    assert abs(got - want) <= REL_TOL * abs(want)


def assert_density_close(got: np.ndarray, want: np.ndarray) -> None:
    big = want >= 1e-12 * np.max(want)
    assert np.all(np.abs(got - want)[big] <= REL_TOL * want[big])
    assert np.all(np.abs(got - want)[~big] <= 1e-13)


@pytest.mark.parametrize("alpha", [0.5, 0.51, 0.6, 0.75, 0.9])
def test_wright_density_against_scalar_reference(alpha):
    rate = (1.0 - alpha) * alpha ** (alpha / (1.0 - alpha))
    tau_cut = (28.0 / rate) ** (1.0 - alpha)
    x, _ = np.polynomial.legendre.leggauss(500)
    tau = np.concatenate([0.5 * tau_cut * (x[::10] + 1.0),
                          [_WRIGHT_TAU0 * (1 - 1e-9), _WRIGHT_TAU0 * (1 + 1e-9), 1.2 * tau_cut]])
    want = np.array([reference_wright(alpha, float(t)) for t in tau])
    assert_density_close(wright_density(alpha, tau), want)


@given(alpha=st.floats(0.51, 0.999), side=st.sampled_from([-1, 1]))
@settings(max_examples=40, deadline=None)
def test_wright_density_across_series_seam(alpha, side):
    tau = _WRIGHT_TAU0 * (1.0 + side * 1e-9)
    want = reference_wright(alpha, tau)
    assert abs(wright_density(alpha, tau) - want) <= REL_TOL * want + 1e-13


def test_table_evaluation_is_blocked():
    # the bundled model's table: 513 nodes x 8 modes, ~44 % on the cut
    # integral; evaluated in one block its temporaries peak near 48 MB
    z = -(np.arange(1.0, 9.0) ** 2) * np.linspace(0.0, 1.0, 513)[:, None] ** 0.75
    table, peak = traced_peak(lambda: ml_family(0.75, (0.75,), z)[0])
    assert table.shape == z.shape
    assert peak <= 4e6


def chain_length(alpha: float, beta: float) -> int:
    """Reductions beta -> beta - alpha until beta <= 1, as `ml_family` counts."""
    n = 0
    while beta > 1.0:
        beta, n = beta - alpha, n + 1
    return n


@pytest.mark.parametrize("alpha", FRAC_ALPHAS)
@pytest.mark.parametrize("beta_kind", sorted(CUT_BETA))
def test_pruned_cut_integral_matches_full_panel_reference(alpha, beta_kind, monkeypatch):
    beta = CUT_BETA[beta_kind](alpha)
    z = seam_arguments(alpha)
    got = ml_family(alpha, (beta,), z)[0]
    monkeypatch.setattr(fracops, "_ml_cut_integral", reference_cut_integral)
    want = ml_family(alpha, (beta,), z)[0]
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13


@pytest.mark.parametrize("alpha", FRAC_ALPHAS)
@pytest.mark.parametrize("base", sorted(BASES))
def test_pruned_cut_integral_across_its_whole_range(alpha, base):
    # every argument the cut integral serves, 5 < s < 60, densely
    beta = BASES[base](alpha)
    x = np.geomspace(_TAYLOR_S_MAX, _ASYMPTOTIC_S_MIN, 400) ** alpha
    got, want = _ml_cut_integral(alpha, beta, x), reference_cut_integral(alpha, beta, x)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13


@pytest.mark.parametrize("alpha", [0.51, 0.75, 0.999])
def test_cut_value_depends_on_its_own_argument_only(alpha):
    # arguments are grouped by their live peak edges, so a value does not
    # depend on what else is in the call: what makes `ml_family` exact
    x = np.geomspace(_TAYLOR_S_MAX, _ASYMPTOTIC_S_MIN, 40) ** alpha
    whole = _ml_cut_integral(alpha, 1.0, x)
    alone = np.array([_ml_cut_integral(alpha, 1.0, x[i:i + 1])[0] for i in range(x.size)])
    assert np.array_equal(whole, alone)
    assert np.array_equal(_ml_cut_integral(alpha, 1.0, x[::-1]), whole[::-1])


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.51, 0.75, 0.9, 0.999])
def test_pruning_raises_no_runtime_warning(alpha):
    # u <= 0 for the widths left of the peak at alpha > 1/2: no power of a
    # negative base may be taken
    x = np.geomspace(_TAYLOR_S_MAX, _ASYMPTOTIC_S_MIN, 64) ** alpha
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for beta in (0.3, alpha, 1.0):
            assert np.all(np.isfinite(_ml_cut_integral(alpha, beta, x)))


@pytest.mark.parametrize("alpha", [0.51, 0.6, 0.75, 0.9, 0.999])
def test_family_is_bitwise_separate_calls(alpha):
    betas = (alpha, 1.0, alpha + 1.0, 2.0, alpha + 2.0, 0.5)
    assert {chain_length(alpha, b) for b in betas} >= {0, 1, 2}
    table = -(np.arange(1.0, 9.0) ** 2) * np.linspace(0.0, 1.0, 129)[:, None] ** alpha
    spread = np.concatenate([seam_arguments(alpha), -np.geomspace(1e-3, 1e3, 200), [0.0, 0.7]])
    # `validate`'s arguments: E(-1) for the subordination checks, and -n^2 t^alpha
    # at 200 random times for the family bounds
    validate_times = np.random.default_rng(7).uniform(0.0, 1.0, (200, 1))
    validate_table = -(np.arange(1.0, 9.0) ** 2) * validate_times**alpha
    # and `validate`'s own times on the bundled config (seed 0, 8 modes, horizon
    # 1): the 200 uniform draws after its 20 duality-map rows
    rng = random.Random(0)
    gaussian_rows(rng, 20, 8)
    own_times = np.array([rng.uniform(0.0, 1.0) for _ in range(200)])
    own_table = -(np.arange(1.0, 9.0) ** 2) * own_times[:, None] ** alpha
    for z in (table, spread, np.array([-1.0]), validate_table, own_table):
        family = ml_family(alpha, betas, z)
        assert len(family) == len(betas)
        for beta, got in zip(betas, family):
            assert got.shape == z.shape
            assert np.array_equal(got, ml_family(alpha, (beta,), z)[0])


def test_family_shares_one_cut_integral_per_base(monkeypatch):
    calls = []
    original = fracops._ml_cut_integral

    def counting(alpha, beta, x):
        calls.append(beta)
        return original(alpha, beta, x)

    monkeypatch.setattr(fracops, "_ml_cut_integral", counting)
    # bases: 1 (from 1 and 1.75), 0.5 (from 2 and 0.5) and 0.75
    ml_family(0.75, (1.0, 1.75, 2.0, 0.5, 0.75), -np.geomspace(0.1, 30.0, 50))
    assert calls == [1.0, 0.5, 0.75]
