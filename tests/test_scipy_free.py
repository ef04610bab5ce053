"""The scipy-free special functions and FFT against the scipy code they replaced.

`fracops` builds log Gamma and 1/Gamma on the `math` module and `evolve`
convolves with numpy's real FFT at 5-smooth lengths; the earlier code called
`scipy.special.gammaln`/`rgamma` and `scipy.fft`.  The old code is recovered
here by patching the scipy functions back in.
"""

import math

import numpy as np
import pytest
from scipy import fft as scipy_fft
from scipy.special import gammaln, rgamma

import fracheat.evolve as evolve_module
import fracheat.fracops as fracops_module
from fracheat.evolve import _fast_len, mild_solution, propagator
from fracheat.fracops import _lgamma, _rgamma, ml_family, wright_density

from conftest import bump_coefficients

EPS = np.finfo(float).eps
ALPHAS = [0.51, 0.6, 0.75, 0.9, 0.99, 0.999]


def gamma_arguments() -> tuple[np.ndarray, np.ndarray]:
    """The arguments fracops passes to (_lgamma, _rgamma): Taylor k-grids
    a k + b, the tail's a k - b + 1 and the Wright n-grid to the first; the
    tail's b - a k (poles and negatives down to -62 among them) and the betas
    to the second."""
    log_args, r_args = [np.arange(1.0, 4098.0)], []
    for alpha in ALPHAS + [0.05, 0.1, 0.3, 0.5, 1.0]:
        k = np.arange(0.0, 2400.0)
        log_args.append(np.arange(1.0, 4097.0) * alpha + 1.0)
        for beta in (alpha, 1.0, alpha + 1.0, 0.5, 2.0):
            tail = k[1: math.ceil(60.0 / alpha) + 3]
            log_args += [alpha * k + beta, (alpha * tail - beta + 1.0)[alpha * tail - beta + 1.0 > 0]]
            r_args += [beta - alpha * tail, [beta, beta - alpha]]
    return np.concatenate(log_args), np.concatenate(r_args)


def test_lgamma_matches_scipy():
    # both are within a few ulps of max(|log Gamma|, 1) (observed <= 8)
    x = gamma_arguments()[0]
    want = gammaln(x)
    assert np.all(np.abs(_lgamma(x) - want) <= 16 * EPS * np.maximum(np.abs(want), 1.0))


def test_rgamma_matches_scipy():
    x = np.concatenate([gamma_arguments()[1], np.linspace(-169.9, 169.9, 20001),
                        -np.arange(0.0, 200.0)])
    got, want = np.array([_rgamma(v) for v in x]), rgamma(x)
    poles = (x <= 0.0) & (x == np.floor(x))
    assert np.all(got[poles] == 0.0)
    # 8 ulps wherever Gamma is a normal float (observed <= 5.2), which covers
    # every argument fracops uses
    assert np.all(np.abs(got - want)[~poles] <= 8 * EPS * np.abs(want)[~poles])
    assert _rgamma(1.0) == 1.0 and ml_family(0.75, (1.0,), np.zeros(1))[0][0] == 1.0


def test_rgamma_beyond_the_normal_range():
    # past |x| = 170 the helper uses sign * exp(-lgamma), ~700 eps relative;
    # near the float range both sides go subnormal (scipy flushes 1/Gamma(171.7)
    # to 0) or infinite (scipy already on part of (-171.6, -170))
    x = np.array([170.5, 171.7, 200.0, 1000.0, -170.3, -171.5, -172.5, -200.5, -1e4 - 0.5])
    got, want = np.array([_rgamma(v) for v in x]), rgamma(x)
    finite = np.isfinite(want)
    assert np.all(np.abs(got[finite] - want[finite]) <= 1e-12 * np.abs(want[finite]) + 1e-300)
    assert np.array_equal(got[~finite], want[~finite])
    assert np.all(np.sign(got[want != 0.0]) == np.sign(want[want != 0.0]))


def test_fast_len_is_scipys_real_fast_length():
    assert all(_fast_len(n) == scipy_fft.next_fast_len(n, real=True) for n in range(2, 20001))


def use_scipy_gamma(monkeypatch) -> None:
    """Swap fracops' gamma helpers for the scipy functions they replaced."""
    monkeypatch.setattr(fracops_module, "_lgamma", gammaln)
    monkeypatch.setattr(fracops_module, "_rgamma", rgamma)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("beta_kind", ["alpha", "one", "alpha+1"])
def test_mittag_leffler_tables_match_scipy_gamma(alpha, beta_kind, monkeypatch):
    # the Taylor branch (s <= 5) sums terms up to e^5 times |E| and can
    # magnify a one-ulp move of lgamma in its terms by that much: e^5 * 16 eps
    # ~ 5e-13 per term, hence the stated bound of 1e-11 (observed 4.4e-12)
    beta = {"alpha": alpha, "one": 1.0, "alpha+1": alpha + 1.0}[beta_kind]
    table = -(np.arange(1.0, 9.0) ** 2) * np.linspace(0.0, 1.0, 65)[:, None] ** alpha
    z = np.concatenate([-np.geomspace(1e-3, 400.0, 400) ** alpha, np.geomspace(1e-3, 3.0, 40),
                        table.ravel()])
    new = ml_family(alpha, (beta,), z)[0]
    use_scipy_gamma(monkeypatch)
    old = ml_family(alpha, (beta,), z)[0]
    assert np.max(np.abs(new - old) / np.abs(old)) <= 1e-11


@pytest.mark.parametrize("alpha", [0.51, 0.75, 0.9, 0.99])
def test_wright_density_matches_scipy_gamma(alpha, monkeypatch):
    tau = np.geomspace(1e-4, 0.499, 200)  # only the series below tau0 uses gamma
    new = wright_density(alpha, tau)
    use_scipy_gamma(monkeypatch)
    old = wright_density(alpha, tau)
    assert np.max(np.abs(new - old) / old) <= 1e-14


def test_mild_solution_matches_scipy_fft(model_p2, grid_512, monkeypatch):
    rng = np.random.default_rng(5)
    forcing = rng.standard_normal((grid_512.steps + 1, model_p2.n_modes))
    control = rng.standard_normal((grid_512.steps + 1, model_p2.n_modes))
    x0 = bump_coefficients(8)
    new = mild_solution(model_p2, grid_512, x0, forcing, control)
    new_cross = propagator(model_p2, grid_512).convolve(np.ones_like(forcing))
    monkeypatch.setattr(np.fft, "rfft", scipy_fft.rfft)  # evolve calls np.fft.*
    monkeypatch.setattr(np.fft, "irfft", scipy_fft.irfft)
    monkeypatch.setattr(evolve_module, "_fast_len",
                        lambda n: scipy_fft.next_fast_len(n, real=True))
    old = mild_solution(model_p2, grid_512, x0, forcing, control)
    old_cross = propagator(model_p2, grid_512).convolve(np.ones_like(forcing))
    assert np.max(np.abs(new - old)) <= 1e-14 * np.max(np.abs(old))
    assert np.max(np.abs(new_cross - old_cross)) <= 1e-14 * np.max(np.abs(old_cross))


@pytest.mark.parametrize("beta", [0.5, 1.75, 2.0])
def test_mittag_leffler_alpha_one_takes_beta_one_only(beta):
    # no command reaches alpha = 1 (FracOrder keeps alpha < 1), so the
    # closed form E_{1,b} = M(1, b, z) / Gamma(b), b != 1, is not carried
    with pytest.raises(ValueError, match="alpha = 1 takes beta = 1 only"):
        ml_family(1.0, (beta,), np.array([0.7]))
    with pytest.raises(ValueError, match="alpha = 1 takes beta = 1 only"):
        ml_family(1.0, (1.0, beta), np.zeros(3))


def test_mittag_leffler_alpha_one_is_exp():
    z = np.array([-30.0, -4.0, -0.3, -0.0, 0.0, 0.7, 5.0])
    assert np.array_equal(ml_family(1.0, (1.0,), z)[0], np.exp(z))
