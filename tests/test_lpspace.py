import math

import numpy as np
import pytest

from fracheat.lpspace import (
    GridFunction,
    basis_matrix,
    basis_values,
    conjugate_exponent,
    duality_map,
    from_basis,
    lp_norm,
    lp_norms,
    pairing,
    theta_grid,
    to_basis,
)

N_THETA = 256

# frozen analytic sine coefficients of theta*(pi - theta): 4 sqrt(2/pi)/n^3, odd n
BUMP_C1 = 3.19153824321146142
BUMP_C3 = 0.118205120118943016
BUMP_C5 = 0.0255323059456916914


def random_band_limited(rng, n_modes=12, p=2.0, n_theta=N_THETA):
    return from_basis(rng.standard_normal(n_modes), n_theta, p)


class TestNorm:
    def test_constant_p2(self):
        f = GridFunction(np.ones(N_THETA), 2.0)
        assert lp_norm(f) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_constant_p4(self):
        f = GridFunction(np.ones(N_THETA), 4.0)
        assert lp_norm(f) == pytest.approx(math.pi ** 0.25, rel=1e-14)

    def test_sine_p2(self):
        f = GridFunction(np.sin(theta_grid(N_THETA)), 2.0)
        assert lp_norm(f) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)

    def test_guards(self):
        with pytest.raises(ValueError):
            GridFunction(np.ones(4), 2.0)
        with pytest.raises(ValueError):
            GridFunction(np.full(N_THETA, np.nan), 2.0)
        with pytest.raises(ValueError):
            GridFunction(np.ones(N_THETA), 1.0)


    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_row_norms_match_per_row_reconstruction(self, p):
        rows = np.random.default_rng(3).standard_normal((7, 12))
        want = [lp_norm(from_basis(row, N_THETA, p)) for row in rows]
        np.testing.assert_allclose(lp_norms(rows, N_THETA, p), want, rtol=1e-13)
        np.testing.assert_allclose(basis_values(rows, N_THETA)[2],
                                   from_basis(rows[2], N_THETA).values, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 2.5])
    def test_row_norms_in_place_are_bitwise_the_expression(self, p):
        # abs and power now overwrite the values array: same operations
        rows = np.random.default_rng(4).standard_normal((513, 8))
        want = (np.sum(np.abs(basis_values(rows, N_THETA)) ** p, axis=1)
                * (math.pi / N_THETA)) ** (1.0 / p)
        assert np.array_equal(lp_norms(rows, N_THETA, p), want)

    def test_row_values_refuse_non_finite(self):
        rows = np.zeros((3, 4))
        rows[1, 2] = np.inf
        with pytest.raises(ValueError, match="finite"):
            basis_values(rows, N_THETA)


class TestPairing:
    def test_constants(self):
        one = GridFunction(np.ones(N_THETA), 2.0)
        assert pairing(one, one) == pytest.approx(math.pi, rel=1e-14)

    def test_orthonormal_modes(self):
        w1 = from_basis(np.array([1.0, 0.0, 0.0]), N_THETA, 2.0)
        w2 = from_basis(np.array([0.0, 1.0, 0.0]), N_THETA, 2.0)
        w3 = from_basis(np.array([0.0, 0.0, 1.0]), N_THETA, 2.0)
        assert abs(pairing(w1, w2)) <= 1e-10
        assert pairing(w3, w3) == pytest.approx(1.0, abs=1e-10)

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            pairing(GridFunction(np.ones(64), 2.0), GridFunction(np.ones(128), 2.0))

    def test_exponent_mismatch(self):
        f = GridFunction(np.ones(N_THETA), 4.0)
        g = GridFunction(np.ones(N_THETA), 2.0)
        with pytest.raises(ValueError):
            pairing(f, g)
        # conjugate pair is accepted
        pairing(f, GridFunction(np.ones(N_THETA), conjugate_exponent(4.0)))


class TestDualityMap:
    def test_identity_in_hilbert_case(self):
        rng = np.random.default_rng(0)
        f = random_band_limited(rng, p=2.0)
        assert np.allclose(duality_map(f).values, f.values)

    def test_zero_maps_to_zero(self):
        f = GridFunction(np.zeros(N_THETA), 4.0)
        assert np.all(duality_map(f).values == 0.0)

    def test_positive_constant_p4(self):
        c = 1.7
        f = GridFunction(np.full(N_THETA, c), 4.0)
        jf = duality_map(f)
        assert np.allclose(jf.values, c / math.sqrt(math.pi), rtol=1e-12)
        assert pairing(f, jf) == pytest.approx(c * c * math.sqrt(math.pi), rel=1e-12)

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_defining_identities_quantified(self, p):
        rng = np.random.default_rng(11)
        for _ in range(100):
            f = random_band_limited(rng, p=p)
            jf = duality_map(f)
            nf = lp_norm(f)
            assert abs(pairing(f, jf) - nf**2) <= 1e-8 * nf**2
            assert abs(lp_norm(jf) - nf) <= 1e-8 * nf

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_positive_homogeneity(self, p):
        rng = np.random.default_rng(3)
        f = random_band_limited(rng, p=p)
        for lam in (0.3, 2.0, 17.5):
            left = duality_map(lam * f)
            right = lam * duality_map(f)
            assert np.allclose(left.values, right.values, rtol=1e-11, atol=1e-13)
            assert pairing(lam * f, left) == pytest.approx(lam**2 * lp_norm(f) ** 2, rel=1e-10)

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_monotonicity(self, p):
        rng = np.random.default_rng(5)
        for _ in range(50):
            f = random_band_limited(rng, p=p)
            g = random_band_limited(rng, p=p)
            gap = pairing(f - g, duality_map(f) - duality_map(g))
            assert gap >= -1e-10


class TestBasisTransforms:
    def test_mode_picks_unit_coefficient(self):
        w2 = from_basis(np.array([0.0, 1.0, 0.0, 0.0]), N_THETA, 2.0)
        coeffs = to_basis(w2, 4)
        assert np.allclose(coeffs, [0.0, 1.0, 0.0, 0.0], atol=1e-12)

    def test_round_trip_band_limited(self):
        rng = np.random.default_rng(9)
        coeffs = rng.standard_normal(16)
        back = to_basis(from_basis(coeffs, N_THETA, 2.0), 16)
        assert np.max(np.abs(back - coeffs)) <= 1e-10

    def test_bump_against_analytic_series(self):
        # agreement limited by sine-series aliasing of the unresolved modes,
        # first of which is 2*N_THETA - n with coefficient ~ (2*N_THETA)^-3
        theta = theta_grid(N_THETA)
        f = GridFunction(theta * (math.pi - theta), 2.0)
        coeffs = to_basis(f, 6)
        assert coeffs[0] == pytest.approx(BUMP_C1, abs=5e-8)
        assert coeffs[2] == pytest.approx(BUMP_C3, abs=5e-8)
        assert coeffs[4] == pytest.approx(BUMP_C5, abs=5e-8)
        assert abs(coeffs[1]) <= 1e-12
        assert abs(coeffs[3]) <= 1e-12

    def test_resolution_guard(self):
        with pytest.raises(ValueError):
            basis_matrix(200, N_THETA)
        with pytest.raises(ValueError):
            to_basis(GridFunction(np.ones(N_THETA), 2.0), 129)
