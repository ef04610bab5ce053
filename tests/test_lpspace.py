import math
from functools import lru_cache

import numpy as np
import pytest

from fracheat.fracops import row_blocks
from fracheat.lpspace import (
    basis_coefficients,
    basis_matrix,
    basis_values,
    duality_map,
    lp_norm,
    lp_norms,
    theta_grid,
)

N_THETA = 256

# frozen analytic sine coefficients of theta*(pi - theta): 4 sqrt(2/pi)/n^3, odd n
BUMP_C1 = 3.19153824321146142
BUMP_C3 = 0.118205120118943016
BUMP_C5 = 0.0255323059456916914


def basis(n_modes):
    return basis_matrix(n_modes, N_THETA)


def random_band_limited(rng, n_modes=12, n_theta=N_THETA):
    return basis_matrix(n_modes, n_theta) @ rng.standard_normal(n_modes)


def pairing(v, vstar):
    """Duality product int_0^pi v vstar dtheta by the midpoint rule."""
    return float(v @ vstar) * (math.pi / v.size)


class TestNorm:
    def test_constant_p2(self):
        assert lp_norm(np.ones(N_THETA), 2.0) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_constant_p4(self):
        assert lp_norm(np.ones(N_THETA), 4.0) == pytest.approx(math.pi ** 0.25, rel=1e-14)

    def test_sine_p2(self):
        f = np.sin(theta_grid(N_THETA))
        assert lp_norm(f, 2.0) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_row_norms_match_per_row_reconstruction(self, p):
        rows = np.random.default_rng(3).standard_normal((7, 12))
        w = basis_matrix(12, N_THETA)
        want = [lp_norm(w @ row, p) for row in rows]
        np.testing.assert_allclose(lp_norms(rows, w, p), want, rtol=1e-13)
        np.testing.assert_allclose(basis_values(rows, w)[2], w @ rows[2],
                                   rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 2.5])
    def test_row_norms_in_place_are_bitwise_the_expression(self, p):
        # abs and power now overwrite the values array: same operations
        rows = np.random.default_rng(4).standard_normal((513, 8))
        want = (np.sum(np.abs(basis_values(rows, basis(8))) ** p, axis=1)
                * (math.pi / N_THETA)) ** (1.0 / p)
        assert np.array_equal(lp_norms(rows, basis(8), p), want)

    @pytest.mark.parametrize("p", [2.0, 4.0, 4.0 / 3.0])
    def test_row_blocks_are_bitwise_the_whole_array(self, p):
        # 64 full row blocks of 256 grid values (60 rows each at a 120 KiB
        # budget), then a one-row block
        n_rows = 64 * next(row_blocks(1 << 20, N_THETA)).stop + 1
        rows = np.random.default_rng(5).standard_normal((n_rows, 8))
        want = (np.sum(np.abs(basis_values(rows, basis(8))) ** p, axis=1)
                * (math.pi / N_THETA)) ** (1.0 / p)
        assert np.array_equal(lp_norms(rows, basis(8), p), want)

    def test_row_values_refuse_non_finite(self):
        rows = np.zeros((3, 4))
        rows[1, 2] = np.inf
        with pytest.raises(ValueError, match="finite"):
            basis_values(rows, basis(4))


class TestDualityMap:
    def test_identity_in_hilbert_case(self):
        rng = np.random.default_rng(0)
        f = random_band_limited(rng)
        jf = duality_map(f, 2.0)
        assert np.array_equal(jf, f)
        assert jf is not f

    def test_general_formula_is_bitwise_identity_at_p2(self):
        # ||f||^0 |f|^1 sign f rounds to f exactly; only -0.0 becomes +0.0
        rng = np.random.default_rng(5)
        for scale in np.logspace(-5.0, 5.0, 2000):
            f = scale * rng.standard_normal(64)
            f[rng.integers(64)] = -0.0
            assert np.array_equal(duality_map(f, 2.0).view(np.int64), (f + 0.0).view(np.int64))

    def test_zero_maps_to_zero(self):
        assert np.all(duality_map(np.zeros(N_THETA), 4.0) == 0.0)

    def test_positive_constant_p4(self):
        c = 1.7
        f = np.full(N_THETA, c)
        jf = duality_map(f, 4.0)
        assert np.allclose(jf, c / math.sqrt(math.pi), rtol=1e-12)
        assert pairing(f, jf) == pytest.approx(c * c * math.sqrt(math.pi), rel=1e-12)

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_defining_identities_quantified(self, p):
        rng = np.random.default_rng(11)
        for _ in range(100):
            f = random_band_limited(rng)
            jf = duality_map(f, p)
            nf = lp_norm(f, p)
            assert abs(pairing(f, jf) - nf**2) <= 1e-8 * nf**2
            assert abs(lp_norm(jf, p / (p - 1.0)) - nf) <= 1e-8 * nf

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_positive_homogeneity(self, p):
        rng = np.random.default_rng(3)
        f = random_band_limited(rng)
        for lam in (0.3, 2.0, 17.5):
            left = duality_map(lam * f, p)
            right = lam * duality_map(f, p)
            assert np.allclose(left, right, rtol=1e-11, atol=1e-13)
            assert pairing(lam * f, left) == pytest.approx(lam**2 * lp_norm(f, p) ** 2, rel=1e-10)

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_monotonicity(self, p):
        rng = np.random.default_rng(5)
        for _ in range(50):
            f = random_band_limited(rng)
            g = random_band_limited(rng)
            gap = pairing(f - g, duality_map(f, p) - duality_map(g, p))
            assert gap >= -1e-10


class TestBasisTransforms:
    def test_orthonormal_modes(self):
        w1, w2, w3 = basis_values(np.eye(3), basis(3))
        assert abs(pairing(w1, w2)) <= 1e-10
        assert pairing(w3, w3) == pytest.approx(1.0, abs=1e-10)

    def test_mode_picks_unit_coefficient(self):
        w2 = basis_values(np.array([0.0, 1.0, 0.0, 0.0]), basis(4))
        coeffs = basis_coefficients(w2, basis(4))[0]
        assert np.allclose(coeffs, [0.0, 1.0, 0.0, 0.0], atol=1e-12)

    def test_round_trip_band_limited(self):
        rng = np.random.default_rng(9)
        coeffs = rng.standard_normal(16)
        back = basis_coefficients(basis_values(coeffs, basis(16)), basis(16))[0]
        assert np.max(np.abs(back - coeffs)) <= 1e-10

    def test_bump_against_analytic_series(self):
        # agreement limited by sine-series aliasing of the unresolved modes,
        # first of which is 2*N_THETA - n with coefficient ~ (2*N_THETA)^-3
        theta = theta_grid(N_THETA)
        coeffs = basis_coefficients(theta * (math.pi - theta), basis(6))[0]
        assert coeffs[0] == pytest.approx(BUMP_C1, abs=5e-8)
        assert coeffs[2] == pytest.approx(BUMP_C3, abs=5e-8)
        assert coeffs[4] == pytest.approx(BUMP_C5, abs=5e-8)
        assert abs(coeffs[1]) <= 1e-12
        assert abs(coeffs[3]) <= 1e-12

    def test_resolution_guard(self):
        with pytest.raises(ValueError):
            basis_matrix(200, N_THETA)
        with pytest.raises(ValueError):
            basis_matrix(129, N_THETA)


# The transforms as they were when they took sizes and looked the basis up in
# a cache keyed on (n_modes, n_theta); the ones that take the model's basis
# must agree with them bit for bit.
@lru_cache(maxsize=64)
def cached_basis_matrix(n_modes, n_theta):
    theta = theta_grid(n_theta)
    n = np.arange(1, n_modes + 1)
    w = math.sqrt(2.0 / math.pi) * np.sin(np.outer(theta, n))
    w.flags.writeable = False
    return w


def sized_basis_values(coeff_rows, n_theta):
    rows = np.atleast_2d(np.asarray(coeff_rows, dtype=float))
    wt = np.ascontiguousarray(cached_basis_matrix(rows.shape[1], n_theta).T)
    values = np.einsum("ik,kj->ij", rows, wt)
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    return values


def sized_basis_coefficients(values, n_modes):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    n_theta = values.shape[1]
    wt = np.ascontiguousarray(cached_basis_matrix(n_modes, n_theta).T)
    return np.einsum("ij,kj->ik", values, wt) * (math.pi / n_theta)


def sized_lp_norms(coeff_rows, n_theta, p):
    rows = np.atleast_2d(np.asarray(coeff_rows, dtype=float))
    sums = np.empty(rows.shape[0])
    for block in row_blocks(rows.shape[0], n_theta):
        values = sized_basis_values(rows[block], n_theta)
        sums[block] = np.sum(np.power(np.abs(values, out=values), p, out=values), axis=1)
        del values
    return (sums * (math.pi / n_theta)) ** (1.0 / p)


def bits(a):
    return np.asarray(a).view(np.int64)


class TestTransformsTakeTheBasis:
    @pytest.mark.parametrize("n_modes,n_theta", [(1, 8), (8, 256), (64, 1024)])
    @pytest.mark.parametrize("p", [2.0, 4.0, 64.0])
    def test_bitwise_the_size_keyed_transforms(self, n_modes, n_theta, p):
        rng = np.random.default_rng(n_modes + n_theta)
        w = basis_matrix(n_modes, n_theta)
        assert np.array_equal(bits(w), bits(cached_basis_matrix(n_modes, n_theta)))
        rows = rng.standard_normal((600, n_modes))  # more than one row block at 256 and 1024
        values = basis_values(rows, w)
        assert np.array_equal(bits(values), bits(sized_basis_values(rows, n_theta)))
        assert np.array_equal(bits(basis_coefficients(values, w)),
                              bits(sized_basis_coefficients(values, n_modes)))
        norms = lp_norms(rows, w, p)
        assert np.all(np.isfinite(norms))
        assert np.array_equal(bits(norms), bits(sized_lp_norms(rows, n_theta, p)))


def plain_lp_norm(values, p):
    return float((np.sum(np.abs(values) ** p) * (math.pi / values.size)) ** (1.0 / p))


def plain_duality_map(values, p):
    norm = plain_lp_norm(values, p)
    return norm ** (2.0 - p) * np.abs(values) ** (p - 1.0) * np.sign(values)


class TestPowerOverflow:
    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 24.0, 64.0])
    def test_plain_formula_bitwise_where_it_is_finite(self, p):
        rng = np.random.default_rng(int(p))
        for scale in (1e-3, 1.0, 10.0):
            f = scale * random_band_limited(rng)
            assert lp_norm(f, p) == plain_lp_norm(f, p)
            assert np.array_equal(bits(duality_map(f, p)), bits(plain_duality_map(f, p)))

    @pytest.mark.parametrize("p", [100.0, 150.0, 200.0, 1000.0])
    def test_norms_are_homogeneous_past_the_overflow(self, p):
        rng = np.random.default_rng(7)
        w = basis(12)
        coeffs = rng.standard_normal((3, 12))
        unit = coeffs / np.max(np.abs(w @ coeffs.T), axis=0)[:, None]  # max |value| 1 per row
        with np.errstate(over="raise"):  # the plain power sum overflows at 1e4 |f|
            with pytest.raises(FloatingPointError):
                np.sum(np.abs(w @ (1e4 * unit[0])) ** p)
        small = lp_norms(unit, w, p)
        for scale in (1e4, 1e100):
            big = lp_norms(scale * unit, w, p)
            np.testing.assert_allclose(big, scale * small, rtol=1e-13)
            for row, norm in zip(unit, big):
                assert lp_norm(w @ (scale * row), p) == pytest.approx(norm, rel=1e-13)

    @pytest.mark.parametrize("p", [100.0, 150.0, 200.0])
    def test_duality_map_identities_past_the_overflow(self, p):
        rng = np.random.default_rng(13)
        for scale in (1.0, 1e3, 1e100):
            f = scale * random_band_limited(rng)
            jf = duality_map(f, p)
            nf = lp_norm(f, p)
            assert np.all(np.isfinite(jf)) and math.isfinite(nf) and nf > 0.0
            assert abs(pairing(f, jf) - nf**2) <= 1e-8 * nf**2
            assert abs(lp_norm(jf, p / (p - 1.0)) - nf) <= 1e-8 * nf
            np.testing.assert_allclose(jf, scale * duality_map(f / scale, p),
                                       rtol=1e-12, atol=1e-12 * np.max(np.abs(jf)))


class TestPowerUnderflow:
    """7e-3 sin(theta) at p = 150: every |f|^p is subnormal or 0, so the plain
    power sum times h is 0, a zero norm for a nonzero function."""

    P = 150.0

    def test_the_plain_sum_reads_zero(self):
        f = 7e-3 * np.sin(theta_grid(N_THETA))
        with np.errstate(under="ignore"):
            assert np.sum(np.abs(f) ** self.P) * (math.pi / N_THETA) == 0.0

    def test_norms_keep_the_function(self):
        sine = np.sin(theta_grid(N_THETA))
        f = 7e-3 * sine
        nf = lp_norm(f, self.P)
        assert nf == pytest.approx(7e-3 * lp_norm(sine, self.P), rel=1e-13)
        assert nf == pytest.approx(0.7 * lp_norm(1e-2 * sine, self.P), rel=1e-13)
        w = basis(8)
        np.testing.assert_allclose(lp_norms(basis_coefficients(f, w), w, self.P), [nf],
                                   rtol=1e-13)

    def test_duality_map_identity(self):
        f = 7e-3 * np.sin(theta_grid(N_THETA))
        jf = duality_map(f, self.P)
        nf = lp_norm(f, self.P)
        assert np.all(np.isfinite(jf)) and np.any(jf != 0.0)
        assert abs(pairing(f, jf) - nf**2) <= 1e-12 * nf**2
        assert abs(lp_norm(jf, self.P / (self.P - 1.0)) - nf) <= 1e-12 * nf

    def test_zero_keeps_a_zero_norm(self):
        w = basis(8)
        assert lp_norm(np.zeros(N_THETA), self.P) == 0.0
        assert np.array_equal(lp_norms(np.zeros((2, 8)), w, self.P), [0.0, 0.0])
        assert np.array_equal(duality_map(np.zeros(N_THETA), self.P), np.zeros(N_THETA))
