"""Field generators: moment checks against model covariances."""

import numpy as np
import pytest
import scipy.stats as st

from freqboot import (ConfigError, MaternSpectral,
                      SeparableARMA, SphericalAniso, TransformedGaussian,
                      WhiteNoise, anisotropy_matrix, matern_model,
                      model_autocovariance, model_spectral_density,
                      simulate_exp_cholesky, simulate_gaussian,
                      simulate_process, simulate_separable,
                      simulate_transformed, spherical_covariance)
from freqboot import rng as rngmod
from freqboot.simulate import covariance_matrix, gamma0


class TestModelDescriptors:
    def test_matern_density_values(self):
        m = MaternSpectral(phi=1.0, alpha=1.0, nu=1.0)
        assert model_spectral_density(m, 0.0, 0.0) == pytest.approx(1.0)
        assert model_spectral_density(m, 1.0, 0.0) == pytest.approx(0.25)
        m2 = MaternSpectral(phi=2.0, alpha=0.5, nu=1.0)
        assert model_spectral_density(m2, 0.0, 0.0) == pytest.approx(32.0)

    def test_matern_validation(self):
        with pytest.raises(ConfigError):
            MaternSpectral(phi=0.0, alpha=1.0, nu=1.0)

    def test_spherical_values(self):
        m = SphericalAniso(sigma2=2.0, range_=5.0, eta=0.3)
        assert spherical_covariance(m, (0, 0)) == pytest.approx(2.3)
        assert spherical_covariance(m, (3, 4)) == pytest.approx(0.0)  # r = range
        iso = SphericalAniso(sigma2=1.0, range_=5.0, tau_a=0.0, tau_r=1.0)
        assert np.allclose(anisotropy_matrix(0.0, 1.0), np.eye(2))
        r = np.hypot(1, 2)
        u = r / 5.0
        assert spherical_covariance(iso, (1, 2)) == pytest.approx(
            1.0 - 1.5 * u + 0.5 * u ** 3)

    def test_spherical_validation(self):
        with pytest.raises(ConfigError):
            SphericalAniso(sigma2=1.0, range_=5.0, tau_r=0.5)

    def test_separable_validation(self):
        with pytest.raises(ConfigError):
            SeparableARMA(ar=1.0, ma=0.0)
        with pytest.raises(ConfigError):
            SeparableARMA(ar=0.2, ma=0.0, innov1="cauchy")

    def test_matern_normalization(self):
        m = matern_model(alpha=1.0 / 3.0, nu=1.0)
        assert abs(gamma0(m) - 1.0) <= 0.01

    def test_separable_autocovariance_closed_form(self):
        m = SeparableARMA(0.2, -0.7, "gaussian", "gaussian")
        assert model_autocovariance(m, (1, 0)) == pytest.approx(
            0.2 / 0.96 * 1.49)
        assert model_autocovariance(m, (0, 1)) == pytest.approx(
            (1.0 / 0.96) * -0.7)
        assert model_autocovariance(m, (0, 2)) == 0.0

    def test_quartic_autocovariance(self):
        base = WhiteNoise(1.0)
        t = TransformedGaussian(base=base, transform="quartic")
        assert model_autocovariance(t, (0, 0)) == pytest.approx(96.0)
        assert model_autocovariance(t, (1, 0)) == pytest.approx(0.0)

    def test_spherical_density_is_consistent_with_covariance(self):
        # inverting the trig polynomial recovers the covariance
        m = SphericalAniso(sigma2=1.0, range_=3.0)
        n = 32
        from freqboot.lattice import _signed_indices
        w = 2 * np.pi * _signed_indices(n) / n
        dens = model_spectral_density(m, w[:, None], w[None, :])
        cell = (2 * np.pi) ** 2 / (n * n)
        for h in [(0, 0), (1, 0), (2, 2)]:
            val = np.sum(dens * np.cos(h[0] * w[:, None] + h[1] * w[None, :])) * cell
            assert val == pytest.approx(spherical_covariance(m, h), rel=1e-8)


class TestGaussianGenerators:
    def test_white_noise_moments(self):
        lag_cov, var = [], []
        for i in range(200):
            f = simulate_gaussian(WhiteNoise(1.0), 32, 32,
                                  rngmod.stream(91, rngmod.TAG_ORACLE, i))
            lag_cov.append(np.mean(f.values[:-1, :] * f.values[1:, :]))
            var.append(np.mean(f.values ** 2))
        assert abs(np.mean(lag_cov)) <= 0.02
        assert abs(np.mean(var) - 1.0) <= 0.05

    def test_matern_variance_normalized(self):
        m = matern_model(alpha=1.0 / 3.0, nu=1.0)
        var = []
        for i in range(200):
            f = simulate_gaussian(m, 48, 48,
                                  rngmod.stream(92, rngmod.TAG_ORACLE, i))
            var.append(np.mean(f.values ** 2))
        assert abs(np.mean(var) - 1.0) <= 0.08

    def test_spherical_covariance_reproduced(self):
        m = SphericalAniso(sigma2=1.0, range_=5.0, tau_r=1.5)
        c10, c01 = [], []
        for i in range(200):
            f = simulate_gaussian(m, 40, 40,
                                  rngmod.stream(93, rngmod.TAG_ORACLE, i))
            c10.append(np.mean(f.values[:-1, :] * f.values[1:, :]))
            c01.append(np.mean(f.values[:, :-1] * f.values[:, 1:]))
        se10 = np.std(c10, ddof=1) / np.sqrt(len(c10))
        se01 = np.std(c01, ddof=1) / np.sqrt(len(c01))
        assert abs(np.mean(c10) - spherical_covariance(m, (1, 0))) <= 3 * se10
        assert abs(np.mean(c01) - spherical_covariance(m, (0, 1))) <= 3 * se01

    def test_marginal_gaussianity_pointwise(self):
        # fixed grid points across replicates are iid N(0, gamma(0))
        m = SphericalAniso(sigma2=1.0, range_=5.0)
        fields = np.array([
            simulate_gaussian(m, 16, 16,
                              rngmod.stream(94, rngmod.TAG_ORACLE, i)).values
            for i in range(200)])
        points = [(0, 0), (3, 7), (8, 2), (15, 15), (5, 5), (10, 13),
                  (2, 9), (7, 0), (12, 6), (1, 14)]
        passes = 0
        for (a, b) in points:
            _, pval = st.kstest(fields[:, a, b], "norm")
            passes += pval > 0.01
        assert passes >= 0.95 * len(points)

    def test_seed_determinism(self):
        m = SphericalAniso(sigma2=1.0, range_=5.0)
        a = simulate_gaussian(m, 20, 20, rngmod.stream(95, rngmod.TAG_FIELD, 3))
        b = simulate_gaussian(m, 20, 20, rngmod.stream(95, rngmod.TAG_FIELD, 3))
        assert np.array_equal(a.values, b.values)

    def test_rejects_non_gaussian_model(self):
        with pytest.raises(ConfigError):
            simulate_gaussian(SeparableARMA(0.2, -0.7), 8, 8,
                              rngmod.stream(96))

    def test_dense_fallback_matches_model(self):
        # drive the dense path directly and verify second moments
        from freqboot.simulate import _dense_cholesky
        m = SphericalAniso(sigma2=1.0, range_=2.0)
        chol = _dense_cholesky(m, 6, 6)
        sig = covariance_matrix(m, 6, 6)
        assert np.allclose(chol @ chol.T, sig, atol=1e-8)


class TestSeparable:
    def test_independent_product_moments(self):
        means, var = [], []
        for i in range(300):
            f = simulate_separable(SeparableARMA(0.0, 0.0), 20, 20,
                                   rngmod.stream(97, rngmod.TAG_ORACLE, i))
            means.append(f.values.mean())
            var.append(np.mean(f.values ** 2))
        assert abs(np.mean(means)) <= 0.02
        assert abs(np.mean(var) - 1.0) <= 0.05

    def test_lag_covariance_matches_closed_form(self):
        m = SeparableARMA(0.2, -0.7, "gaussian", "gaussian")
        target = model_autocovariance(m, (1, 0))
        covs = []
        for i in range(300):
            f = simulate_process(m, 40, 40,
                                 rngmod.stream(98, rngmod.TAG_ORACLE, i))
            covs.append(np.mean(f.values[:-1, :] * f.values[1:, :]))
        se = np.std(covs, ddof=1) / np.sqrt(len(covs))
        assert abs(np.mean(covs) - target) <= 3 * se

    def test_centered_exponential_innovations(self):
        draws = rngmod.stream(99).standard_exponential(200000) - 1.0
        assert abs(draws.mean()) <= 0.01
        assert abs(draws.var() - 1.0) <= 0.02


class TestTransformed:
    def test_centering_from_model(self):
        base = matern_model(alpha=1.0 / 3.0, nu=1.0)
        means = []
        for i in range(200):
            f = simulate_transformed(TransformedGaussian(base), 24, 24,
                                     rngmod.stream(101, rngmod.TAG_ORACLE, i))
            means.append(f.values.mean())
        se = np.std(means, ddof=1) / np.sqrt(len(means))
        assert abs(np.mean(means)) <= 3 * se

    def test_positive_skewness(self):
        base = matern_model(alpha=1.0 / 3.0, nu=1.0)
        skew_pos = 0
        for i in range(200):
            f = simulate_transformed(TransformedGaussian(base), 48, 48,
                                     rngmod.stream(102, rngmod.TAG_ORACLE, i))
            centered = f.values - f.values.mean()
            skew_pos += np.mean(centered ** 3) > 0
        assert skew_pos >= 0.95 * 200


class TestExpCholesky:
    def test_sample_covariance_in_three_se_bands(self):
        m = matern_model(alpha=1.0 / 3.0, nu=1.0)
        zs = np.array([
            simulate_exp_cholesky(m, 8, 8,
                                  rngmod.stream(103, rngmod.TAG_ORACLE, i)
                                  ).values.ravel()
            for i in range(500)])
        sample = zs.T @ zs / len(zs)
        sigma = covariance_matrix(m, 8, 8)
        se = np.sqrt((np.outer(np.diag(sigma), np.diag(sigma)) + sigma ** 2)
                     / len(zs))
        assert np.all(np.abs(sample - sigma) <= 3.0 * se)

    def test_positive_skewness_witness(self):
        # measured 0.94-0.98 across pre-run seeds at 50x50, so the frozen
        # bound is 0.90; skewness of 8x8 fields is far too noisy to
        # witness non-Gaussianity (pre-run rate 0.72)
        m = matern_model(alpha=1.0 / 3.0, nu=1.0)
        skew_pos = 0
        for i in range(200):
            f = simulate_exp_cholesky(m, 50, 50,
                                      rngmod.stream(104, rngmod.TAG_ORACLE, i))
            centered = f.values - f.values.mean()
            skew_pos += np.mean(centered ** 3) > 0
        assert skew_pos >= 0.90 * 200

    def test_rejects_over_dense_limit(self):
        m = matern_model(alpha=1.0 / 3.0, nu=1.0)
        with pytest.raises(ConfigError):
            simulate_exp_cholesky(m, 80, 80, rngmod.stream(105))
