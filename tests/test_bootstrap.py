"""Wild bootstrap draws, closed-form variance, hybrid rescaling."""

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given, settings
from hypothesis import strategies as hst

from freqboot import (BlockSpec, ConfigError, NumericalError,
                      SpectralDensityEstimate, WhiteNoise,
                      bootstrap_distribution, build_frequency_grid,
                      draw_exponential_weights, fdwb_statistic, fdwb_variance,
                      hfdb_statistic, periodogram, psi_cos_lag,
                      simulate_gaussian, subsample_ensemble,
                      variance_estimates)
from freqboot import rng as rngmod
from freqboot.bootstrap import _half_plane_reduction, fdwb_draws
from freqboot.simulate import TransformedGaussian, matern_model
from freqboot.spectral import PsiFunction

from conftest import TWO_PI


def _flat_density(n1, n2, c):
    grid = build_frequency_grid(n1, n2)
    return SpectralDensityEstimate(grid=grid, values=np.full((n1, n2), c),
                                   bandwidth=(1.0, 1.0))


class TestWeights:
    def test_symmetry_exact(self):
        grid = build_frequency_grid(6, 5)
        w = draw_exponential_weights(grid, rngmod.stream(71))
        for j in grid.indices:
            assert w[grid.position(j)] == w[grid.position(grid.negate(j))]

    def test_mean_one(self):
        grid = build_frequency_grid(5, 5)
        pos = grid.position((1, 1))
        vals = np.array([
            draw_exponential_weights(grid, rngmod.stream(72, 1, i))[pos]
            for i in range(10000)])
        assert abs(vals.mean() - 1.0) <= 0.03

    def test_exponential_distribution(self):
        grid = build_frequency_grid(5, 5)
        pos = grid.position((2, -1))
        vals = np.array([
            draw_exponential_weights(grid, rngmod.stream(73, 1, i))[pos]
            for i in range(10000)])
        _, pval = st.kstest(vals, "expon")
        assert pval > 0.01


class TestFdwbStatistic:
    def test_zero_density_gives_zero(self):
        de = _flat_density(4, 4, 0.0)
        for r in range(5):
            val = fdwb_statistic(de, psi_cos_lag((1, 0)),
                                 rngmod.stream(74, 1, r))
            assert val == 0.0

    def test_mean_within_monte_carlo_band(self):
        de = _flat_density(8, 8, 0.5)
        psi = psi_cos_lag((1, 0))
        draws = fdwb_draws(de, psi, 10000, master_seed=75)
        var_star = fdwb_variance(de, psi)
        assert abs(draws.mean()) <= 4.0 * np.sqrt(var_star / draws.size)

    def test_odd_psi_cancels_on_odd_grid(self):
        # psi odd, fhat even: paired terms cancel exactly; the direct
        # full-grid summation oracle confirms coefficient pairing
        de = _flat_density(3, 3, 0.5)
        psi_odd = PsiFunction("odd", lambda w1, w2: np.sin(w1), False)
        grid = de.grid
        for r in range(10):
            w = draw_exponential_weights(grid, rngmod.stream(76, 1, r))
            direct = 0.0
            for j in grid.indices:
                p = grid.position(j)
                wj = grid.frequency(j)
                direct += np.sin(wj[0]) * 0.5 * (w[p] - 1.0)
            direct *= TWO_PI ** 2 / np.sqrt(grid.n)
            assert direct == pytest.approx(0.0, abs=1e-12)
            assert fdwb_statistic(de, psi_odd, rngmod.stream(76, 1, r)) \
                == pytest.approx(0.0, abs=1e-12)


class TestStreamAddressing:
    @settings(max_examples=60, deadline=None)
    @given(n1=hst.integers(2, 9), n2=hst.integers(2, 9),
           lag=hst.tuples(hst.integers(-3, 3), hst.integers(-3, 3)),
           master_seed=hst.integers(0, (1 << 64) - 1),
           replicate_id=hst.integers(-(1 << 64), 1 << 66),
           B=hst.integers(1, 24), density_seed=hst.integers(0, 2 ** 32 - 1))
    def test_replicate_r_reads_stream_r(self, n1, n2, lag, master_seed,
                                        replicate_id, B, density_seed):
        # both grid parities; replicate ids past 2^63 and 2^64 wrap by
        # masking, exactly as in rng.stream
        grid = build_frequency_grid(n1, n2)
        values = np.random.default_rng(density_seed).uniform(0.1, 2.0, (n1, n2))
        de = SpectralDensityEstimate(grid=grid, values=values,
                                     bandwidth=(1.0, 1.0))
        psi = psi_cos_lag(lag)
        draws = fdwb_draws(de, psi, B, master_seed, replicate_id)
        cvec = _half_plane_reduction(de, psi)
        scale = TWO_PI ** 2 / np.sqrt(grid.n)
        assert draws.shape == (B,)
        for r in range(B):
            gen = rngmod.stream(master_seed, rngmod.TAG_BOOT, replicate_id, r)
            expected = scale * (cvec @ (gen.standard_exponential(cvec.size) - 1.0))
            assert draws[r] == expected


class TestFdwbVariance:
    def test_tiny_grid_closed_form(self):
        # 2x2 grid: 3 ordinates, all self-conjugate; formula gives 1.5 at
        # fhat = (2 pi)^-2, checked against the simulated draw variance
        de = _flat_density(2, 2, TWO_PI ** -2)
        psi = psi_cos_lag((0, 0))
        var_star = fdwb_variance(de, psi)
        assert var_star == pytest.approx(1.5, rel=1e-12)
        draws = fdwb_draws(de, psi, 100000, master_seed=77)
        assert draws.var() == pytest.approx(var_star, rel=0.03)

    def test_zero_psi(self):
        de = _flat_density(4, 4, 1.0)
        zero = PsiFunction("zero", lambda w1, w2: 0.0 * w1, True)
        assert fdwb_variance(de, zero) == 0.0

    def test_large_n_limit_matches_sigma1(self):
        for n in (16, 32, 64):
            de = _flat_density(n, n, TWO_PI ** -2)
            val = fdwb_variance(de, psi_cos_lag((0, 0)))
            assert val == pytest.approx(2.0 * (n * n - 1) / (n * n), rel=1e-12)


class TestHfdbStatistic:
    def test_zero_correction_is_identity(self):
        assert hfdb_statistic(1.37, 2.0, 0.0) == 1.37

    def test_arithmetic(self):
        assert hfdb_statistic(2.0, 1.0, 3.0) == pytest.approx(4.0)

    def test_rejects_degenerate(self):
        with pytest.raises(NumericalError):
            hfdb_statistic(1.0, 0.0, 1.0)

    def test_scaling_audit(self, rng):
        de = _flat_density(8, 8, 0.3)
        psi = psi_cos_lag((1, 0))
        var_star = fdwb_variance(de, psi)
        sigma2 = 0.7
        draws = fdwb_draws(de, psi, 10000, master_seed=78)
        scaled = np.sqrt((var_star + sigma2) / var_star) * draws
        assert scaled.var() == pytest.approx(var_star + sigma2, rel=0.05)


class TestBootstrapDistribution:
    def _white_field(self, seed=80):
        return simulate_gaussian(WhiteNoise(1.0), 16, 16,
                                 rngmod.stream(seed, rngmod.TAG_FIELD, 0))

    def test_fdwb_equals_hfdb_with_forced_zero(self):
        f = self._white_field()
        psi = psi_cos_lag((1, 0))
        d1 = bootstrap_distribution(f, psi, None, 200, "fdwb", 81)
        d2 = bootstrap_distribution(f, psi, None, 200, "hfdb", 81,
                                    sigma2_sq=0.0)
        assert np.array_equal(d1.values, d2.values)

    def test_bias_shift_is_exact(self):
        f = self._white_field()
        psi = psi_cos_lag((1, 0))
        spec = BlockSpec(4, 4)
        plain = bootstrap_distribution(f, psi, spec, 200, "hfdb", 82)
        biased = bootstrap_distribution(f, psi, spec, 200, "hfdb_bias", 82)
        assert biased.bias_sub != 0.0
        assert np.array_equal(biased.values, plain.values + biased.bias_sub)
        assert np.mean(biased.values) - np.mean(plain.values) == pytest.approx(
            biased.bias_sub, rel=1e-12)

    def test_recorded_total_var_audit(self):
        f = self._white_field()
        d = bootstrap_distribution(f, psi_cos_lag((1, 0)), BlockSpec(4, 4),
                                   200, "hfdb", 83)
        assert d.recorded_total_var == d.var_star + d.sigma2_floored
        assert d.sigma2_floored == max(d.sigma2_raw, 0.0)

    def test_deterministic_for_seed(self):
        f = self._white_field()
        psi = psi_cos_lag((1, 0))
        a = bootstrap_distribution(f, psi, BlockSpec(4, 4), 150, "hfdb", 84)
        b = bootstrap_distribution(f, psi, BlockSpec(4, 4), 150, "hfdb", 84)
        assert np.array_equal(a.values, b.values)

    def test_rejects_small_b_and_bad_kind(self):
        f = self._white_field()
        with pytest.raises(ConfigError):
            bootstrap_distribution(f, psi_cos_lag((1, 0)), None, 50, "fdwb", 0)
        with pytest.raises(ConfigError):
            bootstrap_distribution(f, psi_cos_lag((1, 0)), None, 200, "wild", 0)

    def test_hfdb_needs_block_or_override(self):
        f = self._white_field()
        with pytest.raises(ConfigError):
            bootstrap_distribution(f, psi_cos_lag((1, 0)), None, 200, "hfdb", 0)

    def test_hfdb_conditional_clt(self):
        # draws standardized by the recorded total variance pass KS
        f = simulate_gaussian(WhiteNoise(1.0), 48, 48,
                              rngmod.stream(61, rngmod.TAG_FIELD, 0))
        psi = psi_cos_lag((1, 0))
        d = bootstrap_distribution(f, psi, BlockSpec(8, 8), 2000, "hfdb", 61)
        _, pval = st.kstest(d.values / np.sqrt(d.recorded_total_var), "norm")
        assert pval > 0.01


class TestDistributionalConsistency:
    def test_hfdb_tracks_sampling_distribution_along_sizes(self):
        # Theorem 2(b) proxy on the quartic-transformed Matern process (a
        # non-Gaussian model whose spectral means obey the CLT; the
        # separable product process does not, see the decisions ledger):
        # median two-sample KS between HFDB draws and the Monte Carlo
        # distribution of H_n shrinks from 30^2 to 50^2
        psi = psi_cos_lag((1, 0))
        model = TransformedGaussian(base=matern_model(1.0 / 3.0, 1.0),
                                    transform="quartic")
        from freqboot import model_autocovariance, spectral_mean
        from freqboot.simulate import simulate_process
        truth = model_autocovariance(model, (1, 0))
        medians = []
        for n in (30, 50):
            hs = []
            for i in range(1200):
                f = simulate_process(model, n, n,
                                     rngmod.stream(51, rngmod.TAG_ORACLE, i))
                m = np.sqrt(n * n) * (
                    spectral_mean(periodogram(f), psi).value - truth)
                hs.append(m)
            hs = np.asarray(hs)
            b = int(np.ceil((n * n) ** 0.25))
            ks = []
            for i in range(12):
                f = simulate_process(model, n, n,
                                     rngmod.stream(52, rngmod.TAG_FIELD, i))
                d = bootstrap_distribution(f, psi, BlockSpec(b, b), 500,
                                           "hfdb", 53, replicate_id=i)
                ks.append(st.ks_2samp(d.values, hs).statistic)
            medians.append(np.median(ks))
        assert medians[1] < medians[0]
