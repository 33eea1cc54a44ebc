"""Psi catalog, spectral mean statistic, and variance oracles."""

import pickle
import re

import numpy as np
import pytest
import scipy.stats as st

from freqboot import (ConfigError, FieldResampler, LatticeField,
                      NumericalError, WhiteNoise, build_frequency_grid,
                      periodogram, psi_cos_lag, psi_from_name,
                      psi_isotropy_contrast, psi_spectral_cdf, spectral_mean)
from freqboot import rng as rngmod
from freqboot.simulate import SeparableARMA, simulate_gaussian
from freqboot.spectral import PsiFunction, SpectralMeanValue

from conftest import (analytic_limits, analytic_sigma1_sq, brute_spectral_mean,
                      centered_statistic)


class TestPsiCatalog:
    def test_cos_lag_values(self):
        psi = psi_cos_lag((1, 0))
        assert psi((np.pi, 0.3)) == pytest.approx(-1.0)
        assert psi((np.pi / 3, 5.0)) == pytest.approx(0.5)
        assert psi_cos_lag((0, 0))((0.4, -2.2)) == 1.0

    def test_spectral_cdf_values(self):
        assert psi_spectral_cdf((np.pi, np.pi))((1.0, -2.0)) == 1.0
        assert psi_spectral_cdf((0, 0))((-1.0, -1.0)) == 1.0
        assert psi_spectral_cdf((0, 0))((0.5, -1.0)) == 0.0

    def test_iso_contrast_values(self):
        psi = psi_isotropy_contrast((1, 0), (0, 1))
        for a in (0.0, 0.3, -1.2):
            assert psi((a, a)) == pytest.approx(0.0, abs=1e-14)
        assert psi((np.pi, 0.0)) == pytest.approx(-4.0)
        flipped = psi_isotropy_contrast((0, 1), (1, 0))
        for w in [(0.1, 0.7), (-2.0, 1.3)]:
            assert flipped(w) == pytest.approx(-psi(w))

    def test_iso_contrast_rejects_equal_lags(self):
        with pytest.raises(ConfigError):
            psi_isotropy_contrast((1, 0), (1, 0))

    def test_bounded_and_even_on_sampling_grid(self):
        w = np.linspace(-np.pi, np.pi, 101)
        for psi in (psi_cos_lag((2, 1)), psi_isotropy_contrast((1, 0), (0, 1))):
            vals = psi.fn(w[:, None], w[None, :])
            assert np.max(np.abs(vals)) < 1e6
            assert np.allclose(vals, psi.fn(-w[:, None], -w[None, :]),
                               atol=1e-12)

    def test_name_parsing(self):
        for spec in ["cos_lag{h=(1,0)}", "iso_contrast{h1=(1,0),h2=(0,1)}",
                     "spectral_cdf{t=(0,0)}"]:
            psi = psi_from_name(spec)
            assert psi.name.replace(".0", "") == spec
        with pytest.raises(ConfigError):
            psi_from_name("nope{h=(1,0)}")
        with pytest.raises(ConfigError):
            psi_from_name("cos_lag")

    @pytest.mark.parametrize("spec", [
        "cos_lag{h=(1.7,0)}",                      # non-integer lag
        "cos_lag{h=(0,-2.5)}",
        "iso_contrast{h1=(1.5,0),h2=(0,1)}",
        "iso_contrast{h1=(1,0),h2=(0,0.5)}",
        "cos_lag{h=(1.2.3,0)}",                    # not a number
        "cos_lag{h=(1,0),zzz}",                    # trailing junk
        "cos_lag{h=(1,0),}",
        "iso_contrast{h1=(1,0),h2=(0,1)junk}",
        "cos_lag{h=(1,0),h=(2,0)}",                # duplicate key
        "iso_contrast{h1=(1,0),h2=(0,1),h1=(2,0)}",
        "spectral_cdf{t=(0,0),t=(1,1)}",
    ])
    def test_name_parsing_is_strict(self, spec):
        with pytest.raises(ConfigError, match=re.escape(repr(spec))):
            psi_from_name(spec)

    def test_spectral_cdf_corner_may_be_real(self):
        assert psi_from_name("spectral_cdf{t=(0.5,-1.25)}").name == \
            "spectral_cdf{t=(0.5,-1.25)}"


def _cos_first(w1, w2):
    return np.cos(w1) + 0.5 * np.cos(w2)


class TestOnGrid:
    def test_one_evaluation_per_grid_for_a_field(self, rng):
        shapes = []

        def fn(w1, w2):
            shapes.append(np.broadcast_shapes(np.shape(w1), np.shape(w2)))
            return _cos_first(w1, w2)

        res = FieldResampler(LatticeField(rng.standard_normal((12, 10))),
                             PsiFunction("counted", fn), 120, 1)
        res.mhat, res.var_star, res.base_draws
        assert shapes == [(12, 10)]
        vals = res.psi.on_grid(build_frequency_grid(12, 10))
        assert not vals.flags.writeable
        with pytest.raises(ValueError):
            vals[0, 1] = 0.0

    def test_values_are_those_of_fn(self):
        grid = build_frequency_grid(6, 7)
        vals = PsiFunction("c", _cos_first).on_grid(grid)
        assert np.array_equal(vals, _cos_first(grid.omega1[:, None],
                                               grid.omega2[None, :]))

    def test_cache_is_not_part_of_the_value(self):
        used, fresh = PsiFunction("c", _cos_first), PsiFunction("c", _cos_first)
        used.on_grid(build_frequency_grid(8, 8))
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert pickle.dumps(used) == pickle.dumps(fresh)
        back = pickle.loads(pickle.dumps(used))
        assert back == used and back._on_grid == {}


class TestSpectralMean:
    def test_psi_one_is_biased_sample_variance(self, rng):
        vals = rng.standard_normal((6, 5)) + 1.7
        mhat = spectral_mean(periodogram(LatticeField(vals)), psi_cos_lag((0, 0)))
        assert mhat.value == pytest.approx(np.mean(vals ** 2) - np.mean(vals) ** 2,
                                           rel=1e-10)

    def test_zero_field(self):
        mhat = spectral_mean(periodogram(LatticeField(np.zeros((4, 4)))),
                             psi_cos_lag((1, 0)))
        assert mhat.value == 0.0

    def test_matches_double_loop_oracle(self, rng):
        vals = rng.standard_normal((4, 4))
        psi = psi_cos_lag((1, 0))
        mhat = spectral_mean(periodogram(LatticeField(vals)), psi)
        oracle = brute_spectral_mean(vals, lambda w: np.cos(w[0]))
        assert mhat.value == pytest.approx(oracle, rel=1e-10)

    def test_linearity_exact(self, rng):
        vals = rng.standard_normal((5, 5))
        pg = periodogram(LatticeField(vals))
        p1, p2 = psi_cos_lag((1, 0)), psi_cos_lag((0, 1))
        import freqboot.spectral as sp
        combined = sp.PsiFunction(
            "combo", lambda w1, w2: p1.fn(w1, w2) + 2.5 * p2.fn(w1, w2), True)
        lhs = spectral_mean(pg, combined).value
        rhs = spectral_mean(pg, p1).value + 2.5 * spectral_mean(pg, p2).value
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_centered_statistic_arithmetic(self):
        assert centered_statistic(SpectralMeanValue(1.3, 50), 1.3) == 0.0
        assert centered_statistic(SpectralMeanValue(0.5, 100), 0.0) == pytest.approx(5.0)
        assert centered_statistic(SpectralMeanValue(-0.1, 900), 0.0) == pytest.approx(-3.0)


class TestAnalyticSigma1:
    def test_white_noise_psi_one(self):
        val = analytic_sigma1_sq(WhiteNoise(1.0), psi_cos_lag((0, 0)))
        assert val == pytest.approx(2.0, rel=1e-6)

    def test_white_noise_cos_lag(self):
        val = analytic_sigma1_sq(WhiteNoise(1.0), psi_cos_lag((1, 0)))
        assert val == pytest.approx(1.0, rel=1e-6)

    def test_zero_psi(self):
        import freqboot.spectral as sp
        zero = sp.PsiFunction("zero", lambda w1, w2: 0.0 * w1, True)
        assert analytic_sigma1_sq(WhiteNoise(1.0), zero) == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_limits_have_zero_sigma2(self):
        lim = analytic_limits(WhiteNoise(1.0), psi_cos_lag((1, 0)))
        assert lim.sigma2_sq == 0.0
        assert lim.sigma1_sq == pytest.approx(1.0, rel=1e-6)

    def test_non_gaussian_model_rejected(self):
        with pytest.raises(NumericalError):
            analytic_limits(SeparableARMA(0.2, -0.7, "exponential_centered",
                                          "exponential_centered"),
                            psi_cos_lag((1, 0)))


class TestSamplingDistribution:
    def test_clt_against_standard_normal(self):
        # H_n with psi = cos(w1), M = 0, sigma^2 = sigma1^2 = 1 for unit
        # white noise; KS against N(0,1) at level 0.01
        psi = psi_cos_lag((1, 0))
        hs = []
        for i in range(500):
            f = simulate_gaussian(WhiteNoise(1.0), 64, 64,
                                  rngmod.stream(21, rngmod.TAG_ORACLE, i))
            mhat = spectral_mean(periodogram(f), psi)
            hs.append(centered_statistic(mhat, 0.0))
        _, pval = st.kstest(np.asarray(hs), "norm")
        assert pval > 0.01

    def test_psi_one_mean_consistency(self):
        vals = []
        for i in range(300):
            f = simulate_gaussian(WhiteNoise(1.0), 32, 32,
                                  rngmod.stream(22, rngmod.TAG_ORACLE, i))
            vals.append(spectral_mean(periodogram(f), psi_cos_lag((0, 0))).value)
        se = np.std(vals, ddof=1) / np.sqrt(len(vals))
        # biased sample variance targets (1 - 1/n) for unit white noise
        assert abs(np.mean(vals) - (1.0 - 1.0 / 1024)) <= 3.0 * se
