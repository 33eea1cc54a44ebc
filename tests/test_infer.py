"""Confidence intervals, sample variograms, and the isotropy test."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from freqboot import (BlockSpec, ConfigError, FieldResampler, LatticeField,
                      SphericalAniso, WhiteNoise, calibrate_isotropy,
                      confidence_interval, isotropy_test, periodogram,
                      psi_cos_lag, psi_isotropy_contrast, resampled_interval,
                      sample_variogram, simulate_gaussian, spectral_mean)
from freqboot import _pool
from freqboot import bootstrap as bootstrap_module
from freqboot import rng as rngmod
from freqboot.bootstrap import BootstrapDraws
from freqboot.infer import _type7_quantiles, p_value_from_replicates
from freqboot.spectral import SpectralMeanValue

PSI = psi_cos_lag((1, 0))


def _draws(values, kind="fdwb"):
    return BootstrapDraws(values=np.asarray(values, dtype=float), var_star=1.0,
                          kind=kind)


class TestConfidenceInterval:
    def test_degenerate_draws(self):
        mhat = SpectralMeanValue(0.37, 100)
        ci = confidence_interval(mhat, _draws(np.zeros(200)), 0.9)
        assert (ci.lower, ci.upper) == (0.37, 0.37)
        assert ci.covers(0.37)

    def test_symmetric_draws_symmetric_interval(self, rng):
        vals = rng.standard_normal(501)
        vals = np.concatenate([vals, -vals])  # exactly symmetric
        mhat = SpectralMeanValue(1.0, 400)
        ci = confidence_interval(mhat, _draws(vals), 0.9)
        assert (ci.upper - 1.0) == pytest.approx(1.0 - ci.lower, rel=1e-9)

    def test_quantile_arithmetic(self):
        # type-7 quantiles of a linear ramp hit -1.6 and 1.7 at 5% / 95%
        lo, hi = -1.6, 1.7
        c = lo - 0.05 * (hi - lo) / 0.9
        d = hi + 0.05 * (hi - lo) / 0.9
        vals = np.linspace(c, d, 1001)
        mhat = SpectralMeanValue(0.3, 100)
        ci = confidence_interval(mhat, _draws(vals), 0.9)
        assert ci.lower == pytest.approx(0.3 - 1.7 / 10.0, abs=1e-9)
        assert ci.upper == pytest.approx(0.3 + 1.6 / 10.0, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(B=hst.integers(100, 700), level=hst.floats(0.51, 0.99),
           seed=hst.integers(0, 2 ** 32 - 1))
    def test_tails_match_two_scalar_quantiles(self, B, level, seed):
        vals = np.random.default_rng(seed).standard_normal(B)
        mhat = SpectralMeanValue(0.3, 2500)
        ci = confidence_interval(mhat, _draws(vals), level)
        a = 1.0 - level
        assert ci.upper == 0.3 - float(np.quantile(vals, a / 2.0)) / np.sqrt(2500)
        assert ci.lower == 0.3 - float(np.quantile(vals, 1.0 - a / 2.0)) / np.sqrt(2500)

    @settings(max_examples=300, deadline=None)
    @given(n=hst.integers(2, 5000),
           level=hst.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
           pool=hst.lists(hst.floats(allow_nan=False, allow_infinity=False),
                          min_size=1, max_size=4),
           spread=hst.sampled_from(("normal", "ties", "constant")),
           seed=hst.integers(0, 2 ** 32 - 1))
    def test_type7_helper_is_numpy_quantile(self, n, level, pool, spread,
                                            seed):
        # both tails of an interval bit for bit as np.quantile reads them,
        # for distinct, tied and constant values of either parity; the
        # sign of a zero quantile may differ where -0.0 and 0.0 tie, as
        # the two compare equal and may be ordered either way
        rng = np.random.default_rng(seed)
        vals = {"normal": lambda: (rng.standard_normal(n)
                                   * min(abs(pool[0]), 1e300)),
                "ties": lambda: rng.choice(pool, n),
                "constant": lambda: np.full(n, pool[0])}[spread]()
        a = 1.0 - level
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.quantile(vals, [a / 2.0, 1.0 - a / 2.0])
        got = np.array(_type7_quantiles(vals, (a / 2.0, 1.0 - a / 2.0)))
        assert np.array_equal((got + 0.0).view(np.int64),
                              (want + 0.0).view(np.int64)), (got, want)

    def test_rejects_few_draws_and_bad_level(self):
        mhat = SpectralMeanValue(0.0, 100)
        with pytest.raises(ConfigError):
            confidence_interval(mhat, _draws(np.zeros(50)), 0.9)
        with pytest.raises(ConfigError):
            confidence_interval(mhat, _draws(np.zeros(200)), 0.4)


class TestSubsampleCI:
    def test_degenerate_blocks(self):
        res = FieldResampler(LatticeField(np.full((6, 6), 1.0)), PSI, 0, 0)
        res.mhat = SpectralMeanValue(0.2, 36)
        ci = resampled_interval(res, "subsample", BlockSpec(3, 3), 0.9)
        assert (ci.lower, ci.upper) == (0.2, 0.2)

    def test_three_point_edf_quantiles(self, monkeypatch):
        import freqboot.infer as inf

        monkeypatch.setattr(inf, "subsample_edf",
                            lambda ens: np.array([-1.0, 0.0, 1.0]))
        res = FieldResampler(LatticeField(np.zeros((4, 4))), PSI, 0, 0)
        res.mhat = SpectralMeanValue(0.5, 100)
        ci = inf.resampled_interval(res, "subsample", BlockSpec(3, 3), 0.9)
        # type-7 quantiles of {-1, 0, 1}: q05 = -0.9, q95 = 0.9
        assert ci.lower == pytest.approx(0.5 - 0.09)
        assert ci.upper == pytest.approx(0.5 + 0.09)

    def test_white_noise_coverage_bracket(self):
        hits = 0
        for i in range(500):
            f = simulate_gaussian(WhiteNoise(1.0), 48, 48,
                                  rngmod.stream(111, rngmod.TAG_ORACLE, i))
            res = FieldResampler(f, PSI, 0, 0)
            ci = resampled_interval(res, "subsample", BlockSpec(8, 8), 0.9)
            hits += ci.covers(0.0)
        assert 0.84 <= hits / 500 <= 0.95


class TestSampleVariogram:
    def test_constant_field(self):
        assert sample_variogram(LatticeField(np.full((4, 4), 2.0)), (1, 0)) == 0.0

    def test_hand_enumeration(self):
        f = LatticeField(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert sample_variogram(f, (1, 0)) == pytest.approx(4.0)
        assert sample_variogram(f, (0, 1)) == pytest.approx(1.0)

    def test_negative_lag_symmetry(self, rng):
        f = LatticeField(rng.standard_normal((6, 5)))
        for h in [(1, 0), (1, 1), (2, 1)]:
            assert sample_variogram(f, h) == pytest.approx(
                sample_variogram(f, (-h[0], -h[1])), rel=1e-12)

    def test_rejects_bad_lags(self):
        f = LatticeField(np.zeros((3, 3)))
        with pytest.raises(ConfigError):
            sample_variogram(f, (0, 0))
        with pytest.raises(ConfigError):
            sample_variogram(f, (3, 0))


class TestPValueConvention:
    def test_strict_count(self):
        sq = np.array([0.1, 0.5, 2.0, 3.0])
        assert p_value_from_replicates(sq, 1.0) == 0.5
        assert p_value_from_replicates(sq, 10.0) == 0.0

    def test_plus_one_variant(self):
        sq = np.array([0.1, 0.5, 2.0, 3.0])
        assert p_value_from_replicates(sq, 10.0, plus_one=True) == pytest.approx(0.2)


class TestIsotropyTest:
    def test_transpose_symmetric_field(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((20, 20))
        f = LatticeField(a + a.T)
        res = isotropy_test(f, (1, 0), (0, 1), method="subsample",
                            spec=BlockSpec(5, 5))
        assert res.ts <= 1e-18
        assert res.p_value == 1.0

    def test_strongly_anisotropic_field_rejects(self):
        # pure horizontal stripes: variogram along rows is 0
        vals = np.tile(np.sin(np.arange(30) * 1.3)[:, None], (1, 30))
        f = LatticeField(vals + 0.01 * np.random.default_rng(7).standard_normal((30, 30)))
        res = isotropy_test(f, (1, 0), (0, 1), method="subsample",
                            spec=BlockSpec(6, 6))
        assert res.p_value == 0.0

    def test_mean_shift_invariance(self, rng):
        vals = rng.standard_normal((16, 16))
        r1 = isotropy_test(LatticeField(vals), (1, 0), (0, 1),
                           method="subsample", spec=BlockSpec(4, 4))
        r2 = isotropy_test(LatticeField(vals + 5.0), (1, 0), (0, 1),
                           method="subsample", spec=BlockSpec(4, 4))
        assert r2.ts == pytest.approx(r1.ts, rel=1e-8, abs=1e-14)

    def test_bootstrap_backends_run(self, rng):
        f = simulate_gaussian(WhiteNoise(1.0), 16, 16,
                              rngmod.stream(113, rngmod.TAG_FIELD, 0))
        for method in ("fdwb", "hfdb"):
            res = isotropy_test(f, (1, 0), (0, 1), method=method,
                                spec=BlockSpec(4, 4), B=150, master_seed=9)
            assert 0.0 <= res.p_value <= 1.0
            assert res.ts >= 0.0

    def test_warns_on_unequal_norms(self, rng):
        f = LatticeField(rng.standard_normal((12, 12)))
        with pytest.warns(UserWarning):
            isotropy_test(f, (2, 0), (0, 1), method="subsample",
                          spec=BlockSpec(4, 4))

    def test_rejects_unknown_method(self, rng):
        f = LatticeField(rng.standard_normal((8, 8)))
        with pytest.raises(ConfigError):
            isotropy_test(f, (1, 0), (0, 1), method="hfdb_bias",
                          spec=BlockSpec(4, 4))

    def test_spectral_and_variogram_forms_converge(self):
        # the two renditions of the contrast agree asymptotically; their
        # gap shrinks along the size ladder (medians from a pre-run:
        # 0.036, 0.013, 0.005)
        psi = psi_isotropy_contrast((1, 0), (0, 1))
        gaps = []
        for n in (16, 32, 64):
            g = []
            for i in range(80):
                f = simulate_gaussian(WhiteNoise(1.0), n, n,
                                      rngmod.stream(112, rngmod.TAG_ORACLE, i))
                m = spectral_mean(periodogram(f), psi).value
                vd = sample_variogram(f, (1, 0)) - sample_variogram(f, (0, 1))
                g.append(abs(m + vd))  # M targets the negated contrast
            gaps.append(np.median(g))
        assert gaps[0] > gaps[1] > gaps[2]


class TestTwoPsiOnOneField:
    @pytest.mark.parametrize("n", [24, 128])
    def test_two_psi_share_one_fill(self, monkeypatch, n):
        # an hfdb isotropy test and an hfdb_bias interval of one field
        # read one bootstrap address, so r_iso.ensembles([spec], [r_iso,
        # r_ci]) fills their weight rows once for both, and the p-value,
        # the interval and the draws are those of separate isotropy_test
        # and resampled_interval calls, bit for bit.  At 128 x 128 the
        # rows (m = 8,193) are filled on threads.
        f = simulate_gaussian(SphericalAniso(sigma2=1.0, range_=5.0), n, n,
                              rngmod.stream(17, rngmod.TAG_FIELD, 0))
        spec, B, seed, index = BlockSpec(6, 6), 100, 17, 3
        r_iso = FieldResampler(f, psi_isotropy_contrast((1, 0), (0, 1)), B,
                               seed, index)
        r_ci = FieldResampler(f, PSI, B, seed, index)
        m = int(r_ci.pgram.grid.half_plane_mask.sum())
        assert bootstrap_module._fills_on_threads(m) == (n == 128)
        fills = []
        fdwb = bootstrap_module._fdwb

        def counted(fields, *args):
            fills.append(len(fields))
            return fdwb(fields, *args)

        monkeypatch.setattr(_pool, "cpus", lambda: 2)
        monkeypatch.setattr(bootstrap_module, "_fdwb", counted)
        r_iso.ensembles([spec], [r_iso, r_ci])
        assert fills == [2]
        test = calibrate_isotropy(r_iso, "hfdb", spec)
        ci = resampled_interval(r_ci, "hfdb_bias", spec, 0.9)
        assert fills == [2]
        monkeypatch.undo()

        assert test == isotropy_test(f, (1, 0), (0, 1), "hfdb", spec, B,
                                     seed, index)
        alone = FieldResampler(f, PSI, B, seed, index)
        assert ci == resampled_interval(alone, "hfdb_bias", spec, 0.9)
        for kind in ("fdwb", "hfdb", "hfdb_bias"):
            assert np.array_equal(r_ci.draws(kind, spec).values,
                                  alone.draws(kind, spec).values)
        iso_alone = FieldResampler(f, r_iso.psi, B, seed, index)
        assert np.array_equal(r_iso.draws("hfdb", spec).values,
                              iso_alone.draws("hfdb", spec).values)
