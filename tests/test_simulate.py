"""Field generators: moment checks against model covariances."""

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
import scipy.stats as st

from freqboot import (ConfigError, MaternSpectral, NumericalError,
                      SeparableARMA, SphericalAniso, TransformedGaussian,
                      WhiteNoise, anisotropy_matrix, matern_model,
                      model_autocovariance, model_spectral_density,
                      simulate_exp_cholesky, simulate_gaussian,
                      simulate_process, simulate_separable,
                      simulate_transformed)
from freqboot import rng as rngmod
from freqboot import simulate as simulate_module
from freqboot.simulate import covariance_matrix, gamma0

from conftest import quadrature


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
        assert model_autocovariance(m, (0, 0)) == pytest.approx(2.3)
        assert model_autocovariance(m, (3, 4)) == pytest.approx(0.0)  # r = range
        iso = SphericalAniso(sigma2=1.0, range_=5.0, tau_a=0.0, tau_r=1.0)
        assert np.allclose(anisotropy_matrix(0.0, 1.0), np.eye(2))
        r = np.hypot(1, 2)
        u = r / 5.0
        assert model_autocovariance(iso, (1, 2)) == pytest.approx(
            1.0 - 1.5 * u + 0.5 * u ** 3)

    def test_spherical_validation(self):
        with pytest.raises(ConfigError):
            SphericalAniso(sigma2=1.0, range_=5.0, tau_r=0.5)

    @pytest.mark.parametrize("build", [
        lambda: WhiteNoise(np.nan),
        lambda: WhiteNoise(np.inf),
        lambda: MaternSpectral(phi=np.nan, alpha=1.0, nu=1.0),
        lambda: MaternSpectral(phi=1.0, alpha=np.inf, nu=1.0),
        lambda: MaternSpectral(phi=1.0, alpha=1.0, nu=np.nan),
        lambda: SphericalAniso(sigma2=np.nan),
        lambda: SphericalAniso(range_=np.inf),
        lambda: SphericalAniso(eta=np.nan),
        lambda: SphericalAniso(tau_a=np.nan),
        lambda: SphericalAniso(tau_r=np.nan),
        lambda: SeparableARMA(ar=0.2, ma=np.nan),
        lambda: SeparableARMA(ar=np.nan, ma=0.0),
    ], ids=["wn-nan", "wn-inf", "matern-phi", "matern-alpha", "matern-nu",
            "sph-sigma2", "sph-range", "sph-eta", "sph-tau_a", "sph-tau_r",
            "sep-ma", "sep-ar"])
    def test_descriptors_refuse_non_finite_parameters(self, build):
        # nan passes every "<= 0" range check, so each of these built, and
        # SphericalAniso(tau_a=nan) simulated an all-zero field
        with pytest.raises(ConfigError, match="must be finite"):
            build()

    @pytest.mark.parametrize("build, words", [
        (lambda: WhiteNoise(-1.0), "variance must be >= 0, got -1.0"),
        (lambda: MaternSpectral(phi=1.0, alpha=0.0, nu=1.0),
         "alpha must be > 0, got 0.0"),
        (lambda: SphericalAniso(eta=-0.5), "eta must be >= 0, got -0.5"),
        (lambda: SphericalAniso(range_=2.0, tau_r=0.5),
         "tau_r must be >= 1, got 0.5"),
        (lambda: SeparableARMA(ar=-1.0), "ar must lie in (-1, 1), got -1.0"),
        (lambda: SeparableARMA(innov2="cauchy"),
         "innov2 must be one of ('gaussian', 'exponential_centered'), "
         "got 'cauchy'"),
    ], ids=["wn-variance", "matern-alpha", "sph-eta", "sph-tau_r", "sep-ar",
            "sep-innov2"])
    def test_descriptors_refuse_a_parameter_by_its_name(self, build, words):
        # each rule is one entry of simulate.RULES, which the CLI's
        # process.* keys read too
        with pytest.raises(ConfigError) as refused:
            build()
        assert str(refused.value) == words

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
            assert val == pytest.approx(model_autocovariance(m, h), rel=1e-8)


def _irfft2_lags(alpha: float, nu: float, r1: int, r2: int) -> np.ndarray:
    """The Matern lag table through one whole-torus irfft2 per torus, on
    the tori that ``_matern_lags`` doubles through: the oracle for its
    blocked passes."""
    model = MaternSpectral(phi=1.0, alpha=alpha, nu=nu)
    p, prev = max(64, 2 * (min(r1, r2) + 1)), None
    while True:
        m1, m2 = max(p, 2 * (r1 + 1)), max(p, 2 * (r2 + 1))
        w1 = 2.0 * np.pi * simulate_module._signed_indices(m1)[:, None] / m1
        w2 = 2.0 * np.pi * np.arange(m2 // 2 + 1)[None, :] / m2
        lam = (2.0 * np.pi) ** 2 * model_spectral_density(model, w1, w2)
        lags = np.fft.irfft2(lam, s=(m1, m2))[:r1 + 1, :r2 + 1]
        if prev is not None and np.max(np.abs(lags - prev)) <= 1e-6 * lags[0, 0]:
            return lags
        prev, p = lags, 2 * p


class TestMaternLagTable:
    @pytest.mark.parametrize("n", [8, 20])
    def test_dense_covariance_is_the_autocovariance(self, n):
        # the exp-Cholesky factor realises the covariance that the
        # coverage truths assume
        m = matern_model(alpha=1.0 / 3.0, nu=1.0)
        sigma = covariance_matrix(m, n, n)
        tol = 2e-6 * gamma0(m)
        for h1 in range(n):
            for h2 in range(n):
                g = model_autocovariance(m, (h1, h2))
                # rows (h1, h2) and (h1, 0) against columns (0, 0) and (0, h2)
                assert abs(sigma[h1 * n + h2, 0] - g) <= tol
                assert abs(sigma[h1 * n, h2] - g) <= tol

    @pytest.mark.parametrize("alpha, nu", [(1.0 / 3.0, 1.0), (1.0, 1.0),
                                           (2.0, 1.0), (1.0, 0.5)])
    def test_autocovariance_matches_quadrature(self, alpha, nu):
        m = MaternSpectral(phi=1.0, alpha=alpha, nu=nu)

        def integrand(h):
            return lambda w1, w2: (model_spectral_density(m, w1, w2)
                                   * np.cos(h[0] * w1 + h[1] * w2))

        g0 = quadrature(integrand((0, 0)))
        for h in [(0, 0), (1, 0), (5, 0), (8, 0), (3, 4)]:
            want = quadrature(integrand(h), scale=g0)
            assert abs(model_autocovariance(m, h) - want) <= 2e-6 * g0

    @pytest.mark.parametrize("alpha, nu, r1, r2", [
        (1.0 / 3.0, 1.0, 5, 9), (1.0, 1.0, 40, 3), (1.0, 0.5, 200, 150)])
    @pytest.mark.parametrize("block", [None, 700])
    def test_table_equals_whole_torus_irfft2(self, monkeypatch, alpha, nu,
                                             r1, r2, block):
        # at 700 points a block every pass has several blocks, the last
        # ragged; at the default, tori past 2^16 points do too
        if block is not None:
            monkeypatch.setattr(simulate_module, "_BLOCK", block)
        got = simulate_module._matern_lags.__wrapped__(alpha, nu, r1, r2)
        want = _irfft2_lags(alpha, nu, r1, r2)
        assert got.shape == (r1 + 1, r2 + 1) and got.flags.c_contiguous
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_unsettled_table_raises_naming_the_model(self, monkeypatch):
        # alpha = 2 needs a 2048 x 2048 torus; nu = 1.25 is used nowhere
        # else, so no cached table answers first
        monkeypatch.setattr(simulate_module, "_TORUS_CAP", 128)
        with pytest.raises(NumericalError, match="alpha=2.0, nu=1.25"):
            matern_model(alpha=2.0, nu=1.25)

    def test_large_table_settles_on_its_second_torus_past_the_cap(self, monkeypatch):
        # a reach-(40, 40) table is read on 82^2 points and confirmed on
        # 164^2, past a cap of 128^2: a large table may use the 16 (r + 1)^2
        # points its second torus needs
        monkeypatch.setattr(simulate_module, "_TORUS_CAP", 128)
        table = simulate_module._matern_lags.__wrapped__(0.5, 2.0, 40, 40)
        assert table.shape == (41, 41)


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
        assert abs(np.mean(c10) - model_autocovariance(m, (1, 0))) <= 3 * se10
        assert abs(np.mean(c01) - model_autocovariance(m, (0, 1))) <= 3 * se01

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


def _torus_covariance(model, m1: int, m2: int) -> np.ndarray:
    """The model's lag covariance wrapped on an m1 x m2 torus: phi times
    the Matern lag table of the torus's half extents, or the spherical
    covariance."""
    sm = simulate_module
    h1 = sm._signed_indices(m1)[:, None]
    h2 = sm._signed_indices(m2)[None, :]
    if isinstance(model, MaternSpectral):
        table = sm._matern_lags(model.alpha, model.nu, m1 // 2, m2 // 2)
        return model.phi * table[np.abs(h1), np.abs(h2)]
    return sm._lag_covariance(model, h1, h2, None)


def _one_shot_field(model, n1: int, n2: int, rng) -> np.ndarray:
    """The full-torus synthesis as one expression, the oracle for the
    pass-by-pass draw: ifft2 of sqrt(lam) times complex noise drawn as one
    (2, m1, m2) array, scaled, real part, cropped.  Returns the field and
    the torus eigenvalues lam."""
    reach = (int(np.ceil(model.range_)) if isinstance(model, SphericalAniso)
             else 0) + 1
    m1, m2 = 2 * max(n1, reach), 2 * max(n2, reach)
    lam = np.maximum(np.fft.fft2(_torus_covariance(model, m1, m2)).real, 0.0)
    noise = rng.standard_normal((2, m1, m2))
    z = noise[0] + 1j * noise[1]
    x = np.fft.ifft2(np.sqrt(lam) * z) * np.sqrt(m1 * m2)
    return x.real[:n1, :n2], lam


def _buffer_nbytes(a: np.ndarray) -> int:
    """Bytes of the buffer that ``a`` keeps alive."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a.nbytes if a.base is None else memoryview(a.base).nbytes


_SYNTH_MODELS = {
    "spherical": SphericalAniso(sigma2=1.0, range_=5.0, eta=0.2, tau_a=0.5,
                                tau_r=1.5),
    # alpha = 1 embeds on the doubled torus of every grid below; alpha =
    # 1/3 would take the dense fallback on grids below 20 x 20
    "matern": matern_model(alpha=1.0, nu=1.0),
}


class TestTorusSynthesis:
    @pytest.mark.parametrize("kind", ["spherical", "matern", "matern_quartic"])
    @pytest.mark.parametrize("n1,n2,block", [
        pytest.param(n1, n2, None, id=f"{n1}-{n2}")
        for n1, n2 in [(15, 15), (16, 16), (37, 52), (52, 37), (7, 64), (1, 5)]
    ] + [
        # at 1500 torus points a block, 3 to 22 blocks in every pass, each
        # with a ragged last block; at 500, 2 to 10
        pytest.param(n1, n2, block, id=f"{n1}-{n2}-block{block}")
        for n1, n2, block in [(37, 52, 1500), (52, 37, 1500), (16, 16, 500)]])
    def test_bit_identical_to_one_shot_synthesis(self, monkeypatch, kind, n1,
                                                 n2, block):
        base = _SYNTH_MODELS["matern" if kind == "matern_quartic" else kind]
        model = TransformedGaussian(base) if kind == "matern_quartic" else base
        if block is not None:
            monkeypatch.setattr(simulate_module, "_BLOCK", block, raising=False)
            simulate_module._embedding_spectrum.cache_clear()
        for i in range(2):
            got = simulate_process(model, n1, n2,
                                   rngmod.stream(106, rngmod.TAG_FIELD, i))
            want, lam = _one_shot_field(base, n1, n2,
                                        rngmod.stream(106, rngmod.TAG_FIELD, i))
            if model is not base:
                want = want ** 4 - 3.0 * gamma0(base) ** 2
            assert np.array_equal(got.values.view(np.uint64),
                                  np.ascontiguousarray(want).view(np.uint64))
        # the synthesis caches sqrt(lam), the one array it reads
        assert np.array_equal(simulate_module._embedding_spectrum(base, *lam.shape),
                              np.sqrt(lam))

    @pytest.mark.parametrize("model", [
        SphericalAniso(sigma2=1.0, range_=5.0),
        _SYNTH_MODELS["spherical"],
        SphericalAniso(sigma2=2.0, range_=7.3, eta=0.5, tau_a=1.1, tau_r=2.0),
        _SYNTH_MODELS["matern"],
        MaternSpectral(phi=0.7, alpha=1.0, nu=0.5),
    ])
    @pytest.mark.parametrize("m1,m2", [(60, 74), (96, 41)])
    def test_block_spectra_equal_one_shot_oracles(self, monkeypatch, model,
                                                  m1, m2):
        # 700 torus points a block: 6 or 7 blocks of rows and of columns,
        # the last one ragged in every pass
        monkeypatch.setattr(simulate_module, "_BLOCK", 700)
        cov = _torus_covariance(model, m1, m2)
        want = np.sqrt(np.maximum(np.fft.fft2(cov).real, 0.0))
        got = simulate_module._embedding_spectrum.__wrapped__(model, m1, m2)
        assert got.flags.c_contiguous
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("model,generator", [
        (WhiteNoise(2.0), "default"),
        (_SYNTH_MODELS["spherical"], "default"),
        (_SYNTH_MODELS["matern"], "default"),
        (TransformedGaussian(_SYNTH_MODELS["matern"]), "default"),
        (SeparableARMA(0.2, -0.7), "default"),
        (_SYNTH_MODELS["matern"], "exp_cholesky"),
    ])
    def test_fields_own_exactly_their_values(self, model, generator):
        f = simulate_process(model, 9, 14, rngmod.stream(107), generator)
        assert f.values.flags.c_contiguous
        assert _buffer_nbytes(f.values) == 9 * 14 * 8

    def test_dense_fallback_field_owns_exactly_its_values(self, monkeypatch):
        monkeypatch.setattr(simulate_module, "_embedding_spectrum",
                            lambda *args: None)
        f = simulate_gaussian(_SYNTH_MODELS["spherical"], 6, 7,
                              rngmod.stream(108))
        assert f.values.flags.c_contiguous
        assert _buffer_nbytes(f.values) == 6 * 7 * 8

    @pytest.mark.parametrize("kind,n", [("spherical", 128), ("matern", 64)])
    def test_warm_draw_holds_at_most_48_bytes_per_torus_point(self, kind, n):
        # the one-shot synthesis peaks near 80 bytes per torus point: the
        # (2, m1, m2) noise, z, sqrt(lam) z, the ifft2 result and its
        # scaled copy; the block passes hold re, the kept columns and one
        # block of at most half the rows, about 32
        model = _SYNTH_MODELS[kind]
        simulate_gaussian(model, n, n, rngmod.stream(110))   # warm the caches
        m = 2 * n
        tracemalloc.start()
        try:
            simulate_gaussian(model, n, n, rngmod.stream(110, rngmod.TAG_FIELD, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * m * m

    @pytest.mark.parametrize("kind,n,bound", [("spherical", 512, 22),
                                              ("matern", 256, 18)])
    def test_warm_block_draw_bytes_per_torus_point(self, kind, n, bound):
        # a 1024^2 torus for spherical and 512^2 for Matern: the
        # one-shot synthesis holds about 80 bytes per point, re and the
        # kept columns of the block passes about 18
        model = _SYNTH_MODELS[kind]
        simulate_gaussian(model, n, n, rngmod.stream(111))   # warm the caches
        tracemalloc.start()
        try:
            simulate_gaussian(model, n, n, rngmod.stream(111, rngmod.TAG_FIELD, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 1024 * 1024

    def test_cold_spherical_spectrum_bytes_per_torus_point(self):
        # fft2 of the 1024^2 covariance held 40 bytes per point; the block
        # passes hold one complex torus and the real eigenvalues
        model = _SYNTH_MODELS["spherical"]
        tracemalloc.start()
        try:
            simulate_module._embedding_spectrum.__wrapped__(model, 1024, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 28 * 1024 * 1024


    def test_cold_matern_spectrum_bytes_per_torus_point(self, monkeypatch):
        # a 1024^2 torus reads a reach-(512, 512) table built on 1026^2 and
        # 2052^2 tori: with a whole-torus irfft2 of each the spectrum
        # peaked at 98 MiB, with the table's block passes at 29
        monkeypatch.setattr(simulate_module, "_matern_lags", lru_cache(
            maxsize=64)(simulate_module._matern_lags.__wrapped__))
        model = MaternSpectral(phi=1.0, alpha=1.0 / 3.0, nu=1.0)
        tracemalloc.start()
        try:
            simulate_module._embedding_spectrum.__wrapped__(model, 1024, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 1024 * 1024

def _realised_covariance(monkeypatch, model, n1: int, n2: int) -> np.ndarray:
    """The covariance that one simulated field's torus realises: the
    inverse DFT of the circulant eigenvalues sqrt_lam ** 2 it draws with."""
    draw, seen = simulate_module._torus_draw, []

    def capture(sqrt_lam, *args):
        seen.append(sqrt_lam)
        return draw(sqrt_lam, *args)

    monkeypatch.setattr(simulate_module, "_torus_draw", capture)
    simulate_gaussian(model, n1, n2, rngmod.stream(112))
    (sqrt_lam,) = seen
    return np.fft.ifft2(sqrt_lam ** 2).real


def _worst_lag_gap(cov: np.ndarray, model, lags1, lags2) -> float:
    """Largest |cov(h) - gamma(h)| over h in lags1 x lags2 and their
    negatives, over gamma(0)."""
    gap = 0.0
    for a in lags1:
        for b in lags2:
            g = model_autocovariance(model, (a, b))
            gap = max(gap, *(abs(cov[s1 * a, s2 * b] - g)
                             for s1 in (1, -1) for s2 in (1, -1)))
    return gap / gamma0(model)


class TestMaternEmbedding:
    @pytest.mark.parametrize("alpha,n", [(1.0, 8), (0.5, 12), (1.0 / 3.0, 20)])
    def test_realised_covariance_is_the_autocovariance(self, monkeypatch,
                                                       alpha, n):
        model = matern_model(alpha=alpha, nu=1.0)
        cov = _realised_covariance(monkeypatch, model, n, n)
        assert _worst_lag_gap(cov, model, range(n), range(n)) <= 2e-6
        assert cov.shape == (2 * n, 2 * n)

    @pytest.mark.parametrize("n", [8, 15])
    def test_negative_embedding_draws_the_dense_factor(self, n):
        # alpha = 1/3 is negative on the doubled torus below 20 x 20
        model = matern_model(alpha=1.0 / 3.0, nu=1.0)
        assert simulate_module._embedding_spectrum(model, 2 * n, 2 * n) is None
        got = simulate_gaussian(model, n, n, rngmod.stream(113, rngmod.TAG_FIELD, n))
        normals = rngmod.stream(113, rngmod.TAG_FIELD, n).standard_normal(n * n)
        want = (simulate_module._dense_cholesky(model, n, n) @ normals).reshape(n, n)
        assert np.array_equal(got.values.view(np.uint64), want.view(np.uint64))

    def test_long_range_field_grows_its_torus(self, monkeypatch):
        # alpha = 0.1 is negative on the doubled 160 x 180 torus, and
        # 80 x 90 is past the dense limit, so the torus doubles once
        model = matern_model(alpha=0.1, nu=1.0)
        assert simulate_module._embedding_spectrum(model, 160, 180) is None
        cov = _realised_covariance(monkeypatch, model, 80, 90)
        assert cov.shape == (320, 360)
        assert _worst_lag_gap(cov, model, range(0, 80, 8), range(0, 90, 9)) <= 2e-6

    def test_torus_that_never_embeds_is_refused(self, monkeypatch):
        tori = []
        monkeypatch.setattr(simulate_module, "_embedding_spectrum",
                            lambda model, m1, m2: tori.append((m1, m2)))
        with pytest.raises(NumericalError, match="65x65"):
            simulate_gaussian(_SYNTH_MODELS["matern"], 65, 65, rngmod.stream(114))
        # 130^2 doubled four times; 4160^2 is past _TORUS_CAP^2 = 4096^2
        assert tori == [(130 << k, 130 << k) for k in range(5)]


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
