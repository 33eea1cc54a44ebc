"""Wild bootstrap draws, closed-form variance, hybrid rescaling."""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest.mock import patch

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from freqboot import (BlockSpec, ConfigError, FieldResampler, LatticeField,
                      NumericalError, SpectralDensityEstimate, WhiteNoise,
                      bootstrap_distribution, build_frequency_grid,
                      fdwb_variance, kernel_density_estimate, periodogram,
                      psi_cos_lag, simulate_gaussian)
from freqboot import _pool
from freqboot import bootstrap as bootstrap_module
from freqboot import rng as rngmod
from freqboot.bootstrap import (_half_plane_reduction, _hybrid_rescale,
                                fdwb_draws)
from freqboot.simulate import TransformedGaussian, matern_model
from freqboot.spectral import PsiFunction

from conftest import (TWO_PI, frequency, grid_indices, half_plane, negate,
                      position)


def _flat_density(n1, n2, c):
    grid = build_frequency_grid(n1, n2)
    return SpectralDensityEstimate(grid=grid, values=np.full((n1, n2), c),
                                   bandwidth=(1.0, 1.0))


def _mirrored_weights(grid, u):
    """Full-grid weight map implied by half-plane draws u: each draw sits
    at its half-plane position and at the mirror of that position."""
    w = np.ones((grid.n1, grid.n2))
    w[grid.half_plane_mask] = u
    return np.where(grid.half_plane_mask | ~grid.nonzero_mask, w,
                    grid.negate_array(w))


def _boot_uniforms(grid, master_seed, r, replicate_id=0):
    """The Exp(1) draws bootstrap replicate r reads, in half-plane order."""
    gen = rngmod.stream(master_seed, rngmod.TAG_BOOT, replicate_id, r)
    return gen.standard_exponential(int(grid.half_plane_mask.sum()))


def _one_ordinate_density(n1, n2, j, c=0.5):
    """Density c at index j, 0 elsewhere: the draw of replicate r is then
    scale * c * (U_j - 1), exposing one weight's marginal."""
    grid = build_frequency_grid(n1, n2)
    values = np.zeros((n1, n2))
    values[position(grid, j)] = c
    return SpectralDensityEstimate(grid=grid, values=values, bandwidth=(1.0, 1.0))


def _recovered_weights(n1, n2, j, seed, B):
    de = _one_ordinate_density(n1, n2, j)
    scale = TWO_PI ** 2 / np.sqrt(n1 * n2)
    return 1.0 + fdwb_draws(de, psi_cos_lag((0, 0)), B, seed) / (scale * 0.5)


_UNEVEN = PsiFunction("uneven", lambda w1, w2: np.cos(w1) + 0.3 * np.sin(w2))


def _random_density(n1, n2, density_seed):
    values = np.random.default_rng(density_seed).uniform(0.1, 2.0, (n1, n2))
    return SpectralDensityEstimate(grid=build_frequency_grid(n1, n2),
                                   values=values, bandwidth=(1.0, 1.0))


class TestWeights:
    def test_symmetry_exact(self):
        # each half-plane draw multiplies the coefficients of j and -j:
        # replicate r equals the full-grid sum over the mirrored weight map
        grid = build_frequency_grid(6, 5)
        de = SpectralDensityEstimate(
            grid=grid, bandwidth=(1.0, 1.0),
            values=np.random.default_rng(71).uniform(0.1, 2.0, (6, 5)))
        # psi_j fhat_j, times sqrt(2) at self-conjugate j, 0 at the origin
        coef = _UNEVEN.on_grid(grid) * de.values
        coef[grid.self_conjugate_mask] *= np.sqrt(2.0)
        coef[0, 0] = 0.0
        draws = fdwb_draws(de, _UNEVEN, 5, master_seed=71)
        for r in range(5):
            w = _mirrored_weights(grid, _boot_uniforms(grid, 71, r))
            for j in grid_indices(grid):
                assert w[position(grid, j)] == w[position(grid, negate(grid, j))]
            direct = TWO_PI ** 2 / np.sqrt(grid.n) * np.sum(coef * (w - 1.0))
            assert draws[r] == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_mean_one(self):
        vals = _recovered_weights(5, 5, (1, 1), 72, 10000)
        assert abs(vals.mean() - 1.0) <= 0.03

    def test_exponential_distribution(self):
        vals = _recovered_weights(5, 5, (2, -1), 73, 10000)
        _, pval = st.kstest(vals, "expon")
        assert pval > 0.01


class TestFdwbStatistic:
    def test_zero_density_gives_zero(self):
        de = _flat_density(4, 4, 0.0)
        assert np.all(fdwb_draws(de, psi_cos_lag((1, 0)), 5, 74) == 0.0)

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
        psi_odd = PsiFunction("odd", lambda w1, w2: np.sin(w1))
        grid = de.grid
        assert _half_plane_reduction(de, psi_odd) == pytest.approx(0.0, abs=1e-15)
        draws = fdwb_draws(de, psi_odd, 10, master_seed=76)
        for r in range(10):
            w = _mirrored_weights(grid, _boot_uniforms(grid, 76, r))
            direct = 0.0
            for j in grid_indices(grid):
                direct += np.sin(frequency(grid, j)[0]) * 0.5 * (
                    w[position(grid, j)] - 1.0)
            direct *= TWO_PI ** 2 / np.sqrt(grid.n)
            assert direct == pytest.approx(0.0, abs=1e-12)
            assert draws[r] == pytest.approx(0.0, abs=1e-12)


@hst.composite
def _grid_and_psi(draw):
    """Extents n1, n2 and a psi on that grid: an even cosine psi of a lag
    the grid reads as itself (|h_i| < n_i / 2), or a psi that is not even."""
    n1, n2 = draw(hst.integers(2, 9)), draw(hst.integers(2, 9))
    lag = hst.tuples(hst.integers(-((n1 - 1) // 2), (n1 - 1) // 2),
                     hst.integers(-((n2 - 1) // 2), (n2 - 1) // 2))
    return n1, n2, draw(hst.builds(psi_cos_lag, lag) | hst.just(_UNEVEN))


# both grid parities; replicate ids past 2^63 and 2^64 wrap by masking;
# an even cosine psi or a psi that is not even
_DRAW_CASE = dict(
    grid_psi=_grid_and_psi(),
    master_seed=hst.integers(0, (1 << 64) - 1),
    replicate_id=hst.integers(-(1 << 64), 1 << 66),
    B=hst.integers(1, 24), density_seed=hst.integers(0, 2 ** 32 - 1))


class TestStreamAddressing:
    @settings(max_examples=60, deadline=None)
    @given(**_DRAW_CASE)
    def test_replicate_r_reads_stream_r(self, grid_psi, master_seed,
                                        replicate_id, B, density_seed):
        # row r of U holds the weights of stream (master_seed, replicate_id, r)
        n1, n2, psi = grid_psi
        de = _random_density(n1, n2, density_seed)
        draws = fdwb_draws(de, psi, B, master_seed, replicate_id)
        cvec = _half_plane_reduction(de, psi)
        scale = TWO_PI ** 2 / np.sqrt(de.grid.n)
        U = np.array([_boot_uniforms(de.grid, master_seed, r, replicate_id)
                      for r in range(B)])
        assert draws.shape == (B,)
        assert np.array_equal(
            draws, (np.einsum("ij,j->i", U, cvec) - cvec.sum()) * scale)
        # the per-replicate form sum_j c_j (U_j - 1), to rounding
        np.testing.assert_allclose(
            draws, scale * ((U - 1.0) @ cvec), rtol=0,
            atol=1e-13 * scale * (np.abs(cvec) * (U + 1.0)).sum(axis=1).max())

    @settings(max_examples=60, deadline=None)
    @given(data=hst.data(), **_DRAW_CASE)
    def test_bits_do_not_depend_on_budget_or_b(self, data, grid_psi,
                                               master_seed, replicate_id, B,
                                               density_seed):
        n1, n2, psi = grid_psi
        de = _random_density(n1, n2, density_seed)
        m = int(de.grid.half_plane_mask.sum())
        budget = data.draw(hst.one_of(
            hst.sampled_from([1, max(m - 1, 1), m, m + 1]),
            hst.integers(1, 30 * m)))
        prefix = data.draw(hst.integers(1, B))
        full = fdwb_draws(de, psi, B, master_seed, replicate_id)
        with patch.object(bootstrap_module, "_DRAW_BUDGET", budget):
            assert np.array_equal(
                fdwb_draws(de, psi, B, master_seed, replicate_id), full)
        assert np.array_equal(
            fdwb_draws(de, psi, prefix, master_seed, replicate_id), full[:prefix])

    @settings(max_examples=60, deadline=None)
    @given(data=hst.data(), **_DRAW_CASE)
    def test_bits_do_not_depend_on_threads(self, data, grid_psi,
                                           master_seed, replicate_id, B,
                                           density_seed):
        # every row length is filled on threads; row r still reads the
        # stream (master_seed, replicate_id, r)
        n1, n2, psi = grid_psi
        de = _random_density(n1, n2, density_seed)
        m = int(de.grid.half_plane_mask.sum())
        budget = data.draw(hst.one_of(
            hst.sampled_from([1, max(m - 1, 1), m]), hst.integers(1, 30 * m)))
        cpus = data.draw(hst.integers(1, 4))
        pools = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        with patch.object(bootstrap_module, "_DRAW_BUDGET", budget):
            with patch.object(_pool, "cpus", lambda: 1):
                single = fdwb_draws(de, psi, B, master_seed, replicate_id)
            with patch.object(bootstrap_module, "_THREAD_ROW", 1), \
                    patch.object(_pool, "cpus", lambda: cpus), \
                    patch.object(_pool, "ThreadPoolExecutor", RecordingPool):
                threaded = fdwb_draws(de, psi, B, master_seed, replicate_id)
        blocks = -(-B // max(1, min(B, budget // m)))
        threads = min(cpus, blocks)
        # the calling thread is one of them
        assert pools == ([threads - 1] if threads > 1 else [])
        assert np.array_equal(threaded, single)
        cvec = _half_plane_reduction(de, psi)
        U = np.array([_boot_uniforms(de.grid, master_seed, r, replicate_id)
                      for r in range(B)])
        scale = TWO_PI ** 2 / np.sqrt(de.grid.n)
        assert np.array_equal(
            threaded, (np.einsum("ij,j->i", U, cvec) - cvec.sum()) * scale)

    def test_bits_do_not_depend_on_threads_at_full_size(self):
        # 128 x 128: m = 8,193 weights per replicate, so the default
        # constants share the blocks out among threads; up to more
        # threads than cores, switching as often as the interpreter can
        de = _random_density(128, 128, 9)
        assert int(de.grid.half_plane_mask.sum()) >= bootstrap_module._THREAD_ROW
        with patch.object(_pool, "cpus", lambda: 1):
            single = fdwb_draws(de, _UNEVEN, 500, 11, 5)
        assert np.array_equal(fdwb_draws(de, _UNEVEN, 500, 11, 5), single)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cpus in (2, 3, 8):
                with patch.object(_pool, "cpus", lambda c=cpus: c):
                    assert np.array_equal(
                        fdwb_draws(de, _UNEVEN, 500, 11, 5), single)
        finally:
            sys.setswitchinterval(interval)

    def test_bits_do_not_depend_on_blas_threads(self):
        # at m = 12,800 ordinates a BLAS dot product splits across threads
        code = ("import hashlib, numpy as np\n"
                "from freqboot import SpectralDensityEstimate, psi_cos_lag\n"
                "from freqboot import build_frequency_grid\n"
                "from freqboot.bootstrap import fdwb_draws\n"
                "grid = build_frequency_grid(160, 160)\n"
                "values = np.random.default_rng(5).uniform(0.1, 2.0, (160, 160))\n"
                "de = SpectralDensityEstimate(grid=grid, values=values,\n"
                "                             bandwidth=(1.0, 1.0))\n"
                "d = fdwb_draws(de, psi_cos_lag((1, 0)), 50, 7, 3)\n"
                "print(hashlib.sha256(d.tobytes()).hexdigest())\n")
        src = os.path.dirname(os.path.dirname(bootstrap_module.__file__))
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
            run = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True, check=True)
            digests.add(run.stdout.strip())
        assert len(digests) == 1


@hst.composite
def _shared_field(draw):
    """(n1, n2, psi, bandwidth, field seed) of one field of a shared fill:
    extents of either parity, a cosine psi of a lag the grid reads as
    itself or a psi that is not even, and a bandwidth pair or the
    default rate."""
    n1, n2 = draw(hst.integers(4, 33)), draw(hst.integers(4, 33))
    lag = hst.tuples(hst.integers(-((n1 - 1) // 2), (n1 - 1) // 2),
                     hst.integers(-((n2 - 1) // 2), (n2 - 1) // 2))
    psi = draw(hst.builds(psi_cos_lag, lag) | hst.just(_UNEVEN))
    bandwidth = draw(hst.none() | hst.tuples(hst.floats(0.2, 1.5),
                                             hst.floats(0.2, 1.5)))
    return n1, n2, psi, bandwidth, draw(hst.integers(0, 2 ** 32 - 1))


class TestSharedFill:
    @settings(max_examples=40, deadline=None)
    @given(fields=hst.lists(_shared_field(), min_size=2, max_size=4),
           B=hst.integers(100, 300), cpus=hst.integers(1, 3),
           master_seed=hst.integers(0, (1 << 64) - 1),
           replicate_id=hst.integers(0, 1 << 40))
    # 128 x 128: m = 8,193 weights, so the rows are filled on threads and
    # the 9 x 10 field reduces a prefix of each
    @example(fields=[(9, 10, _UNEVEN, (0.6, 1.1), 2),
                     (128, 128, psi_cos_lag((1, 0)), None, 1)],
             B=100, cpus=2, master_seed=5, replicate_id=3)
    def test_shared_fill_equals_each_field_alone(self, fields, B, cpus,
                                                 master_seed, replicate_id):
        # fields of one bootstrap address, filled at once at the largest
        # m, draw what fdwb_draws draws for each alone, bit for bit
        resamplers = [FieldResampler(
            LatticeField(np.random.default_rng(seed).standard_normal((n1, n2))),
            psi, B, master_seed, replicate_id, bandwidth)
            for n1, n2, psi, bandwidth, seed in fields]
        with patch.object(_pool, "cpus", lambda: 1):
            alone = [fdwb_draws(kernel_density_estimate(
                periodogram(r.field), bandwidth=bandwidth), r.psi, B,
                master_seed, replicate_id)
                for r, (*_, bandwidth, _) in zip(resamplers, fields)]
        with patch.object(_pool, "cpus", lambda: cpus):
            resamplers[0].ensembles([], resamplers)
        for r, want in zip(resamplers, alone):
            assert "base_draws" in vars(r)
            assert np.array_equal(r.base_draws, want)


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

    @settings(max_examples=60, deadline=None)
    @given(n1=hst.integers(2, 7), n2=hst.integers(2, 7),
           coefs=hst.tuples(*[hst.floats(-2.0, 2.0)] * 3),
           density_seed=hst.integers(0, 2 ** 32 - 1))
    def test_closed_form_equals_enumerated_variance(self, n1, n2, coefs,
                                                    density_seed):
        # Q* = scale * sum over the full grid of a_j (W_j - 1), where W is
        # the mirrored weight map and a_j = psi_j f_j, times sqrt(2) on
        # self-conjugate j; the half-plane weight u multiplies every a_j
        # whose W_j is U_u, so with Var U = 1, Var Q* = scale^2 sum_u
        # (sum of those a_j)^2
        c1, c2, c3 = coefs
        psi = PsiFunction("mixed", lambda w1, w2: (
            c1 * np.cos(w1) + c2 * np.sin(w1 + w2) + c3 * np.sin(2.0 * w2)))
        grid = build_frequency_grid(n1, n2)
        raw = np.random.default_rng(density_seed).uniform(0.1, 2.0, (n1, n2))
        values = raw.copy()   # mirror symmetric, as every estimate is
        for j in grid_indices(grid):
            values[position(grid, j)] = 0.5 * (
                raw[position(grid, j)] + raw[position(grid, negate(grid, j))])
        de = SpectralDensityEstimate(grid=grid, values=values,
                                     bandwidth=(1.0, 1.0))
        halves = half_plane(grid)
        sums, abs_sums = dict.fromkeys(halves, 0.0), dict.fromkeys(halves, 0.0)
        for j in grid_indices(grid):
            a = psi.fn(*frequency(grid, j)) * values[position(grid, j)]
            if negate(grid, j) == j:
                a *= np.sqrt(2.0)
            u = j if j in sums else negate(grid, j)
            sums[u] += a
            abs_sums[u] += abs(a)
        assert len(sums) == len(halves)
        var = (TWO_PI ** 2) ** 2 / grid.n
        # an odd psi cancels a_j against a_-j, so rounding is relative to
        # the sizes of the terms, not to their sum; a coefficient near
        # 1e-157 puts the squared terms below the normal range, where each
        # rounds by up to half the smallest subnormal absolutely (at most
        # four roundings per term on either side) before the scale var
        subnormal = 4 * grid.n * var * np.finfo(float).smallest_subnormal
        np.testing.assert_allclose(
            fdwb_variance(de, psi), var * sum(s * s for s in sums.values()),
            rtol=1e-12,
            atol=1e-12 * var * sum(s * s for s in abs_sums.values()) + subnormal)

    def test_zero_psi(self):
        de = _flat_density(4, 4, 1.0)
        zero = PsiFunction("zero", lambda w1, w2: 0.0 * w1)
        assert fdwb_variance(de, zero) == 0.0

    def test_large_n_limit_matches_sigma1(self):
        for n in (16, 32, 64):
            de = _flat_density(n, n, TWO_PI ** -2)
            val = fdwb_variance(de, psi_cos_lag((0, 0)))
            assert val == pytest.approx(2.0 * (n * n - 1) / (n * n), rel=1e-12)


class TestHfdbStatistic:
    # _hybrid_rescale is the one Q* -> H* rescale FieldResampler applies
    def test_zero_correction_is_identity(self, rng):
        q = np.append(rng.standard_normal(99), 1.37)
        assert np.array_equal(_hybrid_rescale(q, 2.0, 0.0), q)

    def test_arithmetic(self):
        assert _hybrid_rescale(np.array([2.0]), 1.0, 3.0) == pytest.approx([4.0])

    def test_rejects_degenerate(self):
        with pytest.raises(NumericalError):
            _hybrid_rescale(np.array([1.0]), 0.0, 1.0)
        # psi orthogonal to the density: Var* = 0 stops the hybrid kinds
        f = simulate_gaussian(WhiteNoise(1.0), 12, 12,
                              rngmod.stream(79, rngmod.TAG_FIELD, 0))
        zero = PsiFunction("zero", lambda w1, w2: 0.0 * w1)
        res = FieldResampler(f, zero, 100, 79)
        assert np.all(res.draws("fdwb").values == 0.0)
        with pytest.raises(NumericalError):
            res.draws("hfdb", BlockSpec(4, 4))

    def test_scaling_audit(self, rng):
        de = _flat_density(8, 8, 0.3)
        psi = psi_cos_lag((1, 0))
        var_star = fdwb_variance(de, psi)
        sigma2 = 0.7
        draws = fdwb_draws(de, psi, 10000, master_seed=78)
        scaled = _hybrid_rescale(draws, var_star, sigma2)
        assert scaled.var() == pytest.approx(var_star + sigma2, rel=0.05)


class TestBootstrapDistribution:
    def _white_field(self, seed=80):
        return simulate_gaussian(WhiteNoise(1.0), 16, 16,
                                 rngmod.stream(seed, rngmod.TAG_FIELD, 0))

    def test_fdwb_equals_hfdb_with_forced_zero(self):
        # hfdb draws are the fdwb draws through the one rescale, so a zero
        # correction returns the fdwb draws bit for bit
        f = self._white_field()
        psi = psi_cos_lag((1, 0))
        d1 = bootstrap_distribution(f, psi, None, 200, "fdwb", 81)
        d2 = bootstrap_distribution(f, psi, BlockSpec(4, 4), 200, "hfdb", 81)
        assert np.array_equal(d2.values, _hybrid_rescale(
            d1.values, d1.var_star, d2.sigma2_floored))
        assert np.array_equal(_hybrid_rescale(d1.values, d1.var_star, 0.0),
                              d1.values)

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

    def test_hfdb_needs_block(self):
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


class TestFieldResampler:
    def _field(self):
        return simulate_gaussian(WhiteNoise(1.0), 16, 16,
                                 rngmod.stream(85, rngmod.TAG_FIELD, 0))

    def test_matches_one_shot_wrapper(self):
        f = self._field()
        psi = psi_cos_lag((1, 0))
        res = FieldResampler(f, psi, 150, 86, replicate_id=3)
        for spec in (BlockSpec(4, 4), BlockSpec(5, 3)):
            for kind in ("fdwb", "hfdb", "hfdb_bias"):
                one = bootstrap_distribution(f, psi, spec, 150, kind, 86, 3)
                shared = res.draws(kind, spec)
                assert np.array_equal(shared.values, one.values)
                assert (shared.var_star, shared.sigma2_raw, shared.bias_sub) == \
                    (one.var_star, one.sigma2_raw, one.bias_sub)

    def test_each_stage_runs_once(self, monkeypatch):
        calls = {}
        for name in ("periodogram", "kernel_density_estimate", "fdwb_draws",
                     "subsample_ensemble", "variance_estimates"):
            def counted(*args, _fn=getattr(bootstrap_module, name), _name=name,
                        **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(bootstrap_module, name, counted)
        res = FieldResampler(self._field(), psi_cos_lag((1, 0)), 120, 87)
        for spec in (BlockSpec(4, 4), BlockSpec(5, 5)):
            for kind in ("fdwb", "hfdb", "hfdb_bias", "hfdb"):
                res.draws(kind, spec)
            res.ensemble(spec)
        assert calls == {"periodogram": 1, "kernel_density_estimate": 1,
                         "fdwb_draws": 1, "subsample_ensemble": 2,
                         "variance_estimates": 2}


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
