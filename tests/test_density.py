"""Kernel spectral density estimator."""

import numpy as np
import pytest

from freqboot import (ConfigError, LatticeField, Periodogram, WhiteNoise,
                      build_frequency_grid, kernel_density_estimate,
                      periodogram, simulate_gaussian)
from freqboot import rng as rngmod
from freqboot.density import default_bandwidth

TARGET_WN = (2.0 * np.pi) ** -2


def _constant_periodogram(n1, n2, c):
    grid = build_frequency_grid(n1, n2)
    return Periodogram(grid=grid, values=np.full((n1, n2), c))


class TestSmoother:
    def test_constant_periodogram_reproduced(self):
        de = kernel_density_estimate(_constant_periodogram(16, 16, 3.3),
                                     bandwidth=(1.0, 1.0))
        assert np.allclose(de.values, 3.3, rtol=1e-12)

    def test_positivity_and_symmetry(self, rng):
        for shape in [(8, 8), (9, 7), (16, 12)]:
            pg = periodogram(LatticeField(rng.standard_normal(shape)))
            de = kernel_density_estimate(pg)
            g = de.grid
            assert np.all(de.values[g.nonzero_mask] > 0.0)
            assert np.allclose(de.values, g.negate_array(de.values), rtol=1e-12)

    def test_floor_active_on_spiky_input(self):
        grid = build_frequency_grid(16, 16)
        vals = np.zeros((16, 16))
        vals[1, 0] = vals[-1, 0] = 1.0
        de = kernel_density_estimate(Periodogram(grid=grid, values=vals),
                                     bandwidth=(0.3, 0.3))
        assert np.all(de.values[grid.nonzero_mask] > 0.0)
        assert de.values[grid.nonzero_mask].min() == pytest.approx(
            1e-6 * de.values[grid.nonzero_mask].max(), rel=1e-9)

    def test_rejects_bad_bandwidth(self, rng):
        pg = periodogram(LatticeField(rng.standard_normal((8, 8))))
        for bw in [(0.0, 1.0), (-0.5, 0.5), (1.0, 4.0)]:
            with pytest.raises(ConfigError):
                kernel_density_estimate(pg, bandwidth=bw)

    def test_default_bandwidth_rate(self):
        b1, b2 = default_bandwidth(50, 50)
        assert b1 == b2
        wide = default_bandwidth(20, 20)[0]
        assert wide > b1  # bandwidth shrinks as the grid grows


class TestConsistency:
    def test_white_noise_uniform_accuracy(self):
        # threshold 0.5 frozen from a 200-replicate oracle pre-run at the
        # default bandwidth (95th percentile of the relative max deviation
        # was 0.437)
        hits = 0
        for i in range(200):
            f = simulate_gaussian(WhiteNoise(1.0), 64, 64,
                                  rngmod.stream(31, rngmod.TAG_ORACLE, i))
            de = kernel_density_estimate(periodogram(f))
            dev = np.max(np.abs(de.values[de.grid.nonzero_mask] - TARGET_WN))
            hits += dev <= 0.5 * TARGET_WN
        assert hits >= 0.95 * 200

    def test_uniform_error_shrinks_along_size_ladder(self):
        medians = []
        for n in (16, 32, 64):
            devs = []
            for i in range(60):
                f = simulate_gaussian(WhiteNoise(1.0), n, n,
                                      rngmod.stream(32, rngmod.TAG_ORACLE, i))
                de = kernel_density_estimate(periodogram(f))
                devs.append(np.max(np.abs(de.values[de.grid.nonzero_mask]
                                          - TARGET_WN)))
            medians.append(np.median(devs))
        assert medians[0] > medians[1] > medians[2]
