"""Frequency grid, periodogram, and field I/O."""

import numpy as np
import pytest

from freqboot import (ConfigError, LatticeField, build_frequency_grid,
                      load_field_binary, load_field_csv, periodogram,
                      save_field_binary, save_field_csv)
from freqboot import rng as rngmod
from freqboot.simulate import WhiteNoise, simulate_gaussian

from conftest import (TWO_PI, brute_negation_table, brute_periodogram,
                      frequency, grid_indices, half_plane, negate,
                      periodogram_at, position, value_at)


class TestFrequencyGrid:
    def test_2x2_indices(self):
        g = build_frequency_grid(2, 2)
        assert sorted(grid_indices(g)) == [(0, 1), (1, 0), (1, 1)]
        assert np.array_equal(g.nonzero_mask, [[False, True], [True, True]])

    def test_3x3_indices_and_half_plane(self):
        g = build_frequency_grid(3, 3)
        assert len(grid_indices(g)) == 8
        assert sorted(half_plane(g)) == [(0, 1), (1, -1), (1, 0), (1, 1)]

    def test_4x3_self_conjugate(self):
        g = build_frequency_grid(4, 3)
        assert len(grid_indices(g)) == 11
        table = brute_negation_table(4, 3)
        self_conj = sorted(j for j, nj in table.items() if j == nj)
        assert self_conj == [(2, 0)]
        assert list(zip(*np.nonzero(g.self_conjugate_mask))) == [(2, 0)]
        # negate_array reads position -j for position j
        pos = np.arange(12).reshape(4, 3)
        neg = g.negate_array(pos)
        for j in grid_indices(g):
            assert neg[position(g, j)] == pos[position(g, table[j])]

    @pytest.mark.parametrize("n1,n2", [(2, 2), (3, 3), (4, 3), (4, 4),
                                       (5, 4), (6, 6), (7, 5), (8, 8)])
    def test_half_plane_covers_exactly_once(self, n1, n2):
        g = build_frequency_grid(n1, n2)
        assert len(grid_indices(g)) == n1 * n2 - 1
        seen = {}
        for j in half_plane(g):
            for k in {j, negate(g, j)}:
                seen[k] = seen.get(k, 0) + 1
        assert sorted(seen) == sorted(grid_indices(g))
        assert all(v == 1 for v in seen.values())

    def test_index_order_row_major(self):
        # the FFT layout holds signed index j at position j mod n
        g = build_frequency_grid(4, 3)
        assert grid_indices(g) == sorted(grid_indices(g))
        for j in grid_indices(g):
            p = position(g, j)
            assert (g.omega1[p[0]], g.omega2[p[1]]) == pytest.approx(frequency(g, j))

    def test_rejects_degenerate_extent(self):
        with pytest.raises(ConfigError):
            build_frequency_grid(1, 5)


class TestPeriodogram:
    def test_zero_field(self):
        pg = periodogram(LatticeField(np.zeros((4, 4))))
        assert np.all(pg.values == 0.0)

    def test_single_spike_2x2(self):
        vals = np.zeros((2, 2))
        vals[0, 0] = 1.0
        pg = periodogram(LatticeField(vals))
        expected = 1.0 / (TWO_PI ** 2 * 4)
        for j in grid_indices(pg.grid):
            assert value_at(pg, j) == pytest.approx(expected, rel=1e-12)

    def test_matches_brute_force(self, rng):
        vals = rng.standard_normal((4, 3))
        pg = periodogram(LatticeField(vals))
        for j in grid_indices(pg.grid):
            w = frequency(pg.grid, j)
            assert value_at(pg, j) == pytest.approx(
                brute_periodogram(vals, w), rel=1e-10)

    def test_parseval_identity(self, rng):
        for shape in [(4, 4), (7, 5), (16, 16), (64, 64)]:
            vals = rng.standard_normal(shape)
            f = LatticeField(vals)
            pg = periodogram(f)
            lhs = TWO_PI ** 2 / f.n * (np.sum(pg.values) - pg.values[0, 0])
            rhs = np.mean(vals ** 2) - np.mean(vals) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_negation_symmetry(self, rng):
        pg = periodogram(LatticeField(rng.standard_normal((6, 5))))
        for j in grid_indices(pg.grid):
            a, b = value_at(pg, j), value_at(pg, negate(pg.grid, j))
            assert abs(a - b) <= 1e-10 * (1.0 + a)

    def test_mean_shift_invariance(self, rng):
        vals = rng.standard_normal((8, 8))
        pg0 = periodogram(LatticeField(vals))
        pg1 = periodogram(LatticeField(vals + 17.3))
        for j in grid_indices(pg0.grid):
            assert value_at(pg1, j) == pytest.approx(value_at(pg0, j),
                                                     rel=1e-8, abs=1e-12)

    def test_iid_gaussian_mean_level(self):
        # mean of I over the grid estimates (2 pi)^-2 for unit white noise
        target = 1.0 / TWO_PI ** 2
        means = []
        for i in range(200):
            f = simulate_gaussian(WhiteNoise(1.0), 64, 64,
                                  rngmod.stream(11, rngmod.TAG_ORACLE, i))
            pg = periodogram(f)
            means.append((np.sum(pg.values) - pg.values[0, 0]) / (f.n - 1))
        means = np.asarray(means)
        se = np.std(means, ddof=1) / np.sqrt(len(means))
        assert abs(np.mean(means) - target) <= 3.0 * se

    def test_rejects_nonfinite(self):
        with pytest.raises(ConfigError):
            LatticeField(np.array([[1.0, np.nan], [0.0, 2.0]]))


class TestPeriodogramAt:
    # periodogram_at is the off-grid oracle in conftest; these keep it
    # honest against the FFT route
    def test_constant_field_at_fourier_frequency(self):
        f = LatticeField(np.full((3, 3), 2.5))
        assert periodogram_at(f.values, (TWO_PI / 3, 0.0)) == pytest.approx(0.0, abs=1e-24)
        pg = periodogram(f)
        assert np.all(pg.values[pg.grid.nonzero_mask] <= 1e-24)

    def test_zero_field_any_frequency(self):
        assert periodogram_at(np.zeros((4, 5)), (0.7, -1.1)) == 0.0

    def test_agrees_with_fft_at_grid_frequency(self, rng):
        f = LatticeField(rng.standard_normal((4, 4)))
        pg = periodogram(f)
        w = frequency(pg.grid, (1, 1))
        assert periodogram_at(f.values, w) == pytest.approx(value_at(pg, (1, 1)),
                                                            rel=1e-10)


class TestFieldIO:
    def test_csv_round_trip(self, rng, tmp_path):
        f = LatticeField(rng.standard_normal((5, 3)))
        path = tmp_path / "f.csv"
        save_field_csv(f, path)
        back = load_field_csv(path)
        assert np.array_equal(back.values, f.values)

    def test_binary_round_trip(self, rng, tmp_path):
        f = LatticeField(rng.standard_normal((7, 4)))
        path = tmp_path / "f.bin"
        save_field_binary(f, path)
        back = load_field_binary(path)
        assert np.array_equal(back.values, f.values)
        assert (back.n1, back.n2) == (7, 4)
        # the column-major dump is read into a row-major array of its own
        assert back.values.flags.c_contiguous and back.values.base is None

    def test_binary_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ConfigError):
            load_field_binary(path)
