"""Shared fixtures and independent brute-force oracles.

The oracles here recompute spectral quantities with plain loops and the
defining sums, never through the package's FFT paths, so tests compare
two genuinely independent routes.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from freqboot import NumericalError
from freqboot.simulate import (MaternSpectral, SphericalAniso, WhiteNoise,
                               model_spectral_density)
from freqboot.spectral import quadrature

TWO_PI = 2.0 * np.pi


def brute_periodogram(values: np.ndarray, omega) -> float:
    """Defining double sum, O(n) per frequency, sites starting at 1."""
    n1, n2 = values.shape
    total = 0.0 + 0.0j
    for s1 in range(1, n1 + 1):
        for s2 in range(1, n2 + 1):
            total += values[s1 - 1, s2 - 1] * np.exp(
                -1j * (s1 * omega[0] + s2 * omega[1]))
    return abs(total) ** 2 / (TWO_PI ** 2 * n1 * n2)


def brute_spectral_mean(values: np.ndarray, psi_fn) -> float:
    """Riemann sum over the nonzero Fourier grid with loops and the
    brute-force periodogram."""
    n1, n2 = values.shape
    total = 0.0
    for j1 in range(-((n1 - 1) // 2), n1 // 2 + 1):
        for j2 in range(-((n2 - 1) // 2), n2 // 2 + 1):
            if (j1, j2) == (0, 0):
                continue
            w = (TWO_PI * j1 / n1, TWO_PI * j2 / n2)
            total += psi_fn(w) * brute_periodogram(values, w)
    return TWO_PI ** 2 / (n1 * n2) * total


def brute_negation_table(n1: int, n2: int):
    """Modular negation of every nonzero index, by definition."""
    def wrap(j, n):
        r = (-j) % n
        return r if r <= n // 2 else r - n

    table = {}
    for j1 in range(-((n1 - 1) // 2), n1 // 2 + 1):
        for j2 in range(-((n2 - 1) // 2), n2 // 2 + 1):
            if (j1, j2) != (0, 0):
                table[(j1, j2)] = (wrap(j1, n1), wrap(j2, n2))
    return table


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


# ---------------------------------------------------------------------------
# index-level views of FFT-layout arrays, for tests that reason about
# single frequencies; the package itself works on whole arrays

def grid_indices(grid) -> list[tuple[int, int]]:
    """Nonzero signed indices of a FrequencyGrid, row-major by j1 then j2."""
    n1, n2 = grid.n1, grid.n2
    return [(j1, j2) for j1 in range(-((n1 - 1) // 2), n1 // 2 + 1)
            for j2 in range(-((n2 - 1) // 2), n2 // 2 + 1) if (j1, j2) != (0, 0)]


def position(grid, j) -> tuple[int, int]:
    """FFT-layout position of (possibly out-of-range) integer index j."""
    return (int(j[0]) % grid.n1, int(j[1]) % grid.n2)


def half_plane(grid) -> list[tuple[int, int]]:
    """The indices the grid's half-plane mask selects."""
    return [j for j in grid_indices(grid) if grid.half_plane_mask[position(grid, j)]]


def negate(grid, j) -> tuple[int, int]:
    """Modular negation of index j, reduced to the grid's signed range."""
    return brute_negation_table(grid.n1, grid.n2)[tuple(j)]


def frequency(grid, j) -> tuple[float, float]:
    return (TWO_PI * j[0] / grid.n1, TWO_PI * j[1] / grid.n2)


def value_at(spectrum, j) -> float:
    """Value of a Periodogram or SpectralDensityEstimate at index j."""
    p = position(spectrum.grid, j)
    assert p != (0, 0), "origin frequency is not part of the grid"
    return float(spectrum.values[p])


def periodogram_at(values: np.ndarray, omega) -> float:
    """Periodogram at an arbitrary frequency pair by direct O(n)
    summation, in matrix form."""
    w1, w2 = float(omega[0]), float(omega[1])
    n1, n2 = values.shape
    e1 = np.exp(-1j * w1 * np.arange(1, n1 + 1))
    e2 = np.exp(-1j * w2 * np.arange(1, n2 + 1))
    total = e1 @ values @ e2
    return float((total.real ** 2 + total.imag ** 2) / (TWO_PI ** 2 * n1 * n2))


def enumerate_blocks(n1: int, n2: int, spec) -> list[tuple[int, int]]:
    """Row-major origins (zero-based offsets) of all in-grid translates."""
    return [(o1, o2) for o1 in range(n1 - spec.b1 + 1)
            for o2 in range(n2 - spec.b2 + 1)]


# ---------------------------------------------------------------------------
# limit theory of sqrt(n)(Mhat - M)

def centered_statistic(mhat, m_true: float) -> float:
    """sqrt(n) (Mhat - M), the quantity whose distribution is resampled."""
    return float(np.sqrt(mhat.n) * (mhat.value - m_true))


@dataclass(frozen=True)
class AnalyticLimits:
    """Limit variance components of sqrt(n)(Mhat - M).

    sigma2_sq collects the fourth-order cumulant contribution; it is 0
    for Gaussian models and must come from a Monte Carlo oracle
    otherwise (no general estimator of the cumulant spectrum is built).
    """

    sigma1_sq: float
    sigma2_sq: float
    model: object


def analytic_sigma1_sq(model, psi, rel_tol: float = 1e-6) -> float:
    """First limit-variance component

        sigma1^2 = (2 pi)^2 int psi(w) [psi(w) + psi(-w)] f(w)^2 dw

    by quadrature against the model's spectral density."""
    def integrand(w1, w2):
        f = model_spectral_density(model, w1, w2)
        return psi.fn(w1, w2) * (psi.fn(w1, w2) + psi.fn(-w1, -w2)) * f * f

    return (TWO_PI ** 2) * quadrature(integrand, rel_tol=rel_tol)


def analytic_limits(model, psi) -> AnalyticLimits:
    """Variance components for Gaussian test models (sigma2^2 = 0);
    non-Gaussian models have no closed-form second component."""
    if not isinstance(model, (WhiteNoise, MaternSpectral, SphericalAniso)):
        raise NumericalError(
            "sigma2^2 has no analytic value for non-Gaussian models; "
            "estimate it by Monte Carlo")
    return AnalyticLimits(sigma1_sq=analytic_sigma1_sq(model, psi),
                          sigma2_sq=0.0, model=model)
