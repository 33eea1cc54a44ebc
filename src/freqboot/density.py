"""Kernel-smoothed spectral density estimate on the Fourier grid.

The bootstrap replaces periodogram ordinates by multiples of a
consistent density estimate, so the estimator below only has to be a
well-behaved smoother: Nadaraya-Watson weights with a compactly
supported product kernel, distances wrapped on the frequency torus,
output symmetrized and floored away from zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .lattice import FrequencyGrid, Periodogram

_TWO_PI = 2.0 * np.pi
_FLOOR_REL = 1e-6


@dataclass(frozen=True)
class SpectralDensityEstimate:
    """Positive, negation-symmetric density values in FFT layout."""

    grid: FrequencyGrid
    values: np.ndarray = field(repr=False)
    bandwidth: tuple[float, float]


#: default bandwidth scale; calibrated so the wild-bootstrap variance tracks
#: the first variance component for peaked spectra at the experiment sizes
DEFAULT_BANDWIDTH_SCALE = 0.35


def default_bandwidth(n1: int, n2: int) -> tuple[float, float]:
    """Rate heuristic c * pi * n_k^(-1/6) per dimension, c the scale above."""
    return tuple(DEFAULT_BANDWIDTH_SCALE * np.pi * n ** (-1.0 / 6.0) for n in (n1, n2))


def _wrap_distance(n: int) -> np.ndarray:
    """Circular frequency distance of each FFT-layout offset from 0."""
    p = np.arange(n)
    return _TWO_PI * np.minimum(p, n - p) / n


def _epanechnikov(u: np.ndarray) -> np.ndarray:
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)


@lru_cache(maxsize=64)
def _smoother_pieces(n1: int, n2: int, b1: float, b2: float):
    """Circular-convolution pieces for one grid and bandwidth: the
    kernel's transform and the denominator, which never changes for a
    given grid and bandwidth."""
    kern = np.outer(_epanechnikov(_wrap_distance(n1) / b1),
                    _epanechnikov(_wrap_distance(n2) / b2))
    kern_f = np.fft.rfft2(kern)
    mask = np.ones((n1, n2))
    mask[0, 0] = 0.0
    denom = np.fft.irfft2(np.fft.rfft2(mask) * kern_f, s=(n1, n2))
    return kern_f, denom


def kernel_density_estimate(pgram: Periodogram,
                            bandwidth=None) -> SpectralDensityEstimate:
    """Smooth the periodogram into a spectral density estimate.

    fhat(omega_j) = sum_k W(omega_j - omega_k) I(omega_k)
                  / sum_k W(omega_j - omega_k)

    with k running over the nonzero frequencies, W a product Epanechnikov
    kernel of the given bandwidths (radians), and distances wrapped on
    [-pi, pi]^2.  The result is symmetrized under modular negation and
    floored at 1e-6 of its maximum so downstream variance formulas never
    divide or square a zero.
    """
    grid = pgram.grid
    if bandwidth is None:
        bandwidth = default_bandwidth(grid.n1, grid.n2)
    b1, b2 = float(bandwidth[0]), float(bandwidth[1])
    if not (0.0 < b1 <= np.pi) or not (0.0 < b2 <= np.pi):
        raise ConfigError(f"bandwidth components must lie in (0, pi], got {bandwidth}")

    kern_f, denom = _smoother_pieces(grid.n1, grid.n2, b1, b2)
    masked = pgram.values.copy()
    masked[0, 0] = 0.0
    numer = np.fft.irfft2(np.fft.rfft2(masked) * kern_f, s=(grid.n1, grid.n2))
    # denom is positive off the origin (every ordinate keeps its self
    # weight); the origin entry is excluded from all spectral sums and
    # only needs a finite placeholder
    denom_safe = denom.copy()
    denom_safe[0, 0] = max(denom[0, 0], 1.0)
    fhat = numer / denom_safe
    fhat[0, 0] = float(np.mean(fhat[grid.nonzero_mask]))

    fhat = 0.5 * (fhat + grid.negate_array(fhat))
    peak = float(np.max(fhat[grid.nonzero_mask]))
    if peak > 0.0:
        np.maximum(fhat, _FLOOR_REL * peak, out=fhat)
    return SpectralDensityEstimate(grid=grid, values=fhat, bandwidth=(b1, b2))
