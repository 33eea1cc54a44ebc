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
from .lattice import FrequencyGrid, Periodogram, _omegas

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


def check_bandwidth(b: float, name: str) -> None:
    """Refuse a bandwidth ``b`` outside (0, pi], naming it ``name``."""
    if not 0.0 < b <= np.pi:
        raise ConfigError(f"{name} must lie in (0, pi], got {b}")


def check_bandwidth_pair(bandwidth, names=("bandwidth[0]", "bandwidth[1]")
                         ) -> tuple[float, float]:
    """``bandwidth`` as a pair of floats, refused unless it is a pair
    whose entries, named ``names``, ``check_bandwidth`` accepts."""
    try:
        b1, b2 = bandwidth
    except (TypeError, ValueError):
        raise ConfigError(f"bandwidth must be a pair ({names[0]}, {names[1]}), "
                          f"got {bandwidth!r}") from None
    b1, b2 = float(b1), float(b2)
    check_bandwidth(b1, names[0])
    check_bandwidth(b2, names[1])
    return b1, b2


def _epanechnikov(u: np.ndarray) -> np.ndarray:
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)


@lru_cache(maxsize=64)
def _smoother_pieces(n1: int, n2: int, b1: float, b2: float):
    """Circular-convolution pieces for one grid and bandwidth: the
    kernel's transform and the denominator, which never changes for a
    given grid and bandwidth.  The kernel reads each frequency's
    circular distance from 0, |omega|.  The denominator is positive off
    the origin (every ordinate keeps its self weight); the origin entry
    is excluded from all spectral sums and only needs a finite
    placeholder, at least 1."""
    kern = np.outer(_epanechnikov(np.abs(_omegas(n1)) / b1),
                    _epanechnikov(np.abs(_omegas(n2)) / b2))
    kern_f = np.fft.rfft2(kern)
    mask = np.ones((n1, n2))
    mask[0, 0] = 0.0
    denom = np.fft.irfft2(np.fft.rfft2(mask) * kern_f, s=(n1, n2))
    denom[0, 0] = max(denom[0, 0], 1.0)
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
    b1, b2 = check_bandwidth_pair(bandwidth)

    kern_f, denom = _smoother_pieces(grid.n1, grid.n2, b1, b2)
    masked = pgram.values.copy()
    masked[0, 0] = 0.0
    numer = np.fft.irfft2(np.fft.rfft2(masked) * kern_f, s=(grid.n1, grid.n2))
    fhat = numer / denom
    fhat[0, 0] = float(np.mean(fhat[grid.nonzero_mask]))

    fhat = 0.5 * (fhat + grid.negate_array(fhat))
    peak = float(np.max(fhat[grid.nonzero_mask]))
    if peak > 0.0:
        np.maximum(fhat, _FLOOR_REL * peak, out=fhat)
    return SpectralDensityEstimate(grid=grid, values=fhat, bandwidth=(b1, b2))
