"""Overlapping spatial block subsampling in the frequency domain.

Every translate of a b1 x b2 window inside the observed grid yields a
subsample periodogram on the window's own Fourier grid and a small-scale
copy of the spectral mean statistic.  The spread of those copies
estimates the limit variance of the full-sample statistic, and the
per-frequency spread isolates the component driven by periodogram
marginal variances; their difference captures the fourth-order cumulant
part that the wild bootstrap misses.

Blocks are real, so their periodograms are mirror symmetric and only the
half grid k2 = 0..b2//2 is transformed: one real FFT per row window of
the field, shared by every block that contains the row, then one
length-b1 FFT down each block's rows.

Blocks are transformed in batches of origin rows.  A field of two or
more batches has them computed on up to one thread per CPU, and their
per-frequency moments are merged in batch order on the calling thread;
the batches, and so every bit of the result, do not depend on the
thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _pool
from .errors import ConfigError
from .lattice import FrequencyGrid, LatticeField, build_frequency_grid
from .spectral import PsiFunction, SpectralMeanValue

_TWO_PI = 2.0 * np.pi

# cap each batch's FFT workspace at roughly this many complex half-grid
# values (4 MiB, plus one real array of half the size for |f|^2); every
# batch in flight on a thread holds its own.  With 9 x 9 blocks on a
# 512 x 512 field this ran about a third faster than 2,000,000 values
# (2-vCPU Xeon, numpy 2.4).  It also sets the batches, and so the order
# of the moment merges: changing it moves the moments at rounding level
_CHUNK_BUDGET = 262_144


@dataclass(frozen=True)
class BlockSpec:
    """Block extents; implies L = (n1 - b1 + 1)(n2 - b2 + 1) translates."""

    b1: int
    b2: int

    def __post_init__(self):
        if self.b1 < 2 or self.b2 < 2:
            raise ConfigError(f"block extents must be >= 2, got ({self.b1}, {self.b2})")

    @property
    def b(self) -> int:
        return self.b1 * self.b2


@dataclass(frozen=True)
class SubsampleEnsemble:
    """All L block statistics, reduced on the fly.

    Block periodograms are never all materialized: the per-frequency
    running mean and sum of squared deviations (Welford merge over
    batches, fixed block order) are accumulated as the FFT batches
    stream through, so results are bit-reproducible for a given field.
    """

    spec: BlockSpec
    grid: FrequencyGrid                                  # block Fourier grid
    L: int
    block_means: np.ndarray = field(repr=False)          # per-block spectral means
    per_freq_m2: np.ndarray = field(repr=False)          # sum (I - Itilde)^2
    psi_block: np.ndarray = field(repr=False)
    psi_block_neg: np.ndarray = field(repr=False)

    @property
    def b(self) -> int:
        return self.spec.b

    @property
    def subsample_grand_mean(self) -> float:
        return float(np.mean(self.block_means))


@dataclass(frozen=True)
class VarianceEstimates:
    """Subsampling variance estimators.

    ``sigma2_sq_hat`` is the raw difference and may be negative in finite
    samples; ``floored_sigma2`` is the nonnegative value used downstream.
    """

    sigma_sq_hat: float
    sigma1_sq_hat: float
    sigma2_sq_hat: float

    @property
    def floored_sigma2(self) -> float:
        return max(self.sigma2_sq_hat, 0.0)


def _welford_merge(count_a, mean_a, m2_a, count_b, mean_b, m2_b):
    count = count_a + count_b
    delta = mean_b - mean_a
    mean = mean_a + delta * (count_b / count)
    m2 = m2_a + m2_b + delta * delta * (count_a * count_b / count)
    return count, mean, m2


def _half_grid_weights(psi_block: np.ndarray,
                       psi_block_neg: np.ndarray) -> np.ndarray:
    """psi folded onto the columns k2 = 0..b2//2 of the block grid.

    A paired column k2 (0 < k2 < b2/2) stands for itself and for its
    mirror -k2, whose intensity at (k1, -k2) is I(-k1, k2); so it carries
    psi(k) + psi(-k).  Column 0 and, for even b2, column b2/2 are their
    own mirrors and carry psi(k).  The origin carries 0.
    """
    b2 = psi_block.shape[1]
    w = psi_block[:, :b2 // 2 + 1].copy()
    paired = slice(1, (b2 + 1) // 2)
    w[:, paired] += psi_block_neg[:, paired]
    w[0, 0] = 0.0
    return w


def _mirror_to_full(half: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """Expand per-frequency values on columns 0..b2//2 to the full FFT
    layout using a(-k) = a(k).

    Each mirror pair is read from one side only (the paired columns, and
    the rows k1 <= b1//2 of the self-mirrored columns), so the result is
    exactly mirror symmetric.
    """
    b1, b2 = grid.n1, grid.n2
    k1 = np.arange(b1)[:, None]
    k2 = np.arange(b2)[None, :]
    paired = (k2 > 0) & (2 * k2 < b2)
    own = (k2 <= b2 // 2) & (paired | (k1 <= b1 // 2))
    return half[np.where(own, k1, grid.neg1[:, None]),
                np.where(own, k2, grid.neg2[None, :])]


def _ensemble_batch(values: np.ndarray, r0: int, r1: int, b1: int, b2: int,
                    norm: float, weights: np.ndarray, scale: float,
                    out: np.ndarray):
    """Write the means of the blocks with origin rows r0..r1-1 to ``out``
    and return their (count, mean, m2) per half-grid frequency.

    |f|^2 norm is formed in place with the operations, and the order, of
    (f.real ** 2 + f.imag ** 2) * norm, and the transform is dropped
    before the deviations, so a batch holds its complex transform and
    one real array at most.
    """
    row_f = np.fft.rfft(sliding_window_view(values[r0:r1 + b1 - 1], b2, axis=1),
                        axis=-1)
    f = np.fft.fft(sliding_window_view(row_f, b1, axis=0), axis=-1)
    del row_f
    intens = f.real * f.real
    np.square(f.imag, out=f.imag)
    intens += f.imag
    del f
    intens *= norm
    intens = intens.reshape(-1, *weights.shape)
    out[:] = scale * np.tensordot(intens, weights, axes=2)
    mean = intens.mean(axis=0)
    intens -= mean
    np.square(intens, out=intens)
    return intens.shape[0], mean, intens.sum(axis=0)


def subsample_ensemble(fieldz: LatticeField, spec: BlockSpec,
                       psi: PsiFunction) -> SubsampleEnsemble:
    """Compute all block periodogram statistics for one field.

    Each block's periodogram lives on the block's own b1 x b2 Fourier
    grid; the block spectral mean is (2 pi)^2 b^-1 sum_j psi(omega_j,b)
    I_block(omega_j,b).  Blocks are processed in row-major origin order
    in batches of origin rows.  Each batch takes one real FFT of every
    length-b2 row window of the field rows it covers, then one length-b1
    FFT down each b1-row window of those transforms, giving the half grid
    k2 = 0..b2//2 of every block.  Block means use psi folded onto the
    half grid; the per-frequency moments are accumulated there and
    mirrored to the full layout at the end.

    A field of two or more batches has them computed on up to one thread
    per CPU; their moments are merged in batch order on this thread, so
    the result does not depend on the thread count.
    """
    n1, n2 = fieldz.n1, fieldz.n2
    b1, b2 = spec.b1, spec.b2
    if b1 > n1 or b2 > n2:
        raise ConfigError(
            f"block ({b1}, {b2}) does not fit in grid ({n1}, {n2})")
    grid = build_frequency_grid(b1, b2)
    psi_block = psi.on_grid(grid)
    psi_block_neg = grid.negate_array(psi_block)
    # transforms come out as (origin, k2, k1); keep that order throughout
    weights = _half_grid_weights(psi_block, psi_block_neg).T

    rows, cols = n1 - b1 + 1, n2 - b2 + 1
    half = b2 // 2 + 1
    L = rows * cols
    norm = 1.0 / ((_TWO_PI ** 2) * spec.b)
    scale = (_TWO_PI ** 2) / spec.b

    rows_per_chunk = max(1, _CHUNK_BUDGET // (cols * b1 * half))
    block_means = np.empty(L)

    def batch(r0: int):
        r1 = min(r0 + rows_per_chunk, rows)
        return _ensemble_batch(fieldz.values, r0, r1, b1, b2, norm, weights,
                               scale, block_means[r0 * cols:r1 * cols])

    count = 0
    mean = np.zeros((half, b1))
    m2 = np.zeros((half, b1))
    for stats in _pool.map_ordered(batch, range(0, rows, rows_per_chunk)):
        count, mean, m2 = _welford_merge(count, mean, m2, *stats)

    return SubsampleEnsemble(spec=spec, grid=grid, L=L,
                             block_means=block_means,
                             per_freq_m2=_mirror_to_full(m2.T, grid),
                             psi_block=psi_block, psi_block_neg=psi_block_neg)


def variance_estimates(ens: SubsampleEnsemble) -> VarianceEstimates:
    """Overall, first-component, and residual variance estimators.

    sigma^2:   L^-1 sum_l b (Mhat_l - Mtilde)^2
    sigma1^2:  b^-1 (4 pi^2)^2 sum_j psi_j (psi_j + psi_-j)
               L^-1 sum_l (I_l(omega_j) - Itilde(omega_j))^2
    sigma2^2:  their difference (not floored here).
    """
    dev = ens.block_means - ens.subsample_grand_mean
    sigma_sq = float(ens.b * np.mean(dev * dev))

    weights = ens.psi_block * (ens.psi_block + ens.psi_block_neg)
    # self-conjugate (Nyquist) ordinates appear once in the spectral sum
    # and their empirical variance already carries the real-coefficient
    # doubling, so they enter with psi^2; the paired weight would double
    # count them and bias sigma1 upward by O(1/b) on even-extent blocks
    sc = ens.grid.self_conjugate_mask
    weights[sc] = ens.psi_block[sc] ** 2
    weights[0, 0] = 0.0
    per_freq_var = ens.per_freq_m2 / ens.L
    sigma1_sq = float((_TWO_PI ** 2) ** 2 / ens.b * np.sum(weights * per_freq_var))

    return VarianceEstimates(sigma_sq_hat=sigma_sq, sigma1_sq_hat=sigma1_sq,
                             sigma2_sq_hat=sigma_sq - sigma1_sq)


def bias_estimate(ens: SubsampleEnsemble, mhat: SpectralMeanValue) -> float:
    """Subsampling estimate of the centering bias,
    b^(1/2) (Mtilde - Mhat_n)."""
    return float(np.sqrt(ens.b) * (ens.subsample_grand_mean - mhat.value))


def subsample_edf(ens: SubsampleEnsemble) -> np.ndarray:
    """Sorted centered block statistics b^(1/2)(Mhat_l - Mtilde)."""
    if ens.L < 2:
        raise ConfigError("subsample EDF needs at least 2 blocks")
    vals = np.sqrt(ens.b) * (ens.block_means - ens.subsample_grand_mean)
    return np.sort(vals)


# ---------------------------------------------------------------------------
# block variograms (small-scale copies of variogram-contrast statistics)

def _block_lag_means(sq_diff: np.ndarray, spec: BlockSpec, h1: int, h2: int,
                     n1: int, n2: int) -> np.ndarray:
    win = sliding_window_view(sq_diff, (spec.b1 - h1, spec.b2 - h2))
    sums = win.sum(axis=(2, 3))
    rows = n1 - spec.b1 + 1
    cols = n2 - spec.b2 + 1
    return sums[:rows, :cols] / ((spec.b1 - h1) * (spec.b2 - h2))


def block_variogram(fieldz: LatticeField, spec: BlockSpec, h) -> np.ndarray:
    """Sample variogram 2 kappa_hat(h) on every block, row-major origins.

    Uses only pairs interior to each block (no wrap-around), so the block
    copies match the full-sample variogram's structure at small scales.
    """
    h1, h2 = int(h[0]), int(h[1])
    if (h1, h2) == (0, 0):
        raise ConfigError("block variogram lag must be nonzero")
    if h1 < 0 or (h1 == 0 and h2 < 0):  # 2 kappa(h) = 2 kappa(-h)
        h1, h2 = -h1, -h2
    if h1 >= spec.b1 or abs(h2) >= spec.b2:
        raise ConfigError(f"lag ({h1}, {h2}) has no pairs inside a "
                          f"({spec.b1}, {spec.b2}) block")
    n1, n2 = fieldz.n1, fieldz.n2
    if spec.b1 > n1 or spec.b2 > n2:
        raise ConfigError(
            f"block ({spec.b1}, {spec.b2}) does not fit in grid ({n1}, {n2})")
    v = fieldz.values
    if h2 >= 0:
        d = v[:n1 - h1, :n2 - h2] - v[h1:, h2:]
    else:
        d = v[:n1 - h1, -h2:] - v[h1:, :n2 + h2]
    return _block_lag_means(d * d, spec, h1, abs(h2), n1, n2).ravel()


def block_variogram_contrast(fieldz: LatticeField, spec: BlockSpec,
                             h1, h2) -> np.ndarray:
    """Per-block 2 kappa_hat(h1) - 2 kappa_hat(h2), one value per block
    origin in row-major order (the small-scale copies used to calibrate
    variogram-contrast tests by subsampling)."""
    return block_variogram(fieldz, spec, h1) - block_variogram(fieldz, spec, h2)


# ---------------------------------------------------------------------------
# block size selection

def default_block_candidates(n1: int, n2: int) -> list[BlockSpec]:
    """Square blocks b_k in {ceil(0.5 n^(1/4)), ..., ceil(2 n^(1/4))},
    clipped to fit the grid."""
    root = (n1 * n2) ** 0.25
    lo = max(2, int(np.ceil(0.5 * root)))
    hi = min(int(np.ceil(2.0 * root)), n1, n2)
    if hi < lo:
        raise ConfigError(f"grid ({n1}, {n2}) too small for block candidates")
    return [BlockSpec(b, b) for b in range(lo, hi + 1)]


def select_block_size_min_volatility(fieldz: LatticeField, psi: PsiFunction,
                                     candidates: list[BlockSpec],
                                     window: int = 3) -> BlockSpec:
    """Minimum-volatility choice over a sorted candidate ladder.

    Computes sigma_hat (the root of the overall subsampling variance) for
    each candidate, then the running sample standard deviation of
    sigma_hat over each window of consecutive candidates, and returns the
    center of the steadiest window; ties go to the smaller block.
    """
    if window < 3 or window % 2 == 0:
        raise ConfigError("window must be an odd integer >= 3")
    if len(candidates) < window:
        raise ConfigError(
            f"need at least {window} candidates, got {len(candidates)}")
    order = [c.b for c in candidates]
    if order != sorted(order):
        raise ConfigError("candidates must be sorted by block size ascending")

    sigma = np.array([
        np.sqrt(max(variance_estimates(
            subsample_ensemble(fieldz, c, psi)).sigma_sq_hat, 0.0))
        for c in candidates])
    half = window // 2
    best_idx, best_sd = None, np.inf
    for center in range(half, len(candidates) - half):
        sd = float(np.std(sigma[center - half:center + half + 1], ddof=1))
        if sd < best_sd:  # strict: first (smallest-b) center wins ties
            best_idx, best_sd = center, sd
    return candidates[best_idx]
