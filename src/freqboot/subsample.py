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

Blocks are transformed in batches of origin rows.  The batches of a
field's ensemble, or of all the ensembles of a ladder of block sizes on
one field (the minimum-volatility candidates, or a resampler's blocks),
are computed on up to one thread per CPU, and each ensemble's
per-frequency moments are merged in batch order on the calling thread;
the batches, and so every bit of the result, depend on neither the
thread count nor the other block sizes of the ladder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _pool
from .errors import ConfigError
from .lattice import _TWO_PI, FrequencyGrid, LatticeField, build_frequency_grid
from .spectral import PsiFunction, SpectralMeanValue

# cap each batch's workspace, one C-order complex buffer of its column
# transforms, at roughly this many half-grid values (4 MiB, plus one
# real array of half its size for |f|^2); every batch in flight on a
# thread holds its own.  With 9 x 9 blocks on a 512 x 512 field this ran
# about a third faster than 2,000,000 values (2-vCPU Xeon, numpy 2.4).
# It also sets the batches, and so the order of the moment merges:
# changing it moves the moments at rounding level
_CHUNK_BUDGET = 262_144

# a ladder computes its block sizes in waves of at most this many block
# means (4 MiB), or one size's: the 35 minimum-volatility candidates of a
# 512 x 512 field hold about 63 MiB of means in all
_WAVE_MEANS = 524_288


@dataclass(frozen=True)
class BlockSpec:
    """Block extents; implies L = (n1 - b1 + 1)(n2 - b2 + 1) translates.
    A spec unpacks as its (b1, b2), so one value serves every caller."""

    b1: int
    b2: int

    def __post_init__(self):
        check_extents((self.b1, self.b2), "spec")

    @property
    def b(self) -> int:
        return self.b1 * self.b2

    def __iter__(self):
        return iter((self.b1, self.b2))


# The preconditions of block subsampling.  Each is tested and worded here
# once; a caller names what it checks, as an argument or a config key.

def check_extents(size, name: str) -> None:
    """Refuse a (b1, b2) block ``size``, named ``name``, with an extent
    below 2: a block's Fourier grid, like a field's, needs two points on
    each axis."""
    if min(size) < 2:
        raise ConfigError(f"{name}: extents must be >= 2, got {size[0]}x{size[1]}")


def check_lag(h, name: str, block=None, block_name: str = "") -> None:
    """Refuse a zero lag ``h``, named ``name``, and one with no pair of
    points inside a (b1, b2) ``block`` (or a whole grid) when one is
    given, naming that ``block_name``."""
    h = (int(h[0]), int(h[1]))
    if h == (0, 0):
        raise ConfigError(f"{name} must be a nonzero lag: the contrast "
                          f"compares the variogram at two lags")
    if block is not None and (abs(h[0]) >= block[0] or abs(h[1]) >= block[1]):
        raise ConfigError(f"{block_name}: block {block[0]}x{block[1]} has no pairs "
                          f"at lag {name}={h}, and methods=subsample compares "
                          f"the variogram at that lag inside every block")


def check_block(size, grid, methods, name: str, lags=()) -> None:
    """Refuse a (b1, b2) block ``size``, named ``name``, that is None (no
    block) when one of ``methods`` reads a block ensemble (every method
    but fdwb), that does not fit an (n1, n2) ``grid``, that has one
    translate in it when one of ``methods`` reads the spread of the block
    copies, which one translate leaves at 0 (every method but fdwb: the
    subsample EDF, and the hybrids' second variance component), or that
    has no pair of points at one of ``lags``, (name, h) pairs that the
    isotropy subsample calibration compares in it."""
    spread = [m for m in methods if m != "fdwb"]
    if size is None:
        if spread:
            raise ConfigError(f"{name}: methods={spread[0]} needs a block size")
        return
    (b1, b2), (n1, n2) = size, grid
    if b1 > n1 or b2 > n2:
        raise ConfigError(f"{name}: block {b1}x{b2} does not fit grid {n1}x{n2}")
    if spread and (n1 - b1 + 1) * (n2 - b2 + 1) < 2:
        # subsample is named where it is listed: its EDF would be one point
        named = "subsample" if "subsample" in spread else spread[0]
        raise ConfigError(f"{name}: block {b1}x{b2} has one translate in "
                          f"grid {n1}x{n2}, {named} needs at least 2")
    for lag_name, h in lags:
        check_lag(h, lag_name, (b1, b2), name)


def check_window(window: int, name: str) -> None:
    """Refuse a minimum-volatility ``window``, named ``name``, that is not
    an odd integer of at least 3: it must have a center."""
    if window < 3 or window % 2 == 0:
        raise ConfigError(f"{name} must be an odd integer >= 3, got {window}")


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
    per_freq_m2: np.ndarray = field(repr=False)          # sum (I - Itilde)^2, half grid (k1, k2)
    sigma1_weights: np.ndarray = field(repr=False)       # see _block_tables

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


def _windows(a: np.ndarray, w: int, axis: int) -> np.ndarray:
    """Every length-``w`` window of the C-contiguous ``a`` along ``axis``,
    as ``sliding_window_view(a, w, axis)`` views them (but writable), built
    by the ndarray constructor: that wrapper holds the GIL for 15-20 us a
    call, this for 1-2 us (2-vCPU Xeon, numpy 2.4)."""
    shape = list(a.shape)
    shape[axis] -= w - 1
    return np.ndarray((*shape, w), a.dtype, a, 0, (*a.strides, a.strides[axis]))


def _block_tables(psi_block: np.ndarray, grid: FrequencyGrid):
    """psi's read-only tables on a block grid, built once per (psi, block
    shape), both on the half grid k2 = 0..b2//2: its weights, as (k2,
    k1), for the block means, and the sigma1^2 weights, as (k1, k2).

    A paired column k2 (0 < k2 < b2/2) stands for itself and for its
    mirror -k2, whose intensity at (k1, -k2) is I(-k1, k2); so it carries
    psi(k) + psi(-k).  Column 0 and, for even b2, column b2/2 are their
    own mirrors and carry psi(k).  sigma1^2 weighs frequency k of the
    full grid by psi(k) (psi(k) + psi(-k)), so a paired column, which
    stands for k and -k with one variance, carries (psi(k) + psi(-k))^2
    and a self-mirrored one psi(k) (psi(k) + psi(-k)).  Self-conjugate
    (Nyquist) ordinates appear once in the spectral sum and their
    empirical variance already carries the real-coefficient doubling, so
    they enter with psi^2; the paired weight would double count them and
    bias sigma1 upward by O(1/b) on even-extent blocks.  The origin
    carries 0 in both.
    """
    cols = grid.n2 // 2 + 1
    psi, psi_neg = psi_block[:, :cols], grid.negate_array(psi_block)[:, :cols]
    half = psi.copy()
    paired = slice(1, (grid.n2 + 1) // 2)
    half[:, paired] += psi_neg[:, paired]
    sigma1 = psi * (psi + psi_neg)
    sigma1[:, paired] = half[:, paired] ** 2
    own = grid.self_conjugate_mask[:, :cols]
    sigma1[own] = psi[own] ** 2
    half[0, 0] = sigma1[0, 0] = 0.0
    half.flags.writeable = sigma1.flags.writeable = False
    # transforms come out as (origin, k2, k1); keep that order throughout
    return half.T, sigma1


class _Blocks(NamedTuple):
    """One block size's ensemble before its batches run: what every batch
    reads, built on the calling thread."""

    spec: BlockSpec
    grid: FrequencyGrid
    weights: np.ndarray       # psi on the half grid, as (k2, k1)
    sigma1_weights: np.ndarray
    rows: int                 # origin rows
    cols: int                 # origins per row
    rows_per_batch: int

    @classmethod
    def of(cls, fieldz: LatticeField, spec: BlockSpec,
           psi: PsiFunction) -> "_Blocks":
        n1, n2 = fieldz.n1, fieldz.n2
        b1, b2 = spec.b1, spec.b2
        check_block((b1, b2), (n1, n2), (), "spec")
        grid = build_frequency_grid(b1, b2)
        cols = n2 - b2 + 1
        return cls(spec, grid, *psi.derived("block", grid, _block_tables, "spec"),
                   n1 - b1 + 1, cols,
                   max(1, _CHUNK_BUDGET // (cols * b1 * (b2 // 2 + 1))))

    @property
    def L(self) -> int:
        return self.rows * self.cols

    def batches(self) -> range:
        """The first origin row of each batch."""
        return range(0, self.rows, self.rows_per_batch)

    def run(self, values: np.ndarray, r0: int, block_means: np.ndarray):
        """Write the means of the blocks of the batch starting at origin
        row r0 to ``block_means`` and return the batch's (count, mean,
        m2) per half-grid frequency.

        The column transform writes into one C-order complex buffer, so
        |f|^2 norm is formed from its float view, with the operations and
        the order of (f.real ** 2 + f.imag ** 2) * norm, into one C-order
        real array of half its size, which is reshaped without a copy.
        The transform is dropped before the deviations, so a batch holds
        those two arrays at most.  The block means are the ``np.dot``
        that ``np.tensordot(intens, weights, axes=2)`` performs, and the
        moments the ``np.add.reduce`` sums of ``ndarray.mean`` and
        ``.sum``, called without those Python wrappers, which hold the
        GIL against the bootstrap fill that may run beside a ladder.
        """
        (b1, b2), r1 = self.spec, min(r0 + self.rows_per_batch, self.rows)
        row_f = np.fft.rfft(_windows(values[r0:r1 + b1 - 1], b2, 1), axis=-1)
        f = np.empty((r1 - r0, self.cols, b2 // 2 + 1, b1), complex)
        np.fft.fft(_windows(row_f, b1, 0), axis=-1, out=f)
        del row_f
        v = f.view(np.float64)
        np.square(v, out=v)
        intens = v[..., 0::2] + v[..., 1::2]
        del f, v
        intens *= 1.0 / ((_TWO_PI ** 2) * self.spec.b)
        intens = intens.reshape(-1, *self.weights.shape)
        count = intens.shape[0]
        block_means[r0 * self.cols:r1 * self.cols] = (
            (_TWO_PI ** 2) / self.spec.b
            * np.dot(intens.reshape(count, -1), self.weights.reshape(-1)))
        mean = np.add.reduce(intens, axis=0) / count
        intens -= mean
        np.square(intens, out=intens)
        return count, mean, np.add.reduce(intens, axis=0)

    def cost(self, r0: int) -> int:
        """The batch's half-grid values, its share of the work."""
        return ((min(r0 + self.rows_per_batch, self.rows) - r0) * self.cols
                * self.spec.b1 * self.weights.shape[0])


def _wave(values: np.ndarray, blocks: list[_Blocks],
          first=None) -> list[SubsampleEnsemble]:
    """The ensembles of ``blocks``: every batch of every one a task of
    ``_pool.map_ordered``, handed out largest first, with this thread's
    ``first`` job, and each ensemble's batch moments merged in batch
    order on this thread."""
    means = [np.empty(blk.L) for blk in blocks]
    tasks = sorted(((i, r0) for i, blk in enumerate(blocks)
                    for r0 in blk.batches()),
                   key=lambda t: -blocks[t[0]].cost(t[1]))
    stats = dict(zip(tasks, _pool.map_ordered(
        lambda t: blocks[t[0]].run(values, t[1], means[t[0]]), tasks, first)))
    out = []
    for i, blk in enumerate(blocks):
        count = 0
        mean = np.zeros(blk.weights.shape)
        m2 = np.zeros(blk.weights.shape)
        for r0 in blk.batches():
            count, mean, m2 = _welford_merge(count, mean, m2, *stats[i, r0])
        out.append(SubsampleEnsemble(
            spec=blk.spec, grid=blk.grid, L=blk.L, block_means=means[i],
            per_freq_m2=m2.T,
            sigma1_weights=blk.sigma1_weights))
    return out


def _ladder(fieldz: LatticeField, specs, psi: PsiFunction, first=None):
    """Yield (spec, ensemble) for each of ``specs``, in order.

    All the batches of a wave of block sizes are tasks of one
    ``_pool.map_ordered`` call, and each ensemble's moments are merged in
    batch order, so every bit is as ``subsample_ensemble`` computes it
    alone, whatever the thread count, the spec order or the waves.  A
    wave holds at most ``_WAVE_MEANS`` block means, or one block size's,
    so a caller that keeps only a figure of each ensemble holds one
    wave's at a time.  Every spec is checked before any batch runs, and
    this thread runs ``first``, if given, beside the first wave's
    batches (``_pool.map_ordered``).
    """
    specs = list(specs)
    blocks = [_Blocks.of(fieldz, s, psi) for s in specs]
    start = 0
    while start < len(blocks):
        end, held = start + 1, blocks[start].L
        while end < len(blocks) and held + blocks[end].L <= _WAVE_MEANS:
            held += blocks[end].L
            end += 1
        yield from zip(specs[start:end],
                       _wave(fieldz.values, blocks[start:end], first))
        start, first = end, None


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
    half grid; the per-frequency moments are accumulated there, and kept
    there as (k1, k2), where sigma1^2 weighs them.

    A field of two or more batches has them computed on up to one thread
    per CPU; their moments are merged in batch order on this thread, so
    the result does not depend on the thread count.
    """
    return next(_ladder(fieldz, [spec], psi))[1]


def variance_estimates(ens: SubsampleEnsemble) -> VarianceEstimates:
    """Overall, first-component, and residual variance estimators.

    sigma^2:   L^-1 sum_l b (Mhat_l - Mtilde)^2
    sigma1^2:  b^-1 (4 pi^2)^2 sum_j psi_j (psi_j + psi_-j)
               L^-1 sum_l (I_l(omega_j) - Itilde(omega_j))^2
    sigma2^2:  their difference (not floored here).

    sigma1^2's sum over the full grid is taken on the half grid, with
    each column's weight standing for its mirror too (``_block_tables``).
    """
    dev = ens.block_means - ens.subsample_grand_mean
    sigma_sq = float(ens.b * np.mean(dev * dev))
    per_freq_var = ens.per_freq_m2 / ens.L
    sigma1_sq = float((_TWO_PI ** 2) ** 2 / ens.b
                      * np.sum(ens.sigma1_weights * per_freq_var))

    return VarianceEstimates(sigma_sq_hat=sigma_sq, sigma1_sq_hat=sigma1_sq,
                             sigma2_sq_hat=sigma_sq - sigma1_sq)


def bias_estimate(ens: SubsampleEnsemble, mhat: SpectralMeanValue) -> float:
    """Subsampling estimate of the centering bias,
    b^(1/2) (Mtilde - Mhat_n)."""
    return float(np.sqrt(ens.b) * (ens.subsample_grand_mean - mhat.value))


def subsample_edf(ens: SubsampleEnsemble) -> np.ndarray:
    """Sorted centered block statistics b^(1/2)(Mhat_l - Mtilde)."""
    # a grid with the ensemble's L translates; with one, the block's own
    b1, b2 = ens.spec.b1, ens.spec.b2
    check_block((b1, b2), (b1 + ens.L - 1, b2), ("subsample",), "ens")
    vals = np.sqrt(ens.b) * (ens.block_means - ens.subsample_grand_mean)
    return np.sort(vals)


# ---------------------------------------------------------------------------
# block variograms (small-scale copies of variogram-contrast statistics)

def _block_lag_means(sq_diff: np.ndarray, spec: BlockSpec, h1: int,
                     h2: int) -> np.ndarray:
    """Mean of ``sq_diff`` over its (b1 - h1) x (b2 - h2) window at every
    block origin: a sliding sum along the rows, then one down the columns
    of those sums."""
    w1, w2 = spec.b1 - h1, spec.b2 - h2
    row_sums = _windows(sq_diff, w2, 1).sum(axis=-1)
    sums = _windows(row_sums, w1, 0).sum(axis=-1)
    return sums / (w1 * w2)


def _lag_squares(v: np.ndarray, h1: int, h2: int) -> np.ndarray:
    """(Z(s) - Z(s + h))^2 over every pair s, s + h inside the values v,
    for a lag h that fits in them.  The lag is taken as h or -h, whichever
    has its first nonzero component positive: the pairs are the same and
    negated differences square to the same bits."""
    if h1 < 0 or (h1 == 0 and h2 < 0):
        h1, h2 = -h1, -h2
    n1, n2 = v.shape
    if h2 >= 0:
        d = v[:n1 - h1, :n2 - h2] - v[h1:, h2:]
    else:
        d = v[:n1 - h1, -h2:] - v[h1:, :n2 + h2]
    return d * d


def block_variogram(fieldz: LatticeField, spec: BlockSpec, h) -> np.ndarray:
    """Sample variogram 2 kappa_hat(h) on every block, row-major origins.

    Uses only pairs interior to each block (no wrap-around), so the block
    copies match the full-sample variogram's structure at small scales.
    """
    check_block(spec, (fieldz.n1, fieldz.n2), (), "spec", (("h", h),))
    h1, h2 = int(h[0]), int(h[1])
    sq = _lag_squares(fieldz.values, h1, h2)
    return _block_lag_means(sq, spec, abs(h1), abs(h2)).ravel()


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
                                     window: int = 3,
                                     name: str = "window") -> BlockSpec:
    """Minimum-volatility choice over a sorted candidate ladder.

    Computes sigma_hat (the root of the overall subsampling variance) for
    each candidate, from one ladder of their ensembles, then the running
    sample standard deviation of sigma_hat over each window of
    consecutive candidates, and returns the center of the steadiest
    window; ties go to the smaller block.  A window refusal names it
    ``name``.
    """
    check_window(window, name)
    if len(candidates) < window:
        raise ConfigError(f"{name}={window} needs at least {window} "
                          f"candidates, got {len(candidates)}")
    order = [c.b for c in candidates]
    if order != sorted(order):
        raise ConfigError("candidates must be sorted by block size ascending")

    sigma = np.array([
        np.sqrt(max(variance_estimates(ens).sigma_sq_hat, 0.0))
        for _, ens in _ladder(fieldz, candidates, psi)])
    half = window // 2
    best_idx, best_sd = None, np.inf
    for center in range(half, len(candidates) - half):
        sd = float(np.std(sigma[center - half:center + half + 1], ddof=1))
        if sd < best_sd:  # strict: first (smallest-b) center wins ties
            best_idx, best_sd = center, sd
    return candidates[best_idx]
