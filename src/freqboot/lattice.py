"""Gridded data model and the 2D periodogram.

Observations live on a rectangular integer grid ``s = (s1, s2)``,
``1 <= s_k <= n_k``.  Spectral statistics are computed on the discrete
Fourier frequency grid

    j_k in {-floor((n_k - 1)/2), ..., floor(n_k / 2)},  j != (0, 0),

with frequencies ``omega_j = (2*pi*j1/n1, 2*pi*j2/n2)``.  Internally all
per-frequency arrays use FFT layout, shape ``(n1, n2)``, where position
``p`` along an axis holds signed index ``j = p`` for ``p <= n//2`` and
``j = p - n`` otherwise; the origin sits at position ``(0, 0)`` and is
excluded from every spectral sum.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigError

_TWO_PI = 2.0 * np.pi
_MAGIC = b"FREQBOOT"  # binary field dump, 8-byte magic


@dataclass(frozen=True)
class LatticeField:
    """Real-valued observations on an n1 x n2 integer grid.

    ``values[s1 - 1, s2 - 1]`` holds Z(s).  Values must be finite.  They
    are stored C-contiguous in float64: a strided or column-major input
    (the crop of a simulation torus, a ``.bin`` dump) is copied once, so
    a simulated field holds only its own n1 x n2 values and every
    consumer reads them in row-major order.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ConfigError(f"field must be a 2-D matrix, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ConfigError("field contains non-finite values")
        object.__setattr__(self, "values", np.ascontiguousarray(v))

    @property
    def n1(self) -> int:
        return self.values.shape[0]

    @property
    def n2(self) -> int:
        return self.values.shape[1]

    @property
    def n(self) -> int:
        return self.values.size


def _signed_indices(n: int) -> np.ndarray:
    """Signed frequency indices in FFT layout: 0, 1, ..., floor(n/2), then
    negatives.  The Nyquist index (even n) is the positive n//2."""
    p = np.arange(n)
    return np.where(p <= n // 2, p, p - n)


def _omegas(n: int) -> np.ndarray:
    """The frequencies 2 pi j / n of the signed indices, in FFT layout."""
    return _TWO_PI * _signed_indices(n) / n


class FrequencyGrid:
    """Nonzero discrete Fourier frequency grid for an n1 x n2 lattice.

    Exposes the frequency values, the half-plane mask used to seed
    symmetric bootstrap weights, and the modular negation tables used
    throughout the spectral code, all as FFT-layout arrays.

    The half-plane contains j with j1 > 0, or j1 = 0 and j2 > 0, extended
    to even extents by treating the Nyquist value n_k/2 like 0 (it is its
    own modular negation).  Every index is then covered exactly once by
    the half-plane and its modular negations; self-conjugate indices
    (both coordinates in {0, Nyquist}) belong to the half-plane.
    """

    def __init__(self, n1: int, n2: int):
        if n1 < 2 or n2 < 2:
            raise ConfigError(
                f"grid extents must be >= 2 to have a nonzero frequency, got ({n1}, {n2})")
        self.n1 = int(n1)
        self.n2 = int(n2)
        self.n = self.n1 * self.n2

        j1f = _signed_indices(self.n1)            # FFT-layout signed indices
        j2f = _signed_indices(self.n2)
        self.omega1 = _omegas(self.n1)            # per-axis frequencies, FFT layout
        self.omega2 = _omegas(self.n2)

        # modular negation as a position permutation per axis
        self.neg1 = (-np.arange(self.n1)) % self.n1
        self.neg2 = (-np.arange(self.n2)) % self.n2

        # positions whose index is its own modular negation per axis
        sc1 = self.neg1 == np.arange(self.n1)
        sc2 = self.neg2 == np.arange(self.n2)
        self_conj = np.logical_and.outer(sc1, sc2)
        self_conj[0, 0] = False                   # origin excluded from the grid
        self.self_conjugate_mask = self_conj

        nonzero = np.ones((self.n1, self.n2), dtype=bool)
        nonzero[0, 0] = False
        self.nonzero_mask = nonzero

        # half-plane: decide on j1 unless it is self-negating (0 or Nyquist),
        # then decide on j2; fully self-conjugate positions are included
        J1 = np.broadcast_to(j1f[:, None], (self.n1, self.n2))
        J2 = np.broadcast_to(j2f[None, :], (self.n1, self.n2))
        axis1_free = np.broadcast_to(~sc1[:, None], (self.n1, self.n2))
        axis2_free = np.broadcast_to(~sc2[None, :], (self.n1, self.n2))
        hp = np.where(axis1_free, J1 > 0, np.where(axis2_free, J2 > 0, True))
        hp &= self.nonzero_mask
        self.half_plane_mask = hp

    def negate_array(self, a: np.ndarray) -> np.ndarray:
        """Array indexed by FFT position, re-indexed at negated positions."""
        return a[np.ix_(self.neg1, self.neg2)]


@lru_cache(maxsize=128)
def build_frequency_grid(n1: int, n2: int) -> FrequencyGrid:
    """Construct (and cache) the frequency grid for an n1 x n2 lattice."""
    return FrequencyGrid(n1, n2)


@dataclass(frozen=True)
class Periodogram:
    """Periodogram ordinates aligned to a FrequencyGrid.

    ``values`` has FFT layout; the origin entry holds the (excluded)
    zero-frequency term and is masked out of all spectral sums.
    """

    grid: FrequencyGrid
    values: np.ndarray = field(repr=False)


def periodogram(fieldz: LatticeField) -> Periodogram:
    """2D periodogram on the full Fourier grid via FFT.

    I(omega_j) = (2*pi)^-2 n^-1 |sum_s Z(s) exp(-i s.omega_j)|^2.  The
    sites s start at 1, which only rotates the transform's phase, so the
    squared modulus of the plain FFT is used directly.
    """
    grid = build_frequency_grid(fieldz.n1, fieldz.n2)
    f = np.fft.fft2(fieldz.values)
    vals = (f.real ** 2 + f.imag ** 2) / ((_TWO_PI ** 2) * fieldz.n)
    return Periodogram(grid=grid, values=vals)


# ---------------------------------------------------------------------------
# field I/O: CSV matrix (rows = s1) and binary column-major dump with a
# 16-byte header (8-byte magic, uint32 n1, uint32 n2, little endian)

def save_field_csv(fieldz: LatticeField, path) -> None:
    with open(path, "w") as fh:
        for row in fieldz.values:
            fh.write(",".join(repr(float(x)) for x in row))
            fh.write("\n")


def load_field_csv(path) -> LatticeField:
    try:
        vals = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"cannot parse CSV field file {path}: {exc}") from exc
    return LatticeField(vals)


def save_field_binary(fieldz: LatticeField, path) -> None:
    header = _MAGIC + struct.pack("<II", fieldz.n1, fieldz.n2)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(fieldz.values.tobytes(order="F"))


def load_field_binary(path) -> LatticeField:
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16 or header[:8] != _MAGIC:
            raise ConfigError(f"{path} is not a field dump (bad magic)")
        n1, n2 = struct.unpack("<II", header[8:])
        data = np.frombuffer(fh.read(), dtype=np.float64)
    if data.size != n1 * n2:
        raise ConfigError(f"{path}: expected {n1 * n2} values, found {data.size}")
    return LatticeField(data.reshape((n1, n2), order="F"))
