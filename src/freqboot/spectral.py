"""Psi-function catalog, the spectral mean statistic, and midpoint
quadrature over the frequency square.

The target parameter is the spectral mean M(psi) = integral of
psi(omega) f(omega) over [-pi, pi]^2; its estimator is the Riemann sum
of psi times the periodogram over the nonzero Fourier frequencies.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericalError
from .lattice import Periodogram

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class PsiFunction:
    """Real function of frequency on [-pi, pi]^2, of bounded variation.

    ``fn(w1, w2)`` must accept broadcastable arrays and be free of
    internal state, so evaluation is safe from concurrent callers.
    ``name`` encodes the function and its parameters (it doubles as the
    CLI spelling).  A psi that is a cosine sum,
    sum_k c_k cos(h_k . omega), lists its (c_k, h_k) in ``cos_terms``;
    its spectral mean is then sum_k c_k gamma(h_k).
    """

    name: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    cos_terms: tuple[tuple[float, tuple[int, int]], ...] = ()

    def __call__(self, omega) -> float:
        return float(self.fn(np.asarray(omega[0], dtype=float),
                             np.asarray(omega[1], dtype=float)))

    def on_grid(self, grid) -> np.ndarray:
        """Evaluate on a FrequencyGrid in FFT layout, shape (n1, n2)."""
        return np.asarray(self.fn(grid.omega1[:, None], grid.omega2[None, :]),
                          dtype=np.float64) + np.zeros((grid.n1, grid.n2))


@dataclass(frozen=True)
class SpectralMeanValue:
    value: float
    n: int


# ---------------------------------------------------------------------------
# catalog

def psi_cos_lag(h) -> PsiFunction:
    """psi(omega) = cos(h . omega); spectral mean is the autocovariance
    gamma(h)."""
    h1, h2 = int(h[0]), int(h[1])

    def fn(w1, w2):
        return np.cos(h1 * w1 + h2 * w2)

    return PsiFunction(name=f"cos_lag{{h=({h1},{h2})}}", fn=fn,
                       cos_terms=((1.0, (h1, h2)),))


def psi_spectral_cdf(t) -> PsiFunction:
    """Indicator of the quadrant (-inf, t1] x (-inf, t2]; spectral mean is
    the spectral distribution function at t."""
    t1, t2 = float(t[0]), float(t[1])
    if not (-np.pi <= t1 <= np.pi and -np.pi <= t2 <= np.pi):
        raise ConfigError(f"spectral_cdf corner {t!r} outside [-pi, pi]^2")

    def fn(w1, w2):
        return ((w1 <= t1) & (w2 <= t2)).astype(np.float64)

    return PsiFunction(name=f"spectral_cdf{{t=({t1},{t2})}}", fn=fn)


def psi_isotropy_contrast(h1, h2) -> PsiFunction:
    """psi(omega) = 2 cos(h1 . omega) - 2 cos(h2 . omega).

    Sign convention: M(psi) = 2 gamma(h1) - 2 gamma(h2), which equals the
    variogram difference 2 kappa(h2) - 2 kappa(h1).  Under isotropy the
    spectral mean is 0 whenever ||h1|| = ||h2||.
    """
    a = (int(h1[0]), int(h1[1]))
    b = (int(h2[0]), int(h2[1]))
    if a == b:
        raise ConfigError("isotropy contrast needs two distinct lags")

    def fn(w1, w2):
        return 2.0 * np.cos(a[0] * w1 + a[1] * w2) - 2.0 * np.cos(b[0] * w1 + b[1] * w2)

    return PsiFunction(
        name=f"iso_contrast{{h1=({a[0]},{a[1]}),h2=({b[0]},{b[1]})}}",
        fn=fn, cos_terms=((2.0, a), (-2.0, b)))


_PSI_SPEC = re.compile(r"^(?P<kind>[a-z_]+)\{(?P<args>.*)\}$")
_ARG_SPLIT = re.compile(r",(?=[a-z0-9]+=\()")    # commas between arguments
_NUM = r"-?(?:[0-9]+\.?[0-9]*|\.[0-9]+)"
_PAIR = re.compile(rf"(?P<key>[a-z0-9]+)=\((?P<a>{_NUM}),(?P<b>{_NUM})\)")
_PSI_KINDS = {"cos_lag": (psi_cos_lag, ("h",)),
              "iso_contrast": (psi_isotropy_contrast, ("h1", "h2")),
              "spectral_cdf": (psi_spectral_cdf, ("t",))}


def psi_from_name(spec: str) -> PsiFunction:
    """Parse a catalog spelling such as ``cos_lag{h=(1,0)}``,
    ``iso_contrast{h1=(1,0),h2=(0,1)}`` or ``spectral_cdf{t=(0,0)}``.

    Each argument the kind needs must appear exactly once and nothing
    else may; lags must be integers, the corner ``t`` may be real.
    """
    m = _PSI_SPEC.match(spec.strip().replace(" ", ""))
    if not m:
        raise ConfigError(f"cannot parse psi descriptor {spec!r}")
    kind = m.group("kind")
    if kind not in _PSI_KINDS:
        raise ConfigError(f"unknown psi kind {kind!r}")
    args = {}
    for part in _ARG_SPLIT.split(m.group("args")):
        pair = _PAIR.fullmatch(part)
        if pair is None:
            raise ConfigError(f"psi descriptor {spec!r}: cannot parse {part!r}")
        key = pair["key"]
        if key in args:
            raise ConfigError(f"psi descriptor {spec!r} repeats argument {key!r}")
        value = (float(pair["a"]), float(pair["b"]))
        if key != "t" and not all(x.is_integer() for x in value):
            raise ConfigError(f"psi descriptor {spec!r}: lag {key} must be integers")
        args[key] = value
    build, expected = _PSI_KINDS[kind]
    if set(args) != set(expected):
        raise ConfigError(f"psi descriptor {spec!r} needs exactly the arguments "
                          f"{', '.join(expected)}")
    return build(*(args[k] for k in expected))


# ---------------------------------------------------------------------------
# statistics

def spectral_mean(pgram: Periodogram, psi: PsiFunction) -> SpectralMeanValue:
    """Riemann-sum estimator (2 pi)^2 n^-1 sum_j psi(omega_j) I(omega_j)
    over the nonzero Fourier frequencies."""
    grid = pgram.grid
    pvals = psi.on_grid(grid)
    total = float(np.sum(pvals * pgram.values)) - float(pvals[0, 0] * pgram.values[0, 0])
    return SpectralMeanValue(value=(_TWO_PI ** 2) / grid.n * total, n=grid.n)


# ---------------------------------------------------------------------------
# quadrature for analytic spectral integrals

def _midpoint_grid(m: int) -> np.ndarray:
    return -np.pi + (np.arange(m) + 0.5) * (_TWO_PI / m)


def quadrature(fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
               rel_tol: float = 1e-6, m_start: int = 64,
               m_max: int = 4096) -> float:
    """Midpoint rule over [-pi, pi]^2 on a doubling m x m grid until the
    relative change drops below ``rel_tol``.

    The integrands used here are periodic, so the midpoint rule converges
    spectrally for smooth psi; discontinuous integrands (spectral CDF
    indicators) may fail to stabilize, which raises NumericalError.
    """
    prev = None
    m = m_start
    while m <= m_max:
        w = _midpoint_grid(m)
        cell = (_TWO_PI / m) ** 2
        val = float(np.sum(fn(w[:, None], w[None, :]))) * cell
        if prev is not None:
            if abs(val - prev) <= rel_tol * max(abs(val), 1e-300):
                return val
        prev = val
        m *= 2
    raise NumericalError(
        f"quadrature did not stabilize to rel. {rel_tol} within {m_max}^2 points")
