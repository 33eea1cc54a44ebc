"""Confidence intervals for spectral means and the isotropy test.

Intervals follow the centered-quantile construction

    (Mhat - q_{1-a/2} / sqrt(n),  Mhat - q_{a/2} / sqrt(n))

with quantiles taken from bootstrap draws or the centered subsample
empirical distribution; both use type-7 linear interpolation.  The
isotropy test compares the variogram at two equal-norm lags through the
spectral mean of the contrast function, TS = n Mhat(psi)^2, calibrated
by squared bootstrap replicates or squared block statistics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bootstrap import BootstrapDraws, FieldResampler, check_B
from .errors import ConfigError
from .lattice import LatticeField
from .spectral import SpectralMeanValue, psi_isotropy_contrast
from .subsample import (BlockSpec, _lag_squares, block_variogram_contrast,
                        check_block, check_lag, subsample_edf)

CI_METHODS = ("fdwb", "hfdb", "hfdb_bias", "subsample")
TEST_METHODS = ("fdwb", "hfdb", "subsample")


@dataclass(frozen=True)
class ConfidenceInterval:
    lower: float
    upper: float
    level: float
    method: str

    def covers(self, value: float) -> bool:
        return self.lower <= value <= self.upper


@dataclass(frozen=True)
class IsotropyTestResult:
    ts: float
    p_value: float
    method: str
    h1: tuple[int, int]
    h2: tuple[int, int]


def check_level(level: float, name: str, lower: float = 0.0) -> None:
    """Refuse a level outside (lower, 1), naming it ``name``."""
    if not lower < level < 1.0:
        raise ConfigError(f"{name} must be in ({lower:g}, 1), got {level}")


def _type7_quantiles(values: np.ndarray, probs) -> list[float]:
    """The quantiles of ``values`` at ``probs`` in [0, 1] by Hyndman and
    Fan's type 7, numpy's default ``linear`` method, with numpy's own
    operations: one sort, the virtual index (n - 1) p, its floor and
    fraction gamma (an index at n - 1 or past reads the largest value),
    and the lerp that subtracts from the upper neighbour where gamma >=
    0.5.  Each equals ``np.quantile(values, probs)`` bit for bit, but
    for the sign of a zero quantile where -0.0 and 0.0 tie: they compare
    equal, and np.quantile's partial sort may order them otherwise."""
    v = np.sort(values)
    out = []
    for p in probs:
        virtual = (v.size - 1) * p
        lo = -1 if virtual >= v.size - 1 else math.floor(virtual)
        a, b = float(v[lo]), float(v[lo + 1 if lo >= 0 else -1])
        gamma, diff = virtual - lo, b - a
        out.append(b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma)
    return out


def _centered_interval(mhat: SpectralMeanValue, values: np.ndarray,
                       level: float, method: str) -> ConfidenceInterval:
    check_level(level, "level", 0.5)
    alpha = 1.0 - level
    root_n = np.sqrt(mhat.n)
    q_lo, q_hi = _type7_quantiles(values, (alpha / 2.0, 1.0 - alpha / 2.0))
    upper = mhat.value - q_lo / root_n
    lower = mhat.value - q_hi / root_n
    return ConfidenceInterval(lower=lower, upper=upper, level=level, method=method)


def confidence_interval(mhat: SpectralMeanValue, draws: BootstrapDraws,
                        level: float) -> ConfidenceInterval:
    check_B(draws.B, (draws.kind,), "draws.B")
    return _centered_interval(mhat, draws.values, level, draws.kind)


def resampled_interval(res: FieldResampler, method: str,
                       spec: BlockSpec | None,
                       level: float) -> ConfidenceInterval:
    """Interval for the spectral mean of ``res``'s field and psi by one of
    ``CI_METHODS``: the centered subsample EDF of the ``spec`` blocks, or
    the resampler's bootstrap draws of that kind."""
    if method == "subsample":
        check_block(spec, (res.field.n1, res.field.n2), (method,), "spec")
        return _centered_interval(res.mhat, subsample_edf(res.ensemble(spec)),
                                  level, "subsample")
    return confidence_interval(res.mhat, res.draws(method, spec), level)


def sample_variogram(fieldz: LatticeField, h) -> float:
    """2 kappa_hat(h): mean of (Z(s) - Z(s + h))^2 over all in-grid pairs."""
    check_lag(h, "h", (fieldz.n1, fieldz.n2), "fieldz")
    return float(np.mean(_lag_squares(fieldz.values, int(h[0]), int(h[1]))))


def p_value_from_replicates(replicate_sq: np.ndarray, ts: float,
                            plus_one: bool = False) -> float:
    """Right-tail proportion of squared replicates at or above TS.

    Strict count by default; ``plus_one`` applies the (k + 1)/(B + 1)
    variant.
    """
    k = int(np.sum(replicate_sq >= ts))
    if plus_one:
        return (k + 1) / (replicate_sq.size + 1)
    return k / replicate_sq.size


def isotropy_test(fieldz: LatticeField, h1, h2, method: str = "hfdb",
                  spec: BlockSpec | None = None, B: int = 500,
                  master_seed: int = 0, replicate_id: int = 0,
                  bandwidth=None, plus_one: bool = False) -> IsotropyTestResult:
    """Test equality of the variogram at lags h1 and h2.

    TS = n Mhat(psi)^2 for psi(w) = 2 cos(h1.w) - 2 cos(h2.w), calibrated
    as :func:`calibrate_isotropy` describes.
    """
    res = FieldResampler(fieldz, psi_isotropy_contrast(h1, h2), B, master_seed,
                         replicate_id, bandwidth)
    return calibrate_isotropy(res, method, spec, plus_one)


def calibrate_isotropy(res: FieldResampler, method: str,
                       spec: BlockSpec | None,
                       plus_one: bool = False) -> IsotropyTestResult:
    """p-value of TS = n Mhat^2, Mhat the spectral mean of ``res``'s psi,
    which must be the contrast 2 cos(h1.w) - 2 cos(h2.w) of two nonzero
    lags h1 and h2, under one calibration.

    The bootstrap backends (fdwb / hfdb) report the proportion of squared
    mean-zero replicates at or above TS.  The subsampling backend
    calibrates the variogram rendition of the same contrast instead,
    comparing n (2k_hat(h1) - 2k_hat(h2))^2 against its centered
    small-scale block copies: the spectral block copies carry a
    wrap-around variance inflation at practical block sizes that the
    direct variogram copies do not, and the variogram scale is the
    standard subsampling calibration for this test.  Unequal-norm lags
    are allowed but warned about: the isotropy null is only meaningful
    when ||h1|| = ||h2||.
    """
    if method not in TEST_METHODS:
        raise ConfigError(
            f"isotropy test method must be one of {TEST_METHODS}, got {method!r}")
    terms = res.psi.cos_terms
    if [c for c, _ in terms] != [2.0, -2.0]:
        raise ConfigError(f"res.psi must be an isotropy contrast "
                          f"2 cos(h1.w) - 2 cos(h2.w), got {res.psi.name}")
    (_, h1), (_, h2) = terms
    check_lag(h1, "h1")
    check_lag(h2, "h2")
    if h1[0] ** 2 + h1[1] ** 2 != h2[0] ** 2 + h2[1] ** 2:
        warnings.warn(f"lags {h1} and {h2} have unequal norms; the isotropy "
                      "null does not apply", stacklevel=2)
    mhat = res.mhat
    ts = float(mhat.n * mhat.value ** 2)
    if method == "subsample":
        check_block(spec, (res.field.n1, res.field.n2), (method,), "spec",
                    (("h1", h1), ("h2", h2)))
        contrast = sample_variogram(res.field, h1) - sample_variogram(res.field, h2)
        ts_vario = float(mhat.n * contrast ** 2)
        copies = block_variogram_contrast(res.field, spec, h1, h2)
        stats = spec.b * (copies - copies.mean()) ** 2
        p = p_value_from_replicates(stats, ts_vario, plus_one)
    else:
        p = p_value_from_replicates(res.draws(method, spec).values ** 2, ts,
                                    plus_one)
    return IsotropyTestResult(ts=ts, p_value=p, method=method, h1=h1, h2=h2)
