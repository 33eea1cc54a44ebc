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

import warnings
from dataclasses import dataclass

import numpy as np

from .bootstrap import BootstrapDraws, FieldResampler
from .errors import ConfigError
from .lattice import LatticeField
from .spectral import SpectralMeanValue, psi_isotropy_contrast
from .subsample import BlockSpec, block_variogram_contrast, subsample_edf

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


def _centered_interval(mhat: SpectralMeanValue, values: np.ndarray,
                       level: float, method: str) -> ConfidenceInterval:
    check_level(level, "confidence level", 0.5)
    alpha = 1.0 - level
    root_n = np.sqrt(mhat.n)
    # both tails from one type-7 (numpy default) call, bit-identical to two
    q_lo, q_hi = np.quantile(values, [alpha / 2.0, 1.0 - alpha / 2.0])
    upper = mhat.value - float(q_lo) / root_n
    lower = mhat.value - float(q_hi) / root_n
    return ConfidenceInterval(lower=lower, upper=upper, level=level, method=method)


def confidence_interval(mhat: SpectralMeanValue, draws: BootstrapDraws,
                        level: float) -> ConfidenceInterval:
    if draws.B < 100:
        raise ConfigError(f"need at least 100 bootstrap draws, got {draws.B}")
    return _centered_interval(mhat, draws.values, level, draws.kind)


def resampled_interval(res: FieldResampler, method: str,
                       spec: BlockSpec | None,
                       level: float) -> ConfidenceInterval:
    """Interval for the spectral mean of ``res``'s field and psi by one of
    ``CI_METHODS``: the centered subsample EDF of the ``spec`` blocks, or
    the resampler's bootstrap draws of that kind."""
    if method == "subsample":
        if spec is None:
            raise ConfigError("subsample intervals need a block spec")
        # subsample_edf rejects L < 2
        return _centered_interval(res.mhat, subsample_edf(res.ensemble(spec)),
                                  level, "subsample")
    return confidence_interval(res.mhat, res.draws(method, spec), level)


def sample_variogram(fieldz: LatticeField, h) -> float:
    """2 kappa_hat(h): mean of (Z(s) - Z(s + h))^2 over all in-grid pairs."""
    h1, h2 = int(h[0]), int(h[1])
    if (h1, h2) == (0, 0):
        raise ConfigError("variogram lag must be nonzero")
    n1, n2 = fieldz.n1, fieldz.n2
    if abs(h1) >= n1 or abs(h2) >= n2:
        raise ConfigError(f"lag ({h1}, {h2}) has no valid pairs in a {n1}x{n2} grid")
    v = fieldz.values
    a1 = slice(max(0, -h1), n1 - max(0, h1))
    a2 = slice(max(0, -h2), n2 - max(0, h2))
    b1 = slice(max(0, h1), n1 - max(0, -h1))
    b2 = slice(max(0, h2), n2 - max(0, -h2))
    diff = v[a1, a2] - v[b1, b2]
    return float(np.mean(diff * diff))


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
    ha = (int(h1[0]), int(h1[1]))
    hb = (int(h2[0]), int(h2[1]))
    res = FieldResampler(fieldz, psi_isotropy_contrast(ha, hb), B, master_seed,
                         replicate_id, bandwidth)
    return calibrate_isotropy(res, method, spec, ha, hb, plus_one)


def calibrate_isotropy(res: FieldResampler, method: str,
                       spec: BlockSpec | None, h1: tuple[int, int],
                       h2: tuple[int, int],
                       plus_one: bool = False) -> IsotropyTestResult:
    """p-value of TS = n Mhat^2, Mhat the spectral mean of ``res``'s psi
    (the contrast of lags h1 and h2), under one calibration.

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
    if h1[0] ** 2 + h1[1] ** 2 != h2[0] ** 2 + h2[1] ** 2:
        warnings.warn(f"lags {h1} and {h2} have unequal norms; the isotropy "
                      "null does not apply", stacklevel=2)
    mhat = res.mhat
    ts = float(mhat.n * mhat.value ** 2)
    if method == "subsample":
        if spec is None:
            raise ConfigError("subsample calibration needs a block spec")
        contrast = sample_variogram(res.field, h1) - sample_variogram(res.field, h2)
        ts_vario = float(mhat.n * contrast ** 2)
        copies = block_variogram_contrast(res.field, spec, h1, h2)
        stats = spec.b * (copies - copies.mean()) ** 2
        p = p_value_from_replicates(stats, ts_vario, plus_one)
    else:
        p = p_value_from_replicates(res.draws(method, spec).values ** 2, ts,
                                    plus_one)
    return IsotropyTestResult(ts=ts, p_value=p, method=method, h1=h1, h2=h2)
