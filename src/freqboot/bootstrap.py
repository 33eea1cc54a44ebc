"""Frequency-domain wild bootstrap (FDWB) and its variance-corrected
hybrid (HFDB).

FDWB re-creates the centered spectral mean by replacing periodogram
ordinates with fhat(omega_j) U_j, U_j i.i.d. standard exponential on the
frequency half-plane and mirrored elsewhere:

    Q* = n^(1/2) (2 pi)^2 n^-1 sum_j psi(omega_j) fhat(omega_j) (U_j - 1).

Its conditional variance has the closed form

    Var* = n^-1 (4 pi^2)^2 sum_j psi_j (psi_j + psi_-j) fhat_j^2,

and the hybrid statistic rescales Q* so its spread also covers the
subsampling-estimated fourth-cumulant component:

    H* = sqrt(Var* + sigma2_hat) * Q* / sqrt(Var*).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .density import SpectralDensityEstimate, kernel_density_estimate
from .errors import ConfigError, NumericalError
from .lattice import FrequencyGrid, LatticeField, periodogram
from .spectral import PsiFunction
from .subsample import (BlockSpec, bias_estimate, subsample_ensemble,
                        variance_estimates)

_TWO_PI = 2.0 * np.pi
_SQRT2 = np.sqrt(2.0)

KINDS = ("fdwb", "hfdb", "hfdb_bias")


@dataclass(frozen=True)
class BootstrapDraws:
    """B replicate values plus the scaling bookkeeping.

    ``recorded_total_var`` is the audit field: for hybrid kinds it equals
    var_star + the floored second variance component, exactly as used to
    rescale the draws.
    """

    values: np.ndarray = field(repr=False)
    var_star: float
    kind: str
    seed_info: tuple
    sigma2_floored: float = 0.0
    sigma2_raw: float = 0.0
    bias_sub: float = 0.0

    @property
    def B(self) -> int:
        return self.values.size

    @property
    def recorded_total_var(self) -> float:
        return self.var_star + self.sigma2_floored


def draw_exponential_weights(grid: FrequencyGrid,
                             rng: np.random.Generator) -> np.ndarray:
    """Exponential weight map on the frequency grid, FFT layout.

    Weights are drawn i.i.d. Exp(1) on the half-plane (self-conjugate
    Nyquist indices drawn once) and mirrored to the rest, so
    weight[-j mod n] == weight[j] exactly.  The origin entry is unused
    and set to 1.
    """
    w = np.ones((grid.n1, grid.n2))
    hp = grid.half_plane_mask
    w[hp] = rng.standard_exponential(int(hp.sum()))
    mirrored = grid.negate_array(w)
    w = np.where(hp | grid.origin_mask, w, mirrored)
    return w


def _effective_coefficients(fhat: SpectralDensityEstimate,
                            psi: PsiFunction) -> np.ndarray:
    """psi * fhat with the self-conjugate convention applied.

    Self-conjugate (Nyquist) indices appear once in the grid but carry a
    doubled term in the closed-form Var*; scaling their coefficient by
    sqrt(2) keeps that formula exact for every grid parity.
    """
    grid = fhat.grid
    coef = psi.on_grid(grid) * fhat.values
    coef[grid.self_conjugate_mask] *= _SQRT2
    coef[0, 0] = 0.0
    return coef


def _fdwb_value(coef: np.ndarray, grid: FrequencyGrid,
                weights: np.ndarray) -> float:
    scale = (_TWO_PI ** 2) / np.sqrt(grid.n)
    return float(scale * np.sum(coef * (weights - 1.0)))


def fdwb_statistic(fhat: SpectralDensityEstimate, psi: PsiFunction,
                   rng: np.random.Generator) -> float:
    """One FDWB replicate."""
    weights = draw_exponential_weights(fhat.grid, rng)
    return _fdwb_value(_effective_coefficients(fhat, psi), fhat.grid, weights)


def fdwb_variance(fhat: SpectralDensityEstimate, psi: PsiFunction) -> float:
    """Closed-form bootstrap variance of the FDWB statistic."""
    grid = fhat.grid
    pvals = psi.on_grid(grid)
    terms = pvals * (pvals + grid.negate_array(pvals)) * fhat.values ** 2
    terms[0, 0] = 0.0
    return float((_TWO_PI ** 2) ** 2 / grid.n * np.sum(terms))


def hfdb_statistic(q_star: float, var_star: float, sigma2_hat: float) -> float:
    """Rescale one FDWB replicate to the hybrid spread
    sqrt(var_star + sigma2_hat).  sigma2_hat must already be floored at 0."""
    if not var_star > 0.0:
        raise NumericalError(
            "degenerate bootstrap: Var* <= 0 (psi is numerically orthogonal "
            "to the density estimate)")
    return float(np.sqrt((var_star + sigma2_hat) / var_star) * q_star)


def _half_plane_reduction(fhat: SpectralDensityEstimate, psi: PsiFunction):
    """Coefficient vector over the half-plane: pairs grouped, so each
    exponential weight multiplies one coefficient."""
    grid = fhat.grid
    coef = _effective_coefficients(fhat, psi)
    paired = coef + np.where(grid.self_conjugate_mask, 0.0,
                             grid.negate_array(coef))
    return paired[grid.half_plane_mask]


def fdwb_draws(fhat: SpectralDensityEstimate, psi: PsiFunction, B: int,
               master_seed: int, replicate_id: int = 0) -> np.ndarray:
    """B FDWB replicates; bootstrap replicate r draws its weights from the
    dedicated stream (master_seed, replicate_id, r), so serial and
    parallel generation agree and reruns are bit-identical."""
    cvec = _half_plane_reduction(fhat, psi)
    scale = (_TWO_PI ** 2) / np.sqrt(fhat.grid.n)
    m = cvec.size
    out = np.empty(B)
    buf = np.empty(m)
    gens = rngmod.streams(master_seed, rngmod.TAG_BOOT, replicate_id, B)
    for r, gen in enumerate(gens):
        gen.standard_exponential(out=buf)
        buf -= 1.0
        out[r] = scale * (cvec @ buf)
    return out


def bootstrap_distribution(fieldz: LatticeField, psi: PsiFunction,
                           spec: BlockSpec | None, B: int, kind: str,
                           master_seed: int, replicate_id: int = 0,
                           bandwidth=None, fhat=None, sigma2_sq=None,
                           bias_sub=None) -> BootstrapDraws:
    """Full pipeline: periodogram -> density estimate -> (variance /
    bias corrections via subsampling for hybrid kinds) -> B replicates.

    ``sigma2_sq`` and ``bias_sub`` may be supplied to reuse precomputed
    subsampling output (or to force values in diagnostics); otherwise
    they are computed from ``spec``.  The weight streams depend only on
    (master_seed, replicate_id), never on ``kind``, so fdwb and hfdb
    draws for the same seed are comparable replicate by replicate.
    """
    if kind not in KINDS:
        raise ConfigError(f"unknown bootstrap kind {kind!r}, expected one of {KINDS}")
    if B < 100:
        raise ConfigError(f"need B >= 100 bootstrap replicates for quantile use, got {B}")

    if fhat is None:
        fhat = kernel_density_estimate(periodogram(fieldz), bandwidth=bandwidth)
    var_star = fdwb_variance(fhat, psi)
    values = fdwb_draws(fhat, psi, B, master_seed, replicate_id)

    sigma2_raw = 0.0
    sigma2_floored = 0.0
    bias = 0.0
    if kind in ("hfdb", "hfdb_bias"):
        ens = None
        need_ens = sigma2_sq is None or (kind == "hfdb_bias" and bias_sub is None)
        if need_ens:
            if spec is None:
                raise ConfigError(
                    "hybrid kinds need a block spec unless sigma2_sq/bias_sub are given")
            ens = subsample_ensemble(fieldz, spec, psi)
        if sigma2_sq is None:
            est = variance_estimates(ens)
            sigma2_raw = est.sigma2_sq_hat
            sigma2_floored = est.floored_sigma2
        else:
            sigma2_raw = float(sigma2_sq)
            sigma2_floored = max(sigma2_raw, 0.0)
        if not var_star > 0.0:
            raise NumericalError(
                "degenerate bootstrap: Var* <= 0, hybrid rescaling undefined")
        factor = np.sqrt((var_star + sigma2_floored) / var_star)
        values = factor * values
        if kind == "hfdb_bias":
            if bias_sub is None:
                from .spectral import spectral_mean
                mhat = spectral_mean(periodogram(fieldz), psi)
                bias = bias_estimate(ens, mhat)
            else:
                bias = float(bias_sub)
            values = values + bias

    return BootstrapDraws(values=values, var_star=var_star, kind=kind,
                          seed_info=(master_seed, replicate_id),
                          sigma2_floored=sigma2_floored, sigma2_raw=sigma2_raw,
                          bias_sub=bias)
