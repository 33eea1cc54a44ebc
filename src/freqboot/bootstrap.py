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

Replicate r reads its m half-plane weights from its own stream and is
reduced without BLAS, so the draws do not depend on the BLAS thread
count; on large fields the replicates are filled on threads, and the
draws do not depend on their number either.

``FieldResampler`` holds one field's pipeline and is the only place the
rescale and the hfdb_bias shift are applied; ``bootstrap_distribution``
asks a fresh one for a single kind.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from . import rng as rngmod
from .density import SpectralDensityEstimate, kernel_density_estimate
from .errors import ConfigError, NumericalError
from .lattice import LatticeField, Periodogram, periodogram
from .spectral import PsiFunction, SpectralMeanValue, spectral_mean
from .subsample import (BlockSpec, SubsampleEnsemble, VarianceEstimates,
                        bias_estimate, subsample_ensemble, variance_estimates)

_TWO_PI = 2.0 * np.pi
_SQRT2 = np.sqrt(2.0)

KINDS = ("fdwb", "hfdb", "hfdb_bias")

# weights drawn per block of bootstrap rows in ``fdwb_draws``
_DRAW_BUDGET = 1 << 16

# replicates of at least this many weights are filled on threads; with
# B = 500 a call took 54 ms on one thread and 35 ms on two at m = 8,193,
# 36 and 32 ms at m = 5,001, and 15.0 and 15.9 ms at m = 2,049 (2-vCPU
# Xeon, numpy 2.4)
_THREAD_ROW = 1 << 13


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
    sigma2_floored: float = 0.0
    sigma2_raw: float = 0.0
    bias_sub: float = 0.0

    @property
    def B(self) -> int:
        return self.values.size

    @property
    def recorded_total_var(self) -> float:
        return self.var_star + self.sigma2_floored


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


def fdwb_variance(fhat: SpectralDensityEstimate, psi: PsiFunction) -> float:
    """Closed-form bootstrap variance of the FDWB statistic."""
    grid = fhat.grid
    pvals = psi.on_grid(grid)
    terms = pvals * (pvals + grid.negate_array(pvals)) * fhat.values ** 2
    terms[0, 0] = 0.0
    return float((_TWO_PI ** 2) ** 2 / grid.n * np.sum(terms))


def _half_plane_reduction(fhat: SpectralDensityEstimate, psi: PsiFunction):
    """Coefficient vector over the half-plane: pairs grouped, so each
    exponential weight multiplies one coefficient."""
    grid = fhat.grid
    coef = _effective_coefficients(fhat, psi)
    paired = coef + np.where(grid.self_conjugate_mask, 0.0,
                             grid.negate_array(coef))
    return paired[grid.half_plane_mask]


def _available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fdwb_draws(fhat: SpectralDensityEstimate, psi: PsiFunction, B: int,
               master_seed: int, replicate_id: int = 0) -> np.ndarray:
    """B FDWB replicates; bootstrap replicate r draws its weights from the
    dedicated stream (master_seed, replicate_id, r), so serial and
    parallel generation agree and reruns are bit-identical.

    Weights are drawn into blocks of rows, and each row is reduced by
    ``np.einsum``, numpy's own loop rather than a BLAS call, so the bits
    depend neither on the block size nor on the BLAS thread count.  When
    a replicate has at least ``_THREAD_ROW`` weights the blocks are
    shared out among up to one thread per available CPU, each with its
    own buffer and Philox; every row still reads its own address, so the
    bits do not depend on the thread count either."""
    cvec = _half_plane_reduction(fhat, psi)
    m = cvec.size
    rows = max(1, min(B, _DRAW_BUDGET // m))
    starts = range(0, B, rows)
    out = np.empty(B)

    def fill(block_starts: range) -> None:
        buf = np.empty((rows, m))
        gens = rngmod.streams(master_seed, rngmod.TAG_BOOT, replicate_id,
                              chain.from_iterable(range(s, min(s + rows, B))
                                                  for s in block_starts))
        for start in block_starts:
            w = buf[:min(rows, B - start)]
            for row, gen in zip(w, gens):
                gen.standard_exponential(out=row)
            np.einsum("ij,j->i", w, cvec, out=out[start:start + w.shape[0]])

    k = min(_available_cpus(), len(starts)) if m >= _THREAD_ROW else 1
    if k > 1:
        # a pool per call: a pool object inherited by a forked worker
        # process has no threads behind it
        with ThreadPoolExecutor(k) as pool:
            list(pool.map(fill, [starts[i::k] for i in range(k)]))
    else:
        fill(starts)
    out -= cvec.sum()    # sum_j c_j (U_j - 1), centred once per field
    out *= (_TWO_PI ** 2) / np.sqrt(fhat.grid.n)
    return out


def _hybrid_rescale(values: np.ndarray, var_star: float,
                    sigma2_floored: float) -> np.ndarray:
    """Q* -> H*: scale FDWB draws from spread sqrt(Var*) to
    sqrt(Var* + sigma2_hat); sigma2_hat must already be floored at 0."""
    if not var_star > 0.0:
        raise NumericalError(
            "degenerate bootstrap: Var* <= 0 (psi is numerically orthogonal "
            "to the density estimate), hybrid rescaling undefined")
    return np.sqrt((var_star + sigma2_floored) / var_star) * values


class FieldResampler:
    """Every resampling distribution of one field's spectral mean.

    Each stage is computed on first use and at most once: the
    periodogram, Mhat, the density estimate fhat, Var* and the B base
    FDWB draws are shared by every kind and block size asked of the
    field; the block ensemble, its variance estimates and each kind's
    draws are cached per ``BlockSpec``.  Bootstrap replicate r reads the
    weight stream (master_seed, BOOT, replicate_id, r) whatever the kind,
    so fdwb and hybrid draws of one field agree replicate by replicate.
    """

    def __init__(self, fieldz: LatticeField, psi: PsiFunction, B: int,
                 master_seed: int, replicate_id: int = 0, bandwidth=None):
        self.field = fieldz
        self.psi = psi
        self.B = B
        self.master_seed = master_seed
        self.replicate_id = replicate_id
        self.bandwidth = bandwidth
        self._ensembles: dict[BlockSpec, SubsampleEnsemble] = {}
        self._variances: dict[BlockSpec, VarianceEstimates] = {}
        self._draws: dict[tuple, BootstrapDraws] = {}

    @cached_property
    def pgram(self) -> Periodogram:
        return periodogram(self.field)

    @cached_property
    def mhat(self) -> SpectralMeanValue:
        return spectral_mean(self.pgram, self.psi)

    @cached_property
    def fhat(self) -> SpectralDensityEstimate:
        return kernel_density_estimate(self.pgram, bandwidth=self.bandwidth)

    @cached_property
    def var_star(self) -> float:
        return fdwb_variance(self.fhat, self.psi)

    @cached_property
    def base_draws(self) -> np.ndarray:
        return fdwb_draws(self.fhat, self.psi, self.B, self.master_seed,
                          self.replicate_id)

    def ensemble(self, spec: BlockSpec) -> SubsampleEnsemble:
        if spec not in self._ensembles:
            self._ensembles[spec] = subsample_ensemble(self.field, spec, self.psi)
        return self._ensembles[spec]

    def variance(self, spec: BlockSpec) -> VarianceEstimates:
        if spec not in self._variances:
            self._variances[spec] = variance_estimates(self.ensemble(spec))
        return self._variances[spec]

    def draws(self, kind: str, spec: BlockSpec | None = None) -> BootstrapDraws:
        """B replicates of ``kind``: the base FDWB draws, for hybrid kinds
        rescaled by sqrt((Var* + sigma2_hat) / Var*) with sigma2_hat from
        the ``spec`` block ensemble (floored at 0), and for hfdb_bias
        shifted by the subsampling bias estimate.  fdwb ignores ``spec``.
        """
        if kind not in KINDS:
            raise ConfigError(f"unknown bootstrap kind {kind!r}, expected one of {KINDS}")
        if self.B < 100:
            raise ConfigError(
                f"need B >= 100 bootstrap replicates for quantile use, got {self.B}")
        key = (kind, None if kind == "fdwb" else spec)
        if key in self._draws:
            return self._draws[key]
        values = self.base_draws
        sigma2_raw = sigma2_floored = bias = 0.0
        if kind != "fdwb":
            if spec is None:
                raise ConfigError("hybrid kinds need a block spec")
            est = self.variance(spec)
            sigma2_raw = est.sigma2_sq_hat
            sigma2_floored = est.floored_sigma2
            values = _hybrid_rescale(values, self.var_star, sigma2_floored)
            if kind == "hfdb_bias":
                bias = bias_estimate(self.ensemble(spec), self.mhat)
                values = values + bias
        values.flags.writeable = False   # cached and handed to every caller
        out = BootstrapDraws(values=values, var_star=self.var_star, kind=kind,
                             sigma2_floored=sigma2_floored,
                             sigma2_raw=sigma2_raw, bias_sub=bias)
        self._draws[key] = out
        return out


def bootstrap_distribution(fieldz: LatticeField, psi: PsiFunction,
                           spec: BlockSpec | None, B: int, kind: str,
                           master_seed: int, replicate_id: int = 0,
                           bandwidth=None) -> BootstrapDraws:
    """B replicates of one kind for one field: periodogram -> density
    estimate -> (variance / bias corrections via subsampling for hybrid
    kinds) -> draws.  A one-shot ``FieldResampler(...).draws(kind, spec)``;
    build the resampler directly to share its stages across kinds or
    block sizes.
    """
    return FieldResampler(fieldz, psi, B, master_seed, replicate_id,
                          bandwidth).draws(kind, spec)
