"""Frequency-domain wild bootstrap (FDWB) and its variance-corrected
hybrid (HFDB).

FDWB re-creates the centered spectral mean by replacing periodogram
ordinates with fhat(omega_j) U_j, U_j i.i.d. standard exponential on the
frequency half-plane and mirrored elsewhere:

    Q* = n^(1/2) (2 pi)^2 n^-1 sum_j psi(omega_j) fhat(omega_j) (U_j - 1).

Its conditional variance has the closed form

    Var* = n^-1 (4 pi^2)^2 sum_j psi_j (psi_j + psi_-j) fhat_j^2
         = n^-1 (4 pi^2)^2 sum_j c_j^2

over the half-plane coefficient vector c that the draws reduce
(``_half_plane_reduction``), and the hybrid statistic rescales Q* so its
spread also covers the subsampling-estimated fourth-cumulant component:

    H* = sqrt(Var* + sigma2_hat) * Q* / sqrt(Var*).

Replicate r reads its m half-plane weights from its own stream and is
reduced without BLAS, so the draws do not depend on the BLAS thread
count; on large fields the replicates are filled on threads, and the
draws do not depend on their number either.  The weights never depend
on the field, so fields that share a bootstrap address (every tau and
grid size of one Monte Carlo replicate) fill each row once, at the
largest m, and each reduces its own prefix of it, with the bits it
draws alone (``_fdwb``, ``test_shared_fill_equals_each_field_alone``).
A field's block-size ladder runs its batches on threads too, with the
same bits; draws filled on one thread are filled beside them.

``FieldResampler`` holds one field's pipeline and is the only place the
rescale and the hfdb_bias shift are applied; ``bootstrap_distribution``
asks a fresh one for a single kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from . import _pool
from . import rng as rngmod
from .density import (SpectralDensityEstimate, check_bandwidth_pair,
                      kernel_density_estimate)
from .errors import ConfigError, NumericalError
from .lattice import _TWO_PI, LatticeField, Periodogram, periodogram
from .spectral import PsiFunction, SpectralMeanValue, spectral_mean
from .subsample import (BlockSpec, SubsampleEnsemble, VarianceEstimates,
                        _ladder, bias_estimate, check_block,
                        subsample_ensemble, variance_estimates)

_SQRT2 = np.sqrt(2.0)

KINDS = ("fdwb", "hfdb", "hfdb_bias")

# weights drawn per block of bootstrap rows in ``_fdwb``
_DRAW_BUDGET = 1 << 16

# replicates of at least this many weights are filled on threads; with
# B = 500 a call took 54 ms on one thread and 35 ms on two at m = 8,193,
# 36 and 32 ms at m = 5,001, and 15.0 and 15.9 ms at m = 2,049 (2-vCPU
# Xeon, numpy 2.4)
_THREAD_ROW = 1 << 13


def _fills_on_threads(m: int) -> bool:
    """Whether an FDWB fill (``_fdwb``) shares out replicates of m
    weights among threads."""
    return m >= _THREAD_ROW


def check_B(B: int, methods, name: str) -> None:
    """Refuse B < 100, naming it ``name``, when one of ``methods`` draws
    bootstrap replicates (all but subsample): their quantiles need 100."""
    if B < 100 and any(m != "subsample" for m in methods):
        raise ConfigError(f"{name} must be >= 100 for bootstrap methods, got {B}")


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


def _half_plane_reduction(fhat: SpectralDensityEstimate, psi: PsiFunction):
    """The field's coefficient vector c over the half-plane, which Var*
    and the draws both read: psi * fhat, times sqrt(2) at self-conjugate
    (Nyquist) indices, which appear once in the grid but carry a doubled
    term in Var*, and plus the coefficient of the negated index elsewhere,
    so that each exponential weight multiplies one coefficient."""
    grid = fhat.grid
    coef = psi.on_grid(grid) * fhat.values
    coef[grid.self_conjugate_mask] *= _SQRT2
    coef[0, 0] = 0.0
    paired = coef + np.where(grid.self_conjugate_mask, 0.0,
                             grid.negate_array(coef))
    return paired[grid.half_plane_mask]


def fdwb_variance(fhat: SpectralDensityEstimate, psi: PsiFunction) -> float:
    """Closed-form bootstrap variance of the FDWB statistic: the variance
    (2 pi)^4 n^-1 sum_j c_j^2 of the draws' (2 pi)^2 n^-1/2 sum_j c_j
    (U_j - 1), reduced by ``np.einsum``, numpy's own loop, as the draws
    are, so that it does not depend on the BLAS either."""
    c = _half_plane_reduction(fhat, psi)
    return float((_TWO_PI ** 2) ** 2 / fhat.grid.n * np.einsum("i,i->", c, c))


def _fdwb(fields, B: int, master_seed: int,
          replicate_id: int) -> list[np.ndarray]:
    """B FDWB replicates of each (fhat, psi) of ``fields`` from one fill
    of weights: row r is drawn once, from the stream (master_seed, BOOT,
    replicate_id, r), at the largest half-plane size m among the fields,
    and each field reduces the prefix of the row that its own half-plane
    covers.  A Philox fill is sequential, so a prefix holds the bits that
    a fill of its field alone draws, and each field's draws are
    ``fdwb_draws`` of it alone, bit for bit.

    Weights are drawn into blocks of rows, and each row is reduced by
    ``np.einsum``, numpy's own loop rather than a BLAS call, so the bits
    depend neither on the block size nor on the BLAS thread count.  When
    a row has at least ``_THREAD_ROW`` weights the blocks are shared out
    among up to one thread per available CPU, each with its own buffer
    and Philox; every row still reads its own address, so the bits do
    not depend on the thread count either."""
    cvecs = [_half_plane_reduction(fhat, psi) for fhat, psi in fields]
    m = max(c.size for c in cvecs)
    rows = max(1, min(B, _DRAW_BUDGET // m))
    starts = range(0, B, rows)
    outs = [np.empty(B) for _ in cvecs]

    def fill(block_starts: range) -> None:
        buf = np.empty((rows, m))
        gens = rngmod.streams(master_seed, rngmod.TAG_BOOT, replicate_id,
                              chain.from_iterable(range(s, min(s + rows, B))
                                                  for s in block_starts))
        for start in block_starts:
            w = buf[:min(rows, B - start)]
            for row, gen in zip(w, gens):
                gen.standard_exponential(out=row)
            for cvec, out in zip(cvecs, outs):
                np.einsum("ij,j->i", w[:, :cvec.size], cvec,
                          out=out[start:start + w.shape[0]])

    k = min(_pool.cpus(), len(starts)) if _fills_on_threads(m) else 1
    _pool.map_ordered(fill, [starts[i::k] for i in range(k)])
    for (fhat, _), cvec, out in zip(fields, cvecs, outs):
        out -= cvec.sum()    # sum_j c_j (U_j - 1), centred once per field
        out *= (_TWO_PI ** 2) / np.sqrt(fhat.grid.n)
    return outs


def fdwb_draws(fhat: SpectralDensityEstimate, psi: PsiFunction, B: int,
               master_seed: int, replicate_id: int = 0) -> np.ndarray:
    """B FDWB replicates; bootstrap replicate r draws its weights from the
    dedicated stream (master_seed, replicate_id, r), so serial and
    parallel generation agree and reruns are bit-identical.  The fill
    and its threads are ``_fdwb``'s, for this one field."""
    return _fdwb([(fhat, psi)], B, master_seed, replicate_id)[0]


def _fill_draws(resamplers) -> None:
    """Fill the base draws of those ``resamplers`` that have none yet,
    which share one bootstrap address (``FieldResampler.ensembles``): one
    is filled by its ``base_draws``, two or more by one ``_fdwb`` fill,
    with the same bits."""
    todo = [r for r in resamplers if "base_draws" not in vars(r)]
    if len(todo) == 1:
        todo[0].base_draws
    elif todo:
        one = todo[0]
        drawn = _fdwb([(r.fhat, r.psi) for r in todo], one.B,
                      one.master_seed, one.replicate_id)
        for r, values in zip(todo, drawn):
            r.__dict__["base_draws"] = values


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
    draws are cached per ``BlockSpec``.  ``ensembles`` computes a
    field's ladder of block sizes at once, the batches of all of them on
    threads, with the bits of one ensemble at a time, and can fill the
    base draws of the fields sharing its bootstrap address on this
    thread meanwhile.
    Bootstrap replicate r reads the weight stream (master_seed, BOOT,
    replicate_id, r) whatever the kind, so fdwb and hybrid draws of one
    field agree replicate by replicate.  A bandwidth is refused at once,
    whether or not a kind asks for fhat.
    """

    def __init__(self, fieldz: LatticeField, psi: PsiFunction, B: int,
                 master_seed: int, replicate_id: int = 0, bandwidth=None):
        if bandwidth is not None:
            bandwidth = check_bandwidth_pair(bandwidth)
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

    def ensembles(self, specs, fill=()) -> None:
        """Compute the block ensembles of ``specs`` not computed yet: one
        by ``ensemble``, two or more as a ladder on threads.

        ``fill`` is the caller's fill job: resamplers, this one or
        others, whose base draws the caller will want (``_fill_draws``).
        They must share one bootstrap address, their B, master seed and
        replicate id, which one fill of weight rows reads; others are
        refused before any work.  This thread fills them too: when a
        ladder runs and they are filled on one thread, while the other
        threads start on the ladder's first wave, then joins them;
        otherwise after the ensembles.  The bits are the same either way.
        """
        if len({(r.B, r.master_seed, r.replicate_id) for r in fill}) > 1:
            raise ConfigError("fill: the resamplers must share one bootstrap "
                              "address (B, master_seed, replicate_id)")
        todo = [s for s in dict.fromkeys(specs) if s not in self._ensembles]
        fill = [r for r in fill if "base_draws" not in vars(r)]
        beside = len(todo) > 1 and fill and not _fills_on_threads(max(
            np.count_nonzero(r.pgram.grid.half_plane_mask) for r in fill))
        if len(todo) == 1:
            self.ensemble(todo[0])
        elif todo:
            self._ensembles.update(_ladder(
                self.field, todo, self.psi,
                (lambda: _fill_draws(fill)) if beside else None))
        if not beside:
            _fill_draws(fill)

    def variance(self, spec: BlockSpec) -> VarianceEstimates:
        if spec not in self._variances:
            self._variances[spec] = variance_estimates(self.ensemble(spec))
        return self._variances[spec]

    def draws(self, kind: str, spec: BlockSpec | None = None) -> BootstrapDraws:
        """B replicates of ``kind``: the base FDWB draws, for hybrid kinds
        rescaled by sqrt((Var* + sigma2_hat) / Var*) with sigma2_hat from
        the ``spec`` block ensemble (floored at 0), and for hfdb_bias
        shifted by the subsampling bias estimate.  fdwb ignores ``spec``;
        a hybrid kind needs two block translates in the field.
        """
        if kind not in KINDS:
            raise ConfigError(f"unknown bootstrap kind {kind!r}, expected one of {KINDS}")
        check_B(self.B, (kind,), "B")
        block = None if kind == "fdwb" else spec    # fdwb reads no block
        key = (kind, block)
        if key in self._draws:
            return self._draws[key]
        check_block(block, (self.field.n1, self.field.n2), (kind,), "spec")
        values = self.base_draws
        sigma2_raw = sigma2_floored = bias = 0.0
        if kind != "fdwb":
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
