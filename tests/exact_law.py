"""Exact law of the FDWB and HFDB replicates given the data (B = infinity).

Given the density estimate, an FDWB replicate is

    Q* = sum_j a_j (U_j - 1),   U_j i.i.d. Exp(1),

over the half-plane weights, with a_j = (2 pi)^2 n^-1/2 times the
paired coefficient psi_j f_j + psi_-j f_-j (sqrt(2) psi_j f_j at a
self-conjugate j).  That is Imhof's (1961) weighted chi-square setting:
the characteristic function is

    phi(t) = prod_j exp(-i t a_j) / (1 - i t a_j),

and Davies' (1973, 1980) discretised Gil-Pelaez inversion gives

    F(x) = 1/2 - sum_{k<K} Im[phi(t_k) exp(-i t_k x)] / (pi (k + 1/2)),

t_k = (k + 1/2) step.  Its aliasing error is bounded by
P(|Q* - x| >= 2 pi / step), and its truncation error falls with
|phi(t_K)|.  An HFDB replicate is r Q* with r = sqrt((Var* + sigma2) /
Var*), and hfdb_bias adds its bias shift.

The coefficients are paired here on the full grid by modular negation of
FFT positions, never through ``bootstrap._half_plane_reduction``, so a
test that compares draws with this law compares two routes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from freqboot.bootstrap import _hybrid_rescale

TWO_PI = 2.0 * np.pi
NODES = 48          # K
STEPS_PER_SD = 40   # step = 2 pi / (40 sd)


@dataclass(frozen=True)
class ExactLaw:
    """The law of scale * Q* + shift for the coefficients ``a``."""

    a: np.ndarray
    scale: float = 1.0
    shift: float = 0.0

    @property
    def variance(self) -> float:
        return self.scale ** 2 * float(np.sum(self.a ** 2))

    def cdf(self, x, nodes: int = NODES, step: float | None = None):
        """F at ``x`` from ``nodes`` terms of the inversion sum, at node
        spacing ``step`` (default 2 pi / (40 sd) on the scale of Q*)."""
        if step is None:
            step = TWO_PI / (STEPS_PER_SD * np.sqrt(np.sum(self.a ** 2)))
        half = np.arange(nodes) + 0.5
        ta = (half * step)[:, None] * self.a[None, :]
        modulus = np.exp(-0.5 * np.log1p(ta * ta).sum(axis=1))
        phase = (np.arctan(ta) - ta).sum(axis=1)
        z = (np.asarray(x, dtype=float) - self.shift) / self.scale
        total = np.full(z.shape, 0.5)
        for k, h in enumerate(half):
            total -= modulus[k] * np.sin(phase[k] - h * step * z) / (np.pi * h)
        return total


def fdwb_law(fhat, psi) -> ExactLaw:
    """The law of ``fdwb_draws(fhat, psi, ...)``'s replicates: one a_j per
    half-plane weight, in no particular order."""
    grid = fhat.grid
    n1, n2 = grid.n1, grid.n2
    c = psi.fn(grid.omega1[:, None], grid.omega2[None, :]) * fhat.values
    pos = np.arange(n1)[:, None] * n2 + np.arange(n2)[None, :]
    neg = (-np.arange(n1) % n1)[:, None] * n2 + (-np.arange(n2) % n2)[None, :]
    paired = np.where(pos == neg, np.sqrt(2.0) * c, c + c.ravel()[neg])
    return ExactLaw(TWO_PI ** 2 / np.sqrt(grid.n)
                    * paired[(pos <= neg) & (pos > 0)])


def hybrid_law(base: ExactLaw, var_star: float, sigma2_floored: float,
               bias: float = 0.0) -> ExactLaw:
    """The law of the hfdb (``bias`` 0) or hfdb_bias replicates over the
    FDWB law ``base``: F((x - bias) / r).  r is read through the package's
    one rescale, so Var* <= 0 raises its error."""
    r = float(_hybrid_rescale(np.float64(1.0), var_star, sigma2_floored))
    return replace(base, scale=base.scale * r, shift=base.shift * r + bias)
