"""Random field generators for the experimental designs.

All generators are exact in distribution and bit-reproducible from a
seed.  Every Gaussian covariance model, Matern or spherical, goes
through one circulant embedding of its lag covariance on a doubled
torus, with a nonnegative-eigenvalue check: a negative embedding falls
back to dense Cholesky while the grid stays within the dense limit, and
otherwise doubles the torus until it embeds.  Every torus transform, the
embedding spectrum, the draw and the Matern lag table, runs through one
helper (``_two_pass``) as its two 1-D passes over blocks of at most
_BLOCK points, keeping only the crop its caller reads, and every
generator returns a field that holds just its own n1 x n2 values.

Every autocovariance of a Gaussian model, whether a coverage truth, an
entry of a dense covariance matrix or of an embedded torus, is read from
one function (``_lag_covariance``).  A Matern model's is phi times a
cached lag table (``_matern_lags``): the inverse DFT of the density on a
torus that doubles until the lags settle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, NumericalError
from .lattice import _TWO_PI, LatticeField, _omegas, _signed_indices

_BLOCK = 1 << 16        # torus points per block of a torus pass
DENSE_LIMIT = 4096      # largest n1*n2 for dense Cholesky paths
_SETTLE = 1e-6          # largest change of a Matern lag, over gamma(0), on doubling
_TORUS_CAP = 4096       # torus growth stops past _TORUS_CAP^2 points
_BURN_IN = 500          # AR(1) steps discarded before the separable field
_JITTER = 1e-10
_EIG_TOL = 1e-9

INNOVATIONS = ("gaussian", "exponential_centered")


# ---------------------------------------------------------------------------
# model descriptors

def _finite_parameters(model) -> None:
    """Refuse a nan or infinite parameter, which a range check passes."""
    for name, value in vars(model).items():
        if not isinstance(value, str) and not np.isfinite(value):
            raise ConfigError(f"{type(model).__name__} parameter {name} "
                              f"must be finite, got {value}")


@dataclass(frozen=True)
class WhiteNoise:
    variance: float = 1.0

    def __post_init__(self):
        _finite_parameters(self)
        if self.variance < 0:
            raise ConfigError("white noise variance must be >= 0")


@dataclass(frozen=True)
class MaternSpectral:
    """Spectral density phi (alpha^2 + ||omega||^2)^(-nu-1) restricted to
    [-pi, pi]^2 and treated as the lattice-process density."""

    phi: float
    alpha: float
    nu: float

    def __post_init__(self):
        _finite_parameters(self)
        if self.phi <= 0 or self.alpha <= 0 or self.nu <= 0:
            raise ConfigError("Matern parameters phi, alpha, nu must be positive")


@dataclass(frozen=True)
class SphericalAniso:
    """Spherical covariance with geometric anisotropy.

    gamma(h) = sigma2 (1 - 3r/(2 range) + r^3/(2 range^3)) for r <= range,
    0 beyond, plus a nugget at h = 0, where r = sqrt(h' B h) and
    B = R'T'TR for rotation angle tau_a and axis ratio tau_r.
    """

    sigma2: float = 1.0
    range_: float = 5.0
    eta: float = 0.0
    tau_a: float = 0.0
    tau_r: float = 1.0

    def __post_init__(self):
        _finite_parameters(self)
        if self.sigma2 <= 0 or self.range_ <= 0 or self.eta < 0 or self.tau_r < 1:
            raise ConfigError(
                "spherical model needs sigma2 > 0, range > 0, eta >= 0, tau_r >= 1")


@dataclass(frozen=True)
class SeparableARMA:
    """Z(i, j) = X_i Y_j for an AR(1) row process and MA(1) column process."""

    ar: float = 0.2
    ma: float = -0.7
    innov1: str = "gaussian"
    innov2: str = "gaussian"

    def __post_init__(self):
        _finite_parameters(self)
        if not abs(self.ar) < 1:
            raise ConfigError(f"AR coefficient must satisfy |ar| < 1, got {self.ar}")
        for innov in (self.innov1, self.innov2):
            if innov not in INNOVATIONS:
                raise ConfigError(f"unknown innovation kind {innov!r}")


@dataclass(frozen=True)
class TransformedGaussian:
    """Pointwise transform of a Gaussian base field, centered using the
    model (not the sample)."""

    base: object
    transform: str = "quartic"

    def __post_init__(self):
        if self.transform != "quartic":
            raise ConfigError(f"unknown transform {self.transform!r}")
        if not isinstance(self.base, (WhiteNoise, MaternSpectral, SphericalAniso)):
            raise ConfigError("transform base must be a Gaussian-compatible model")


def anisotropy_matrix(tau_a: float, tau_r: float) -> np.ndarray:
    """B = R'T'TR for rotation angle tau_a (radians) and shrink ratio tau_r."""
    c, s = np.cos(tau_a), np.sin(tau_a)
    rot = np.array([[c, s], [-s, c]])
    stretch = np.diag([1.0, float(tau_r)])
    return rot.T @ stretch.T @ stretch @ rot


# ---------------------------------------------------------------------------
# densities and covariances

def _lag_covariance(model, h1, h2, reach):
    """gamma at the integer lag arrays h1, h2 of a Gaussian covariance
    model.  A Matern model reads phi times its lag table of the given
    reach (r1, r2), so |h_k| <= r_k; the other models ignore reach."""
    if isinstance(model, WhiteNoise):
        return model.variance * ((h1 == 0) & (h2 == 0))
    if isinstance(model, MaternSpectral):
        gam = _matern_lags(model.alpha, model.nu, *reach)[np.abs(h1), np.abs(h2)]
        gam *= model.phi
        return gam
    if isinstance(model, SphericalAniso):
        B = anisotropy_matrix(model.tau_a, model.tau_r)
        r = np.sqrt(B[0, 0] * h1 * h1 + 2.0 * B[0, 1] * h1 * h2 + B[1, 1] * h2 * h2)
        u = r / model.range_
        body = np.where(u <= 1.0, model.sigma2 * (1.0 - 1.5 * u + 0.5 * u ** 3), 0.0)
        return body + model.eta * ((h1 == 0) & (h2 == 0))
    raise ConfigError(f"no lag covariance for {type(model).__name__}")


def model_spectral_density(model, w1, w2):
    """Spectral density on [-pi, pi]^2, vectorized over frequency arrays."""
    if isinstance(model, WhiteNoise):
        return model.variance / (_TWO_PI ** 2) + 0.0 * (w1 + w2)
    if isinstance(model, MaternSpectral):
        return model.phi * (model.alpha ** 2 + w1 ** 2 + w2 ** 2) ** (-model.nu - 1)
    if isinstance(model, SeparableARMA):
        a, t = model.ar, model.ma
        fx = 1.0 / (_TWO_PI * (1.0 + a * a - 2.0 * a * np.cos(w1)))
        fy = (1.0 + t * t + 2.0 * t * np.cos(w2)) / _TWO_PI
        return fx * fy
    if isinstance(model, SphericalAniso):
        # finite covariance support, so the density is an exact trig
        # polynomial (the nugget contributes its flat term at lag 0)
        reach = int(np.ceil(model.range_))
        lags = np.arange(-reach, reach + 1)
        gam = _lag_covariance(model, lags[:, None], lags[None, :], None)
        out = np.zeros(np.broadcast(w1, w2).shape)
        for i, l1 in enumerate(lags):
            for j, l2 in enumerate(lags):
                if gam[i, j] != 0.0:
                    out = out + gam[i, j] * np.cos(l1 * w1 + l2 * w2)
        return out / (_TWO_PI ** 2)
    raise NumericalError(
        f"no spectral density available for {type(model).__name__}")


def model_autocovariance(model, h) -> float:
    """gamma(h) of the model process: closed-form, or for a Matern model
    phi times its lag table's entry (to 1e-6 gamma(0))."""
    h1, h2 = int(h[0]), int(h[1])
    if isinstance(model, SeparableARMA):
        gx = model.ar ** abs(h1) / (1.0 - model.ar ** 2)
        if h2 == 0:
            gy = 1.0 + model.ma ** 2
        elif abs(h2) == 1:
            gy = model.ma
        else:
            gy = 0.0
        return gx * gy
    if isinstance(model, TransformedGaussian):
        v = gamma0(model.base)
        c = model_autocovariance(model.base, (h1, h2))
        return 72.0 * v * v * c * c + 24.0 * c ** 4
    return float(_lag_covariance(model, h1, h2, (abs(h1), abs(h2))))


@lru_cache(maxsize=64)
def _matern_lags(alpha: float, nu: float, r1: int, r2: int) -> np.ndarray:
    """gamma(h) for 0 <= h_k <= r_k of the phi = 1 Matern model, read-only
    (gamma is even in each component, and linear in phi).

    The inverse DFT of the density on an m1 x m2 torus is gamma plus its
    copies shifted by multiples of (m1, m2).  Each extent is max(p,
    2 (r_k + 1)), so the lags asked for lie in the torus's first half,
    and p doubles from the smaller extent, at least 64, until no lag
    moves by more than _SETTLE gamma(0).  A torus of more than
    _TORUS_CAP^2 points, and more than the 16 (r1 + 1) (r2 + 1) that a
    large table needs to settle on its second torus, raises
    NumericalError.  Each inverse DFT runs through ``_two_pass``, which
    evaluates the density one block at a time and keeps only the lags
    asked for.  The tori do not go through the synthesis cache, where
    they would evict the tori that fields use.
    """
    model = MaternSpectral(phi=1.0, alpha=alpha, nu=nu)
    p = max(64, 2 * (min(r1, r2) + 1))
    cap = max(_TORUS_CAP ** 2, 16 * (r1 + 1) * (r2 + 1))
    prev = None
    while True:
        m1, m2 = max(p, 2 * (r1 + 1)), max(p, 2 * (r2 + 1))
        if m1 * m2 > cap:
            raise NumericalError(
                f"the autocovariance of the Matern model alpha={alpha}, nu={nu} "
                f"at lags up to ({r1}, {r2}) did not settle to {_SETTLE} "
                f"gamma(0) on a torus of at most {cap} points")
        # the density is even, so half of axis 2 gives the real inverse:
        # irfft2's ifft along axis 1 and then irfft along axis 2, here the
        # two passes over the transposed half torus
        w1 = _omegas(m1)[None, :]
        w2 = _omegas(m2)[:m2 // 2 + 1, None]
        lags = _two_pass(
            lambda r: (_TWO_PI ** 2) * model_spectral_density(model, w1, w2[r]),
            (m2 // 2 + 1, m1), (r2 + 1, r1 + 1), np.fft.ifft,
            lambda y: np.fft.irfft(y, m2, axis=0)).T.copy()
        if prev is not None and np.max(np.abs(lags - prev)) <= _SETTLE * lags[0, 0]:
            lags.flags.writeable = False
            return lags
        prev, p = lags, 2 * p


def gamma0(model) -> float:
    return model_autocovariance(model, (0, 0))


def matern_model(alpha: float, nu: float, phi: float | None = None) -> MaternSpectral:
    """Matern model; with phi omitted the amplitude is calibrated so the
    process variance gamma(0) equals 1."""
    if phi is None:
        phi = 1.0 / gamma0(MaternSpectral(phi=1.0, alpha=alpha, nu=nu))
    return MaternSpectral(phi=phi, alpha=alpha, nu=nu)


# ---------------------------------------------------------------------------
# torus synthesis and circulant embedding

def _blocks(m: int, per: int) -> list[slice]:
    """range(m) cut into slices of ``per`` (at least 1) entries, the last
    one ragged."""
    per = max(1, per)
    return [slice(s, min(s + per, m)) for s in range(0, m, per)]


def _two_pass(rows, shape, crop, first, second) -> np.ndarray:
    """The n1 x n2 corner of a 2-D transform of an m1 x m2 array, run as
    its two 1-D passes over blocks of lines.

    ``rows(r)`` gives the array's rows r, and ``first`` transforms them
    along axis -1, of which the first n2 columns are kept in one complex
    m1 x n2 array.  ``rows`` is dropped before ``second`` transforms
    blocks of those columns along axis -2 into real values, of which the
    first n1 rows are kept.  A block holds at most _BLOCK points and at
    most half the lines of its pass.  Each 1-D line is the one a
    whole-array transform runs, so every value equals that transform's,
    bit for bit.
    """
    (m1, m2), (n1, n2) = shape, crop
    y = np.empty((m1, n2), dtype=complex)
    for r in _blocks(m1, min(_BLOCK // m2, m1 // 2)):
        y[r] = first(rows(r))[:, :n2]
    del rows
    out = np.empty((n1, n2))
    for c in _blocks(n2, min(_BLOCK // m1, n2 // 2)):
        out[:, c] = second(y[:, c])[:n1]
    return out


@lru_cache(maxsize=16)
def _embedding_spectrum(model, m1: int, m2: int) -> np.ndarray | None:
    """Square roots of the circulant eigenvalues of the model's lag
    covariance wrapped on an m1 x m2 torus, or None when the embedding is
    not nonnegative.  A Matern model reads the one lag table of the
    torus's half extents, whichever block of rows asks.

    The eigenvalues are the real part of fft2 of the covariance, run by
    ``_two_pass`` one block of rows of the covariance at a time, then
    clipped and square-rooted in place: a torus peaks near 25 bytes per
    point instead of fft2's 40."""
    h1 = _signed_indices(m1)[:, None]
    h2 = _signed_indices(m2)[None, :]
    reach = (m1 // 2, m2 // 2)
    lam = _two_pass(lambda r: _lag_covariance(model, h1[r], h2, reach),
                    (m1, m2), (m1, m2), np.fft.fft,
                    lambda y: np.fft.fft(y, axis=0).real)
    if lam.min() < -_EIG_TOL * max(lam.max(), 1.0):
        return None
    np.maximum(lam, 0.0, out=lam)
    return np.sqrt(lam, out=lam)


def _noise_rows(sqrt_lam: np.ndarray, rng: np.random.Generator):
    """Rows r of sqrt_lam * (re + 1j im) for standard normal re and im, in
    the stream order of one (2, m1, m2) draw: re is drawn whole here, and
    im one block of rows at a time as the rows are asked for in order."""
    re = rng.standard_normal(sqrt_lam.shape)

    def rows(r):
        z = 1j * rng.standard_normal(re[r].shape)
        z += re[r]          # re + 1j im: complex addition commutes exactly
        z *= sqrt_lam[r]
        return z
    return rows


def _torus_draw(sqrt_lam: np.ndarray, n1: int, n2: int,
                rng: np.random.Generator) -> np.ndarray:
    """The n1 x n2 corner of one exact stationary Gaussian field on the
    torus whose circulant eigenvalues are sqrt_lam ** 2: the real part of
    ifft2(sqrt_lam * (re + 1j im)) * sqrt(m1 m2) for standard normal re
    and im (the imaginary part would be an independent copy, unused).

    ``_two_pass`` runs ifft2 as its two 1-D passes, keeping the n2
    columns and then the n1 rows of the corner, which alone are scaled.
    Passing the noise rows to it unnamed lets it free re before its
    second pass, so a draw holds re, one block and the kept columns,
    about 32 bytes per torus point at most and near 18 on a large torus.
    Every value equals the full-torus expression's, bit for bit."""
    m1, m2 = sqrt_lam.shape
    scale = np.sqrt(m1 * m2)
    return _two_pass(_noise_rows(sqrt_lam, rng), (m1, m2), (n1, n2),
                     np.fft.ifft,
                     lambda y: (np.fft.ifft(y, axis=0)[:n1] * scale).real)


def simulate_gaussian(model, n1: int, n2: int,
                      rng: np.random.Generator) -> LatticeField:
    """Mean-zero Gaussian field with the model's covariance.

    White noise draws directly.  A Matern or spherical model embeds its
    lag covariance on a torus of 2 max(n_k, reach + 1) points per axis,
    where reach is the spherical range rounded up and 0 for Matern.  When
    that embedding has negative eigenvalues, a grid within the dense
    limit falls back to dense Cholesky, and a larger one doubles the
    torus until it embeds, refusing past _TORUS_CAP^2 points.  Every
    torus is drawn in blocks, holding at most about 32 bytes per torus
    point and near 18 on a large torus.  The field holds only its own
    n1 x n2 values, so the torus is freed on return.
    """
    if n1 < 1 or n2 < 1:
        raise ConfigError("grid extents must be positive")
    if isinstance(model, WhiteNoise):
        return LatticeField(np.sqrt(model.variance) * rng.standard_normal((n1, n2)))
    if not isinstance(model, (MaternSpectral, SphericalAniso)):
        raise ConfigError(f"{type(model).__name__} is not Gaussian-compatible; "
                          f"use its own generator")
    reach = int(np.ceil(model.range_)) if isinstance(model, SphericalAniso) else 0
    m1, m2 = 2 * max(n1, reach + 1), 2 * max(n2, reach + 1)
    while (sqrt_lam := _embedding_spectrum(model, m1, m2)) is None:
        if n1 * n2 <= DENSE_LIMIT:
            chol = _dense_cholesky(model, n1, n2)
            return LatticeField((chol @ rng.standard_normal(n1 * n2)).reshape(n1, n2))
        m1, m2 = 2 * m1, 2 * m2
        if m1 * m2 > _TORUS_CAP ** 2:
            raise NumericalError(
                f"circulant embedding of {model!r} for {n1}x{n2} is not "
                f"nonnegative on a torus of at most {_TORUS_CAP}^2 points")
    return LatticeField(_torus_draw(sqrt_lam, n1, n2, rng))


# ---------------------------------------------------------------------------
# dense covariance paths

def covariance_matrix(model, n1: int, n2: int) -> np.ndarray:
    """Covariance matrix of the field flattened row-major, gamma(s - t)."""
    p1 = np.repeat(np.arange(n1, dtype=np.int32), n2)
    p2 = np.tile(np.arange(n2, dtype=np.int32), n1)
    d1 = p1[:, None] - p1[None, :]
    d2 = p2[:, None] - p2[None, :]
    return _lag_covariance(model, d1, d2, (n1 - 1, n2 - 1))


@lru_cache(maxsize=4)
def _dense_cholesky(model, n1: int, n2: int) -> np.ndarray:
    sigma = covariance_matrix(model, n1, n2)
    sigma = sigma + _JITTER * np.eye(sigma.shape[0])
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"covariance matrix for {model!r} on {n1}x{n2} is not positive "
            f"definite even after jitter") from exc


# ---------------------------------------------------------------------------
# non-Gaussian generators

def _draw_innovations(kind: str, size: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "gaussian":
        return rng.standard_normal(size)
    return rng.standard_exponential(size) - 1.0   # SeparableARMA checked the kind


def simulate_separable(model: SeparableARMA, n1: int, n2: int,
                       rng: np.random.Generator) -> LatticeField:
    """Outer product Z(i, j) = X_i Y_j of an AR(1) and an MA(1) process.

    X starts from a variance-matched draw and discards ``_BURN_IN`` steps
    (the start's distributional shape is forgotten geometrically); Y uses
    one pre-sample innovation.
    """
    lam = _draw_innovations(model.innov1, _BURN_IN + n1, rng)
    x = np.empty(_BURN_IN + n1)
    x[0] = lam[0] / np.sqrt(1.0 - model.ar * model.ar)
    for t in range(1, _BURN_IN + n1):
        x[t] = model.ar * x[t - 1] + lam[t]
    ups = _draw_innovations(model.innov2, n2 + 1, rng)
    y = ups[1:] + model.ma * ups[:-1]
    return LatticeField(np.outer(x[_BURN_IN:], y))


def simulate_transformed(model: TransformedGaussian, n1: int, n2: int,
                         rng: np.random.Generator) -> LatticeField:
    """Pointwise-transformed Gaussian field, centered from the model:
    G -> G^4 minus its model mean 3 gamma(0)^2."""
    g = simulate_gaussian(model.base, n1, n2, rng)
    return LatticeField(g.values ** 4 - 3.0 * gamma0(model.base) ** 2)


def simulate_exp_cholesky(model, n1: int, n2: int,
                          rng: np.random.Generator) -> LatticeField:
    """Non-Gaussian field with the model's covariance: the dense Cholesky
    factor applied to centered standard exponential variables,
    Z = C (E - 1)."""
    if n1 * n2 > DENSE_LIMIT:
        raise ConfigError(
            f"exp-Cholesky generator is dense-only; {n1}x{n2} exceeds the "
            f"limit of {DENSE_LIMIT} sites")
    chol = _dense_cholesky(model, n1, n2)
    innovations = rng.standard_exponential(n1 * n2)
    return LatticeField((chol @ (innovations - 1.0)).reshape(n1, n2))


# ---------------------------------------------------------------------------
# uniform dispatch used by the CLI

def check_generator(generator: str) -> None:
    """Refuse a ``generator`` that ``simulate_process`` does not run."""
    if generator not in ("default", "exp_cholesky"):
        raise ConfigError(f"unknown generator {generator!r}")


def simulate_process(model, n1: int, n2: int, rng: np.random.Generator,
                     generator: str = "default") -> LatticeField:
    check_generator(generator)
    if generator == "exp_cholesky":
        return simulate_exp_cholesky(model, n1, n2, rng)
    if isinstance(model, SeparableARMA):
        return simulate_separable(model, n1, n2, rng)
    if isinstance(model, TransformedGaussian):
        return simulate_transformed(model, n1, n2, rng)
    return simulate_gaussian(model, n1, n2, rng)
