"""Random field generators for the experimental designs.

All generators are exact in distribution and bit-reproducible from a
seed.  Spectral models are synthesized on a refined frequency torus and
cropped; covariance models go through circulant embedding with a
nonnegative-eigenvalue check and fall back to dense Cholesky while the
grid stays within the dense limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, NumericalError
from .lattice import LatticeField, _signed_indices
from .spectral import quadrature

_TWO_PI = 2.0 * np.pi

REFINE = 4              # torus refinement for spectral-model synthesis
DENSE_LIMIT = 4096      # largest n1*n2 for dense Cholesky paths
_BURN_IN = 500          # AR(1) steps discarded before the separable field
_JITTER = 1e-10
_EIG_TOL = 1e-9

INNOVATIONS = ("gaussian", "exponential_centered")


# ---------------------------------------------------------------------------
# model descriptors

@dataclass(frozen=True)
class WhiteNoise:
    variance: float = 1.0

    def __post_init__(self):
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

def spherical_covariance(model: SphericalAniso, h) -> float:
    return float(_spherical_cov_arrays(
        model, np.asarray(h[0], dtype=float), np.asarray(h[1], dtype=float)))


def _spherical_cov_arrays(model: SphericalAniso, h1, h2):
    B = anisotropy_matrix(model.tau_a, model.tau_r)
    r = np.sqrt(B[0, 0] * h1 * h1 + 2.0 * B[0, 1] * h1 * h2 + B[1, 1] * h2 * h2)
    u = r / model.range_
    body = np.where(u <= 1.0, model.sigma2 * (1.0 - 1.5 * u + 0.5 * u ** 3), 0.0)
    return body + model.eta * ((h1 == 0) & (h2 == 0))


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
        gam = np.asarray(_spherical_cov_arrays(
            model, lags[:, None].astype(float), lags[None, :].astype(float)))
        out = np.zeros(np.broadcast(w1, w2).shape)
        for i, l1 in enumerate(lags):
            for j, l2 in enumerate(lags):
                if gam[i, j] != 0.0:
                    out = out + gam[i, j] * np.cos(l1 * w1 + l2 * w2)
        return out / (_TWO_PI ** 2)
    raise NumericalError(
        f"no spectral density available for {type(model).__name__}")


def model_autocovariance(model, h) -> float:
    """gamma(h) of the model process (exact where closed-form, quadrature
    for spectral models)."""
    h1, h2 = int(h[0]), int(h[1])
    if isinstance(model, WhiteNoise):
        return model.variance if (h1, h2) == (0, 0) else 0.0
    if isinstance(model, SphericalAniso):
        return spherical_covariance(model, (h1, h2))
    if isinstance(model, MaternSpectral):
        return _matern_autocov(model, h1, h2)
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
    raise ConfigError(f"unknown model {type(model).__name__}")


@lru_cache(maxsize=256)
def _matern_autocov(model: MaternSpectral, h1: int, h2: int) -> float:
    def integrand(w1, w2):
        return model_spectral_density(model, w1, w2) * np.cos(h1 * w1 + h2 * w2)

    return quadrature(integrand)


def gamma0(model) -> float:
    return model_autocovariance(model, (0, 0))


def matern_model(alpha: float, nu: float, phi: float | None = None) -> MaternSpectral:
    """Matern model; with phi omitted the amplitude is calibrated so the
    process variance gamma(0) equals 1."""
    if phi is not None:
        return MaternSpectral(phi=phi, alpha=alpha, nu=nu)
    raw = MaternSpectral(phi=1.0, alpha=alpha, nu=nu)
    return MaternSpectral(phi=1.0 / gamma0(raw), alpha=alpha, nu=nu)


# ---------------------------------------------------------------------------
# torus synthesis and circulant embedding

def _torus_omegas(m: int) -> np.ndarray:
    return _TWO_PI * _signed_indices(m) / m


@lru_cache(maxsize=16)
def _matern_torus_spectrum(model: MaternSpectral, m1: int, m2: int) -> np.ndarray:
    w1 = _torus_omegas(m1)[:, None]
    w2 = _torus_omegas(m2)[None, :]
    return (_TWO_PI ** 2) * model_spectral_density(model, w1, w2)


@lru_cache(maxsize=16)
def _spherical_torus_spectrum(model: SphericalAniso, m1: int, m2: int) -> np.ndarray | None:
    """Circulant eigenvalues of the torus-wrapped covariance, or None when
    the embedding is not nonnegative."""
    h1 = _signed_indices(m1)[:, None]
    h2 = _signed_indices(m2)[None, :]
    cov = _spherical_cov_arrays(model, h1, h2)
    lam = np.fft.fft2(cov).real
    if lam.min() < -_EIG_TOL * max(lam.max(), 1.0):
        return None
    return np.maximum(lam, 0.0)


def _torus_draw(lam: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One exact stationary Gaussian field on the torus with circulant
    eigenvalues lam (real part of a complex synthesis; real and imaginary
    parts would be independent copies, only the real one is used)."""
    m1, m2 = lam.shape
    noise = rng.standard_normal((2, m1, m2))
    z = noise[0] + 1j * noise[1]
    x = np.fft.ifft2(np.sqrt(lam) * z) * np.sqrt(m1 * m2)
    return x.real


def simulate_gaussian(model, n1: int, n2: int,
                      rng: np.random.Generator) -> LatticeField:
    """Mean-zero Gaussian field with the model's covariance.

    White noise draws directly; spectral (Matern) models synthesize on a
    REFINE-times-finer frequency torus and crop; covariance (spherical)
    models use circulant embedding on a doubled torus, falling back to
    dense Cholesky when the embedding has negative eigenvalues and the
    grid is within the dense limit.
    """
    if n1 < 1 or n2 < 1:
        raise ConfigError("grid extents must be positive")
    if isinstance(model, WhiteNoise):
        return LatticeField(np.sqrt(model.variance) * rng.standard_normal((n1, n2)))
    if isinstance(model, MaternSpectral):
        lam = _matern_torus_spectrum(model, REFINE * n1, REFINE * n2)
        return LatticeField(_torus_draw(lam, rng)[:n1, :n2])
    if isinstance(model, SphericalAniso):
        m1 = 2 * max(n1, int(np.ceil(model.range_)) + 1)
        m2 = 2 * max(n2, int(np.ceil(model.range_)) + 1)
        lam = _spherical_torus_spectrum(model, m1, m2)
        if lam is not None:
            return LatticeField(_torus_draw(lam, rng)[:n1, :n2])
        if n1 * n2 > DENSE_LIMIT:
            raise NumericalError(
                f"circulant embedding failed and {n1}x{n2} exceeds the dense "
                f"Cholesky limit of {DENSE_LIMIT} sites")
        chol = _dense_cholesky(model, n1, n2)
        return LatticeField((chol @ rng.standard_normal(n1 * n2)).reshape(n1, n2))
    raise ConfigError(
        f"{type(model).__name__} is not Gaussian-compatible; use its own generator")


# ---------------------------------------------------------------------------
# dense covariance paths

def covariance_matrix(model, n1: int, n2: int) -> np.ndarray:
    """Covariance matrix of the field flattened row-major, gamma(s - t)."""
    p1 = np.repeat(np.arange(n1, dtype=np.int32), n2)
    p2 = np.tile(np.arange(n2, dtype=np.int32), n1)
    d1 = p1[:, None] - p1[None, :]
    d2 = p2[:, None] - p2[None, :]
    if isinstance(model, SphericalAniso):
        return np.asarray(_spherical_cov_arrays(model, d1.astype(float),
                                                d2.astype(float)))
    if isinstance(model, MaternSpectral):
        table = _matern_cov_table(model, n1, n2)
        return table[np.abs(d1), np.abs(d2)]
    if isinstance(model, WhiteNoise):
        return model.variance * np.eye(n1 * n2)
    raise ConfigError(f"no dense covariance for {type(model).__name__}")


@lru_cache(maxsize=8)
def _matern_cov_table(model: MaternSpectral, n1: int, n2: int) -> np.ndarray:
    """gamma(h) for 0 <= h_k < n_k by inverse DFT of the density on a
    refined torus (controls aliasing; gamma is even per component)."""
    lam = _matern_torus_spectrum(model, REFINE * n1, REFINE * n2)
    cov = np.fft.ifft2(lam).real
    return cov[:n1, :n2]


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

def simulate_process(model, n1: int, n2: int, rng: np.random.Generator,
                     generator: str = "default") -> LatticeField:
    if generator == "exp_cholesky":
        return simulate_exp_cholesky(model, n1, n2, rng)
    if generator != "default":
        raise ConfigError(f"unknown generator {generator!r}")
    if isinstance(model, SeparableARMA):
        return simulate_separable(model, n1, n2, rng)
    if isinstance(model, TransformedGaussian):
        return simulate_transformed(model, n1, n2, rng)
    return simulate_gaussian(model, n1, n2, rng)
