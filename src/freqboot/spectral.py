"""Psi-function catalog and the spectral mean statistic.

The target parameter is the spectral mean M(psi) = integral of
psi(omega) f(omega) over [-pi, pi]^2; its estimator is the Riemann sum
of psi times the periodogram over the nonzero Fourier frequencies.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError
from .lattice import _TWO_PI, Periodogram


@dataclass(frozen=True)
class PsiFunction:
    """Real function of frequency on [-pi, pi]^2, of bounded variation.

    ``fn(w1, w2)`` must accept broadcastable arrays and be free of
    internal state, so evaluation is safe from concurrent callers.
    ``name`` encodes the function and its parameters (it doubles as the
    CLI spelling).  A psi that is a cosine sum,
    sum_k c_k cos(h_k . omega), lists its (c_k, h_k) in ``cos_terms``;
    its spectral mean is then sum_k c_k gamma(h_k).  A refusal names its
    k-th lag as the catalog's descriptors do: h when it is alone, hk
    otherwise.
    """

    name: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    cos_terms: tuple[tuple[float, tuple[int, int]], ...] = ()
    # on_grid's values per grid shape, and the tables derived from them;
    # not part of equality, repr or pickles
    _on_grid: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __getstate__(self):
        return {**self.__dict__, "_on_grid": {}}

    def on_grid(self, grid, name: str = "fieldz") -> np.ndarray:
        """Evaluate on a FrequencyGrid in FFT layout, shape (n1, n2).

        The values depend only on the grid's shape, so they are computed
        once per shape and returned read-only.  This is where psi meets
        every grid, the field's and each block's (``name``), so a shape
        that reads a cosine lag as another is refused here.
        """
        key = (grid.n1, grid.n2)
        vals = self._on_grid.get(key)
        if vals is None:
            terms = self.cos_terms
            check_cos_lags([("h" if len(terms) == 1 else f"h{k}", h)
                            for k, (_, h) in enumerate(terms, 1)], key, name)
            vals = np.asarray(self.fn(grid.omega1[:, None], grid.omega2[None, :]),
                              dtype=np.float64) + np.zeros(key)
            vals.flags.writeable = False
            self._on_grid[key] = vals
        return vals

    def derived(self, what: str, grid, build, name: str = "fieldz"):
        """``build(values, grid)`` of this psi's ``on_grid`` values: a table
        that depends on psi and the grid's shape alone, built once per
        shape and ``what``, the builder's name, and shared by every
        caller, who must not write to it."""
        key = (what, grid.n1, grid.n2)
        if key not in self._on_grid:
            self._on_grid[key] = build(self.on_grid(grid, name), grid)
        return self._on_grid[key]


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


def check_distinct_lags(h1, h2, name1: str, name2: str) -> None:
    """Refuse lags ``h1`` and ``h2``, named ``name1`` and ``name2``, that
    are equal up to sign: an isotropy contrast compares the variogram at
    two lags, and cos(h . omega) = cos(-h . omega) makes the contrast of
    h and -h identically 0."""
    a, b = tuple(h1), tuple(h2)
    if a in (b, (-b[0], -b[1])):
        raise ConfigError(f"{name1} and {name2} must be two distinct lags" + (
            f", both are {a}" if a == b else
            f" up to sign, got {a} and {b}: their contrast is 0"))


def check_cos_lags(lags, window, window_name: str) -> None:
    """Refuse a cosine lag of ``lags``, (name, h) pairs, that a (w1, w2)
    ``window``, the Fourier grid of a field or a block named
    ``window_name``, reads as another lag.

    On that grid cos(h . omega) is read modulo the window and up to sign,
    so h must be the one shortest lag of its class: 2|h_i| <= w_i on each
    axis, with equality only where the other component is 0 (on 12 x 12,
    (8, 1) reads as (4, -1), and (6, 1) as (6, -1)).
    """
    w1, w2 = window
    for name, (a, b) in lags:
        if any(2 * abs(x) > w or (2 * abs(x) == w and y != 0)
               for x, y, w in ((a, b, w1), (b, a, w2))):
            raise ConfigError(
                f"{window_name}: the {w1}x{w2} Fourier grid reads cosine lag "
                f"{name}={(a, b)} as another lag; each lag needs "
                f"2|h_i| <= n_i, with equality only where its other "
                f"component is 0")


def psi_isotropy_contrast(h1, h2) -> PsiFunction:
    """psi(omega) = 2 cos(h1 . omega) - 2 cos(h2 . omega).

    Sign convention: M(psi) = 2 gamma(h1) - 2 gamma(h2), which equals the
    variogram difference 2 kappa(h2) - 2 kappa(h1).  Under isotropy the
    spectral mean is 0 whenever ||h1|| = ||h2||.
    """
    a = (int(h1[0]), int(h1[1]))
    b = (int(h2[0]), int(h2[1]))
    check_distinct_lags(a, b, "h1", "h2")

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
    try:
        return build(*(args[k] for k in expected))
    except ConfigError as exc:
        raise ConfigError(f"psi descriptor {spec!r}: {exc}") from None


# ---------------------------------------------------------------------------
# statistics

def spectral_mean(pgram: Periodogram, psi: PsiFunction) -> SpectralMeanValue:
    """Riemann-sum estimator (2 pi)^2 n^-1 sum_j psi(omega_j) I(omega_j)
    over the nonzero Fourier frequencies."""
    grid = pgram.grid
    pvals = psi.on_grid(grid)
    total = float(np.sum(pvals * pgram.values)) - float(pvals[0, 0] * pgram.values[0, 0])
    return SpectralMeanValue(value=(_TWO_PI ** 2) / grid.n * total, n=grid.n)

