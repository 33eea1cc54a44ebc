"""Batch experiment runner.

Configuration is a flat key=value file (``#`` comments, dotted keys)
plus ``--set key=value`` overrides.

The coverage and isotropy experiments share one replicate loop, chunk
worker and runner, and differ only in their row of ``_KINDS``.
Replicate i simulates one field per tau_r index t and grid size index s
from stream (seed, FIELD, i, t * len(sizes) + s), and bootstrap
replicate r of that field reads stream (seed, BOOT,
i * len(tau_r_list) + t, r); coverage runs only the model's own tau_r,
so there t = 0.  Replicates fan out over a process pool in chunks; as
every draw is addressed by these indices, reports are byte-identical for
a given seed regardless of worker count.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import rng as rngmod
from .bootstrap import FieldResampler
from .errors import ConfigError, FreqbootError, NumericalError
from .infer import (CI_METHODS, TEST_METHODS, calibrate_isotropy,
                    check_level, resampled_interval)
from .lattice import (LatticeField, load_field_binary, load_field_csv,
                      periodogram, save_field_binary, save_field_csv)
from .simulate import (MaternSpectral, SeparableARMA, SphericalAniso,
                       TransformedGaussian, WhiteNoise, matern_model,
                       model_autocovariance, simulate_process)
from .spectral import psi_from_name, psi_isotropy_contrast, spectral_mean
from .subsample import (BlockSpec, default_block_candidates,
                        select_block_size_min_volatility)

SCHEMA_VERSION = 1

PROCESS_KINDS = ("white_noise", "matern", "spherical", "separable",
                 "matern_quartic", "exp_cholesky")

KNOWN_KEYS = frozenset({
    "process.kind", "process.variance", "process.alpha", "process.nu",
    "process.phi", "process.sigma2", "process.range", "process.eta",
    "process.tau_a", "process.tau_r", "process.tau_r_list", "process.ar",
    "process.ma", "process.innov1", "process.innov2",
    "grid.sizes", "psi",
    "block.sizes", "block.window", "methods", "boot.B",
    "ci.level", "test.h1", "test.h2", "test.level",
    "pvalue.plus_one",
    "density.bandwidth1", "density.bandwidth2",
    "replicates", "seed", "workers", "out", "format",
    "truth.value", "truth.fixture",
})


# ---------------------------------------------------------------------------
# configuration

def parse_config_file(path) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


class Settings:
    """Typed access to the flat key-value map with key diagnostics; a
    getter returns ``default`` for an unset key.  Every key a getter
    asks for is recorded, so a command can refuse the keys it never
    read."""

    def __init__(self, values: dict[str, str]):
        self.values = dict(values)
        self.read: set[str] = set()

    def refuse_unread(self, command: str) -> None:
        """Refuse the keys that are set but that ``command`` never read:
        a setting it ignores would run something other than it names."""
        unread = sorted(set(self.values) - self.read)
        if unread:
            raise ConfigError(f"{command} does not read these keys, which "
                              f"are set: " + ", ".join(unread))

    def _parse(self, key, caster, default, kind):
        self.read.add(key)
        raw = self.values.get(key)
        if raw is None:
            return default
        try:
            return caster(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as {kind}") from exc

    def get_float(self, key, default=None) -> float:
        return self._parse(key, float, default, "a number")

    def get_int(self, key, default=None) -> int:
        return self._parse(key, lambda s: int(s, 0), default, "an integer")

    def get_str(self, key, default=None) -> str:
        return self._parse(key, str, default, "a string")

    def get_bool(self, key, default=False) -> bool:
        def cast(s):
            t = s.strip().lower()
            if t in ("1", "true", "yes", "on"):
                return True
            if t in ("0", "false", "no", "off"):
                return False
            raise ValueError(t)
        return self._parse(key, cast, default, "a boolean")

    def get_pair(self, key, default=None) -> tuple[int, int]:
        def cast(s):
            t = s.strip().strip("()")
            a, b = t.split(",")
            return (int(a), int(b))
        return self._parse(key, cast, default, "a pair like (1,0)")

    def _list(self, key, item, default, kind) -> tuple:
        """A non-empty comma list; empty items are skipped."""
        def cast(s):
            out = tuple(item(part.strip()) for part in s.split(",") if part.strip())
            if not out:
                raise ValueError(s)
            return out
        return self._parse(key, cast, default, kind)

    def get_floats(self, key, default=None) -> tuple[float, ...]:
        return self._list(key, float, default, "a comma list of numbers")

    def get_names(self, key, default=None) -> tuple[str, ...]:
        return self._list(key, str, default, "a comma list of names")

    def get_sizes(self, key, default=None) -> tuple[tuple[int, int], ...]:
        def size(part):
            a, _, b = part.partition("x")
            return (int(a), int(b if b else a))
        return self._list(key, size, default, "sizes like 50x50,30x30")


def build_model(st: Settings):
    """Resolve the process descriptor into (model, generator)."""
    kind = st.get_str("process.kind", "white_noise")
    if kind not in PROCESS_KINDS:
        raise ConfigError(f"process.kind must be one of {PROCESS_KINDS}, got {kind!r}")
    if kind == "white_noise":
        return WhiteNoise(st.get_float("process.variance", 1.0)), "default"
    if kind == "spherical":
        return SphericalAniso(sigma2=st.get_float("process.sigma2", 1.0),
                              range_=st.get_float("process.range", 5.0),
                              eta=st.get_float("process.eta", 0.0),
                              tau_a=st.get_float("process.tau_a", 0.0),
                              tau_r=st.get_float("process.tau_r", 1.0)), "default"
    if kind == "separable":
        return SeparableARMA(ar=st.get_float("process.ar", 0.2),
                             ma=st.get_float("process.ma", -0.7),
                             innov1=st.get_str("process.innov1", "gaussian"),
                             innov2=st.get_str("process.innov2", "gaussian")), "default"
    base = matern_model(st.get_float("process.alpha", 1.0 / 3.0),
                        st.get_float("process.nu", 1.0),
                        st.get_float("process.phi"))
    if kind == "matern_quartic":
        return TransformedGaussian(base=base, transform="quartic"), "default"
    # exp_cholesky: Matern-as-covariance driven by centered exponentials
    return base, "exp_cholesky" if kind == "exp_cholesky" else "default"


def build_bandwidth(st: Settings):
    """Explicit (bandwidth1, bandwidth2), or None for the default rate
    when neither key is set."""
    b1 = st.get_float("density.bandwidth1")
    b2 = st.get_float("density.bandwidth2")
    if b1 is None and b2 is None:
        return None
    if b1 is None or b2 is None:
        raise ConfigError("set both density.bandwidth1 and density.bandwidth2")
    return (b1, b2)


def _check_methods(methods, allowed, B: int) -> None:
    """Refuse a method outside ``allowed`` naming ``methods``, and a
    bootstrap method with B < 100 naming ``boot.B``."""
    for m in methods:
        if m not in allowed:
            raise ConfigError(f"methods: unknown method {m!r}, expected "
                              f"one or more of {allowed}")
    if B < 100 and any(m != "subsample" for m in methods):
        raise ConfigError(f"boot.B must be >= 100 for bootstrap methods, got {B}")


def _check_tau(kind: str, model, tau_r_list, name: str) -> None:
    """tau only deforms SphericalAniso; on any other model a tau != 1 row
    would be an isotropic field under an anisotropic label.  Coverage
    runs simulate the model as built, so their list must be exactly the
    model's own tau (1 for every non-spherical model)."""
    spherical = isinstance(model, SphericalAniso)
    if not spherical and any(t != 1.0 for t in tau_r_list):
        raise ConfigError(
            f"{name}: tau_r != 1 needs process.kind=spherical, the "
            f"{type(model).__name__} model here is isotropic")
    own = model.tau_r if spherical else 1.0
    if kind == "coverage" and tuple(tau_r_list) != (own,):
        raise ConfigError(
            f"{name}: coverage runs simulate only the model's own "
            f"tau_r={own}, got {list(tau_r_list)}")


def _block_spec(size, grid, subsample: bool) -> BlockSpec:
    """The block a ``block.sizes`` entry names on an n1 x n2 grid, refused
    naming the key when it is too small, does not fit, or leaves a
    subsample method fewer than two block translates."""
    (b1, b2), (n1, n2) = size, grid
    try:
        spec = BlockSpec(b1, b2)
    except ConfigError as exc:
        raise ConfigError(f"block.sizes: {exc}") from None
    if b1 > n1 or b2 > n2:
        raise ConfigError(f"block.sizes: block {b1}x{b2} does not fit grid {n1}x{n2}")
    if subsample and (n1 - b1 + 1) * (n2 - b2 + 1) < 2:
        raise ConfigError(f"block.sizes: block {b1}x{b2} has one translate in "
                          f"grid {n1}x{n2}, subsample needs at least 2")
    return spec


def _contrast(h1, h2):
    """The psi an isotropy command or experiment resamples: the contrast
    of its lags test.h1 and test.h2."""
    if tuple(h1) == tuple(h2):
        raise ConfigError(f"test.h1 and test.h2 must be two distinct lags, "
                          f"both are {tuple(h1)}")
    return psi_isotropy_contrast(h1, h2)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved description of a Monte Carlo run (picklable)."""

    kind: str
    model: object
    generator: str
    sizes: tuple[tuple[int, int], ...]
    psi_name: str
    blocks: tuple[tuple[int, int], ...]
    methods: tuple[str, ...]
    level: float
    test_level: float
    replicates: int
    B: int
    master_seed: int
    workers: int
    bandwidth: tuple[float, float] | None
    tau_r_list: tuple[float, ...]
    h1: tuple[int, int]
    h2: tuple[int, int]
    plus_one: bool
    truth: float | None

    def __post_init__(self):
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        check_level(self.level, "ci.level", 0.5)
        check_level(self.test_level, "test.level")
        _check_methods(self.methods, TEST_METHODS if self.kind == "isotropy"
                       else CI_METHODS, self.B)
        if not self.methods:
            raise ConfigError("no methods configured")
        if not self.sizes:
            raise ConfigError("no grid sizes configured")
        if not self.tau_r_list:
            raise ConfigError("no tau_r_list values configured")
        if not self.blocks and any(m != "fdwb" for m in self.methods):
            raise ConfigError("subsample-based methods need block.sizes")
        for grid in self.sizes:
            for size in self.blocks:
                _block_spec(size, grid, "subsample" in self.methods)
        _check_tau(self.kind, self.model, self.tau_r_list, "tau_r_list")
        psi = psi_from_name(self.psi_name)
        if self.kind == "coverage" and self.truth is None and not psi.cos_terms:
            raise ConfigError(
                f"truth.value: {psi.name} has no closed-form spectral mean; "
                f"give truth.value or truth.fixture")
        if self.kind == "isotropy":
            contrast = _contrast(self.h1, self.h2).name
            if psi.name != contrast:
                raise ConfigError(
                    f"psi: an isotropy experiment resamples the contrast of "
                    f"test.h1 and test.h2, {contrast}, got {self.psi_name!r}")


def _fixture_truth(path: str, model, generator: str, psi_name: str,
                   sizes) -> float:
    """The value of an ``oracle`` fixture, refused unless the fixture was
    made for this run's model, generator, psi and single grid size."""
    try:
        with open(path) as fh:
            fx = json.load(fh)
        made_for = (fx["kind"], fx["model"], fx["generator"], fx["psi"],
                    ((fx["n1"], fx["n2"]),))
        value = float(fx["value"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"truth.fixture: cannot read an oracle fixture "
                          f"from {path!r}: {exc!r}") from exc
    run = ("spectral_mean_oracle", repr(model), generator,
           psi_from_name(psi_name).name, tuple(sizes))
    for name, want, got in zip(("kind", "model", "generator", "psi",
                                "grid size"), run, made_for):
        if got != want:
            raise ConfigError(f"truth.fixture {path!r} has {name} {got!r}, "
                              f"this run needs {want!r}")
    return value


def true_spectral_mean(model, psi_name: str) -> float:
    """Analytic spectral mean of a cosine-sum psi, sum_k c_k gamma(h_k)
    from the model's autocovariances; ExperimentConfig asks any other
    psi for its truth."""
    return sum(c * model_autocovariance(model, h)
               for c, h in psi_from_name(psi_name).cos_terms)


def experiment_config(st: Settings, kind: str, seed, workers) -> ExperimentConfig:
    model, generator = build_model(st)
    methods = st.get_names("methods", ("fdwb", "hfdb", "subsample"))
    listed = st.get_floats("process.tau_r_list")
    tau_list = listed or (st.get_float("process.tau_r", 1.0),)
    _check_tau(kind, model, tau_list,
               "process.tau_r" if listed is None else "process.tau_r_list")
    sizes = st.get_sizes("grid.sizes", ((50, 50),))
    # each kind reads only its own keys; the other kind's fields keep
    # these defaults, so its keys stay unread and are refused
    level, truth, test_level, plus_one = 0.9, None, 0.1, False
    h1, h2 = (1, 0), (0, 1)
    if kind == "isotropy":
        h1 = st.get_pair("test.h1", h1)
        h2 = st.get_pair("test.h2", h2)
        test_level = st.get_float("test.level", test_level)
        plus_one = st.get_bool("pvalue.plus_one", plus_one)
        psi_name = st.get_str("psi", _contrast(h1, h2).name)
    else:
        psi_name = st.get_str("psi", "cos_lag{h=(1,0)}")
        level = st.get_float("ci.level", level)
        truth = st.get_float("truth.value")
        fixture = st.get_str("truth.fixture")
        if fixture is not None:
            if truth is not None:
                raise ConfigError("give truth.value or truth.fixture, not both")
            truth = _fixture_truth(fixture, model, generator, psi_name, sizes)
    return ExperimentConfig(
        kind=kind, model=model, generator=generator,
        sizes=sizes,
        psi_name=psi_name,
        blocks=st.get_sizes("block.sizes", ()),
        methods=methods,
        level=level,
        test_level=test_level,
        replicates=st.get_int("replicates", 500),
        B=st.get_int("boot.B", 500),
        master_seed=int(seed),
        workers=int(workers),
        bandwidth=build_bandwidth(st),
        tau_r_list=tau_list,
        h1=h1,
        h2=h2,
        plus_one=plus_one,
        truth=truth,
    )


# ---------------------------------------------------------------------------
# the replicate loop (module level so the pool can pickle its worker)

def _coverage_cells(cfg, res: FieldResampler, method: str, spec) -> dict:
    ci = resampled_interval(res, method, spec, cfg.level)
    return {"mhat": res.mhat.value, "lower": ci.lower, "upper": ci.upper,
            "covered": int(ci.covers(cfg.truth))}


def _isotropy_cells(cfg, res: FieldResampler, method: str, spec) -> dict:
    test = calibrate_isotropy(res, method, spec, cfg.h1, cfg.h2, cfg.plus_one)
    return {"ts": test.ts, "p_value": test.p_value,
            "reject": int(test.p_value < cfg.test_level)}


class _Kind(NamedTuple):
    """What one experiment kind puts into the shared replicate loop."""

    keys: tuple[str, ...]     # summary cell keys, "method" first
    flag: str                 # the 0/1 cell a summary row averages
    # replicate columns after the keys: the row function's cells, then
    # var_star and the BootstrapDraws fields the kind records
    columns: tuple[str, ...]
    row: Callable             # (cfg, res, method, spec) -> the kind's cells


_KINDS = {
    "coverage": _Kind(("method", "n1", "n2", "b1", "b2"), "covered",
                      ("mhat", "lower", "upper", "covered", "var_star",
                       "sigma2_raw", "sigma2_floored", "bias_sub"),
                      _coverage_cells),
    "isotropy": _Kind(("method", "tau_r", "n1", "n2", "b1", "b2"), "reject",
                      ("ts", "p_value", "reject", "var_star", "sigma2_raw",
                       "sigma2_floored"),
                      _isotropy_cells),
}


def _replicate(cfg: ExperimentConfig, i: int) -> list[dict]:
    """Replicate i's records: one per tau, grid size, block and method."""
    kind = _KINDS[cfg.kind]
    psi = psi_from_name(cfg.psi_name)
    drawn = kind.columns[kind.columns.index("var_star") + 1:]
    # var_star is written on every row of a run that has a bootstrap
    # method, subsample rows included
    need_boot = any(m != "subsample" for m in cfg.methods)
    records = []
    for t_idx, tau in enumerate(cfg.tau_r_list):
        model = cfg.model
        if isinstance(model, SphericalAniso):
            model = dataclasses.replace(model, tau_r=tau)
        for size_idx, (n1, n2) in enumerate(cfg.sizes):
            stream_id = t_idx * len(cfg.sizes) + size_idx
            field = simulate_process(
                model, n1, n2,
                rngmod.stream(cfg.master_seed, rngmod.TAG_FIELD, i, stream_id),
                generator=cfg.generator)
            res = FieldResampler(field, psi, cfg.B, cfg.master_seed,
                                 i * len(cfg.tau_r_list) + t_idx, cfg.bandwidth)
            for (b1, b2) in cfg.blocks or ((0, 0),):
                spec = BlockSpec(b1, b2) if cfg.blocks else None
                for method in cfg.methods:
                    at = {"method": method, "tau_r": tau, "n1": n1, "n2": n2,
                          "b1": b1, "b2": b2}
                    d = None if method == "subsample" else res.draws(method, spec)
                    records.append({
                        "replicate": i, **{k: at[k] for k in kind.keys},
                        **kind.row(cfg, res, method, spec),
                        "var_star": res.var_star if need_boot else 0.0,
                        **{name: 0.0 if d is None else getattr(d, name)
                           for name in drawn}})
    return records


def _chunk(args) -> list[dict]:
    cfg, indices = args
    out = []
    for i in indices:
        out.extend(_replicate(cfg, i))
    return out


# ---------------------------------------------------------------------------
# experiment drivers and reports

@dataclass
class ExperimentReport:
    kind: str
    config: dict
    summary: list[dict]
    replicates: list[dict]


def _summarize(records: list[dict], keys: tuple[str, ...], flag: str) -> list[dict]:
    cells: dict[tuple, list[int]] = {}
    for rec in records:
        cells.setdefault(tuple(rec[k] for k in keys), []).append(rec[flag])
    out = []
    for cell in sorted(cells):
        flags = cells[cell]
        p = sum(flags) / len(flags)
        row = dict(zip(keys, cell))
        row["proportion"] = p
        row["mc_se"] = float(np.sqrt(p * (1.0 - p) / len(flags)))
        row["replicates"] = len(flags)
        out.append(row)
    return out


def _run(cfg: ExperimentConfig, kind: str) -> ExperimentReport:
    """The one Monte Carlo runner: every replicate of ``cfg``, in chunks
    on a fork pool when ``cfg.workers`` > 1, sorted and summarised per
    cell of the kind's keys."""
    if cfg.kind != kind:
        raise ConfigError(f"a {cfg.kind} config cannot run a {kind} experiment")
    table = _KINDS[kind]
    R = cfg.replicates
    n_chunks = 1 if cfg.workers == 1 else min(R, cfg.workers * 4)
    payloads = [(cfg, list(range(R))[k::n_chunks]) for k in range(n_chunks)]
    if n_chunks == 1:
        chunks = [_chunk(p) for p in payloads]
    else:
        # a fork pool starts every worker up front: start no idle ones
        with ProcessPoolExecutor(max_workers=min(cfg.workers, n_chunks)) as pool:
            chunks = list(pool.map(_chunk, payloads))
    records = [rec for chunk in chunks for rec in chunk]
    order = ("replicate", *table.keys[1:], "method")
    records.sort(key=lambda r: tuple(r[k] for k in order))
    echo = dataclasses.asdict(cfg)
    echo["model"] = repr(cfg.model)
    # execution detail, not part of the experiment: reports must be
    # byte-identical across worker counts
    del echo["workers"]
    return ExperimentReport(kind=kind, config=echo,
                            summary=_summarize(records, table.keys, table.flag),
                            replicates=records)


def run_coverage_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Coverage of the true spectral mean by each method's interval per
    (method, grid size, block) cell; unless ``cfg.truth`` is given, the
    truth is the analytic spectral mean, resolved once here and echoed."""
    if cfg.truth is None:
        cfg = dataclasses.replace(
            cfg, truth=true_spectral_mean(cfg.model, cfg.psi_name))
    return _run(cfg, "coverage")


def run_isotropy_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Rejection rate of the isotropy test per (method, tau_r, grid size,
    block) cell."""
    if not isinstance(cfg.model, (SphericalAniso, MaternSpectral)):
        raise ConfigError(
            "isotropy experiments need a spherical or exp-Cholesky (Matern) process")
    return _run(cfg, "isotropy")


# ---------------------------------------------------------------------------
# report emission

def _csv_cell(v) -> str:
    if isinstance(v, float):
        return repr(float(v))   # np.float64 reprs as "np.float64(...)" on numpy 2
    return str(v)


def _write_csv(rows: list[dict], columns: list[str], path) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(row[c]) for c in columns) + "\n")


def report_to_json(report: ExperimentReport) -> str:
    payload = {"schema_version": SCHEMA_VERSION, "kind": report.kind,
               "config": report.config, "summary": report.summary,
               "replicates": report.replicates}
    return json.dumps(payload, sort_keys=True, indent=1, default=repr)


def _check_report_format(fmt: str) -> None:
    if fmt not in ("csv", "json", "both"):
        raise ConfigError(f"format must be csv, json or both, got {fmt!r}")


def emit_report(report: ExperimentReport, out_prefix: str,
                fmt: str = "csv") -> list[str]:
    """Write the summary and per-replicate files; returns written paths."""
    _check_report_format(fmt)
    parent = os.path.dirname(out_prefix)
    if parent:
        os.makedirs(parent, exist_ok=True)
    written = []
    if fmt in ("csv", "both"):
        table = _KINDS[report.kind]
        sum_cols = [*table.keys, "proportion", "mc_se", "replicates"]
        rep_cols = ["replicate", *table.keys, *table.columns]
        try:
            _write_csv(report.summary, sum_cols, out_prefix + "_summary.csv")
            _write_csv(report.replicates, rep_cols, out_prefix + "_replicates.csv")
        except OSError as exc:
            raise ConfigError(f"cannot write report near {out_prefix!r}: {exc}") from exc
        written += [out_prefix + "_summary.csv", out_prefix + "_replicates.csv"]
    if fmt in ("json", "both"):
        path = out_prefix + ".json"
        try:
            with open(path, "w") as fh:
                fh.write(report_to_json(report))
                fh.write("\n")
        except OSError as exc:
            raise ConfigError(f"cannot write report {path!r}: {exc}") from exc
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# single-shot helpers

def _single(items: tuple, key: str):
    """The one entry that a single-field command reads from ``key``."""
    if len(items) > 1:
        raise ConfigError(f"{key}: this command takes one entry, got {len(items)}")
    return items[0]


def _load_field(st: Settings, path: str | None, seed: int) -> LatticeField:
    if path is not None:
        if path.endswith(".bin"):
            return load_field_binary(path)
        return load_field_csv(path)
    model, generator = build_model(st)
    (n1, n2) = _single(st.get_sizes("grid.sizes", ((50, 50),)), "grid.sizes")
    gen = rngmod.stream(seed, rngmod.TAG_GENERIC, 0, 0)
    return simulate_process(model, n1, n2, gen, generator=generator)


def _minvol(st: Settings, fieldz: LatticeField, psi):
    """The minimum-volatility block of ``fieldz`` among the default
    candidates, with the window ``block.window``: (block, candidates,
    window)."""
    window = st.get_int("block.window", 3)
    cands = default_block_candidates(fieldz.n1, fieldz.n2)
    try:
        # the default candidates are sorted, so only the window is refused
        spec = select_block_size_min_volatility(fieldz, psi, cands, window)
    except ConfigError as exc:
        raise ConfigError(f"block.window: {exc}") from None
    return spec, cands, window


def _single_block(st: Settings, fieldz: LatticeField, psi,
                  subsample: bool = False) -> BlockSpec | None:
    """The block that ``block.sizes`` names for a single field: one size,
    or ``minvol`` for the minimum-volatility selection; None when unset."""
    if st.get_str("block.sizes") == "minvol":
        return _minvol(st, fieldz, psi)[0]
    sizes = st.get_sizes("block.sizes")
    if sizes is None:
        return None
    return _block_spec(_single(sizes, "block.sizes"), (fieldz.n1, fieldz.n2),
                       subsample)


def _print_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=1, default=repr))


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="freqboot",
        description="Frequency-domain resampling experiments for gridded "
                    "spatial data")
    ap.add_argument("--config", help="key=value configuration file")
    ap.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                    help="override a configuration key (repeatable)")
    ap.add_argument("--seed", type=int, help="master seed (overrides 'seed' key)")
    ap.add_argument("--workers", type=int, help="worker processes")
    ap.add_argument("--out", help="output path or prefix")
    ap.add_argument("--format", dest="fmt", help="report format: csv, json, both")
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", help="simulate one field and write it")
    for name in ("estimate", "ci", "isotropy", "blocksize"):
        p = sub.add_parser(name)
        p.add_argument("--in", dest="infile", help="field file (.csv or .bin)")
    sub.add_parser("coverage", help="Monte Carlo coverage experiment")
    sub.add_parser("isotropy-experiment", help="Monte Carlo isotropy size/power")
    p = sub.add_parser("oracle", help="long-run Monte Carlo truth fixture")
    return ap


def _settings_from_args(args) -> Settings:
    values: dict[str, str] = {}
    if args.config:
        values.update(parse_config_file(args.config))
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, val = item.split("=", 1)
        values[key.strip()] = val.strip()
    for key, val in (("seed", args.seed), ("workers", args.workers),
                     ("out", args.out), ("format", args.fmt)):
        if val is not None:
            values[key] = str(val)
    unknown = sorted(set(values) - KNOWN_KEYS)
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(unknown))
    return Settings(values)


def _dispatch(args) -> int:
    st = _settings_from_args(args)
    cmd = args.command
    seed = st.get_int("seed", 0)

    if cmd == "simulate":
        out = st.get_str("out", "freqboot_out")
        fmt = st.get_str("format", "csv")
        if fmt not in ("csv", "bin", "binary"):
            raise ConfigError(f"format must be csv, bin or binary for simulate, "
                              f"got {fmt!r}")
        fieldz = _load_field(st, None, seed)
        st.refuse_unread(cmd)
        if fmt in ("bin", "binary"):
            save_field_binary(fieldz, out)
        else:
            save_field_csv(fieldz, out)
        print(out)
        return 0

    if cmd == "oracle":
        model, generator = build_model(st)
        psi = psi_from_name(st.get_str("psi", "cos_lag{h=(1,0)}"))
        (n1, n2) = _single(st.get_sizes("grid.sizes", ((50, 50),)), "grid.sizes")
        R = st.get_int("replicates", 2000)
        out = st.get_str("out", "freqboot_out")
        st.refuse_unread(cmd)
        vals = np.empty(R)
        for i in range(R):
            f = simulate_process(model, n1, n2,
                                 rngmod.stream(seed, rngmod.TAG_ORACLE, i, 0),
                                 generator=generator)
            vals[i] = spectral_mean(periodogram(f), psi).value
        fixture = {"schema_version": SCHEMA_VERSION,
                   "kind": "spectral_mean_oracle", "model": repr(model),
                   "generator": generator, "psi": psi.name,
                   "n1": n1, "n2": n2, "replicates": R, "seed": seed,
                   "value": float(np.mean(vals)),
                   "se": float(np.std(vals, ddof=1) / np.sqrt(R)),
                   "var_h": float(n1 * n2 * np.var(vals, ddof=1))}
        with open(out, "w") as fh:
            json.dump(fixture, fh, sort_keys=True, indent=1)
            fh.write("\n")
        print(out)
        return 0

    if cmd in ("coverage", "isotropy-experiment"):
        kind = "coverage" if cmd == "coverage" else "isotropy"
        cfg = experiment_config(st, kind, seed, st.get_int("workers", 1))
        out = st.get_str("out", "freqboot_out")
        fmt = st.get_str("format", "csv")
        _check_report_format(fmt)
        st.refuse_unread(cmd)
        report = (run_coverage_experiment if kind == "coverage"
                  else run_isotropy_experiment)(cfg)
        paths = emit_report(report, out, fmt)
        for row in report.summary:
            print(" ".join(f"{k}={_csv_cell(v)}" for k, v in row.items()))
        for p in paths:
            print("wrote", p, file=sys.stderr)
        return 0

    # estimate, ci, isotropy, blocksize: one field, one psi, one bandwidth
    fieldz = _load_field(st, args.infile, seed)
    if cmd == "isotropy":
        h1 = st.get_pair("test.h1", (1, 0))
        h2 = st.get_pair("test.h2", (0, 1))
        psi = _contrast(h1, h2)
    else:
        psi = psi_from_name(st.get_str("psi", "cos_lag{h=(1,0)}"))
    if cmd == "blocksize":
        spec, cands, window = _minvol(st, fieldz, psi)
        st.refuse_unread(cmd)
        _print_json({"b1": spec.b1, "b2": spec.b2,
                     "candidates": [[c.b1, c.b2] for c in cands],
                     "window": window})
        return 0
    bandwidth = build_bandwidth(st)
    if cmd == "estimate":
        # B = 0: estimate draws no bootstrap replicates
        B, spec = 0, _single_block(st, fieldz, psi)
    else:
        # ci and isotropy: the one method of methods, and its block
        method = _single(st.get_names("methods", ("hfdb",)), "methods")
        B = st.get_int("boot.B", 500)
        _check_methods((method,), CI_METHODS if cmd == "ci" else TEST_METHODS, B)
        spec = None
        if method != "fdwb":
            spec = _single_block(st, fieldz, psi, method == "subsample")
            if spec is None:
                raise ConfigError(f"block.sizes: methods={method} needs one "
                                  f"block size or minvol")
        if cmd == "ci":
            level = st.get_float("ci.level", 0.9)
            check_level(level, "ci.level", 0.5)
        else:
            plus_one = st.get_bool("pvalue.plus_one", False)
    st.refuse_unread(cmd)
    res = FieldResampler(fieldz, psi, B, seed, bandwidth=bandwidth)
    if cmd == "estimate":
        result = {"n1": fieldz.n1, "n2": fieldz.n2, "psi": psi.name,
                  "mhat": res.mhat.value, "var_star": res.var_star,
                  "bandwidth": list(res.fhat.bandwidth)}
        if spec is not None:
            est = res.variance(spec)
            result.update({"b1": spec.b1, "b2": spec.b2,
                           "sigma_sq": est.sigma_sq_hat,
                           "sigma1_sq": est.sigma1_sq_hat,
                           "sigma2_sq": est.sigma2_sq_hat,
                           "sigma2_floored": est.floored_sigma2})
    elif cmd == "ci":
        ci = resampled_interval(res, method, spec, level)
        result = {"method": ci.method, "level": ci.level,
                  "mhat": res.mhat.value, "lower": ci.lower, "upper": ci.upper}
    else:
        test = calibrate_isotropy(res, method, spec, h1, h2, plus_one)
        result = {"ts": test.ts, "p_value": test.p_value, "method": test.method,
                  "h1": list(test.h1), "h2": list(test.h2)}
    _print_json(result)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except FreqbootError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
