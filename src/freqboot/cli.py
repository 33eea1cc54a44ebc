"""Batch experiment runner.

Configuration is a flat key=value file (``#`` comments, dotted keys)
plus ``--set key=value`` overrides.  Each key is declared once, in
``KEYS``, with its parser, its default and its check.

The coverage and isotropy experiments share one replicate loop, chunk
worker and runner, and differ only in their row of ``_KINDS``.  The
single-field commands ci and isotropy print the result of a kind's row
on one field, and every command that resamples checks its run with the
one ``_check_methods``, once, and the one ``_check_run`` on each grid.
Replicate i simulates one field per tau_r index t and grid size index s
from stream (seed, FIELD, i, t * len(sizes) + s), and bootstrap
replicate r of every one of its fields reads stream (seed, BOOT,
i * len(tau_r_list), r), the address of its first tau; coverage runs
only the model's own tau_r.  The report's config echo names this rule
``boot_streams: 2``; under rule 1 the fields of tau index t read (seed,
BOOT, i * len(tau_r_list) + t, r), so only the rows of the second and
later tau of a multi-tau isotropy run differ between the two
(``test_replicate_fields_share_one_bootstrap_address``).  The echo's
``rounding: 2`` names how Var*, sigma1^2 and the Matern lag tables are
summed.  Under rule 1, Var* summed psi (psi + psi_-) fhat^2 over the
whole frequency grid, sigma1^2 weighed the block moments mirrored onto
each block's whole grid, and a lag table took its half-axis frequencies
as (2 pi / m) k.  Rule 2 reads Var* from the draws' half-plane
coefficients, sigma1^2 on the block half grid and those frequencies as
2 pi k / m: the values agree to rounding.  Replicates fan out over a
process pool in chunks; as every draw is addressed by these indices,
reports are byte-identical for a given seed regardless of worker
count.

A replicate simulates all its fields first.  As they share one address,
one fill of weight rows serves the draws of them all
(``bootstrap._fdwb``); a replicate of one field fills through
``fdwb_draws``.  A field whose methods read block ensembles has the
ensembles of all its block sizes computed at once, as a ladder whose
batches run on threads, before its rows are made.  When the first field
has two or more block sizes and a bootstrap method, and the draws are
filled on one thread, the calling thread fills them while the other
threads start on the ladder's batches.  Worker processes divide the
CPUs among those running a chunk (``_pool.share``), so processes times
threads stay within them and a worker left alone uses them all.  Each
ensemble's batches are merged in batch order, so the bits depend on
neither the thread nor the worker count.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import multiprocessing
import os
import sys
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import _pool
from . import rng as rngmod
from .bootstrap import FieldResampler, check_B
from .density import check_bandwidth, check_bandwidth_pair
from .errors import ConfigError, FreqbootError, NumericalError
from .infer import (CI_METHODS, TEST_METHODS, calibrate_isotropy,
                    check_level, resampled_interval)
from .lattice import (load_field_binary, load_field_csv,
                      periodogram, save_field_binary, save_field_csv)
from .simulate import (RULES, MaternSpectral, SeparableARMA, SphericalAniso,
                       TransformedGaussian, WhiteNoise, check_generator,
                       matern_model, model_autocovariance, simulate_process)
from .spectral import (check_cos_lags, check_distinct_lags, psi_from_name,
                       psi_isotropy_contrast, spectral_mean)
from .subsample import (BlockSpec, check_block, check_extents, check_lag,
                        check_window, default_block_candidates,
                        select_block_size_min_volatility)

SCHEMA_VERSION = 1

PROCESS_KINDS = ("white_noise", "matern", "spherical", "separable",
                 "matern_quartic", "exp_cholesky")

# the command that reads the keys of each experiment kind; every other
# command makes or reads a single field
_COMMAND = {"coverage": "coverage", "isotropy": "isotropy-experiment"}


# ---------------------------------------------------------------------------
# configuration keys

def parse_config_file(path) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def _finite(s) -> float:
    """float(s), refusing nan and +-inf (ValueError), which no key takes."""
    value = float(s)
    if not math.isfinite(value):
        raise ValueError(f"{s!r} is not finite")
    return value


def _list(item):
    """The parser of a non-empty comma list; empty items are skipped."""
    def parse(s):
        out = tuple(item(part.strip()) for part in s.split(",") if part.strip())
        if not out:
            raise ValueError(s)
        return out
    return parse


def _pair(s) -> tuple[int, int]:
    a, b = s.strip().strip("()").split(",")
    return (int(a), int(b))


def _size(part) -> tuple[int, int]:
    a, _, b = part.partition("x")
    return (int(a), int(b if b else a))


_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}
# a key's parser (raising ValueError, KeyError or TypeError) and what it
# takes, for the message that refuses a value it cannot parse
NUMBER = (_finite, "a finite number")
INT = (lambda s: int(s, 0), "an integer")
STRING = (str, "a string")
BOOL = (lambda s: _BOOLS[s.strip().lower()], "a boolean")
PAIR = (_pair, "a pair like (1,0)")
NUMBERS = (_list(_finite), "a comma list of finite numbers")
NAMES = (_list(str), "a comma list of names")
SIZES = (_list(_size), "sizes like 50x50,30x30")
# a single field's block.sizes also takes minvol, the minimum-volatility block
BLOCKS = (lambda s: s if s == "minvol" else SIZES[0](s), SIZES[1])


def _when(ok, refusal: str):
    """The check refusing a value that fails ``ok``, formatting ``refusal``."""
    return lambda value, command: None if ok(value) else refusal.format(value)


def _entries(items, command):
    """A list takes at least one entry, and one in a single-field command.
    An entry is listed once: a copy would run again as one more replicate
    of its cell, or write a second row under the same key."""
    if command not in (None, *_COMMAND.values()) and len(items) > 1:
        return f": this command takes one entry, got {len(items)}"
    for i, item in enumerate(items):
        if item in items[:i]:
            shown = "x".join(map(str, item)) if isinstance(item, tuple) else repr(item)
            return f": {shown} is listed twice; list each entry once"
    return None if items else ": no entries configured"


def _rule(param: str, each: bool = False):
    """The check of the key that sets the model parameter ``param``: its
    rule in ``simulate.RULES``, or with ``each`` that rule on every entry
    of a list that ``_entries`` checks."""
    test, words = RULES[param]
    if each:
        return lambda values, command: next(
            (": each entry " + words.format(v) for v in values if not test(v)),
            _entries(values, command))
    return _when(test, " " + words)


def _extents(sizes, command, least: int, why: str = ""):
    """A list of sizes whose extents are all at least ``least``."""
    for n1, n2 in sizes:
        if min(n1, n2) < least:
            return f": extents must be >= {least}{why}, got {n1}x{n2}"
    return _entries(sizes, command)


def _blocks(sizes, command):
    """A list of block sizes that ``subsample.check_extents`` accepts."""
    for size in sizes:
        check_extents(size, "block.sizes")
    return _entries(sizes, command)


def _methods(methods, command):
    # the isotropy commands take the test methods
    allowed = TEST_METHODS if "isotropy" in (command or "") else CI_METHODS
    for m in methods:
        if m not in allowed:
            return f": unknown method {m!r}, expected one or more of {allowed}"
    return _entries(methods, command)


# One configuration key: its parser, its default when unset and its check,
# which takes (value, command) and returns None or the refusal that follows
# the key's name.  A parser, default or check that differs by command is a
# dict keyed by command, whose None entry serves the other commands.
Key = namedtuple("Key", "parser default check", defaults=(None, None))

KEYS = {
    "process.kind": Key(STRING, "white_noise", _when(
        lambda k: k in PROCESS_KINDS, f" must be one of {PROCESS_KINDS}, got {{!r}}")),
    # a descriptor's default is its field's; Matern's are the CLI's own
    "process.variance": Key(NUMBER, WhiteNoise.variance, _rule("variance")),
    "process.alpha": Key(NUMBER, 1.0 / 3.0, _rule("alpha")),
    "process.nu": Key(NUMBER, 1.0, _rule("nu")),
    # unset: calibrated to unit variance
    "process.phi": Key(NUMBER, None, _rule("phi")),
    "process.sigma2": Key(NUMBER, SphericalAniso.sigma2, _rule("sigma2")),
    "process.range": Key(NUMBER, SphericalAniso.range_, _rule("range_")),
    "process.eta": Key(NUMBER, SphericalAniso.eta, _rule("eta")),
    "process.tau_a": Key(NUMBER, SphericalAniso.tau_a),
    "process.tau_r": Key(NUMBER, SphericalAniso.tau_r, _rule("tau_r")),
    # unset: process.tau_r
    "process.tau_r_list": Key(NUMBERS, None, _rule("tau_r", each=True)),
    "process.ar": Key(NUMBER, SeparableARMA.ar, _rule("ar")),
    "process.ma": Key(NUMBER, SeparableARMA.ma),
    "process.innov1": Key(STRING, SeparableARMA.innov1, _rule("innov1")),
    "process.innov2": Key(STRING, SeparableARMA.innov2, _rule("innov2")),
    "grid.sizes": Key(SIZES, ((50, 50),), {
        "simulate": lambda s, c: _extents(s, c, 1),
        None: lambda s, c: _extents(s, c, 2, " to take a periodogram")}),
    # isotropy-experiment: the contrast of test.h1 and test.h2
    "psi": Key(STRING, {"isotropy-experiment": None, None: "cos_lag{h=(1,0)}"}),
    # none for fdwb alone; a block's fit to its grid is checked where both
    # are known (_block_spec)
    "block.sizes": Key({"coverage": SIZES, "isotropy-experiment": SIZES,
                        None: BLOCKS}, (), lambda s, c: (
                            None if s in ("minvol", ()) else _blocks(s, c))),
    "block.window": Key(INT, 3, lambda w, c: check_window(w, "block.window")),
    "methods": Key(NAMES, {"ci": ("hfdb",), "isotropy": ("hfdb",),
                           None: ("fdwb", "hfdb", "subsample")}, _methods),
    "boot.B": Key(INT, 500),
    "ci.level": Key(NUMBER, 0.9, lambda v, c: check_level(v, "ci.level", 0.5)),
    "test.h1": Key(PAIR, (1, 0), lambda h, c: check_lag(h, "test.h1")),
    "test.h2": Key(PAIR, (0, 1), lambda h, c: check_lag(h, "test.h2")),
    "test.level": Key(NUMBER, 0.1, lambda v, c: check_level(v, "test.level")),
    "pvalue.plus_one": Key(BOOL, False),
    # both unset: the default rate
    "density.bandwidth1": Key(NUMBER, None, lambda b, c: check_bandwidth(
        b, "density.bandwidth1")),
    "density.bandwidth2": Key(NUMBER, None, lambda b, c: check_bandwidth(
        b, "density.bandwidth2")),
    "replicates": Key(INT, {"oracle": 2000, None: 500}, {
        "oracle": _when(lambda r: r >= 2, ": an oracle needs at least 2, got {}"),
        None: _when(lambda r: r >= 1, " must be >= 1")}),
    "seed": Key(INT, 0),
    "workers": Key(INT, 1, _when(lambda w: w >= 1, " must be >= 1, got {}")),
    "out": Key(STRING, "freqboot_out"),
    "format": Key(STRING, "csv", {
        "simulate": _when(lambda f: f in ("csv", "bin", "binary"),
                          " must be csv, bin or binary for simulate, got {!r}"),
        None: _when(lambda f: f in ("csv", "json", "both"),
                    " must be csv, json or both, got {!r}")}),
    "truth.value": Key(NUMBER),
    "truth.fixture": Key(STRING),
}
KNOWN_KEYS = frozenset(KEYS)


def _for(command, entry):
    """The entry that serves ``command`` of a per-command dict."""
    return entry.get(command, entry[None]) if isinstance(entry, dict) else entry


def _check(key: str, value, command: str | None, name: str | None = None):
    """``value``, refused naming ``key`` (or ``name``, the flag that gave
    it) unless ``key``'s check passes for ``command``."""
    check = _for(command, KEYS[key].check)
    refusal = None if check is None else check(value, command)
    if refusal:
        raise ConfigError((name or key) + refusal)
    return value


class Settings:
    """The flat key-value map of one command, read through the keys'
    declarations: a getter returns a set key parsed and checked for the
    command, and an unset key's default.  Unknown keys are refused at
    once, and every key read is recorded, so the command can refuse the
    keys it never read."""

    def __init__(self, values: dict[str, str], command: str | None = None):
        unknown = sorted(set(values) - KNOWN_KEYS)
        if unknown:
            raise ConfigError("unknown config keys: " + ", ".join(unknown))
        self.values = dict(values)
        self.command = command
        self.read: set[str] = set()

    def refuse_unread(self, command: str) -> None:
        """Refuse the keys that are set but that ``command`` never read:
        a setting it ignores would run something other than it names."""
        unread = sorted(set(self.values) - self.read)
        if unread:
            raise ConfigError(f"{command} does not read these keys, which "
                              f"are set: " + ", ".join(unread))

    def get(self, key: str):
        """``key``'s value parsed and checked, or its declared default when
        unset; the declaration gives its type, so one getter serves every
        key."""
        self.read.add(key)
        raw = self.values.get(key)
        if raw is None:
            return _for(self.command, KEYS[key].default)
        parse, takes = _for(self.command, KEYS[key].parser)
        try:
            value = parse(raw)
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as {takes}") from exc
        return _check(key, value, self.command)


def build_model(st: Settings):
    """Resolve the process descriptor into (model, generator)."""
    kind, get = st.get("process.kind"), st.get
    if kind == "white_noise":
        return WhiteNoise(get("process.variance")), "default"
    if kind == "spherical":
        return SphericalAniso(get("process.sigma2"), get("process.range"),
                              get("process.eta"), get("process.tau_a"),
                              get("process.tau_r")), "default"
    if kind == "separable":
        return SeparableARMA(get("process.ar"), get("process.ma"),
                             get("process.innov1"), get("process.innov2")), "default"
    base = matern_model(get("process.alpha"), get("process.nu"), get("process.phi"))
    if kind == "matern_quartic":
        return TransformedGaussian(base=base, transform="quartic"), "default"
    # exp_cholesky: Matern-as-covariance driven by centered exponentials
    return base, "exp_cholesky" if kind == "exp_cholesky" else "default"


def build_bandwidth(st: Settings):
    """(bandwidth1, bandwidth2), or None for the default rate when both are unset."""
    pair = (st.get("density.bandwidth1"), st.get("density.bandwidth2"))
    if pair.count(None) == 1:
        raise ConfigError("set both density.bandwidth1 and density.bandwidth2")
    return None if pair[0] is None else pair


@contextlib.contextmanager
def _file_errors(name: str, path, verb: str):
    """The one wording of a file fault: refuse the file ``path``, given by
    the flag or key ``name``, that the block cannot ``verb`` (read or
    write), as the configuration error ``{name}: cannot {verb} {path!r}:
    {reason}``.  The reason is an OSError's strerror, which holds no path,
    or a reader's own words: a ValueError (a file that is not text or not
    JSON) or a ConfigError (not a field, a field of non-finite values)."""
    try:
        yield
    except (OSError, ValueError, ConfigError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"{name}: cannot {verb} {path!r}: {reason}") from exc


def _field_source(st: Settings, path: str | None, seed: int):
    """Read the keys that name a single command's field, refuse a
    generator that cannot simulate its grid, and return the function that
    loads or simulates it, so that the command refuses its unread keys
    before that work."""
    if path is not None:
        load = load_field_binary if path.endswith(".bin") else load_field_csv

        def read():
            with _file_errors("--in", path, "read"):
                return load(path)
        return read
    model, generator = build_model(st)
    (n1, n2) = st.get("grid.sizes")[0]
    check_generator(generator, (n1, n2), "grid.sizes")
    return lambda: simulate_process(
        model, n1, n2, rngmod.stream(seed, rngmod.TAG_GENERIC, 0, 0),
        generator=generator)


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


def _check_methods(methods, blocks, B: int) -> None:
    """Refuse, naming keys, what a run of ``methods`` cannot run on any
    grid, before any work: B below 100 for a bootstrap method, and a
    method that reads a block when ``blocks`` gives none.  The
    experiments run this check once, and the single-field commands
    before they load their field or select its block."""
    check_B(B, methods, "boot.B")
    if not blocks:
        check_block(None, None, methods, "block.sizes")


def _check_run(kind: str, psi, grid, grid_name: str, blocks, methods) -> None:
    """Refuse, naming keys, what a run of ``kind``'s rows cannot run on one
    ``grid`` (named ``grid_name``), before any work on it: a grid that
    grid.sizes' own check refuses (an extent below 2); one that reads a
    cosine lag of ``psi`` as another lag; a ``block.sizes`` entry
    that ``subsample.check_block`` refuses for ``methods``, with the lags
    an isotropy subsample calibration compares in it; and one that reads
    a lag as another where its ensemble is read (``_Kind.reads``).  A lag
    is named by the key that sets it: test.h1 and test.h2 in an isotropy
    run, psi otherwise.  The experiments run this check on each grid, and
    the single-field commands on their field."""
    _check("grid.sizes", (grid,), None, grid_name)
    iso = kind == "isotropy"
    keys = ("test.h1", "test.h2") if iso else ("psi",) * len(psi.cos_terms)
    lags = tuple((key, h) for key, (_, h) in zip(keys, psi.cos_terms))
    check_cos_lags(lags, grid, grid_name)
    reads = _KINDS[kind].reads(methods)
    for size in blocks:
        check_block(size, grid, methods, "block.sizes",
                    lags if iso and "subsample" in methods else ())
        check_cos_lags(lags if reads else (), size, "block.sizes")


def _contrast(h1, h2):
    """The psi an isotropy command or experiment resamples: the contrast
    of its lags test.h1 and test.h2, two distinct lags."""
    check_distinct_lags(h1, h2, "test.h1", "test.h2")
    return psi_isotropy_contrast(h1, h2)


# each ExperimentConfig field that a key sets: (key, the kind reading it or None)
_FIELDS = {"sizes": ("grid.sizes", None), "methods": ("methods", None),
           "blocks": ("block.sizes", None), "replicates": ("replicates", None),
           "B": ("boot.B", None), "level": ("ci.level", "coverage"),
           "truth": ("truth.value", "coverage"),
           "test_level": ("test.level", "isotropy"),
           "h1": ("test.h1", "isotropy"), "h2": ("test.h2", "isotropy"),
           "plus_one": ("pvalue.plus_one", "isotropy")}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved description of a Monte Carlo run (picklable).  It
    refuses what the CLI refuses, in the words that name the CLI keys."""

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
        if self.kind not in _COMMAND:
            raise ConfigError(f"kind must be one of {tuple(_COMMAND)}, "
                              f"got {self.kind!r}")
        command = _COMMAND[self.kind]
        for key, value in (*((key, getattr(self, f)) for f, (key, _) in _FIELDS.items()),
                           ("workers", self.workers),
                           ("process.tau_r_list", self.tau_r_list)):
            _check(key, value, command)
        if self.bandwidth is not None:
            check_bandwidth_pair(self.bandwidth, ("density.bandwidth1",
                                                  "density.bandwidth2"))
        iso = self.kind == "isotropy"
        contrast = _contrast(self.h1, self.h2).name if iso else None
        psi = psi_from_name(self.psi_name)
        if iso and psi.name != contrast:
            raise ConfigError(
                f"psi: an isotropy experiment resamples the contrast of "
                f"test.h1 and test.h2, {contrast}, got {self.psi_name!r}")
        _check_methods(self.methods, self.blocks, self.B)
        for grid in self.sizes:
            check_generator(self.generator, grid, "grid.sizes")
            _check_run(self.kind, psi, grid, "grid.sizes", self.blocks,
                       self.methods)
        _check_tau(self.kind, self.model, self.tau_r_list, "process.tau_r_list")
        if not iso and self.truth is None and not psi.cos_terms:
            raise ConfigError(
                f"truth.value: {psi.name} has no closed-form spectral mean; "
                f"give truth.value or truth.fixture")
        if iso and not isinstance(self.model, (SphericalAniso, MaternSpectral)):
            raise ConfigError(f"process.kind must be spherical, matern or exp_cholesky for an "
                              f"isotropy experiment, got a {type(self.model).__name__}")


def _fixture_truth(path: str, model, generator: str, psi_name: str,
                   sizes) -> float:
    """The value of an ``oracle`` fixture, refused unless the fixture was
    made for this run's model, generator, psi and single grid size."""
    with _file_errors("truth.fixture", path, "read"), open(path, encoding="utf-8") as fh:
        fx = json.load(fh)
        lacks = [k for k in ("kind", "model", "generator", "psi", "n1", "n2", "value")
                 if not isinstance(fx, dict) or k not in fx]
        if lacks:
            raise ConfigError(f"not an oracle fixture: no field {lacks[0]!r}")
        # as a string, a null or a list is refused as a ValueError, as nan is
        value = _finite(str(fx["value"]))
    made_for = (fx["kind"], fx["model"], fx["generator"], fx["psi"],
                ((fx["n1"], fx["n2"]),))
    run = ("spectral_mean_oracle", repr(model), generator,
           psi_from_name(psi_name).name, tuple(sizes))
    for name, want, got in zip(("kind", "model", "generator", "psi",
                                "grid size"), run, made_for):
        if got != want:
            raise ConfigError(f"truth.fixture: {path!r} was made for {name} "
                              f"{got!r}, this run needs {want!r}")
    return value


def true_spectral_mean(model, psi_name: str) -> float:
    """Analytic spectral mean of a cosine-sum psi, sum_k c_k gamma(h_k)
    from the model's autocovariances; ExperimentConfig asks any other
    psi for its truth."""
    return sum(c * model_autocovariance(model, h)
               for c, h in psi_from_name(psi_name).cos_terms)


def experiment_config(st: Settings, kind: str, seed, workers) -> ExperimentConfig:
    """The ``kind`` run that ``st`` describes, its keys read as those of
    the kind's command.  Each kind reads only its own keys; the other
    kind's fields keep their declared defaults, so its keys stay unread
    and are refused."""
    st.command = _COMMAND[kind]
    model, generator = build_model(st)
    read = {field: st.get(key) if reader in (None, kind) else KEYS[key].default
            for field, (key, reader) in _FIELDS.items()}
    listed = st.get("process.tau_r_list")
    if kind == "isotropy" and listed is not None and "process.tau_r" in st.values:
        raise ConfigError("set process.tau_r or process.tau_r_list, not both: "
                          "an isotropy experiment runs each tau_r of the list")
    tau_list = listed or (st.get("process.tau_r"),)
    if listed is None:   # the config holds only the list, and names its key
        _check_tau(kind, model, tau_list, "process.tau_r")
    psi_name = st.get("psi")
    if psi_name is None:
        psi_name = _contrast(read["h1"], read["h2"]).name
    fixture = st.get("truth.fixture") if kind == "coverage" else None
    if fixture is not None:
        if read["truth"] is not None:
            raise ConfigError("give truth.value or truth.fixture, not both")
        read["truth"] = _fixture_truth(fixture, model, generator, psi_name,
                                       read["sizes"])
    return ExperimentConfig(
        kind=kind, model=model, generator=generator, psi_name=psi_name,
        master_seed=int(seed), workers=int(workers),
        bandwidth=build_bandwidth(st), tau_r_list=tau_list, **read)


# ---------------------------------------------------------------------------
# the replicate loop (module level so the pool can pickle its worker)

def _coverage_cells(cfg, res: FieldResampler, ci) -> dict:
    return {"mhat": res.mhat.value, "lower": ci.lower, "upper": ci.upper,
            "covered": int(ci.covers(cfg.truth))}


def _isotropy_cells(cfg, res: FieldResampler, test) -> dict:
    return {"ts": test.ts, "p_value": test.p_value,
            "reject": int(test.p_value < cfg.test_level)}


class _Kind(NamedTuple):
    """What one experiment kind puts into the shared replicate loop, and
    what the single-field command of its rows (ci, isotropy) runs."""

    keys: tuple[str, ...]     # summary cell keys, "method" first
    flag: str                 # the 0/1 cell a summary row averages
    # replicate columns after the keys: the row function's cells, then
    # var_star and the BootstrapDraws fields the kind records
    columns: tuple[str, ...]
    # (res, method, spec, setting) -> the interval or the test result of
    # one field, which the row and the single-field command both print
    result: Callable
    setting: str              # the ExperimentConfig field result reads
    row: Callable             # (cfg, res, result) -> the kind's cells
    ensembles: tuple[str, ...]  # the methods that read the block ensemble

    def reads(self, methods) -> bool:
        """Whether a run of ``methods`` reads the block ensemble: one of
        them is in ``ensembles``, or it has none (estimate, and the
        minimum-volatility selection, read it on every block given)."""
        return not methods or any(m in self.ensembles for m in methods)


_KINDS = {
    "coverage": _Kind(("method", "n1", "n2", "b1", "b2"), "covered",
                      ("mhat", "lower", "upper", "covered", "var_star",
                       "sigma2_raw", "sigma2_floored", "bias_sub"),
                      resampled_interval, "level", _coverage_cells,
                      ("hfdb", "hfdb_bias", "subsample")),
    "isotropy": _Kind(("method", "tau_r", "n1", "n2", "b1", "b2"), "reject",
                      ("ts", "p_value", "reject", "var_star", "sigma2_raw",
                       "sigma2_floored"),
                      calibrate_isotropy, "plus_one", _isotropy_cells,
                      ("hfdb",)),
}


def _replicate(cfg: ExperimentConfig, psi, i: int) -> list[dict]:
    """Replicate i's records: one per tau, grid size, block and method,
    for ``psi``, the run's psi resolved once per chunk, so that its
    tables on the field and block grids are built once per chunk."""
    kind = _KINDS[cfg.kind]
    drawn = kind.columns[kind.columns.index("var_star") + 1:]
    # var_star is written on every row of a run that has a bootstrap
    # method, subsample rows included
    need_boot = any(m != "subsample" for m in cfg.methods)
    # the blocks whose ensembles a method reads, computed at once per
    # field, the first field's beside the draws when a method reads them
    ladder = [BlockSpec(*b) for b in cfg.blocks] if kind.reads(cfg.methods) else []
    fields = []
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
            fields.append((tau, FieldResampler(
                field, psi, cfg.B, cfg.master_seed, i * len(cfg.tau_r_list),
                cfg.bandwidth)))
    # the fields share the replicate's bootstrap address: one fill serves all
    fill = [res for _, res in fields] if need_boot else []
    records = []
    fields.reverse()
    while fields:    # popped, so a field's ensembles go once its rows are made
        tau, res = fields.pop()
        res.ensembles(ladder, fill)
        fill = []
        for (b1, b2) in cfg.blocks or ((0, 0),):
            spec = BlockSpec(b1, b2) if cfg.blocks else None
            for method in cfg.methods:
                at = {"method": method, "tau_r": tau, "n1": res.field.n1,
                      "n2": res.field.n2, "b1": b1, "b2": b2}
                d = None if method == "subsample" else res.draws(method, spec)
                result = kind.result(res, method, spec,
                                     getattr(cfg, kind.setting))
                records.append({
                    "replicate": i, **{k: at[k] for k in kind.keys},
                    **kind.row(cfg, res, result),
                    "var_star": res.var_star if need_boot else 0.0,
                    **{name: 0.0 if d is None else getattr(d, name)
                       for name in drawn}})
    return records


def _chunk(args) -> list[dict]:
    cfg, indices = args
    psi = psi_from_name(cfg.psi_name)
    with _pool.working():
        return [rec for i in indices for rec in _replicate(cfg, psi, i)]


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
        # a fork pool starts every worker up front: start no idle ones;
        # they divide the CPUs among those running a chunk
        with ProcessPoolExecutor(max_workers=min(cfg.workers, n_chunks),
                                 initializer=_pool.share,
                                 initargs=(multiprocessing.Value("i", 0),)
                                 ) as pool:
            chunks = list(pool.map(_chunk, payloads))
    records = [rec for chunk in chunks for rec in chunk]
    order = ("replicate", *table.keys[1:], "method")
    records.sort(key=lambda r: tuple(r[k] for k in order))
    echo = dataclasses.asdict(cfg)
    echo["model"] = repr(cfg.model)
    # execution detail, not part of the experiment: reports must be
    # byte-identical across worker counts
    del echo["workers"]
    echo["boot_streams"] = 2    # the bootstrap address rule (module docstring)
    echo["rounding"] = 2        # the Var*, sigma1^2 and lag-table sums (same)
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
    return _run(cfg, "isotropy")


# ---------------------------------------------------------------------------
# report emission

def _csv_cell(v) -> str:
    if isinstance(v, float):
        return repr(float(v))   # np.float64 reprs as "np.float64(...)" on numpy 2
    return str(v)


def _write_csv(rows: list[dict], columns: list[str], path) -> None:
    with _file_errors("--out", path, "write"), open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(row[c]) for c in columns) + "\n")


def report_to_json(report: ExperimentReport) -> str:
    payload = {"schema_version": SCHEMA_VERSION, "kind": report.kind,
               "config": report.config, "summary": report.summary,
               "replicates": report.replicates}
    return json.dumps(payload, sort_keys=True, indent=1, default=repr)


def _report_dir(out_prefix: str) -> None:
    """Make the directory of the report ``out_prefix``, refusing one that
    cannot be made; the experiment commands make it before their first
    replicate."""
    parent = os.path.dirname(out_prefix)
    if parent:
        with _file_errors("--out", parent, "write"):
            os.makedirs(parent, exist_ok=True)


def emit_report(report: ExperimentReport, out_prefix: str,
                fmt: str = "csv") -> list[str]:
    """Write the summary and per-replicate files; returns written paths."""
    _check("format", fmt, None)   # the experiments' formats
    _report_dir(out_prefix)
    written = []
    if fmt in ("csv", "both"):
        table = _KINDS[report.kind]
        sum_cols = [*table.keys, "proportion", "mc_se", "replicates"]
        rep_cols = ["replicate", *table.keys, *table.columns]
        _write_csv(report.summary, sum_cols, out_prefix + "_summary.csv")
        _write_csv(report.replicates, rep_cols, out_prefix + "_replicates.csv")
        written += [out_prefix + "_summary.csv", out_prefix + "_replicates.csv"]
    if fmt in ("json", "both"):
        path = out_prefix + ".json"
        with _file_errors("--out", path, "write"), open(path, "w") as fh:
            fh.write(report_to_json(report))
            fh.write("\n")
        written.append(path)
    return written


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
    ap.add_argument("--format", help="report format: csv, json, both")
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", help="simulate one field and write it")
    for name in ("estimate", "ci", "isotropy", "blocksize"):
        p = sub.add_parser(name)
        p.add_argument("--in", dest="infile", help="field file (.csv or .bin)")
    sub.add_parser("coverage", help="Monte Carlo coverage experiment")
    sub.add_parser("isotropy-experiment", help="Monte Carlo isotropy size/power")
    p = sub.add_parser("oracle", help="long-run Monte Carlo truth fixture")
    return ap


def _dispatch(args) -> int:
    with _file_errors("--config", args.config, "read"):
        values = parse_config_file(args.config) if args.config else {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, val = item.split("=", 1)
        values[key.strip()] = val.strip()
    # the flags of the same names
    values.update({key: str(getattr(args, key)) for key in ("seed", "workers",
                   "out", "format") if getattr(args, key) is not None})
    cmd = args.command
    st = Settings(values, cmd)
    seed = st.get("seed")

    if cmd == "simulate":
        out, fmt = st.get("out"), st.get("format")
        load = _field_source(st, None, seed)
        st.refuse_unread(cmd)
        fieldz = load()
        with _file_errors("--out", out, "write"):
            (save_field_csv if fmt == "csv" else save_field_binary)(fieldz, out)
        print(out)
        return 0

    if cmd == "oracle":
        model, generator = build_model(st)
        psi = psi_from_name(st.get("psi"))
        (n1, n2) = st.get("grid.sizes")[0]
        check_generator(generator, (n1, n2), "grid.sizes")
        R = st.get("replicates")
        out = st.get("out")
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
        with _file_errors("--out", out, "write"), open(out, "w") as fh:
            json.dump(fixture, fh, sort_keys=True, indent=1)
            fh.write("\n")
        print(out)
        return 0

    if cmd in _COMMAND.values():
        kind = "coverage" if cmd == "coverage" else "isotropy"
        out, fmt = st.get("out"), st.get("format")
        cfg = experiment_config(st, kind, seed, st.get("workers"))
        st.refuse_unread(cmd)
        _report_dir(out)
        report = (run_coverage_experiment if kind == "coverage"
                  else run_isotropy_experiment)(cfg)
        paths = emit_report(report, out, fmt)
        for row in report.summary:
            print(" ".join(f"{k}={_csv_cell(v)}" for k, v in row.items()))
        for p in paths:
            print("wrote", p, file=sys.stderr)
        return 0

    # estimate, ci, isotropy, blocksize: one field, one psi; ci and
    # isotropy run the rows of the experiment kinds
    kind = "isotropy" if cmd == "isotropy" else "coverage"
    if cmd == "isotropy":
        psi = _contrast(st.get("test.h1"), st.get("test.h2"))
    else:
        psi = psi_from_name(st.get("psi"))
    # every key is read and the unread ones refused before the field is
    # loaded or simulated
    load = _field_source(st, args.infile, seed)
    bandwidth = None if cmd == "blocksize" else build_bandwidth(st)
    # ci and isotropy run the one method of methods; estimate and
    # blocksize run none and draw no bootstrap replicates
    methods = st.get("methods") if cmd in ("ci", "isotropy") else ()
    B = st.get("boot.B") if methods else 0
    # the block: blocksize selects one, as block.sizes=minvol does (with
    # block.window); estimate, ci and isotropy read one size, fdwb none
    sizes = ("minvol" if cmd == "blocksize" else
             () if methods == ("fdwb",) else st.get("block.sizes"))
    window = st.get("block.window") if sizes == "minvol" else None
    # ci.level or pvalue.plus_one, the key of the field the result reads
    setting = st.get(_FIELDS[_KINDS[kind].setting][0]) if methods else None
    st.refuse_unread(cmd)
    _check_methods(methods, sizes, B)
    fieldz = load()
    grid, name = (fieldz.n1, fieldz.n2), "--in" if args.infile else "grid.sizes"
    if sizes == "minvol":
        _check_run(kind, psi, grid, name, (), ())   # the grid, then its candidates
        cands = default_block_candidates(*grid, name)
        _check_run(kind, psi, grid, name, cands, ())
        sizes = (select_block_size_min_volatility(fieldz, psi, cands, window,
                                                  "block.window"),)
    _check_run(kind, psi, grid, name, sizes, methods)
    spec = BlockSpec(*sizes[0]) if sizes else None
    if cmd == "blocksize":
        result = {"b1": spec.b1, "b2": spec.b2, "window": window,
                  "candidates": [[c.b1, c.b2] for c in cands]}
    else:
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
    elif methods:
        result = dataclasses.asdict(
            _KINDS[kind].result(res, methods[0], spec, setting))
        if cmd == "ci":
            result["mhat"] = res.mhat.value
    print(json.dumps(result, sort_keys=True, indent=1, default=repr))
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
