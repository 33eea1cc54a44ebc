"""Record the CLI's results, byte for byte, as sha256 digests and texts.

    python3 tools/report_identity.py

writes ``tests/golden/digests.json``, which ``tests/test_report_identity.py``
checks in tier-1 by running the same cases and comparing.  The file holds
one key, the environment that wrote it: the numpy version, the machine
(``platform.machine()``) and the SIMD extensions numpy found (the
``found`` list of ``np.show_runtime()``).  Under it, each part of each
case has a key of its own, ``<case>: <part>``, so a git diff of the file
names the case and the part that moved.  A change that moves bits on
purpose rewrites the file in the same commit; the test fails on any other
change of bits, and in another environment.  On any machine, the test
also checks that every command exits as its catalog says and that each
experiment's one- and two-worker cases have the same digests.

Every case of ``CASES`` is a short sequence of ``freqboot.cli.main``
commands, run in this process in a fresh temporary working directory of
its own, with stdout and stderr captured.  Output names are relative.  A
case records the digest of its commands' exit codes and stdout (the
single-shot commands print their result there), part ``exit codes and
stdout``, and of every file it writes, part ``file <relative path>``.
stderr holds only the written paths and diagnostics and is not recorded.

Each case of ``REFUSALS`` is one command refused as a configuration
error, exit 2; it also records that command's stderr, the message that
names the key, part ``stderr``, as its text rather than its digest, so
the file's diff shows a refusal's old and new words.  There is at least
one case per family of refusal: an unknown, unread, unparsable or
non-finite value, and a ``--set`` without ``=``; a level, method, format, worker
count or oracle replicate count out of range; a list given to a
single-field command; a tau on an isotropic model, and process.tau_r
with process.tau_r_list; truth.value with truth.fixture, and a
spectral_cdf coverage run with no truth; a psi an isotropy experiment
does not resample; a process kind an isotropy experiment cannot run; a
model parameter out of range, refused by its ``process.*`` key (an AR
coefficient of 1.5, an unknown innovation, a spherical tau_r below 1
and a tau_r_list entry below 1, a negative spherical range, a negative
white-noise variance, a negative Matern nu); a psi
with a non-integer lag, of an unknown kind, or a spectral_cdf corner
outside [-pi, pi]^2; only one of the two bandwidths; and each
precondition of the resampling methods (a block extent below 2, a block
that does not fit its grid, a subsample block with one translate, a
hybrid method without a block, a zero lag or one outside its blocks,
equal test lags and test lags h and -h, B below 100 and a bandwidth
outside (0, pi]); and a cosine lag of psi that a Fourier grid reads as
another lag (one past the field's grid, one past a block's, and an
off-axis lag within the grid's extents); an entry listed twice in a list
key; a hybrid block with one translate; and an exp-Cholesky grid past
the dense limit, given to ``coverage``, ``isotropy-experiment``,
``simulate`` and ``oracle``.  The single-field commands have cases of
their own: B below 100, a hybrid ci without a block, a block that does
not fit, a psi lag that the block grid reads as another lag, an
isotropy subsample lag outside the block, a ``block.window`` wider than
the candidate blocks, and the keys they do not read (``--workers``
given to ``estimate``, ``block.sizes`` to an fdwb ``ci``,
``grid.sizes`` to a run that reads ``--in``) or refuse (an even
``block.window``), a field read with ``--in`` that has an extent below
2, and a grid too small for the minimum-volatility block candidates.
Files that cannot be read or written are refused naming their flag or
key: a ``--config`` that is missing, a directory or not text; an
``--in`` that is missing (``.csv`` and ``.bin``), not CSV, a ``.bin``
without the magic or with fewer values than its header gives; a
``truth.fixture`` that is missing, a directory, not JSON, lacks a
field or was made for another model; and a ``simulate --out`` that is
a directory and an ``oracle --out`` in a directory that does not exist.

A refusal case that reads a file has the commands that write it in
``REFUSAL_SETUP``, which run first and exit 0, or its bytes in
``REFUSAL_FILES``, written before any command.  Two cases pin the words
of refusals that may come before or after a run's work: a report
directory that cannot be made (``--out /dev/null/r``) and a ``ci`` with
B below 100 and a minimum-volatility block.

The cases cover both Monte Carlo experiments at one and two workers, the
single-shot commands and ``simulate`` for every process kind, and again
on an odd rectangular 37x52 grid for the torus-synthesized kinds, and on
grids whose torus is synthesized in blocks (spherical 300x301, Matern
300x301 written as ``.bin``, whose lag table is built in blocks too, and
Matern and matern_quartic 80x90, the last written as ``.bin``).  Two
Matern fields do not embed on their doubled torus: an 8x8 one at the
default alpha = 1/3 draws from the dense Cholesky factor, and a
long-range 80x90 one at alpha = 0.1 from a torus doubled once more.  A
binary round trip writes a field with ``--format bin`` and reads it back
into ``estimate`` and a subsample ``isotropy`` test.  Isotropy
experiments name their psi, the contrast of ``test.h1`` and ``test.h2``.
One case reads a 128x128 field, whose 9x9 block ensemble is computed in
three batches on threads and whose bootstrap weights are drawn on
threads.  Another runs a coverage ladder of two block sizes on 128x128
fields, whose ensembles are computed as tasks on threads, and one an
isotropy ladder on 24x24 fields, whose draws are filled beside the
ladder's tasks.  Two cases give a replicate several fields on one
bootstrap address: an isotropy run of two tau on 20x20 and 24x24 grids,
and a coverage run on 128x128 and 130x130 grids, whose shared weight
rows are filled on threads.  An 8x8 exp-Cholesky coverage case checks
the dense Matern covariance against its truth.  Two cases run
rectangular blocks: a coverage ladder of 4x6, 7x5 and 6x9 blocks on
37x52 fields, and an isotropy run with 5x7 blocks on 24x30 fields.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import struct
import sys
import tempfile
import traceback
from typing import NamedTuple

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from freqboot import cli  # noqa: E402

GOLDEN = os.path.join(ROOT, "tests", "golden", "digests.json")
WRITER = "python3 tools/report_identity.py"

ISO_PSI = "psi=iso_contrast{h1=(1,0),h2=(0,1)}"


def _sets(*kvs: str) -> list[str]:
    return [arg for kv in kvs for arg in ("--set", kv)]


# name -> (command, settings) of a Monte Carlo run; each runs at 1 and 2 workers
EXPERIMENTS = {
    "table1_isotropy": ("isotropy-experiment", _sets(
        "process.kind=spherical", "process.range=5",
        "process.tau_r_list=1.0,1.2,1.4,1.5", "grid.sizes=50x50", ISO_PSI,
        "block.sizes=9x9", "methods=fdwb,hfdb,subsample", "boot.B=500",
        "replicates=20")),
    "determinism_coverage": ("coverage", _sets(
        "process.kind=white_noise", "grid.sizes=16x16", "block.sizes=4x4",
        "methods=fdwb,hfdb,subsample", "boot.B=150", "replicates=20")),
    "determinism_isotropy": ("isotropy-experiment", _sets(
        "process.kind=spherical", "process.range=3",
        "process.tau_r_list=1.0,1.2", "grid.sizes=16x16", ISO_PSI,
        "block.sizes=4x4", "methods=fdwb,hfdb,subsample", "boot.B=150",
        "replicates=10")),
    "separable_coverage": ("coverage", _sets(
        "process.kind=separable", "process.innov1=exponential_centered",
        "process.innov2=exponential_centered", "grid.sizes=20x20,24x24",
        "block.sizes=4x4,5x5", "methods=fdwb,hfdb,hfdb_bias,subsample",
        "boot.B=200", "replicates=8")),
    "spherical_tau_coverage": ("coverage", _sets(
        "process.kind=spherical", "process.tau_r=1.5", "grid.sizes=20x20",
        "block.sizes=5x5", "methods=fdwb,hfdb_bias,subsample", "boot.B=150",
        "replicates=6")),
    "matern_fdwb_coverage": ("coverage", _sets(
        "process.kind=matern", "grid.sizes=20x20", "methods=fdwb",
        "boot.B=150", "replicates=6")),
    "exp_cholesky_fdwb_isotropy": ("isotropy-experiment", _sets(
        "process.kind=exp_cholesky", "grid.sizes=16x16", ISO_PSI,
        "methods=fdwb", "pvalue.plus_one=true", "boot.B=150",
        "replicates=6")),
    "exp_cholesky_isotropy": ("isotropy-experiment", _sets(
        "process.kind=exp_cholesky", "grid.sizes=20x20", ISO_PSI,
        "block.sizes=5x5", "methods=fdwb,hfdb,subsample", "boot.B=150",
        "replicates=6")),
    "truth_value_coverage": ("coverage", _sets(
        "process.kind=white_noise", "grid.sizes=16x16", "block.sizes=4x4",
        "truth.value=0.05", "methods=hfdb,subsample", "boot.B=150",
        "replicates=6")),
    "spectral_cdf_coverage": ("coverage", _sets(
        "process.kind=spherical", "grid.sizes=20x20", "block.sizes=5x5",
        "psi=spectral_cdf{t=(0.5,-1.0)}", "truth.value=0.3",
        "density.bandwidth1=0.6", "density.bandwidth2=0.4",
        "methods=fdwb,hfdb,subsample", "boot.B=150", "replicates=4")),
    # the dense exp-Cholesky covariance against the coverage truth gamma(1, 0)
    "exp_cholesky_8_coverage": ("coverage", _sets(
        "process.kind=exp_cholesky", "grid.sizes=8x8", "psi=cos_lag{h=(1,0)}",
        "methods=fdwb", "boot.B=150", "replicates=6")),
    "matern_quartic_coverage": ("coverage", _sets(
        "process.kind=matern_quartic", "grid.sizes=20x20", "block.sizes=5x5",
        "methods=fdwb,hfdb,hfdb_bias,subsample", "boot.B=150",
        "replicates=4")),
    # two block sizes of several ensemble batches each: a ladder on threads
    # whose tasks run their batches in turn, and at two workers each
    # process's share of the CPUs
    "ladder_128_coverage": ("coverage", _sets(
        "process.kind=spherical", "grid.sizes=128x128",
        "block.sizes=9x9,11x11", "methods=fdwb,hfdb_bias,subsample",
        "boot.B=100", "replicates=2")),
    # an isotropy ladder: two block sizes per field, with the draws of
    # each field filled beside its ladder's batches
    "ladder_isotropy": ("isotropy-experiment", _sets(
        "process.kind=spherical", "process.range=3",
        "process.tau_r_list=1.0,1.5", "grid.sizes=24x24", ISO_PSI,
        "block.sizes=4x4,6x6", "methods=fdwb,hfdb", "boot.B=150",
        "replicates=6")),
    # two tau fields of two grid sizes each, all four reading the
    # replicate's one bootstrap address
    "tau_sizes_isotropy": ("isotropy-experiment", _sets(
        "process.kind=spherical", "process.range=3",
        "process.tau_r_list=1.0,1.5", "grid.sizes=20x20,24x24", ISO_PSI,
        "block.sizes=4x4,5x5", "methods=fdwb,hfdb,subsample", "boot.B=150",
        "replicates=6")),
    # two grid sizes whose weights are filled on threads after each
    # field's ladder, the smaller reducing a prefix of the larger's rows
    "threaded_sizes_coverage": ("coverage", _sets(
        "process.kind=spherical", "grid.sizes=128x128,130x130",
        "block.sizes=9x9,11x11", "methods=fdwb,hfdb_bias", "boot.B=100",
        "replicates=2")),
    # rectangular blocks, odd extents among them, on an odd rectangular
    # grid: windows and half grids of unequal extents on both axes
    "rectangular_coverage": ("coverage", _sets(
        "process.kind=spherical", "process.tau_r=1.5", "grid.sizes=37x52",
        "block.sizes=4x6,7x5,6x9", "methods=fdwb,hfdb_bias,subsample",
        "boot.B=150", "replicates=4")),
    "rectangular_isotropy": ("isotropy-experiment", _sets(
        "process.kind=spherical", "process.range=3",
        "process.tau_r_list=1.0,1.5", "grid.sizes=24x30", ISO_PSI,
        "block.sizes=5x7", "methods=fdwb,hfdb,subsample", "boot.B=150",
        "replicates=6")),
}

PROCESSES = {
    "white_noise": ("process.variance=2",),
    "matern": ("process.alpha=0.5",),
    "spherical": ("process.tau_r=1.5", "process.tau_a=0.5", "process.eta=0.2"),
    "separable": ("process.innov1=exponential_centered",),
    "matern_quartic": (),
    "exp_cholesky": (),
}

# a 30x30 spherical field written to f.csv, read by the single-shot cases
FIELD = _sets("process.kind=spherical", "grid.sizes=30x30") + [
    "--seed", "5", "--out", "f.csv", "simulate"]
READ = ["--in", "f.csv"]
BLOCK = _sets("block.sizes=5x5")
# a 128x128 field written to big.csv, read by the threaded case
BIG_FIELD = _sets("process.kind=spherical", "grid.sizes=128x128") + [
    "--seed", "6", "--out", "big.csv", "simulate"]


def _cases() -> dict[str, list[list[str]]]:
    cases = {}
    for name, (command, settings) in EXPERIMENTS.items():
        for workers in (1, 2):
            cases[f"{name}_w{workers}"] = [settings + [
                "--seed", "7", "--workers", str(workers), "--format", "both",
                "--out", "r", command]]
    for kind, extra in PROCESSES.items():
        cases[f"simulate_{kind}"] = [_sets(
            f"process.kind={kind}", "grid.sizes=24x20", *extra) + [
            "--seed", "3", "--out", "f.csv", "simulate"]]
    for kind in ("spherical", "matern", "matern_quartic"):
        cases[f"simulate_{kind}_37x52"] = [_sets(
            f"process.kind={kind}", "grid.sizes=37x52", *PROCESSES[kind]) + [
            "--seed", "3", "--out", "f.csv", "simulate"]]
    # tori of several blocks of torus points, each pass's last block ragged
    for kind, size, fmt, out in (("spherical", "300x301", "csv", "f.csv"),
                                 ("matern", "300x301", "bin", "f.bin"),
                                 ("matern", "80x90", "csv", "f.csv"),
                                 ("matern_quartic", "80x90", "bin", "f.bin")):
        cases[f"simulate_{kind}_{size}_{fmt}"] = [_sets(
            f"process.kind={kind}", f"grid.sizes={size}", *PROCESSES[kind]) + [
            "--seed", "3", "--format", fmt, "--out", out, "simulate"]]
    # Matern fields whose doubled torus does not embed: a dense fallback
    # and a grown torus
    for name, size, extra in (("dense_8x8", "8x8", ()),
                              ("grown_80x90", "80x90", ("process.alpha=0.1",))):
        cases[f"simulate_matern_{name}"] = [_sets(
            "process.kind=matern", f"grid.sizes={size}", *extra) + [
            "--seed", "3", "--out", "f.csv", "simulate"]]
    cases["simulate_binary"] = [_sets("process.kind=matern", "grid.sizes=16x18") + [
        "--seed", "3", "--format", "bin", "--out", "f.bin", "simulate"]]
    cases["binary_round_trip"] = [
        _sets("process.kind=spherical", "grid.sizes=31x26") + [
            "--seed", "5", "--format", "bin", "--out", "f.bin", "simulate"],
        BLOCK + ["estimate", "--in", "f.bin"],
        BLOCK + _sets("methods=subsample") + [
            "--seed", "4", "isotropy", "--in", "f.bin"]]
    cases["estimate_blocks"] = [FIELD, BLOCK + ["estimate", *READ]]
    cases["estimate_minvol"] = [FIELD, _sets("block.sizes=minvol") + [
        "estimate", *READ]]
    cases["estimate_cdf_bandwidths"] = [FIELD, _sets(
        "psi=spectral_cdf{t=(0.5,-1.0)}", "density.bandwidth1=0.6",
        "density.bandwidth2=0.4", "block.sizes=6x6") + ["estimate", *READ]]
    cases["estimate_simulated"] = [_sets(
        "process.kind=matern", "grid.sizes=24x24") + BLOCK + [
        "--seed", "2", "estimate"]]
    # fdwb reads no block, so its cases set none
    for method in ("fdwb", "hfdb", "hfdb_bias", "subsample"):
        block = [] if method == "fdwb" else BLOCK
        cases[f"ci_{method}"] = [FIELD, block + _sets(
            f"methods={method}", "boot.B=200") + ["--seed", "4", "ci", *READ]]
    for method in ("fdwb", "hfdb", "subsample"):
        block = [] if method == "fdwb" else BLOCK
        cases[f"isotropy_{method}"] = [FIELD, block + _sets(
            f"methods={method}", "boot.B=200") + [
            "--seed", "4", "isotropy", *READ]]
    cases["blocksize"] = [FIELD, ["blocksize", *READ]]
    cases["threaded_blocks"] = [
        BIG_FIELD,
        _sets("block.sizes=9x9") + ["estimate", "--in", "big.csv"],
        _sets("block.sizes=9x9", "methods=hfdb_bias", "boot.B=200") + [
            "--seed", "4", "ci", "--in", "big.csv"]]
    cases["oracle"] = [_sets("process.kind=white_noise", "grid.sizes=12x12",
                             "replicates=50") + [
        "--seed", "9", "--out", "oracle.json", "oracle"]]
    return cases


CASES = _cases()

# a small experiment that every refusal case below spoils with one setting
_RUN = _sets("process.kind=spherical", "grid.sizes=12x12", "block.sizes=4x4",
             "boot.B=100", "replicates=2") + ["--out", "r"]

# the settings of a 12x12 field that a single-field command simulates
_FIELD_RUN = _sets("process.kind=spherical", "grid.sizes=12x12")

# an exp-Cholesky grid of 4,900 sites, past simulate.DENSE_LIMIT = 4,096
_DENSE = _sets("process.kind=exp_cholesky", "grid.sizes=70x70")

# name -> argv of one command refused with exit 2
REFUSALS = {
    "unknown_key": _sets("bogus.key=1") + _RUN + ["coverage"],
    "unread_key": _RUN + _sets("test.h1=(1,0)") + ["coverage"],
    "unparsable_value": _RUN + _sets("boot.B=lots") + ["coverage"],
    "non_finite_value": _RUN + _sets("truth.value=nan") + ["coverage"],
    "ci_level_out_of_range": _RUN + _sets("ci.level=0.4") + ["coverage"],
    "test_level_out_of_range": _RUN + _sets("test.level=1.5") + [
        "isotropy-experiment"],
    "unknown_method": _RUN + _sets("methods=wild") + ["coverage"],
    "isotropy_method": _sets("process.kind=spherical", "grid.sizes=12x12",
                             "block.sizes=4x4", "methods=hfdb_bias") + [
        "isotropy"],
    "boot_B_below_100": _RUN + _sets("methods=fdwb", "boot.B=50") + [
        "coverage"],
    "block_does_not_fit": _RUN + _sets("block.sizes=20x20") + ["coverage"],
    "lag_outside_block": _RUN + _sets(
        "block.sizes=3x3", "methods=subsample", "test.h1=(3,0)",
        "test.h2=(0,3)") + ["isotropy-experiment"],
    "tau_list_on_isotropic_model": _RUN + _sets(
        "process.kind=matern", "process.tau_r_list=1.0,1.5") + [
        "isotropy-experiment"],
    "tau_on_isotropic_model": _RUN + _sets(
        "process.kind=white_noise", "process.tau_r=1.5") + ["coverage"],
    "truth_value_and_fixture": _RUN + _sets(
        "truth.value=0.1", "truth.fixture=oracle.json") + ["coverage"],
    "simulate_format": _sets("grid.sizes=8x8") + [
        "--format", "json", "--out", "f", "simulate"],
    "experiment_format": _RUN + ["--format", "parquet", "coverage"],
    "workers_below_one": _RUN + ["--workers", "0", "coverage"],
    "oracle_replicates": _sets("grid.sizes=8x8", "replicates=1") + [
        "--out", "o.json", "oracle"],
    "single_field_list": _sets("grid.sizes=8x8,10x10") + [
        "--out", "f", "simulate"],
    "zero_lag": _RUN + _sets("test.h1=(0,0)") + ["isotropy-experiment"],
    "isotropy_psi": _RUN + _sets("psi=cos_lag{h=(1,0)}") + [
        "isotropy-experiment"],
    "one_translate_subsample": _RUN + _sets(
        "block.sizes=12x12", "methods=subsample") + ["coverage"],
    "hybrid_without_block": _sets(
        "process.kind=spherical", "grid.sizes=12x12", "methods=hfdb",
        "boot.B=100", "replicates=2") + ["--out", "r", "coverage"],
    "bandwidth_out_of_range": _RUN + _sets(
        "density.bandwidth1=4", "density.bandwidth2=1") + ["coverage"],
    "equal_test_lags": _RUN + _sets("test.h1=(1,0)", "test.h2=(1,0)") + [
        "isotropy-experiment"],
    # fdwb alone, so that a build without the rule runs it to p = 1
    "opposite_test_lags": _RUN + _sets(
        "test.h1=(1,0)", "test.h2=(-1,0)", "methods=fdwb") + [
        "isotropy-experiment"],
    "block_extent_below_2": _RUN + _sets("block.sizes=1x4") + ["coverage"],
    "isotropy_process_kind": _RUN + _sets("process.kind=separable") + [
        "isotropy-experiment"],
    "grid_lag": _RUN + _sets("psi=cos_lag{h=(40,0)}") + ["coverage"],
    "block_lag": _RUN + _sets("psi=cos_lag{h=(5,0)}", "methods=hfdb_bias") + [
        "coverage"],
    "off_axis_alias": _RUN + _sets("psi=cos_lag{h=(8,1)}") + ["coverage"],
    "repeated_list_entry": _RUN + _sets("methods=fdwb,fdwb,hfdb") + [
        "coverage"],
    "one_translate_hybrid": _RUN + _sets(
        "block.sizes=12x12", "methods=hfdb_bias") + ["coverage"],
    "dense_limit_coverage": _RUN + _DENSE + ["coverage"],
    "dense_limit_isotropy": _RUN + _DENSE + ["isotropy-experiment"],
    "dense_limit_simulate": _DENSE + ["--out", "f.csv", "simulate"],
    "dense_limit_oracle": _DENSE + _sets("replicates=2") + [
        "--out", "o.json", "oracle"],
    # the single-field commands, on a simulated field but for the --in run,
    # which is refused before its file is read
    "single_field_boot_B_below_100": _FIELD_RUN + _sets(
        "block.sizes=4x4", "methods=hfdb", "boot.B=50") + ["ci"],
    "single_field_hybrid_without_block": _FIELD_RUN + _sets(
        "methods=hfdb") + ["ci"],
    "single_field_block_does_not_fit": _FIELD_RUN + _sets(
        "block.sizes=20x20") + ["estimate"],
    "single_field_block_lag": _FIELD_RUN + _sets(
        "block.sizes=4x4", "psi=cos_lag{h=(3,0)}") + ["estimate"],
    "single_field_lag_outside_block": _FIELD_RUN + _sets(
        "block.sizes=3x3", "methods=subsample", "test.h1=(3,0)",
        "test.h2=(0,3)") + ["isotropy"],
    "single_field_workers": _FIELD_RUN + _sets("block.sizes=4x4") + [
        "--workers", "2", "estimate"],
    "single_field_fdwb_block": _FIELD_RUN + _sets(
        "methods=fdwb", "block.sizes=4x4") + ["ci"],
    "single_field_window": _FIELD_RUN + _sets("block.window=4") + [
        "blocksize"],
    "single_field_in_grid_sizes": _sets("grid.sizes=12x12") + [
        "estimate", "--in", "f.csv"],
    # a report directory that cannot be made, and B below 100 with a
    # minimum-volatility block: their words stay wherever in the run the
    # refusal comes, before or after the replicates or the selection
    "report_directory": _sets("grid.sizes=8x8", "methods=fdwb", "boot.B=100",
                              "replicates=2") + [
        "--out", "/dev/null/r", "coverage"],
    "single_field_minvol_boot_B_below_100": _sets(
        "block.sizes=minvol", "boot.B=50") + ["ci", *READ],
    "set_without_equals": _RUN + ["--set", "boot.B", "coverage"],
    "tau_r_and_tau_r_list": _RUN + _sets(
        "process.tau_r=1.5", "process.tau_r_list=1.0,1.5") + [
        "isotropy-experiment"],
    "one_bandwidth": _RUN + _sets("density.bandwidth1=0.5") + ["coverage"],
    "spectral_cdf_without_truth": _RUN + _sets(
        "psi=spectral_cdf{t=(0.5,-1.0)}") + ["coverage"],
    "non_integer_psi_lag": _RUN + _sets("psi=cos_lag{h=(1.5,0)}") + [
        "coverage"],
    "unknown_psi_kind": _RUN + _sets("psi=sin_lag{h=(1,0)}") + ["coverage"],
    "spectral_cdf_corner": _RUN + _sets(
        "psi=spectral_cdf{t=(4.0,0.0)}", "truth.value=0.3") + ["coverage"],
    "ar_not_stationary": _RUN + _sets(
        "process.kind=separable", "process.ar=1.5") + ["coverage"],
    "unknown_innovation": _RUN + _sets(
        "process.kind=separable", "process.innov1=cauchy") + ["coverage"],
    "spherical_tau_below_1": _RUN + _sets("process.tau_r=0.5") + [
        "coverage"],
    "matern_parameter": _RUN + _sets(
        "process.kind=matern", "process.nu=-1") + ["coverage"],
    "spherical_range_negative": _RUN + _sets("process.range=-1") + [
        "coverage"],
    "white_noise_variance_negative": _RUN + _sets(
        "process.kind=white_noise", "process.variance=-1") + ["coverage"],
    "tau_list_below_1": _RUN + _sets("process.tau_r_list=0.5,1.0") + [
        "isotropy-experiment"],
    "missing_truth_fixture": _RUN + _sets("truth.fixture=missing.json") + [
        "coverage"],
    "single_field_window_candidates": _FIELD_RUN + _sets("block.window=7") + [
        "blocksize"],
    "config_missing": ["--config", "missing.cfg"] + _RUN + ["coverage"],
    "config_directory": ["--config", "."] + _RUN + ["coverage"],
    "config_binary": ["--config", "c.cfg"] + _RUN + ["coverage"],
    "in_missing": ["estimate", "--in", "missing.csv"],
    "in_unparsable_csv": ["estimate", "--in", "g.csv"],
    "in_bad_magic": ["estimate", "--in", "h.bin"],
    "in_value_count": ["estimate", "--in", "k.bin"],
    "in_missing_bin": ["estimate", "--in", "missing.bin"],
    "simulate_out_directory": _sets("grid.sizes=8x8") + [
        "--out", ".", "simulate"],
    "oracle_out_unwritable": _sets("grid.sizes=8x8", "replicates=2") + [
        "--out", "no/dir/o.json", "oracle"],
    "truth_fixture_directory": _RUN + _sets("truth.fixture=.") + ["coverage"],
    "truth_fixture_not_json": _RUN + _sets("truth.fixture=fx.json") + [
        "coverage"],
    "truth_fixture_lacks_field": _RUN + _sets("truth.fixture=fx.json") + [
        "coverage"],
    # a white-noise fixture given to a spherical run
    "truth_fixture_mismatch": _RUN + _sets("truth.fixture=oracle.json") + [
        "coverage"],
    # a 5x1 field read with --in, and a grid too small for the
    # minimum-volatility candidates
    "in_extent_below_2": ["estimate", "--in", "g.csv"],
    "minvol_grid_too_small": _sets("grid.sizes=2x200") + ["blocksize"],
}

# name -> the commands that write the files a refusal case reads, run
# before it in the same directory; each must exit 0
REFUSAL_SETUP = {
    "single_field_minvol_boot_B_below_100": [FIELD],
    # a binary field dump: not text, so not a configuration file
    "config_binary": [_FIELD_RUN + ["--format", "bin", "--out", "c.cfg",
                                    "simulate"]],
    # a binary dump under a .csv name, and a CSV under a .bin name
    "in_unparsable_csv": [_FIELD_RUN + ["--format", "bin", "--out", "g.csv",
                                        "simulate"]],
    "in_bad_magic": [_FIELD_RUN + ["--out", "h.bin", "simulate"]],
    "in_extent_below_2": [_sets("grid.sizes=5x1") + ["--out", "g.csv",
                                                     "simulate"]],
    "truth_fixture_mismatch": [_sets("grid.sizes=12x12", "replicates=5") + [
        "--out", "oracle.json", "oracle"]],
}

# name -> the files (relative path -> bytes) a refusal case reads that no
# command writes, written before its setup
REFUSAL_FILES = {
    # a 3x3 header over 8 values
    "in_value_count": {"k.bin": b"FREQBOOT" + struct.pack("<II", 3, 3)
                       + bytes(8 * 8)},
    "truth_fixture_not_json": {"fx.json": b"value = 0.1\n"},
    # every field of a fixture but its model
    "truth_fixture_lacks_field": {"fx.json": json.dumps(
        {"kind": "spectral_mean_oracle", "generator": "default",
         "psi": "cos_lag{h=(1,0)}", "n1": 12, "n2": 12, "value": 0.1}).encode()},
}


class Result(NamedTuple):
    """One case run: each command's exit code and stderr, and the digest
    of each recorded part, a refusal's stderr as its text."""

    codes: list[int]
    errors: list[str]
    digests: dict[str, str]


def _command(argv: list[str]) -> tuple[int, str, str]:
    """One ``freqboot.cli.main`` command's (exit code, stdout, stderr).
    argparse's refusals exit through SystemExit; an uncaught exception
    exits 1 with its traceback, as the interpreter would."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def run_case(name: str) -> Result:
    """Run case ``name`` in process, in a fresh temporary working
    directory, and digest its parts."""
    refusal = name in REFUSALS
    steps = ([*REFUSAL_SETUP.get(name, ()), REFUSALS[name]] if refusal
             else CASES[name])
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for rel, data in REFUSAL_FILES.get(name, {}).items():
                with open(rel, "wb") as fh:
                    fh.write(data)
            runs = [_command(argv) for argv in steps]
        finally:
            os.chdir(home)
        parts = {"exit codes and stdout": json.dumps(
            [[code, out] for code, out, _ in runs]).encode()}
        if refusal:
            parts["stderr"] = runs[-1][2].encode()
        for root, _, names in os.walk(work):
            for file in names:
                path = os.path.join(root, file)
                with open(path, "rb") as fh:
                    parts[f"file {os.path.relpath(path, work)}"] = fh.read()
    return Result([code for code, _, _ in runs], [err for _, _, err in runs],
                  {part: data.decode() if part == "stderr"
                   else hashlib.sha256(data).hexdigest()
                   for part, data in parts.items()})


def run_all() -> dict[str, Result]:
    """Every case of ``CASES`` and ``REFUSALS``, by name."""
    return {name: run_case(name) for name in (*CASES, *REFUSALS)}


def digests(results: dict[str, Result]) -> dict[str, str]:
    """``<case>: <part>`` -> digest, the layout of the recorded file."""
    return {f"{name}: {part}": digest for name, result in results.items()
            for part, digest in result.digests.items()}


def environment() -> str:
    """The key of the environment that the digests hold for: numpy's
    version, the machine and the SIMD extensions numpy found, the
    ``found`` list that ``np.show_runtime()`` prints from these tables."""
    from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                               __cpu_features__)
    found = [f for f in __cpu_dispatch__ if __cpu_features__[f]]
    return (f"numpy {np.__version__}, {platform.machine()}, SIMD "
            f"{' '.join(found) or 'none'}")


def main(argv: list[str]) -> int:
    if argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    recorded = digests(run_all())
    with open(GOLDEN, "w") as fh:
        json.dump({environment(): recorded}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(recorded)} digests of {len(CASES) + len(REFUSALS)} "
          f"cases to {os.path.relpath(GOLDEN, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
