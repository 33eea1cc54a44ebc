"""Check that two source trees give byte-identical CLI results.

    python3 tools/report_identity.py PARENT_TREE CHANGE_TREE

Every case of ``CASES`` is a short sequence of ``python3 -m freqboot.cli``
commands.  It runs once per tree, in a fresh directory of its own, with
that tree's ``src`` first on ``PYTHONPATH``.  Output names are relative,
so both trees print the same paths.  The tool compares each command's
exit code and stdout (the single-shot commands print their result there)
and every file the case writes, byte for byte.  stderr holds only the
written paths and diagnostics, and is shown for a failing command.

Exit status: 0 when every case ran and matched, 1 when a case differs or
a command failed in either tree, 2 on bad arguments.

The cases cover both Monte Carlo experiments at one and two workers, the
single-shot commands and ``simulate`` for every process kind.  Isotropy
experiments name their psi, the contrast of ``test.h1`` and ``test.h2``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

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
    "matern_quartic_coverage": ("coverage", _sets(
        "process.kind=matern_quartic", "grid.sizes=20x20", "block.sizes=5x5",
        "methods=fdwb,hfdb,hfdb_bias,subsample", "boot.B=150",
        "replicates=4")),
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
    cases["simulate_binary"] = [_sets("process.kind=matern", "grid.sizes=16x18") + [
        "--seed", "3", "--format", "bin", "--out", "f.bin", "simulate"]]
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
    cases["oracle"] = [_sets("process.kind=white_noise", "grid.sizes=12x12",
                             "replicates=50") + [
        "--seed", "9", "--out", "oracle.json", "oracle"]]
    return cases


CASES = _cases()


def run_case(tree: str, steps: list[list[str]]):
    """Run one case against ``tree``: its commands' (exit code, stdout),
    the files written (relative path -> bytes) and a failing stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(tree, "src"), env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory() as work:
        printed, errors = [], []
        for argv in steps:
            proc = subprocess.run([sys.executable, "-m", "freqboot.cli", *argv],
                                  cwd=work, env=env, capture_output=True,
                                  text=True)
            printed.append((proc.returncode, proc.stdout))
            if proc.returncode != 0:
                errors.append(proc.stderr.strip())
        files = {}
        for root, _, names in os.walk(work):
            for name in names:
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    files[os.path.relpath(path, work)] = fh.read()
    return printed, files, errors


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(
            os.path.isdir(os.path.join(t, "src", "freqboot")) for t in argv):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        print("both trees need src/freqboot", file=sys.stderr)
        return 2
    parent, change = argv
    bad = n_files = 0
    for name, steps in CASES.items():
        p_out, p_files, p_err = run_case(parent, steps)
        c_out, c_files, c_err = run_case(change, steps)
        problems = [f"failed in {which}: {err}"
                    for which, errs in (("parent", p_err), ("change", c_err))
                    for err in errs]
        if p_out != c_out:
            problems.append("exit codes or stdout differ")
        for rel in sorted(set(p_files) | set(c_files)):
            if p_files.get(rel) != c_files.get(rel):
                problems.append(f"{rel} differs")
        n_files += len(c_files)
        bad += bool(problems)
        print(f"{name}: " + ("; ".join(problems) if problems
                             else f"identical ({len(c_files)} files)"))
    print(f"{len(CASES) - bad} of {len(CASES)} cases identical, "
          f"{n_files} files written by the change")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
