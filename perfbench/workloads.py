"""The benchmark's workloads: what one unit of work is, how its inputs
are made from the seed, and how its outputs are checked.

Two Monte Carlo workloads go through the CLI's experiment runners and
report emission exactly as ``freqboot coverage`` and ``freqboot
isotropy-experiment`` do (config resolution, runner, ``emit_report``);
one unit is one Monte Carlo replicate.  ``field_512`` analyses one large
user field through the library API; one unit is one analysed field.

Every library call goes through a module attribute (``fb.infer.isotropy_test``,
never a name imported into this module), so the traced run's wrappers
see it.

A workload object offers, for one execution of ``units(workers)``
units: ``inputs`` (made from the seed, untimed), ``phases`` (callables
timed one by one), ``collect`` (untimed read-back of the phase results),
and the gate's ``check``, ``compare`` and ``final_check`` on what
``collect`` returned.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context, resource_tracker

import freqboot as fb
import freqboot.cli  # noqa: F401  (not loaded by the package itself)

import gate

REPORT_SUFFIXES = ("_summary.csv", "_replicates.csv", ".json")
HYBRID = ("hfdb", "hfdb_bias")


def round_seed(seed: int, r: int) -> int:
    """Master seed of round ``r`` of a run started with ``--seed seed``.

    Round 0 is the warm-up; measured rounds start at 1.
    """
    return (seed << 16) | r


@dataclass(frozen=True)
class MonteCarlo:
    """A CLI Monte Carlo configuration, ``reps`` replicates per round."""

    name: str
    kind: str                  # "isotropy" or "coverage"
    settings: tuple            # (key, value) pairs in CLI spelling
    reps: int
    setup_probes: int = 9

    def units(self, workers: int) -> int:
        return self.reps

    def inputs(self, seed: int, r: int, workers: int, scratch: str, reps=None):
        prefix = os.path.join(scratch, f"{self.name}_r{r}_w{workers}")
        return (round_seed(seed, r), workers, prefix, reps or self.reps)

    def unit_ids(self, inputs) -> list[int]:
        return list(range(inputs[3]))

    def phases(self, inputs) -> list:
        return [functools.partial(self.execute, inputs)]

    def execute(self, inputs) -> list[str]:
        """Resolve the config, run the experiment and write its reports."""
        master_seed, workers, prefix, reps = inputs
        st = fb.cli.Settings(dict(self.settings, replicates=str(reps)))
        cfg = fb.cli.experiment_config(st, self.kind, master_seed, workers)
        if self.kind == "isotropy":
            report = fb.cli.run_isotropy_experiment(cfg)
        else:
            report = fb.cli.run_coverage_experiment(cfg)
        return fb.cli.emit_report(report, prefix, "both")

    def collect(self, inputs, results) -> dict[str, bytes]:
        """Read the emitted reports back and delete them."""
        files = {}
        for suffix in REPORT_SUFFIXES:
            with open(inputs[2] + suffix, "rb") as fh:
                files[suffix] = fh.read()
        for p in results[0]:
            os.remove(p)
        return files

    def check(self, files) -> list:
        return gate.check_report(self.kind, files)

    def compare(self, files_a, files_b) -> list:
        return gate.compare_reports(files_a, files_b)

    def final_check(self, inputs, files) -> list:
        return []

    def digests(self, files) -> dict[str, str]:
        return {s: hashlib.sha256(b).hexdigest() for s, b in files.items()}

    def diagnostics(self, files) -> dict:
        return {"csv_malformed_cells": gate.malformed_cells(files["_replicates.csv"])}

    def floored(self, files) -> tuple[int, int]:
        """(hybrid rows with sigma2_raw < 0, hybrid rows) of one report."""
        hybrid = [r for r in gate.replicate_rows(files) if r["method"] in HYBRID]
        return sum(r["sigma2_raw"] < 0.0 for r in hybrid), len(hybrid)

    def warm_up(self, seed: int, scratch: str) -> None:
        inputs = self.inputs(seed, 0, 1, scratch, reps=1)
        self.collect(inputs, [self.execute(inputs)])

    def prepare(self, seed: int, scratch: str) -> None:
        """Warm up before timing; the runner makes its own pool on every run."""
        self.warm_up(seed, scratch)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# one large field

FIELD_N = 512
FIELD_MODEL = dict(sigma2=1.0, range_=5.0, tau_r=1.2)
FIELD_BLOCK = (9, 9)
FIELD_B = 500
FIELD_LEVEL = 0.9
ISO_LAGS = ((1, 0), (0, 1))
CI_LAG = (1, 0)


@dataclass(frozen=True)
class FieldAnalysis:
    """Outputs of one field's two analyses."""

    index: int
    p_value: float
    ts: float
    lower: float
    upper: float
    draws: object              # BootstrapDraws of the hfdb_bias interval

    def canonical(self) -> str:
        d = self.draws
        return json.dumps({"p_value": self.p_value, "ts": self.ts,
                           "lower": self.lower, "upper": self.upper,
                           "var_star": d.var_star, "sigma2_raw": d.sigma2_raw,
                           "bias_sub": d.bias_sub,
                           "draws": [float(v) for v in d.values]},
                          sort_keys=True)


def make_field(seed: int, index: int):
    model = fb.simulate.SphericalAniso(**FIELD_MODEL)
    gen = fb.rng.stream(seed, fb.rng.TAG_FIELD, index, 0)
    return fb.simulate.simulate_process(model, FIELD_N, FIELD_N, gen)


def hybrid_draws(field, seed: int, index: int, kind: str):
    psi = fb.spectral.psi_cos_lag(CI_LAG)
    return fb.bootstrap.bootstrap_distribution(
        field, psi, fb.subsample.BlockSpec(*FIELD_BLOCK), FIELD_B, kind,
        seed, index)


def isotropy_part(job):
    """The hfdb isotropy test of lags (1,0) and (0,1)."""
    field, seed, index = job
    return fb.infer.isotropy_test(
        field, *ISO_LAGS, method="hfdb", spec=fb.subsample.BlockSpec(*FIELD_BLOCK),
        B=FIELD_B, master_seed=seed, replicate_id=index)


def interval_part(job):
    """The hfdb_bias interval for cos_lag (1,0): (draws, interval)."""
    field, seed, index = job
    psi = fb.spectral.psi_cos_lag(CI_LAG)
    mhat = fb.spectral.spectral_mean(fb.lattice.periodogram(field), psi)
    draws = hybrid_draws(field, seed, index, "hfdb_bias")
    return draws, fb.infer.confidence_interval(mhat, draws, FIELD_LEVEL)


def _analysis(index, test, interval) -> FieldAnalysis:
    draws, ci = interval
    return FieldAnalysis(index=index, p_value=test.p_value, ts=test.ts,
                         lower=ci.lower, upper=ci.upper, draws=draws)


def analyse_field(job) -> FieldAnalysis:
    return _analysis(job[2], isotropy_part(job), interval_part(job))


class LargeField:
    """Fields are generated from the seed outside the timed region.  A
    round analyses one field per worker: in process with one worker, and
    with two on a two-process pool that is spawned and warmed before
    timing starts, the way a user with several datasets would spread
    them.  Round r's one-worker field is the first of its two-worker
    pair, so the two outputs can be compared."""

    setup_probes = 3

    def __init__(self):
        self._pool = None

    def units(self, workers: int) -> int:
        return workers

    def inputs(self, seed: int, r: int, workers: int, scratch: str):
        first = 2 * r - 1 if r > 0 else 0
        return [(make_field(seed, k), seed, k) for k in range(first, first + workers)]

    def unit_ids(self, jobs) -> list[int]:
        return [index for _, _, index in jobs]

    def phases(self, jobs) -> list:
        """The two analyses, timed apart: in this process for one job, as
        one pool map each for two."""
        if len(jobs) == 1:
            return [functools.partial(part, jobs[0])
                    for part in (isotropy_part, interval_part)]
        return [functools.partial(self._map, part, jobs)
                for part in (isotropy_part, interval_part)]

    def _map(self, part, jobs) -> list:
        return list(self._pool.map(part, jobs))

    def collect(self, jobs, results) -> list[FieldAnalysis]:
        if len(jobs) == 1:
            results = [[res] for res in results]
        return [_analysis(job[2], test, interval)
                for job, test, interval in zip(jobs, *results)]

    def check(self, results) -> list:
        return [p for res in results for p in gate.check_field(res)]

    def compare(self, results_a, results_b) -> list:
        b = {res.index: res.canonical() for res in results_b}
        return [(res.index, "analysis differs between runs of one seed")
                for res in results_a
                if res.index in b and res.canonical() != b[res.index]]

    def final_check(self, jobs, results) -> list:
        """hfdb_bias draws equal the hfdb draws plus bias_sub, same seed."""
        (field, seed, index), res = jobs[0], results[0]
        plain = hybrid_draws(field, seed, index, "hfdb")
        return gate.check_bias_shift(res.draws, plain, index)

    def digests(self, results) -> dict[str, str]:
        return {f"field{res.index}": hashlib.sha256(res.canonical().encode()).hexdigest()
                for res in results}

    def diagnostics(self, results) -> dict:
        return {}

    def floored(self, results) -> tuple[int, int]:
        return sum(res.draws.sigma2_raw < 0.0 for res in results), len(results)

    def warm_up(self, seed: int, scratch: str) -> None:
        analyse_field(self.inputs(seed, 0, 1, scratch)[0])

    def prepare(self, seed: int, scratch: str) -> None:
        """Warm up before timing: spawn the two-worker pool and warm each
        worker on field 0 while this process warms up on it too."""
        self._pool = ProcessPoolExecutor(max_workers=2, mp_context=get_context("spawn"))
        job = self.inputs(seed, 0, 1, scratch)[0]
        warming = [self._pool.submit(analyse_field, job) for _ in range(2)]
        analyse_field(job)
        for fut in warming:
            fut.result()

    def close(self) -> None:
        """Shut the pool down and wait for its workers, then stop the
        resource tracker process that the spawn context started and wait
        for it too, so no process outlives the run."""
        if self._pool is not None:
            try:
                self._pool.shutdown()
            finally:
                self._pool = None
                resource_tracker._resource_tracker._stop()


# name -> factory of a fresh workload object
WORKLOADS = {
    "iso_table1": lambda: MonteCarlo(
        name="iso_table1", kind="isotropy", reps=8, settings=(
            ("process.kind", "spherical"), ("process.range", "5"),
            ("process.tau_r_list", "1.0,1.2,1.4,1.5"),
            ("grid.sizes", "50x50"),
            ("psi", "iso_contrast{h1=(1,0),h2=(0,1)}"),
            ("block.sizes", "9x9"), ("methods", "fdwb,hfdb,subsample"),
            ("boot.B", "500"))),
    "cov_ladder": lambda: MonteCarlo(
        name="cov_ladder", kind="coverage", reps=8, settings=(
            ("process.kind", "separable"), ("process.ar", "0.2"),
            ("process.ma", "-0.7"),
            ("process.innov1", "exponential_centered"),
            ("process.innov2", "exponential_centered"),
            ("grid.sizes", "50x50"), ("psi", "cos_lag{h=(1,0)}"),
            ("block.sizes", ",".join(f"{b}x{b}" for b in range(4, 16))),
            ("methods", "fdwb,hfdb_bias"), ("boot.B", "500"))),
    "field_512": LargeField,
}


def scratch_dir(root: str) -> tempfile.TemporaryDirectory:
    """A private directory for emitted reports under ``<root>/.perfbench``."""
    base = os.path.join(root, ".perfbench")
    os.makedirs(base, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=base)
