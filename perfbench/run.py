"""freqboot benchmark: Monte Carlo table throughput and large-field analysis.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` it times untraced
rounds at one and two workers and fresh-interpreter set-up, and reports
the end-to-end metrics; with ``--trace 1`` it adds traced one-worker
rounds and reports the per-layer metrics (see BENCHMARK.json and
perfbench/README.md).  Every output is checked; the last line of stdout
is one JSON result, and the exit code is 1 if any check failed.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
MAX_PROCESSES = 2   # the most processes any round runs at once
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> int:
    """Cap BLAS threads so processes x threads <= nproc; call before numpy
    is imported.  Worker processes inherit the cap through the environment."""
    cap = max(1, nproc() // MAX_PROCESSES)
    for var in BLAS_VARS:
        os.environ[var] = str(cap)
    return cap


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas_name, "blas_threads": os.environ[BLAS_VARS[0]],
            "nproc": nproc(), "cpu": cpu, "git_commit": commit,
            "start_method": multiprocessing.get_start_method()}


class Book:
    """Timings, outputs and failures of one run's rounds."""

    def __init__(self):
        self.rates: dict[str, list[float]] = {}      # rescaled to nominal speed
        self.raw_rates: dict[str, list[float]] = {}
        self.reference_s: list[float] = []
        self.outputs: dict[str, list] = {}
        self.first: dict[str, tuple] = {}      # label -> (inputs, output) of round 1
        self.attempted = 0
        self.failed_units: set = set()
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failed_units)

    def fail(self, label, r, unit_ids, problems) -> None:
        from gate import failed_units
        self.failed_units |= {(label, r, u) for u in failed_units(problems, unit_ids)}
        self.problems += [f"{label} round {r} unit {u}: {m}" for u, m in problems]

    def median(self, label) -> float:
        return statistics.median(self.rates[label])


def run_rounds(wl, seed, seconds, scratch, plan, tracer=None) -> Book:
    """Warm up, then run ``plan`` -- (label, workers, traced) executions --
    round after round for ``seconds``, rotating its order each round.
    Each output is checked and compared with the first label's output of
    the same round."""
    book = Book()
    try:
        wl.prepare(seed, scratch)
        _rounds(wl, seed, seconds, scratch, plan, tracer, book)
    finally:
        wl.close()
    ref_label = plan[0][0]
    if ref_label in book.first:
        inputs, output = book.first[ref_label]
        book.fail(ref_label, 1, wl.unit_ids(inputs), wl.final_check(inputs, output))
    return book


def _rounds(wl, seed, seconds, scratch, plan, tracer, book) -> None:
    import layers
    ref_label = plan[0][0]
    deadline = time.perf_counter() + seconds
    r = 0
    while r == 0 or time.perf_counter() < deadline:
        r += 1
        done = {}
        for label, workers, traced in plan[r % len(plan):] + plan[:r % len(plan)]:
            if r > 1 and time.perf_counter() >= deadline:
                break
            units = wl.units(workers)
            book.attempted += units
            if traced:
                layers.install(tracer)
            try:
                if traced:
                    with tracer.span(layers.GENERATE):
                        inputs = wl.inputs(seed, r, workers, scratch)
                else:
                    inputs = wl.inputs(seed, r, workers, scratch)
                results, elapsed, nominal = _execute(wl, inputs, book,
                                                     tracer if traced else None)
            except Exception:  # a failing round is counted and the run goes on
                book.fail(label, r, list(range(units)),
                          [(None, traceback.format_exc(limit=3))])
                continue
            finally:
                if traced:
                    tracer.unpatch()
            output = wl.collect(inputs, results)
            book.rates.setdefault(label, []).append(units / nominal)
            book.raw_rates.setdefault(label, []).append(units / elapsed)
            book.outputs.setdefault(label, []).append(output)
            if r == 1:
                book.first[label] = (inputs, output)
            done[label] = (inputs, output)
        for label, (inputs, output) in done.items():
            problems = wl.check(output)
            if label != ref_label and ref_label in done:
                problems += wl.compare(done[ref_label][1], output)
            book.fail(label, r, wl.unit_ids(inputs), problems)


def _execute(wl, inputs, book, tracer=None) -> tuple[list, float, float]:
    """Run the phases of one execution, each timed between two runs of the
    reference kernel.  Returns the phase results and the time taken, as
    measured and rescaled to nominal speed."""
    import calibrate
    import layers
    refs = [calibrate.reference_seconds()]
    results, elapsed, nominal = [], 0.0, 0.0
    for phase in wl.phases(inputs):
        t0 = time.perf_counter()
        if tracer is None:
            results.append(phase())
        else:
            with tracer.span(layers.UNIT):
                results.append(phase())
        dt = time.perf_counter() - t0
        refs.append(calibrate.reference_seconds())
        elapsed += dt
        nominal += calibrate.rescale(dt, *refs[-2:])
    book.reference_s += refs
    return results, elapsed, nominal


def setup_seconds(name: str, seed: int, probes: int) -> tuple[list, list]:
    """Set-up time of ``probes`` fresh interpreters, each timed from before
    ``import freqboot`` to the end of one warm-up unit: (rescaled to
    nominal speed, as measured)."""
    import calibrate
    raw, refs = [], [calibrate.reference_seconds()]
    for _ in range(probes):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"),
                               name, str(seed)], cwd=ROOT, text=True,
                              capture_output=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        raw.append(float(proc.stdout.split()[-1]))
        refs.append(calibrate.reference_seconds())
    nominal = [calibrate.rescale(t, a, b) for t, a, b in zip(raw, refs, refs[1:])]
    return nominal, raw


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def end_to_end(wl, args, book, detail) -> dict:
    rss = peak_rss_mb()        # before the probes add children of their own
    setup, raw = setup_seconds(args.workload, args.seed, wl.setup_probes)
    detail["setup_s_nominal"] = setup
    detail["setup_s_raw"] = raw
    return {
        "setup_s": (statistics.median(setup), "s"),
        "reps_per_s_w1": (book.median("w1"), "1/s"),
        "reps_per_s_w2": (book.median("w2"), "1/s"),
        "peak_rss_mb": (rss, "MiB"),
    }


def per_layer(wl, args, book, detail, tracer) -> dict:
    import layers
    units = wl.units(1) * len(book.rates["traced"])
    metrics = layers.per_layer(tracer, units)
    floored = [wl.floored(out) for out in book.outputs["w1"]]
    hybrid = sum(h for _, h in floored)
    metrics["subsample.sigma2_floored_frac"] = (
        sum(f for f, _ in floored) / hybrid if hybrid else 0.0, "frac")
    metrics["lattice.build_frequency_grid.cold_ms"] = (layers.cold_grid_ms(tracer), "ms")
    # ratios of executions that alternate within one run, and span times,
    # are taken as measured
    w1, w2, traced = (statistics.median(book.raw_rates[k]) for k in ("w1", "w2", "traced"))
    metrics["cli.w2_busy_frac"] = (w2 / (2.0 * w1), "frac")
    metrics["trace.overhead_frac"] = (w1 / traced - 1.0, "frac")
    metrics["trace.unit_ms"] = (1e3 / traced, "ms")
    detail["computed_counts_per_unit"] = {k: metrics[k][0] for k in layers.COMPUTED}
    detail["trace_run_id"] = tracer.run_id
    path = os.path.join(ROOT, ".perfbench", f"spans_{args.workload}_seed{args.seed}.json")
    tracer.dump(path)
    detail["spans_file"] = os.path.relpath(path, ROOT)
    return metrics


PLANS = {0: [("w1", 1, False), ("w2", 2, False)],
         1: [("w1", 1, False), ("w2", 2, False), ("traced", 1, True)]}


def _terminate(signum, frame):
    """Leave on SIGTERM through SystemExit, so that every ``finally``
    runs and the pool and its helper processes are stopped and waited for."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "freqboot", "__init__.py")):
        print(f"perfbench: no freqboot sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    cap_blas_threads()
    sys.path.insert(0, SRC)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()

    import spans
    tracer = spans.Tracer() if args.trace else None
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": environment()}
    plan = PLANS[args.trace]
    with workloads.scratch_dir(ROOT) as scratch:
        book = run_rounds(wl, args.seed, args.seconds, scratch, plan, tracer)
    missing = [label for label, _, _ in plan if label not in book.first]
    if missing:
        print(f"perfbench: no completed round for {missing}\n"
              + "\n".join(book.problems[:5]), file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(wl, args, book, detail, tracer)
    else:
        metrics = end_to_end(wl, args, book, detail)
    first_out = book.first["w1"][1]
    detail["rounds"] = {k: len(v) for k, v in book.rates.items()}
    detail["units_per_s_nominal"] = book.rates
    detail["units_per_s_raw"] = book.raw_rates
    detail["reference_s"] = book.reference_s
    detail["round1_sha256"] = wl.digests(first_out)
    detail["round1_diagnostics"] = wl.diagnostics(first_out)
    detail["failed_frac"] = book.failed / book.attempted
    detail["problems"] = book.problems[:20]
    correct = book.failed == 0

    print("perfbench detail " + json.dumps(detail, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:14.6g} {unit}")
    print(f"  {'failed_frac':45s} {detail['failed_frac']:14.6g} frac "
          f"({book.failed} of {book.attempted} units)")
    print(json.dumps({"correct": correct, "attempted": book.attempted,
                      "failed": book.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
