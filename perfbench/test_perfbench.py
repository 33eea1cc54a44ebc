"""Tests of the benchmark's own arithmetic and correctness gate.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import calibrate  # noqa: E402
import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# ---------------------------------------------------------------------------
# span arithmetic

NESTED = [
    ("bench.unit", 0, 100, -1),
    ("cli.runner", 10, 60, 0),
    ("rng.stream", 20, 30, 1),
    ("rng.stream", 35, 40, 1),
    ("cli.emit_report", 70, 90, 0),
]


def test_self_time_subtracts_direct_children_only():
    own = spans.self_times(NESTED)
    assert own == {"bench.unit": 30, "cli.runner": 35, "rng.stream": 15,
                   "cli.emit_report": 20}
    # self times partition the root's wall time
    assert sum(own.values()) == 100


def test_totals_count_calls_and_inclusive_time():
    assert spans.totals(NESTED)["rng.stream"] == (2, 15)
    assert spans.totals(NESTED)["cli.runner"] == (1, 50)


def test_covered_frac_over_several_roots():
    recs = NESTED + [("bench.unit", 200, 300, -1), ("cli.runner", 200, 250, 5),
                     ("bench.generate", 300, 400, -1)]
    # uncovered: 30 of the first unit, 50 of the second; generation is no unit
    assert spans.covered_frac(recs, "bench.unit") == pytest.approx(1 - 80 / 200)


def test_tracer_patches_every_holder_and_restores():
    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(x) * 2

    mod = types.SimpleNamespace(leaf=leaf, outer=outer)
    other = types.SimpleNamespace(alias=leaf)
    tracer = spans.Tracer()
    tracer.patch([mod, other], leaf, "m.leaf",
                 observe=lambda t, a, k, r: t.counts.update({"leaves": 1}))
    tracer.patch([mod], outer, "m.outer")
    assert mod.outer(1) == 4 and other.alias(1) == 2
    tracer.unpatch()
    assert mod.leaf is leaf and other.alias is leaf and mod.outer is outer
    recs = tracer.records()
    assert [(n, p) for n, _, _, p in recs] == [("m.outer", -1), ("m.leaf", 0),
                                               ("m.leaf", -1)]
    assert all(s <= e for _, s, e, _ in recs)
    assert tracer.counts["leaves"] == 2


def test_tracer_closes_span_when_call_raises():
    tracer = spans.Tracer()

    def boom():
        raise ValueError

    traced = tracer.wrap(boom, "boom")
    with pytest.raises(ValueError):
        with tracer.span("root"):
            traced()
    (_, _, _, p0), (_, s1, e1, p1) = tracer.records()
    assert (p0, p1) == (-1, 0) and e1 >= s1 and not tracer._stack


def test_rescale_divides_out_reference_speed():
    assert calibrate.rescale(2.0, calibrate.NOMINAL_S, calibrate.NOMINAL_S) == 2.0
    # the machine ran at half speed: the round counts half as long
    slow = 2 * calibrate.NOMINAL_S
    assert calibrate.rescale(2.0, slow, slow) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# correctness gate on real reports of a tiny configuration

TINY = {
    "isotropy": (("process.kind", "spherical"), ("process.range", "3"),
                 ("process.tau_r_list", "1.0,1.4"), ("grid.sizes", "16x16"),
                 ("block.sizes", "4x4"), ("methods", "fdwb,hfdb,subsample"),
                 ("boot.B", "100")),
    "coverage": (("process.kind", "white_noise"), ("grid.sizes", "16x16"),
                 ("psi", "cos_lag{h=(1,0)}"), ("block.sizes", "4x4,5x5"),
                 ("methods", "fdwb,hfdb_bias,subsample"), ("boot.B", "100")),
}


def _report(kind, tmp_path, workers=1):
    wl = workloads.MonteCarlo(name="tiny_" + kind, kind=kind, settings=TINY[kind],
                              reps=3)
    inputs = wl.inputs(7, 1, workers, str(tmp_path))
    return wl, wl.collect(inputs, [wl.execute(inputs)])


def _edit_json(files, edit):
    payload = json.loads(files[".json"])
    edit(payload)
    return dict(files, **{".json": json.dumps(payload).encode()})


@pytest.mark.parametrize("kind", ["isotropy", "coverage"])
def test_gate_passes_intact_report(kind, tmp_path):
    wl, files = _report(kind, tmp_path)
    assert wl.check(files) == []
    assert wl.compare(files, _report(kind, tmp_path, workers=2)[1]) == []


@pytest.mark.parametrize("kind", ["isotropy", "coverage"])
def test_gate_trips_on_corrupted_summary(kind, tmp_path):
    _, files = _report(kind, tmp_path)
    text = files["_summary.csv"].decode().splitlines()
    cells = text[1].split(",")
    cells[-1] = str(int(cells[-1]) + 1)          # wrong replicate count
    bad = dict(files, **{"_summary.csv": ("\n".join([text[0], ",".join(cells)]
                                                     + text[2:]) + "\n").encode()})
    problems = gate.check_report(kind, bad)
    assert (None, "summary differs from its recomputation") in problems
    assert gate.failed_units(problems, [0, 1, 2]) == {0, 1, 2}


@pytest.mark.parametrize("kind", ["isotropy", "coverage"])
def test_gate_trips_on_reordered_rows(kind, tmp_path):
    _, files = _report(kind, tmp_path)
    flipped = _edit_json(files, lambda p: p["replicates"].reverse())
    assert (None, "replicate rows are out of the runner's order") in \
        gate.check_report(kind, flipped)
    lines = files["_replicates.csv"].decode().splitlines()
    csv_flipped = dict(files, **{"_replicates.csv": (
        "\n".join([lines[0]] + lines[1:][::-1]) + "\n").encode()})
    assert (None, "csv and json replicate rows differ") in \
        gate.check_report(kind, csv_flipped)


def test_gate_flags_the_replicate_with_a_bad_row(tmp_path):
    _, files = _report("isotropy", tmp_path)

    def corrupt(payload):
        row = next(r for r in payload["replicates"] if r["replicate"] == 2)
        row["p_value"] = 1.5
        row["var_star"] = -1.0

    problems = gate.check_report("isotropy", _edit_json(files, corrupt))
    rows = [(u, m) for u, m in problems if u is not None]
    assert {u for u, _ in rows} == {2} and len(rows) == 2
    assert gate.failed_units(rows, [0, 1, 2]) == {2}


def test_gate_flags_inverted_interval(tmp_path):
    _, files = _report("coverage", tmp_path)

    def corrupt(payload):
        row = payload["replicates"][0]
        row["lower"], row["upper"] = row["upper"] + 1.0, row["lower"]

    problems = gate.check_report("coverage", _edit_json(files, corrupt))
    assert [u for u, m in problems if "lower > upper" in m] == [0]


def test_compare_trips_on_one_changed_byte(tmp_path):
    _, files = _report("coverage", tmp_path)
    data = bytearray(files["_replicates.csv"])
    data[-2] = ord("7") if data[-2] != ord("7") else ord("8")
    assert gate.compare_reports(files, dict(files, **{"_replicates.csv": bytes(data)})) \
        == [(None, "_replicates.csv differs between runs of one seed")]


def test_malformed_cells_counts_non_numbers():
    data = b"replicate,method,lower\n0,fdwb,np.float64(0.5)\n1,fdwb,0.25\n"
    assert gate.malformed_cells(data) == 1


def test_field_checks():
    draws = types.SimpleNamespace(var_star=2.0, sigma2_floored=0.5,
                                  recorded_total_var=2.5, sigma2_raw=0.5,
                                  bias_sub=0.0, values=None)
    ok = workloads.FieldAnalysis(index=4, p_value=0.3, ts=1.0, lower=0.1,
                                 upper=0.2, draws=draws)
    assert gate.check_field(ok) == []
    bad = workloads.FieldAnalysis(index=4, p_value=-0.1, ts=1.0, lower=0.3,
                                  upper=0.2, draws=types.SimpleNamespace(
                                      var_star=float("nan"), sigma2_floored=0.5,
                                      recorded_total_var=2.5))
    assert [u for u, _ in gate.check_field(bad)] == [4, 4, 4, 4]


# ---------------------------------------------------------------------------
# process clean-up

def test_large_field_close_leaves_no_process():
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import resource_tracker
    wl = workloads.LargeField()
    wl._pool = ProcessPoolExecutor(max_workers=1,
                                   mp_context=multiprocessing.get_context("spawn"))
    assert wl._pool.submit(abs, -3).result() == 3
    assert resource_tracker._resource_tracker._pid is not None
    wl.close()
    assert wl._pool is None
    assert resource_tracker._resource_tracker._pid is None
    assert multiprocessing.active_children() == []
