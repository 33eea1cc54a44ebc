"""The CLI's results are byte-identical to the digests recorded in
``tests/golden/digests.json`` (``tools/report_identity.py`` runs the
cases and writes the file), every case exits as its catalog says, and
each Monte Carlo experiment gives the same bytes at one and two workers.

A change that moves bits on purpose rewrites the file with the tool in
the same commit, so the file's diff lists the case parts that moved."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "report_identity", os.path.join(ROOT, "tools", "report_identity.py"))
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)


@pytest.fixture(scope="module")
def results():
    return identity.run_all()


def test_digests_equal_the_recorded_file(results):
    with open(identity.GOLDEN, encoding="utf-8") as fh:
        recorded = json.load(fh)
    here = identity.environment()
    assert list(recorded) == [here], (
        f"the digests were written in {list(recorded)}, and this is "
        f"{here!r}: bits can differ between the two.  Write the digests of "
        f"the parent commit here with `{identity.WRITER}`, then rerun this "
        f"test on the change")
    want, got = recorded[here], identity.digests(results)
    moved = [f"{key}: " + ("not recorded" if key not in want else
                           "not produced" if key not in got else
                           f"{want[key]!r} became {got[key]!r}"
                           if key.endswith(": stderr") else "differs")
             for key in sorted(want.keys() | got.keys())
             if want.get(key) != got.get(key)]
    assert not moved, (
        "case parts that differ from the recorded digests (a change that "
        f"moves them on purpose reruns `{identity.WRITER}`):\n"
        + "\n".join(moved))


def test_every_command_exits_as_its_catalog_says(results):
    # a case's commands and a refusal's setup exit 0, a refusal exits 2
    wrong = []
    for name, result in results.items():
        want = [0] * len(result.codes)
        if name in identity.REFUSALS:
            want[-1] = 2
        wrong += [f"{name}: command {k} exited {code}, not {ok}: "
                  f"{err.strip()}"
                  for k, (code, ok, err) in enumerate(
                      zip(result.codes, want, result.errors)) if code != ok]
    assert not wrong, "\n".join(wrong)


def test_each_experiment_gives_the_same_bytes_at_one_and_two_workers(results):
    pairs = [name[:-3] for name in identity.CASES if name.endswith("_w1")]
    assert len(pairs) == len(identity.EXPERIMENTS)
    differ = [name for name in pairs
              if results[name + "_w1"].digests != results[name + "_w2"].digests]
    assert not differ, f"these experiments differ between 1 and 2 workers: {differ}"
