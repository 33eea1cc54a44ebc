"""Seed-to-seed spread of the acceptance criteria.

    python3 tools/acceptance_spread.py [-k 20] [--first 1] [--criteria 1,2,3,4,5,6]

Runs the test functions of criteria 1 to 6 in ``tests/test_acceptance.py``
at the K master seeds first, first + 1, ..., none of which may be a seed
the tests use (20260808, and 99 for criterion 6's draws).  At each seed
the module's own runs make the fixtures the tests ask for (``table1``,
``table2``, ``separable_coverage``), and criteria 5 and 6 take the seed
as their argument; so the configurations, the criteria and their bounds
are the tests', read from that module and never copied.  A test passes
at a seed when its assertions hold; its values are the numbers its
ACCEPTANCE line reports.

It prints each test's values and verdict at each seed as it goes, then,
per test, the quantiles of each value over the seeds and the fraction of
seeds at which it passed.  Criteria 7 and 8 are exact identities and
determinism, with no spread to measure.  Run from the root of a
checkout; the package is imported from ``src``.  One seed of all six
criteria took 30-41 s on two vCPUs.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import time
from unittest.mock import patch

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import test_acceptance as acc  # noqa: E402

FIXTURES = {"table1": acc.run_table1, "table2": acc.run_table2,
            "separable_coverage": acc.run_separable_coverage}
QUANTILES = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)


def criterion_tests(criteria):
    """The (name, function) of every test of ``criteria``, in file order."""
    return [(name, fn) for name, fn in vars(acc).items()
            if name.startswith("test_criterion_")
            and int(name.split("_")[2]) in criteria]


def run_seed(seed, tests):
    """{test name: (passed, values)} at master seed ``seed``."""
    fixtures, results = {}, {}
    for name, fn in tests:
        kwargs = {}
        for p in inspect.signature(fn).parameters.values():
            if p.default is not inspect.Parameter.empty:
                kwargs[p.name] = seed
                continue
            if p.name not in fixtures:
                fixtures[p.name] = FIXTURES[p.name](seed)
            kwargs[p.name] = fixtures[p.name]
        values = {}
        with patch.object(acc, "_verdict",
                          lambda tag, ok, detail, **v: values.update(v)):
            try:
                fn(**kwargs)
                passed = True
            except AssertionError:
                passed = False
        results[name] = (passed, values)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-k", type=int, default=20, help="number of seeds")
    parser.add_argument("--first", type=int, default=1, help="first seed")
    parser.add_argument("--criteria", default="1,2,3,4,5,6",
                        help="comma list of criteria among 1..6")
    args = parser.parse_args(argv)
    seeds = list(range(args.first, args.first + args.k))
    criteria = {int(c) for c in args.criteria.split(",")}
    if args.k < 1 or not criteria <= set(range(1, 7)):
        parser.error("need k >= 1 and criteria among 1..6")
    if {acc.MASTER_SEED, acc.CLT_SEED} & set(seeds):
        parser.error(f"the seeds must differ from the tests' own, "
                     f"{acc.MASTER_SEED} and {acc.CLT_SEED}")
    tests = criterion_tests(criteria)
    runs = {}
    for seed in seeds:
        start = time.time()
        runs[seed] = run_seed(seed, tests)
        print(f"seed {seed} ({time.time() - start:.0f} s)", flush=True)
        for name, (passed, values) in runs[seed].items():
            shown = ", ".join(f"{k} {v:.4g}" for k, v in values.items())
            print(f"  {name} {'PASS' if passed else 'FAIL'}: {shown}",
                  flush=True)
    print(f"\nover {len(seeds)} seeds {seeds[0]}..{seeds[-1]}; quantiles "
          + " ".join(f"{q:g}" for q in QUANTILES))
    for name, _ in tests:
        passes = sum(runs[s][name][0] for s in seeds)
        print(f"{name}: passed {passes}/{len(seeds)} = {passes / len(seeds):.2f}")
        for key in runs[seeds[0]][name][1]:
            vals = np.array([runs[s][name][1][key] for s in seeds])
            print(f"  {key}: " + " ".join(
                f"{v:.4g}" for v in np.quantile(vals, QUANTILES)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
