"""How often criterion 6's KS clause fails at p <= 0.01, against N(0, 1)
and against the fixture's exact law.

    python3 tools/clt_reference.py [--exact 200] [--seeds 40] [--fixture TAG|all]

Criterion 6 (``tests/test_acceptance.py``) draws 100,000 FDWB replicates
per fixture and asks that their KS test against the fixture's exact law
give p > 0.01.  It compared draws / sqrt(Var*) with N(0, 1) before, and
the rates this tool measures are why it no longer does.  For the fixture
named (default ``flat-64x64/one``, read from the test module's
``_fixtures``) this tool takes samples of that size two ways:

- exact draws: sum_j a_j (U_j - 1) with the a_j of ``tests/exact_law.py``
  and numpy's default generator, seeds 0, 1, ...; the weights of equal
  coefficients are summed as one Gamma draw;
- today's ``fdwb_draws`` at master seeds 1, 2, ... (the test reads 99).

Each sample gets the KS against N(0, 1) and the test's KS against the
fixture's exact law; the tool prints how many samples give p <= 0.01
under each reference.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np
import scipy.stats as st

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from freqboot.bootstrap import fdwb_draws, fdwb_variance  # noqa: E402

import test_acceptance as acc  # noqa: E402
from exact_law import fdwb_law  # noqa: E402

SIZE = 100000     # the test's draws per fixture
ALPHA = 0.01      # the test's bound on the KS p-value


def exact_sample(law, seed: int) -> np.ndarray:
    """SIZE draws of the law itself, in blocks of rows."""
    values, counts = np.unique(law.a, return_counts=True)
    gen = np.random.default_rng(seed)
    rows = max(1, (1 << 22) // values.size)
    out = np.empty(SIZE)
    for start in range(0, SIZE, rows):
        g = gen.standard_gamma(counts, size=(min(rows, SIZE - start), values.size))
        out[start:start + g.shape[0]] = (g - counts) @ values
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--exact", type=int, default=200,
                        help="samples of exact draws")
    parser.add_argument("--seeds", type=int, default=40,
                        help="master seeds of fdwb_draws")
    parser.add_argument("--fixture", default="flat-64x64/one",
                        help="a criterion-6 fixture tag, or all")
    args = parser.parse_args(argv)
    fixtures = [f for f in acc._fixtures() if args.fixture in (f[0], "all")]
    if not fixtures or args.exact < 0 or args.seeds < 0:
        parser.error(f"no fixture {args.fixture!r}, or a negative count")
    seeds = [s for s in range(1, args.seeds + 2) if s != acc.CLT_SEED][:args.seeds]
    for tag, fhat, psi in fixtures:
        law = fdwb_law(fhat, psi)
        sd = np.sqrt(fdwb_variance(fhat, psi))
        samples = {"exact draws": (exact_sample(law, s) for s in range(args.exact)),
                   "fdwb_draws": (fdwb_draws(fhat, psi, SIZE, master_seed=s)
                                  for s in seeds)}
        for source, draws in samples.items():
            normal = exact = count = 0
            for d in draws:
                normal += st.kstest(d / sd, "norm").pvalue <= ALPHA
                exact += st.kstest(d, law.cdf).pvalue <= ALPHA
                count += 1
            print(f"{tag} {source} ({count} samples): p <= {ALPHA} against "
                  f"N(0, 1) {normal}/{count} = {normal / max(count, 1):.3f}, "
                  f"against the exact law {exact}/{count} = "
                  f"{exact / max(count, 1):.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
