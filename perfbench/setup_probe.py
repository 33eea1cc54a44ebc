"""Time one fresh interpreter's set-up for a workload.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the seconds from just before ``import freqboot`` to the end of one
warm-up unit: the import, config resolution, input generation and the
first-call caches (frequency grids, circulant spectra, KDE smoother
pieces).  run.py starts it with the BLAS thread cap in its environment.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    t0 = time.perf_counter()
    import workloads  # imports freqboot
    wl = workloads.WORKLOADS[name]()
    with workloads.scratch_dir(ROOT) as scratch:
        wl.warm_up(seed, scratch)
        elapsed = time.perf_counter() - t0
    print(repr(elapsed))
