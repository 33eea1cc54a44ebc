"""Acceptance suite.

Reproduces the reference numerical studies at desk scale and audits the
exact identities the implementation promises. Every test prints one
``ACCEPTANCE <id> <PASS|FAIL>`` line with its measured values (run with
``-s`` or ``-rA`` to see them for passing tests).

Two tests encode targets this implementation demonstrably cannot attain
and are expected to fail; their docstrings carry the blocking analysis.

The fixtures' runs and criteria 5 and 6 take their master seed as an
argument, and each verdict carries its measured values by name, so that
``tools/acceptance_spread.py`` runs these same tests at other seeds.
"""

import math
import time

import numpy as np
import pytest
import scipy.stats as st

import freqboot as fb
from freqboot import rng as rngmod
from freqboot.bootstrap import (_hybrid_rescale, bootstrap_distribution,
                                fdwb_draws, fdwb_variance)
from freqboot.cli import (ExperimentConfig, emit_report,
                          run_coverage_experiment, run_isotropy_experiment)
from freqboot.density import kernel_density_estimate
from freqboot.simulate import SeparableARMA, SphericalAniso, matern_model

from exact_law import fdwb_law

MASTER_SEED = 20260808
CLT_SEED = 99       # criterion 6's bootstrap draws
WORKERS = 2


def _verdict(tag, ok, detail, **values):
    """Print the ACCEPTANCE line; ``values`` are the measured numbers it
    reports, by name, for the seed-spread tool."""
    print(f"ACCEPTANCE {tag} {'PASS' if ok else 'FAIL'}: {detail}")


def _row(report, **keys):
    rows = [r for r in report.summary
            if all(r[k] == v for k, v in keys.items())]
    assert len(rows) == 1, f"no unique cell for {keys}"
    return rows[0]


def _cell(report, **keys):
    return _row(report, **keys)["proportion"]


def _margin(report, lo=-math.inf, hi=math.inf, **keys):
    """The Monte Carlo se of the summary row at ``keys`` and the distance
    of its proportion to the nearer of the bounds ``lo`` and ``hi``, in
    se: positive inside, negative outside."""
    row = _row(report, **keys)
    p, se = row["proportion"], row["mc_se"]
    d = min(p - lo, hi - p)
    return se, d / se if se > 0 else math.copysign(math.inf, d)


def _se_text(se, margin):
    side = "inside" if margin >= 0 else "outside"
    return f"se {se:.4f}, {abs(margin):.1f} se {side} the bound"


def run_table1(seed):
    cfg = ExperimentConfig(
        kind="isotropy", model=SphericalAniso(sigma2=1.0, range_=5.0),
        generator="default", sizes=((50, 50),),
        psi_name="iso_contrast{h1=(1,0),h2=(0,1)}", blocks=((9, 9),),
        methods=("fdwb", "hfdb", "subsample"), level=0.9, test_level=0.1,
        replicates=500, B=500, master_seed=seed, workers=WORKERS,
        bandwidth=None, tau_r_list=(1.0, 1.2, 1.4, 1.5), h1=(1, 0),
        h2=(0, 1), plus_one=False, truth=None)
    start = time.time()
    report = run_isotropy_experiment(cfg)
    return report, time.time() - start


def run_table2(seed):
    cfg = ExperimentConfig(
        kind="isotropy", model=matern_model(1.0 / 3.0, 1.0),
        generator="exp_cholesky", sizes=((50, 50),),
        psi_name="iso_contrast{h1=(1,0),h2=(0,1)}", blocks=((5, 5),),
        methods=("fdwb", "hfdb", "subsample"), level=0.9, test_level=0.1,
        replicates=500, B=500, master_seed=seed, workers=WORKERS,
        bandwidth=None, tau_r_list=(1.0,), h1=(1, 0), h2=(0, 1),
        plus_one=False, truth=None)
    return run_isotropy_experiment(cfg)


def run_separable_coverage(seed):
    cfg = ExperimentConfig(
        kind="coverage",
        model=SeparableARMA(0.2, -0.7, "exponential_centered",
                            "exponential_centered"),
        generator="default", sizes=((50, 50),), psi_name="cos_lag{h=(1,0)}",
        blocks=tuple((b, b) for b in range(4, 16)),
        methods=("fdwb", "hfdb_bias"), level=0.9, test_level=0.1,
        replicates=500, B=500, master_seed=seed, workers=WORKERS,
        bandwidth=None, tau_r_list=(1.0,), h1=(1, 0), h2=(0, 1),
        plus_one=False, truth=None)
    return run_coverage_experiment(cfg)


@pytest.fixture(scope="module")
def table1():
    return run_table1(MASTER_SEED)


@pytest.fixture(scope="module")
def table2():
    return run_table2(MASTER_SEED)


@pytest.fixture(scope="module")
def separable_coverage():
    return run_separable_coverage(MASTER_SEED)


# -------------------------------------------------------------------------
# 1. isotropy test size, Gaussian spherical design

def test_criterion_1_fdwb_size(table1):
    report, elapsed = table1
    p = _cell(report, method="fdwb", tau_r=1.0)
    se, margin = _margin(report, 0.058, 0.148, method="fdwb", tau_r=1.0)
    ok = 0.058 <= p <= 0.148 and elapsed <= 900.0
    _verdict("1/FDWB-size", ok,
             f"rejection {p:.3f} in [0.058, 0.148] ({_se_text(se, margin)}), "
             f"wall {elapsed:.0f}s <= 900s",
             rejection=p, se=se, margin_se=margin)
    assert 0.058 <= p <= 0.148
    assert elapsed <= 900.0


def test_criterion_1_hfdb_size(table1):
    """HFDB size at tau_R = 1 (expected to fail).

    At 9x9 blocks on a range-5 Gaussian field the overall subsampling
    variance estimator is wrap-around inflated (4.7 at block scale vs 2.3
    for the full-sample statistic) while the first-component estimator is
    not inflated equally, so the hybrid correction adds a spurious +1.7,
    the draws come out overwide, and the rejection rate drops to ~0.04.
    The same correction formula is exactly what fixes the non-Gaussian
    design in criterion 3, so it is kept as defined and this clause fails
    honestly.
    """
    report, _ = table1
    p = _cell(report, method="hfdb", tau_r=1.0)
    se, margin = _margin(report, 0.058, 0.148, method="hfdb", tau_r=1.0)
    _verdict("1/HFDB-size", 0.058 <= p <= 0.148,
             f"rejection {p:.3f} vs [0.058, 0.148] ({_se_text(se, margin)})",
             rejection=p, se=se, margin_se=margin)
    assert 0.058 <= p <= 0.148


def test_criterion_1_subsampling_size(table1):
    report, _ = table1
    p = _cell(report, method="subsample", tau_r=1.0)
    se, margin = _margin(report, 0.039, 0.129, method="subsample", tau_r=1.0)
    _verdict("1/subsampling-size", 0.039 <= p <= 0.129,
             f"rejection {p:.3f} in [0.039, 0.129] ({_se_text(se, margin)})",
             rejection=p, se=se, margin_se=margin)
    assert 0.039 <= p <= 0.129


# -------------------------------------------------------------------------
# 2. power trend

def test_criterion_2_hfdb_power_trend(table1):
    report, _ = table1
    rates = [_cell(report, method="hfdb", tau_r=t)
             for t in (1.0, 1.2, 1.4, 1.5)]
    nondecreasing = all(a <= b for a, b in zip(rates, rates[1:]))
    ok = nondecreasing and rates[-1] >= 0.95
    se, margin = _margin(report, 0.95, method="hfdb", tau_r=1.5)
    _verdict("2/power-trend", ok,
             "hfdb rejection over tau_R {1,1.2,1.4,1.5} = "
             + ", ".join(f"{r:.3f}" for r in rates)
             + f" (tau_R 1.5 >= 0.95: {_se_text(se, margin)})",
             **{f"tau_r={t}": r for t, r in zip((1.0, 1.2, 1.4, 1.5), rates)},
             se=se, margin_se=margin)
    assert nondecreasing
    assert rates[-1] >= 0.95


# -------------------------------------------------------------------------
# 3. non-Gaussian size: wild bootstrap invalid, hybrid and subsampling valid

def test_criterion_3_fdwb_invalidity(table2):
    p = _cell(table2, method="fdwb", tau_r=1.0)
    se, margin = _margin(table2, 0.18, method="fdwb", tau_r=1.0)
    _verdict("3/FDWB-invalid", p > 0.18,
             f"rejection {p:.3f} > 0.18 ({_se_text(se, margin)})",
             rejection=p, se=se, margin_se=margin)
    assert p > 0.18


def test_criterion_3_hfdb_size(table2):
    p = _cell(table2, method="hfdb", tau_r=1.0)
    se, margin = _margin(table2, 0.055, 0.145, method="hfdb", tau_r=1.0)
    _verdict("3/HFDB-size", 0.055 <= p <= 0.145,
             f"rejection {p:.3f} in [0.055, 0.145] ({_se_text(se, margin)})",
             rejection=p, se=se, margin_se=margin)
    assert 0.055 <= p <= 0.145


def test_criterion_3_subsampling_size(table2):
    p = _cell(table2, method="subsample", tau_r=1.0)
    se, margin = _margin(table2, 0.033, 0.123, method="subsample", tau_r=1.0)
    _verdict("3/subsampling-size", 0.033 <= p <= 0.123,
             f"rejection {p:.3f} in [0.033, 0.123] ({_se_text(se, margin)})",
             rejection=p, se=se, margin_se=margin)
    assert 0.033 <= p <= 0.123


# -------------------------------------------------------------------------
# 4. separable product process coverage

def test_criterion_4_hfdb_bias_coverage(separable_coverage):
    """Bias-corrected hybrid coverage bracket (expected to fail).

    The separable product field Z(i,j) = X_i Y_j has a divergent
    spectral-mean statistic: sqrt(n)(Mhat - gamma) carries the row and
    column factor fluctuations at rate n^(1/4), so its variance at 50x50
    is ~213 against a first-component value of 4.2. Block corrections
    from the n^(1/4) candidate set capture only a small part of that
    spread (measured coverage ceiling ~0.44 at the largest candidate);
    closing the gap would need blocks of order 40x40 on a 50x50 grid.
    The bracket below is therefore unattainable for this design and the
    assertion fails honestly.
    """
    best_b, best = None, -1.0
    for b in range(4, 16):
        c = _cell(separable_coverage, method="hfdb_bias", b1=b)
        if c > best:
            best_b, best = b, c
    se, margin = _margin(separable_coverage, 0.82, 0.95, method="hfdb_bias",
                         b1=best_b)
    _verdict("4/hfdb-bias-coverage", 0.82 <= best <= 0.95,
             f"best coverage {best:.3f} at block {best_b} vs [0.82, 0.95] "
             f"({_se_text(se, margin)})",
             best=best, block=best_b, se=se, margin_se=margin)
    assert any(0.82 <= _cell(separable_coverage, method="hfdb_bias", b1=b) <= 0.95
               for b in range(4, 16))


def test_criterion_4_fdwb_undercoverage_gap(separable_coverage):
    # the wild bootstrap must undercover by at least 0.08 relative to the
    # hybrid at the hybrid's best block size
    fdwb = _cell(separable_coverage, method="fdwb", b1=4)
    best = max(_cell(separable_coverage, method="hfdb_bias", b1=b)
               for b in range(4, 16))
    # the fdwb row's se, against its bound best - 0.08
    se, margin = _margin(separable_coverage, hi=best - 0.08, method="fdwb",
                         b1=4)
    _verdict("4/FDWB-gap", fdwb <= best - 0.08,
             f"fdwb coverage {fdwb:.3f} <= best hfdb_bias {best:.3f} - 0.08 "
             f"({_se_text(se, margin)})",
             fdwb=fdwb, gap=best - fdwb, se=se, margin_se=margin)
    assert fdwb <= best - 0.08


# -------------------------------------------------------------------------
# 5. variance estimator consistency ladder

def test_criterion_5_variance_ladder(seed=MASTER_SEED):
    psi = fb.psi_cos_lag((1, 0))
    med1, med2 = [], []
    for n, b in ((32, 6), (48, 7), (64, 8)):
        e1, e2 = [], []
        for i in range(200):
            f = fb.simulate_gaussian(fb.WhiteNoise(1.0), n, n,
                                     rngmod.stream(seed, rngmod.TAG_ORACLE,
                                                   i, n))
            est = fb.variance_estimates(
                fb.subsample_ensemble(f, fb.BlockSpec(b, b), psi))
            e1.append(abs(est.sigma1_sq_hat - 1.0))
            e2.append(abs(est.sigma2_sq_hat))
        med1.append(float(np.median(e1)))
        med2.append(float(np.median(e2)))
    ok = (med1[0] > med1[1] > med1[2] and med2[0] > med2[1] > med2[2]
          and med1[2] <= 0.15 and med2[2] <= 0.15)
    _verdict("5/variance-ladder", ok,
             "med|s1-1| = " + ", ".join(f"{m:.3f}" for m in med1)
             + "; med|s2| = " + ", ".join(f"{m:.3f}" for m in med2),
             **{f"med|s1-1|@{n}": m for n, m in zip((32, 48, 64), med1)},
             **{f"med|s2|@{n}": m for n, m in zip((32, 48, 64), med2)})
    assert med1[0] > med1[1] > med1[2]
    assert med2[0] > med2[1] > med2[2]
    assert med1[2] <= 0.15 and med2[2] <= 0.15


# -------------------------------------------------------------------------
# 6. bootstrap variance formula and conditional CLT

def _fixtures():
    sep = SeparableARMA(0.2, -0.7, "gaussian", "gaussian")
    g1 = fb.build_frequency_grid(64, 63)
    f1 = fb.model_spectral_density(sep, g1.omega1[:, None], g1.omega2[None, :])
    yield ("separable-64x63/cos", fb.SpectralDensityEstimate(
        grid=g1, values=f1, bandwidth=(1.0, 1.0)), fb.psi_cos_lag((1, 0)))

    wn = fb.simulate_gaussian(fb.WhiteNoise(1.0), 48, 47,
                              rngmod.stream(62, rngmod.TAG_FIELD, 0))
    yield ("smoothed-48x47/iso", kernel_density_estimate(fb.periodogram(wn)),
           fb.psi_isotropy_contrast((1, 0), (0, 1)))

    g3 = fb.build_frequency_grid(64, 64)
    yield ("flat-64x64/one", fb.SpectralDensityEstimate(
        grid=g3, values=np.full((64, 64), (2 * np.pi) ** -2),
        bandwidth=(1.0, 1.0)), fb.psi_cos_lag((0, 0)))


def test_criterion_6_var_star_and_clt(seed=CLT_SEED):
    """Var* is the draws' variance, and the draws follow their fixture's
    exact law (``exact_law.fdwb_law``).  The KS reference is that law,
    not N(0, 1): at 100,000 draws a KS test against N(0, 1) sees the
    finite-m skew of the weighted exponentials, and exact-law draws fail
    it at p <= 0.01 in 238/1000 samples on the flat fixture and 33/60 on
    the separable one (``tools/clt_reference.py``)."""
    details = []
    ok = True
    measured = []
    values = {}
    for tag, fhat, psi in _fixtures():
        var_star = fdwb_variance(fhat, psi)
        draws = fdwb_draws(fhat, psi, 100000, master_seed=seed)
        rel = abs(draws.var() - var_star) / var_star
        _, pval = st.kstest(draws, fdwb_law(fhat, psi).cdf)
        details.append(f"{tag}: var rel err {rel:.4f}, KS p {pval:.3f}")
        ok = ok and rel <= 0.02 and pval > 0.01
        measured.append((tag, rel, pval))
        values.update({f"{tag} rel": rel, f"{tag} KS p": pval})
    _verdict("6/var-star-clt", ok, "; ".join(details), **values)
    for tag, rel, pval in measured:
        assert rel <= 0.02, tag
        assert pval > 0.01, tag


# -------------------------------------------------------------------------
# 7. exact identities

def test_criterion_7_exact_identities(rng):
    psi = fb.psi_cos_lag((1, 0))
    checks = []

    # Parseval at 1e-8 relative for random fields up to 64x64
    parseval_ok = True
    for shape in [(8, 8), (17, 13), (64, 64)]:
        vals = rng.standard_normal(shape)
        f = fb.LatticeField(vals)
        pg = fb.periodogram(f)
        lhs = (2 * np.pi) ** 2 / f.n * (np.sum(pg.values) - pg.values[0, 0])
        rhs = np.mean(vals ** 2) - np.mean(vals) ** 2
        parseval_ok &= abs(lhs - rhs) <= 1e-8 * abs(rhs)
    checks.append(("parseval", parseval_ok))

    field = fb.simulate_gaussian(fb.WhiteNoise(1.0), 24, 24,
                                 rngmod.stream(71, rngmod.TAG_FIELD, 0))
    spec = fb.BlockSpec(5, 5)

    # scaling audit is exact as recorded
    d = bootstrap_distribution(field, psi, spec, 200, "hfdb", 72)
    checks.append(("var-audit",
                   d.recorded_total_var == d.var_star + d.sigma2_floored))

    # variance decomposition pre-floor is the defining difference
    est = fb.variance_estimates(fb.subsample_ensemble(field, spec, psi))
    checks.append(("decomposition",
                   est.sigma2_sq_hat == est.sigma_sq_hat - est.sigma1_sq_hat
                   and abs(est.sigma1_sq_hat + est.sigma2_sq_hat
                           - est.sigma_sq_hat)
                   <= 1e-12 * abs(est.sigma_sq_hat)))

    # hybrid degenerates to the wild bootstrap bit-exactly at zero: the
    # one rescale hfdb draws go through returns the fdwb draws unchanged
    d_f = bootstrap_distribution(field, psi, None, 200, "fdwb", 73)
    d_h = bootstrap_distribution(field, psi, spec, 200, "hfdb", 73)
    checks.append(("hfdb-degenerate", np.array_equal(
        _hybrid_rescale(d_f.values, d_f.var_star, 0.0), d_f.values)
        and np.array_equal(d_h.values, _hybrid_rescale(
            d_f.values, d_f.var_star, d_h.sigma2_floored))))

    # bias correction is a bit-exact constant shift
    d_p = bootstrap_distribution(field, psi, spec, 200, "hfdb", 74)
    d_b = bootstrap_distribution(field, psi, spec, 200, "hfdb_bias", 74)
    checks.append(("bias-shift",
                   np.array_equal(d_b.values, d_p.values + d_b.bias_sub)))

    ok = all(flag for _, flag in checks)
    _verdict("7/exact-identities", ok,
             ", ".join(f"{name}={'ok' if flag else 'BROKEN'}"
                       for name, flag in checks))
    assert ok


# -------------------------------------------------------------------------
# 8. determinism across worker counts

def test_criterion_8_worker_determinism(tmp_path):
    def run(kind, workers):
        if kind == "coverage":
            cfg = ExperimentConfig(
                kind="coverage", model=fb.WhiteNoise(1.0), generator="default",
                sizes=((16, 16),), psi_name="cos_lag{h=(1,0)}",
                blocks=((4, 4),), methods=("fdwb", "hfdb", "subsample"),
                level=0.9, test_level=0.1, replicates=20, B=150,
                master_seed=MASTER_SEED, workers=workers, bandwidth=None,
                tau_r_list=(1.0,), h1=(1, 0), h2=(0, 1), plus_one=False,
                truth=None)
            return run_coverage_experiment(cfg)
        cfg = ExperimentConfig(
            kind="isotropy", model=SphericalAniso(sigma2=1.0, range_=3.0),
            generator="default", sizes=((16, 16),),
            psi_name="iso_contrast{h1=(1,0),h2=(0,1)}", blocks=((4, 4),),
            methods=("fdwb", "hfdb", "subsample"), level=0.9,
            test_level=0.1, replicates=10, B=150, master_seed=MASTER_SEED,
            workers=workers, bandwidth=None, tau_r_list=(1.0, 1.2),
            h1=(1, 0), h2=(0, 1), plus_one=False, truth=None)
        return run_isotropy_experiment(cfg)

    ok = True
    for kind in ("coverage", "isotropy"):
        paths = {}
        for workers in (1, 3):
            out = tmp_path / f"{kind}_w{workers}"
            emit_report(run(kind, workers), str(out), "both")
            paths[workers] = out
        for suffix in ("_summary.csv", "_replicates.csv", ".json"):
            a = (tmp_path / (paths[1].name + suffix)).read_bytes()
            b = (tmp_path / (paths[3].name + suffix)).read_bytes()
            ok &= a == b
    _verdict("8/determinism", ok,
             "coverage and isotropy reports byte-identical for 1 vs 3 workers")
    assert ok
