"""Configuration parsing, experiment drivers, report emission, CLI."""

import dataclasses
import json
import os
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from freqboot import FieldResampler, LatticeField, load_field_csv
from freqboot import cli as cli_module
from freqboot.cli import (ExperimentConfig, ExperimentReport, Settings,
                          _chunk, emit_report, experiment_config, main,
                          parse_config_file, report_to_json,
                          run_coverage_experiment, run_isotropy_experiment,
                          true_spectral_mean)
from freqboot.errors import ConfigError
from freqboot.infer import resampled_interval
from freqboot.spectral import psi_cos_lag
from freqboot.simulate import (SeparableARMA, SphericalAniso, WhiteNoise,
                               matern_model, model_autocovariance)


def _cfg(**over):
    """A small config; an isotropy one names the contrast of its lags."""
    if over.get("kind") == "isotropy":
        over.setdefault("psi_name", "iso_contrast{h1=(1,0),h2=(0,1)}")
    base = dict(kind="coverage", model=WhiteNoise(1.0), generator="default",
                sizes=((16, 16),), psi_name="cos_lag{h=(1,0)}",
                blocks=((4, 4),), methods=("fdwb", "subsample"), level=0.9,
                test_level=0.1, replicates=4, B=120, master_seed=3, workers=1,
                bandwidth=None, tau_r_list=(1.0,), h1=(1, 0), h2=(0, 1),
                plus_one=False, truth=None)
    base.update(over)
    return ExperimentConfig(**base)


def _field(tmp_path) -> str:
    """A 20x20 spherical field written by the simulate command."""
    path = tmp_path / "f.csv"
    assert main(["--set", "process.kind=spherical", "--set", "grid.sizes=20x20",
                 "--seed", "5", "--out", str(path), "simulate"]) == 0
    return str(path)


def _oracle_fixture(tmp_path, edit):
    """A white-noise 12x12 cos_lag (1,0) fixture written by the oracle
    command, with the fields of ``edit`` overwritten."""
    path = tmp_path / "oracle.json"
    assert main(["--set", "process.kind=white_noise", "--set", "grid.sizes=12x12",
                 "--set", "replicates=5", "--out", str(path), "oracle"]) == 0
    path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
    return path


class TestConfigParsing:
    def test_file_grammar(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("# comment\nseed = 7\n\nprocess.kind=white_noise # trail\n")
        vals = parse_config_file(p)
        assert vals == {"seed": "7", "process.kind": "white_noise"}

    def test_file_diagnostics_carry_line(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("seed : 7\n")
        with pytest.raises(ConfigError, match="bad.cfg:1"):
            parse_config_file(p)

    def test_typed_getters_report_key(self):
        st = Settings({"boot.B": "many"})
        with pytest.raises(ConfigError, match="boot.B"):
            st.get_int("boot.B")
        st = Settings({"grid.sizes": "50x50,30x30"})
        assert st.get_sizes("grid.sizes") == ((50, 50), (30, 30))
        assert Settings({"test.h1": "(1,0)"}).get_pair("test.h1") == (1, 0)

    def test_experiment_config_validation(self):
        with pytest.raises(ConfigError):
            _cfg(replicates=0)
        with pytest.raises(ConfigError):
            _cfg(methods=("wild",))
        with pytest.raises(ConfigError):
            _cfg(B=50)  # bootstrap methods need B >= 100
        with pytest.raises(ConfigError):
            _cfg(blocks=((20, 20),))  # does not fit 16x16
        with pytest.raises(ConfigError, match="tau_r_list"):
            _cfg(kind="isotropy", model=SphericalAniso(sigma2=1.0, range_=3.0),
                 tau_r_list=())
        cfg = _cfg(methods=("subsample",), B=10)  # B unused without bootstrap
        assert cfg.B == 10

    @pytest.mark.parametrize("over", [
        dict(blocks=((1, 1),), methods=("fdwb", "hfdb")),
        dict(blocks=((4, 4), (16, 16)), methods=("fdwb", "subsample")),
        dict(blocks=((16, 16),), methods=("subsample",), kind="isotropy"),
        dict(blocks=((17, 4),), methods=("hfdb",)),
    ])
    def test_unusable_blocks_name_the_key(self, over):
        # a 1x1 block, or one translate for a subsample method, would be
        # refused only inside the first replicate
        with pytest.raises(ConfigError, match="block.sizes"):
            _cfg(**over)

    def test_hybrid_methods_take_a_single_translate(self):
        assert _cfg(blocks=((16, 16),), methods=("hfdb",)).blocks == ((16, 16),)

    @pytest.mark.parametrize("settings", [
        ["block.sizes=1x1", "methods=fdwb,hfdb"],
        ["block.sizes=12x12", "methods=subsample"],
        ["block.sizes=10x10", "methods=fdwb", "grid.sizes=12x12,8x8"],
    ])
    def test_unusable_blocks_exit_2_before_a_replicate(self, tmp_path, capsys,
                                                       monkeypatch, settings):
        def no_field(*args, **kwargs):
            pytest.fail("a replicate ran")
        monkeypatch.setattr(cli_module, "simulate_process", no_field)
        args = ["--set", "grid.sizes=12x12", "--set", "replicates=2"]
        for kv in settings:
            args += ["--set", kv]
        assert main(args + ["--out", str(tmp_path / "r"), "coverage"]) == 2
        assert "block.sizes" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["coverage", "isotropy-experiment"])
    def test_report_format_checked_before_a_replicate(self, tmp_path, capsys,
                                                      monkeypatch, command):
        def no_field(*args, **kwargs):
            pytest.fail("a replicate ran")
        monkeypatch.setattr(cli_module, "simulate_process", no_field)
        assert main(["--set", "grid.sizes=12x12", "--set", "block.sizes=4x4",
                     "--set", "replicates=2", "--format", "parquet",
                     "--out", str(tmp_path / "r"), command]) == 2
        assert "format" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_checked_on_directly_built_config(self, workers):
        with pytest.raises(ConfigError, match="workers"):
            _cfg(workers=workers)

    def test_exp_cholesky_rejects_anisotropy(self):
        st = Settings({"process.kind": "exp_cholesky",
                       "process.tau_r_list": "1.0,1.5",
                       "block.sizes": "5x5"})
        with pytest.raises(ConfigError, match="tau_r"):
            experiment_config(st, "isotropy", 0, 1)

    @pytest.mark.parametrize("kind", ["white_noise", "matern", "separable",
                                      "matern_quartic", "exp_cholesky"])
    @pytest.mark.parametrize("key", ["process.tau_r_list", "process.tau_r"])
    def test_tau_needs_spherical_process(self, kind, key):
        # tau only deforms SphericalAniso; on any other model a tau != 1
        # row would be an isotropic field under an anisotropic label
        value = "1.0,1.5" if key.endswith("_list") else "1.5"
        st = Settings({"process.kind": kind, key: value,
                       "block.sizes": "5x5"})
        with pytest.raises(ConfigError, match=re.escape(key)):
            experiment_config(st, "isotropy", 0, 1)
        ok = Settings({"process.kind": kind, key: "1.0",
                       "block.sizes": "5x5"})
        assert experiment_config(ok, "isotropy", 0, 1).tau_r_list == (1.0,)

    def test_tau_list_on_spherical_process(self):
        st = Settings({"process.kind": "spherical",
                       "process.tau_r_list": "1.0,1.5",
                       "block.sizes": "5x5"})
        assert experiment_config(st, "isotropy", 0, 1).tau_r_list == (1.0, 1.5)

    def test_tau_on_isotropic_process_exits_2(self, tmp_path, capsys):
        code = main(["--set", "process.kind=matern",
                     "--set", "process.tau_r_list=1.0,1.5",
                     "--set", "block.sizes=5x5",
                     "--set", "replicates=1", "--out", str(tmp_path / "r"),
                     "isotropy-experiment"])
        assert code == 2
        assert "process.tau_r_list" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_tau_on_directly_built_config(self):
        # the library path builds ExperimentConfig without experiment_config
        with pytest.raises(ConfigError, match="tau_r"):
            _cfg(kind="isotropy", model=matern_model(1.0 / 3.0, 1.0),
                 tau_r_list=(1.0, 1.5))
        assert _cfg(kind="isotropy", model=matern_model(1.0 / 3.0, 1.0),
                    tau_r_list=(1.0,)).tau_r_list == (1.0,)

    @pytest.mark.parametrize("kind, tau_r, tau_r_list", [
        ("spherical", None, "1.5"),
        ("spherical", "1.2", "1.0"),
        ("spherical", None, "1.0,1.0"),
        ("white_noise", None, "1.0,1.0"),
    ])
    def test_coverage_runs_only_the_model_tau(self, tmp_path, capsys, kind,
                                              tau_r, tau_r_list):
        # coverage simulates the model as built; a list naming any other
        # tau would label fields it never simulates
        args = ["--set", f"process.kind={kind}",
                "--set", f"process.tau_r_list={tau_r_list}",
                "--set", "grid.sizes=12x12", "--set", "block.sizes=4x4",
                "--set", "replicates=1",
                "--out", str(tmp_path / "r")]
        if tau_r is not None:
            args += ["--set", f"process.tau_r={tau_r}"]
        assert main(args + ["coverage"]) == 2
        assert "process.tau_r_list" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_coverage_tau_on_directly_built_config(self):
        with pytest.raises(ConfigError, match="tau_r_list"):
            _cfg(model=SphericalAniso(sigma2=1.0, range_=3.0), tau_r_list=(1.5,))
        with pytest.raises(ConfigError, match="tau_r_list"):
            _cfg(tau_r_list=(1.0, 1.0))
        model = SphericalAniso(sigma2=1.0, range_=3.0, tau_r=1.5)
        assert _cfg(model=model, tau_r_list=(1.5,)).tau_r_list == (1.5,)
        st = Settings({"process.kind": "spherical", "process.tau_r": "1.5",
                       "block.sizes": "4x4"})
        assert experiment_config(st, "coverage", 0, 1).tau_r_list == (1.5,)

    @pytest.mark.parametrize("command, key, value", [
        ("coverage", "ci.level", "0.4"),
        ("isotropy-experiment", "test.level", "1.5"),
        ("isotropy-experiment", "test.level", "0"),
    ])
    def test_levels_checked_at_config_time(self, tmp_path, capsys, command,
                                           key, value):
        # the runner refuses what the interval and the test would refuse
        args = []
        for kv in (f"{key}={value}", "process.kind=spherical",
                   "grid.sizes=12x12", "block.sizes=4x4",
                   "replicates=1", "boot.B=100"):
            args += ["--set", kv]
        assert main(args + ["--out", str(tmp_path / "r"), command]) == 2
        assert key in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        field = {"ci.level": "level", "test.level": "test_level"}[key]
        with pytest.raises(ConfigError, match=re.escape(key)):
            _cfg(**{field: float(value)})

    def test_truth_sources(self, tmp_path):
        st = Settings({"truth.value": "0.25", "block.sizes": "4x4",
                       "grid.sizes": "12x12"})
        cfg = experiment_config(st, "coverage", 0, 1)
        assert cfg.truth == 0.25
        fixture = _oracle_fixture(tmp_path, {"value": 0.5})
        st2 = Settings({"truth.fixture": str(fixture), "block.sizes": "4x4",
                        "grid.sizes": "12x12"})
        assert experiment_config(st2, "coverage", 0, 1).truth == 0.5
        st3 = Settings({"truth.value": "1", "truth.fixture": str(fixture),
                        "block.sizes": "4x4"})
        with pytest.raises(ConfigError):
            experiment_config(st3, "coverage", 0, 1)

    @pytest.mark.parametrize("edit, settings", [
        ({"kind": "something_else"}, {}),
        ({"model": "WhiteNoise(variance=2.0)"}, {}),
        ({"generator": "exp_cholesky"}, {}),
        ({"psi": "cos_lag{h=(0,1)}"}, {}),
        ({"n1": 14}, {}),
        ({"n2": 10}, {}),
        ({}, {"grid.sizes": "12x12,14x14"}),
        ({}, {"process.variance": "2"}),
        ({}, {"psi": "cos_lag{h=(2,0)}"}),
    ])
    def test_truth_fixture_must_match_the_run(self, tmp_path, capsys, edit,
                                              settings):
        fixture = _oracle_fixture(tmp_path, edit)
        kv = {"process.kind": "white_noise", "grid.sizes": "12x12",
              "block.sizes": "4x4", "replicates": "1",
              "truth.fixture": str(fixture), **settings}
        with pytest.raises(ConfigError, match="truth.fixture"):
            experiment_config(Settings(kv), "coverage", 0, 1)
        args = [a for k, v in kv.items() for a in ("--set", f"{k}={v}")]
        assert main(args + ["--out", str(tmp_path / "r"), "coverage"]) == 2
        assert "truth.fixture" in capsys.readouterr().err
        assert not list(tmp_path.glob("r*"))

    def test_unreadable_truth_fixture_is_named(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"value": 0.5}))
        for path in (bad, tmp_path / "missing.json"):
            st = Settings({"truth.fixture": str(path), "block.sizes": "4x4",
                           "grid.sizes": "12x12"})
            with pytest.raises(ConfigError, match="truth.fixture"):
                experiment_config(st, "coverage", 0, 1)

    def test_coverage_without_closed_form_truth_exits_2(self, tmp_path, capsys):
        # a spectral_cdf psi has no cosine-sum truth; the run asks for one
        # at once instead of integrating the indicator numerically
        start = time.monotonic()
        assert main(["--set", "process.kind=spherical", "--set", "grid.sizes=12x12",
                     "--set", "psi=spectral_cdf{t=(0.5,-1.0)}",
                     "--set", "methods=fdwb", "--set", "boot.B=100",
                     "--set", "replicates=1",
                     "--out", str(tmp_path / "r"), "coverage"]) == 2
        assert time.monotonic() - start < 5.0
        err = capsys.readouterr().err
        assert "truth.value" in err and "truth.fixture" in err
        assert not list(tmp_path.iterdir())
        psi = "spectral_cdf{t=(1.0,1.0)}"
        with pytest.raises(ConfigError, match="truth.value"):
            _cfg(psi_name=psi)
        assert _cfg(psi_name=psi, truth=0.3).truth == 0.3

    def test_isotropy_methods_checked_at_config_time(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="methods"):
            _cfg(kind="isotropy", model=SphericalAniso(sigma2=1.0, range_=3.0),
                 methods=("fdwb", "hfdb_bias"))
        args = []
        for kv in ("process.kind=spherical", "grid.sizes=12x12",
                   "block.sizes=4x4", "replicates=1", "boot.B=100",
                   "methods=fdwb,hfdb_bias"):
            args += ["--set", kv]
        assert main(args + ["--out", str(tmp_path / "r"),
                            "isotropy-experiment"]) == 2
        assert "methods" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        # coverage keeps the interval methods
        assert _cfg(methods=("hfdb_bias",)).methods == ("hfdb_bias",)

    def test_isotropy_psi_is_the_contrast_of_its_lags(self):
        # the experiment resamples the contrast of test.h1 and test.h2, so
        # its config names that psi and no other
        st = Settings({"process.kind": "spherical", "block.sizes": "4x4",
                       "test.h1": "(2,0)", "test.h2": "(0,2)"})
        cfg = experiment_config(st, "isotropy", 0, 1)
        assert cfg.psi_name == "iso_contrast{h1=(2,0),h2=(0,2)}"
        spherical = SphericalAniso(sigma2=1.0, range_=3.0)
        for psi_name in ("cos_lag{h=(1,0)}", "iso_contrast{h1=(0,1),h2=(1,0)}"):
            with pytest.raises(ConfigError, match="psi"):
                _cfg(kind="isotropy", model=spherical, psi_name=psi_name)
        with pytest.raises(ConfigError, match="test.h1"):
            _cfg(kind="isotropy", model=spherical, h2=(1, 0))

    @pytest.mark.parametrize("settings, key", [
        (["psi=spectral_cdf{t=(0,0)}"], "psi"),
        (["psi=cos_lag{h=(1,0)}"], "psi"),
        (["test.h1=(0,1)"], "test.h1"),
        (["test.h1=(0,1)", "psi=iso_contrast{h1=(0,1),h2=(0,1)}"], "test.h1"),
    ])
    def test_isotropy_psi_mismatch_exits_2(self, tmp_path, capsys, settings,
                                           key):
        args = []
        for kv in ["process.kind=spherical", "grid.sizes=12x12",
                   "block.sizes=4x4", "replicates=1", "boot.B=100"] + settings:
            args += ["--set", kv]
        assert main(args + ["--out", str(tmp_path / "r"),
                            "isotropy-experiment"]) == 2
        assert key in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestTruthValues:
    def test_white_noise_lag(self):
        assert true_spectral_mean(WhiteNoise(1.0), "cos_lag{h=(1,0)}") == 0.0
        assert true_spectral_mean(WhiteNoise(2.0), "cos_lag{h=(0,0)}") == 2.0

    def test_separable_lag(self):
        m = SeparableARMA(0.2, -0.7, "gaussian", "gaussian")
        assert true_spectral_mean(m, "cos_lag{h=(1,0)}") == pytest.approx(
            0.2 / 0.96 * 1.49)

    def test_iso_contrast_under_anisotropy(self):
        m = SphericalAniso(sigma2=1.0, range_=5.0, tau_r=1.5)
        val = true_spectral_mean(m, "iso_contrast{h1=(1,0),h2=(0,1)}")
        assert val > 0.0  # gamma(1,0) > gamma(0,1) once direction 2 shrinks
        assert val == (2.0 * model_autocovariance(m, (1, 0))
                       - 2.0 * model_autocovariance(m, (0, 1)))

    def test_iso_contrast_isotropic_is_zero(self):
        m = matern_model(1.0 / 3.0, 1.0)
        val = true_spectral_mean(m, "iso_contrast{h1=(1,0),h2=(0,1)}")
        assert abs(val) <= 1e-12
        assert true_spectral_mean(m, "iso_contrast{h1=(1,1),h2=(1,-1)}") == \
            pytest.approx(0.0, abs=1e-12)


class TestCoverageExperiment:
    def test_degenerate_zero_process_point_null(self):
        cfg = _cfg(model=WhiteNoise(0.0), methods=("subsample",),
                   replicates=1, B=10)
        report = run_coverage_experiment(cfg)
        assert report.summary[0]["proportion"] == 1.0
        rec = report.replicates[0]
        assert rec["lower"] == rec["upper"] == 0.0

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        r1 = run_coverage_experiment(_cfg(replicates=6, workers=1))
        r2 = run_coverage_experiment(_cfg(replicates=6, workers=2))
        p1 = tmp_path / "a"
        p2 = tmp_path / "b"
        emit_report(r1, str(p1), "both")
        emit_report(r2, str(p2), "both")
        for suffix in ("_summary.csv", "_replicates.csv"):
            assert (tmp_path / ("a" + suffix)).read_bytes() == \
                (tmp_path / ("b" + suffix)).read_bytes()

    @pytest.mark.parametrize("workers, replicates, started", [
        (64, 2, 2), (3, 20, 3)])
    def test_pool_starts_no_idle_workers(self, monkeypatch, workers,
                                         replicates, started):
        sizes = []

        class RecordingPool:   # runs the chunks here; starts no process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads):
                return map(fn, payloads)

        monkeypatch.setattr(cli_module, "ProcessPoolExecutor", RecordingPool)
        pooled = run_coverage_experiment(_cfg(replicates=replicates,
                                              workers=workers, B=100))
        assert sizes == [started]
        assert pooled == run_coverage_experiment(_cfg(replicates=replicates,
                                                      workers=1, B=100))

    def test_forked_workers_fill_draws_on_threads(self, tmp_path):
        # a 128 x 128 field has 8,193 weights per bootstrap replicate, so
        # draws are filled on threads; the process runs one worker first,
        # so the pool forks a process that has already run draw threads
        code = ("import sys\n"
                "from freqboot.cli import main\n"
                "for w in ('1', '2'):\n"
                "    rc = main(['--seed', '5', '--workers', w, '--out',\n"
                "               sys.argv[1] + '/w' + w, '--format', 'both',\n"
                "               '--set', 'process.kind=white_noise',\n"
                "               '--set', 'grid.sizes=128x128',\n"
                "               '--set', 'methods=fdwb', '--set', 'boot.B=100',\n"
                "               '--set', 'replicates=2', 'coverage'])\n"
                "    assert rc == 0, rc\n")
        src = os.path.dirname(os.path.dirname(cli_module.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        # its own session, so a hung run is killed with its workers
        proc = subprocess.Popen([sys.executable, "-c", code, str(tmp_path)],
                                env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=300)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("coverage with forked workers did not finish")
        assert proc.returncode == 0, err.decode()
        for suffix in ("_summary.csv", "_replicates.csv", ".json"):
            assert (tmp_path / ("w1" + suffix)).read_bytes() == \
                (tmp_path / ("w2" + suffix)).read_bytes()

    def test_summary_matches_recomputation_from_replicates(self):
        report = run_coverage_experiment(_cfg(replicates=5))
        for row in report.summary:
            rows = [r for r in report.replicates
                    if all(r[k] == row[k] for k in ("method", "n1", "n2", "b1", "b2"))]
            assert row["proportion"] == sum(r["covered"] for r in rows) / len(rows)

    def test_summary_row_count_is_cartesian(self):
        cfg = _cfg(sizes=((12, 12), (16, 16)), blocks=((3, 3), (4, 4)),
                   methods=("fdwb", "subsample"), replicates=2)
        report = run_coverage_experiment(cfg)
        assert len(report.summary) == 2 * 2 * 2


class TestIsotropyExperiment:
    def test_runs_and_counts(self):
        cfg = _cfg(kind="isotropy",
                   model=SphericalAniso(sigma2=1.0, range_=3.0),
                   sizes=((14, 14),), blocks=((4, 4),),
                   methods=("fdwb", "hfdb", "subsample"), replicates=3,
                   tau_r_list=(1.0, 1.3))
        report = run_isotropy_experiment(cfg)
        assert len(report.summary) == 3 * 2
        assert all(0.0 <= row["proportion"] <= 1.0 for row in report.summary)

    def test_fdwb_without_blocks_runs(self, tmp_path):
        # as coverage does: no block needed for fdwb, rows carry b1 = b2 = 0
        cfg = _cfg(kind="isotropy", model=SphericalAniso(sigma2=1.0, range_=3.0),
                   sizes=((12, 12),), blocks=(), methods=("fdwb",),
                   replicates=2, B=100, tau_r_list=(1.0, 1.3))
        report = run_isotropy_experiment(cfg)
        assert len(report.replicates) == 2 * 2
        assert all((r["b1"], r["b2"]) == (0, 0) for r in report.replicates)
        assert [r["replicates"] for r in report.summary] == [2, 2]
        emit_report(report, str(tmp_path / "r"), "csv")
        rows = (tmp_path / "r_replicates.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 2

    def test_rejects_wrong_process(self):
        cfg = _cfg(kind="isotropy", model=SeparableARMA(0.2, -0.7))
        with pytest.raises(ConfigError):
            run_isotropy_experiment(cfg)

    def test_runners_refuse_the_other_kind(self):
        spherical = SphericalAniso(sigma2=1.0, range_=3.0)
        with pytest.raises(ConfigError, match="coverage config"):
            run_isotropy_experiment(_cfg(model=spherical, replicates=1))
        with pytest.raises(ConfigError, match="isotropy config"):
            run_coverage_experiment(_cfg(kind="isotropy", model=spherical,
                                         methods=("fdwb",), replicates=1))


def _sort_key(rec):
    return tuple(rec.get(k, 0) for k in ("replicate", "tau_r", "n1", "n2",
                                          "b1", "b2", "method"))


class TestChunking:
    # workers split replicates into chunks; no partition of range(R), in
    # any chunk or index order, may change a record
    _COVERAGE = _cfg(sizes=((8, 8), (10, 8)), blocks=((3, 3), (4, 4)),
                     methods=("fdwb", "hfdb", "hfdb_bias", "subsample"), B=100,
                     truth=0.0)
    _ISOTROPY = _cfg(kind="isotropy", model=SphericalAniso(sigma2=1.0, range_=3.0),
                     sizes=((8, 8),), blocks=((4, 4),),
                     methods=("fdwb", "hfdb", "subsample"), B=100,
                     tau_r_list=(1.0, 1.3))

    @staticmethod
    def _run(cfg, chunks):
        out = []
        for chunk in chunks:
            out.extend(_chunk((cfg, chunk)))
        return sorted(out, key=_sort_key)

    @settings(max_examples=8, deadline=None)
    @given(data=hst.data(), R=hst.integers(1, 6))
    def test_any_partition_gives_the_same_records(self, data, R):
        labels = data.draw(hst.lists(hst.integers(0, R - 1), min_size=R, max_size=R))
        chunks = [data.draw(hst.permutations([i for i in range(R) if labels[i] == k]))
                  for k in data.draw(hst.permutations(sorted(set(labels))))]
        for cfg in (self._COVERAGE, self._ISOTROPY):
            assert self._run(cfg, chunks) == self._run(cfg, [list(range(R))])


class TestReports:
    def test_empty_replicates_header_only(self, tmp_path):
        report = ExperimentReport(kind="coverage", config={}, summary=[],
                                  replicates=[])
        paths = emit_report(report, str(tmp_path / "r"), "csv")
        text = (tmp_path / "r_replicates.csv").read_text()
        assert text.count("\n") == 1 and text.startswith("replicate,")
        assert len(paths) == 2

    def test_coverage_replicate_cells_are_numbers(self, tmp_path):
        report = run_coverage_experiment(
            _cfg(methods=("fdwb", "hfdb_bias", "subsample"), replicates=2))
        emit_report(report, str(tmp_path / "r"), "csv")
        header, *rows = (tmp_path / "r_replicates.csv").read_text().splitlines()
        columns = header.split(",")
        assert len(rows) == len(report.replicates)
        for row in rows:
            cells = dict(zip(columns, row.split(","), strict=True))
            assert cells.pop("method") in ("fdwb", "hfdb_bias", "subsample")
            for name, cell in cells.items():
                assert np.isfinite(float(cell)), (name, cell)

    @pytest.mark.parametrize("run, cfg", [
        (run_coverage_experiment, TestChunking._COVERAGE),
        (run_isotropy_experiment, TestChunking._ISOTROPY)])
    def test_records_carry_exactly_the_csv_columns(self, tmp_path, run, cfg):
        # a cell missing from the CSV columns would be dropped without a word
        report = run(dataclasses.replace(cfg, replicates=1))
        emit_report(report, str(tmp_path / "r"), "csv")
        header = (tmp_path / "r_replicates.csv").read_text().splitlines()[0]
        assert report.replicates
        for rec in report.replicates:
            assert list(rec) == header.split(",")

    def test_json_round_trip(self):
        report = run_coverage_experiment(_cfg(replicates=3))
        back = json.loads(report_to_json(report))
        assert back["schema_version"] == cli_module.SCHEMA_VERSION
        assert back["kind"] == report.kind
        assert back["summary"] == report.summary
        assert back["replicates"] == report.replicates

    def test_rejects_unknown_format(self, tmp_path):
        report = ExperimentReport(kind="coverage", config={}, summary=[],
                                  replicates=[])
        with pytest.raises(ConfigError):
            emit_report(report, str(tmp_path / "x"), "parquet")


class TestCommandLine:
    def test_simulate_then_estimate_and_ci(self, tmp_path, capsys):
        field = tmp_path / "f.csv"
        assert main(["--set", "grid.sizes=16x16", "--seed", "5",
                     "--out", str(field), "simulate"]) == 0
        capsys.readouterr()
        assert main(["--set", "block.sizes=4x4",
                     "estimate", "--in", str(field)]) == 0
        est = json.loads(capsys.readouterr().out)
        assert {"mhat", "sigma_sq", "var_star"} <= set(est)
        assert main(["--set", "block.sizes=4x4",
                     "--set", "methods=hfdb", "--set", "boot.B=120",
                     "ci", "--in", str(field)]) == 0
        ci = json.loads(capsys.readouterr().out)
        assert ci["lower"] <= ci["upper"]

    def test_isotropy_and_blocksize_commands(self, tmp_path, capsys):
        field = tmp_path / "f.bin"
        assert main(["--set", "grid.sizes=20x20", "--seed", "6",
                     "--format", "bin", "--out", str(field), "simulate"]) == 0
        capsys.readouterr()
        assert main(["--set", "methods=subsample", "--set", "block.sizes=5x5",
                     "isotropy", "--in", str(field)]) == 0
        res = json.loads(capsys.readouterr().out)
        assert 0.0 <= res["p_value"] <= 1.0
        assert main(["blocksize", "--in", str(field)]) == 0
        sel = json.loads(capsys.readouterr().out)
        assert sel["b1"] >= 2

    def test_estimate_with_minvol_and_subsample_ci(self, tmp_path, capsys):
        field = tmp_path / "f.csv"
        assert main(["--set", "grid.sizes=24x24", "--seed", "9",
                     "--out", str(field), "simulate"]) == 0
        capsys.readouterr()
        assert main(["--set", "block.sizes=minvol", "--set", "block.window=3",
                     "estimate", "--in", str(field)]) == 0
        est = json.loads(capsys.readouterr().out)
        assert est["b1"] >= 2 and "sigma2_sq" in est
        assert main(["--set", "methods=subsample", "--set", "block.sizes=5x5",
                     "ci", "--in", str(field)]) == 0
        ci = json.loads(capsys.readouterr().out)
        assert ci["method"] == "subsample" and ci["lower"] <= ci["upper"]

    def test_oracle_fixture(self, tmp_path, capsys):
        out = tmp_path / "oracle.json"
        assert main(["--set", "process.kind=white_noise",
                     "--set", "grid.sizes=10x10", "--set", "replicates=50",
                     "--out", str(out), "oracle"]) == 0
        fixture = json.loads(out.read_text())
        assert abs(fixture["value"]) < 0.2
        assert fixture["replicates"] == 50

    def test_exit_code_2_on_config_error(self, capsys):
        assert main(["--set", "bogus.key=1", "coverage"]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("kv", ["density.auto=true", "boot.seed=3",
                                    "block.b1=4", "block.b2=4",
                                    "block.auto=minvol", "boot.kind=fdwb",
                                    "test.method=fdwb"])
    def test_removed_keys_are_unknown(self, tmp_path, capsys, kv):
        args = ["--set", kv, "--set", "grid.sizes=8x8",
                "--out", str(tmp_path / "f.csv"), "simulate"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "unknown config keys" in err and kv.split("=")[0] in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("fmt", ["json", "parquet", "both"])
    def test_simulate_refuses_other_formats(self, tmp_path, capsys, fmt):
        assert main(["--set", "grid.sizes=8x8", "--format", fmt,
                     "--out", str(tmp_path / "f"), "simulate"]) == 2
        assert "format" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, settings, key", [
        ("simulate", ["grid.sizes=8x8,10x10"], "grid.sizes"),
        ("oracle", ["grid.sizes=8x8,10x10", "replicates=2"], "grid.sizes"),
        ("estimate", ["grid.sizes=8x8,10x10"], "grid.sizes"),
        ("ci", ["grid.sizes=12x12", "block.sizes=4x4,6x6"], "block.sizes"),
        ("estimate", ["grid.sizes=12x12", "block.sizes=4x4,6x6"], "block.sizes"),
        ("isotropy", ["grid.sizes=12x12,14x14", "block.sizes=4x4"],
         "grid.sizes"),
        ("blocksize", ["grid.sizes=12x12,14x14"], "grid.sizes"),
    ])
    def test_single_field_commands_refuse_lists(self, tmp_path, capsys,
                                                command, settings, key):
        # these commands make or read one field with one block; a longer
        # list would be cut to its first item without a word
        args = []
        for kv in settings:
            args += ["--set", kv]
        assert main(args + ["--out", str(tmp_path / "f"), command]) == 2
        assert key in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("settings, names", [
        (["density.bandwidth1=0.5"], ["density.bandwidth1"]),
        (["density.bandwidth2=0.5"], ["density.bandwidth2"]),
    ])
    def test_density_auto_is_honoured(self, tmp_path, capsys, settings, names):
        # the automatic bandwidth is used only with neither bandwidth key
        # set; one key alone exits 2 naming it
        args = []
        for kv in settings + ["process.kind=white_noise", "grid.sizes=12x12",
                              "block.sizes=4x4", "replicates=1"]:
            args += ["--set", kv]
        assert main(args + ["--out", str(tmp_path / "r"), "coverage"]) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in names), err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args", [["--workers", "0"], ["--workers", "-3"],
                                      ["--set", "workers=0"]])
    def test_workers_below_one_exit_2(self, tmp_path, capsys, args):
        for kv in ("process.kind=white_noise", "grid.sizes=12x12",
                   "methods=fdwb", "replicates=2"):
            args = args + ["--set", kv]
        assert main(args + ["--out", str(tmp_path / "r"), "coverage"]) == 2
        assert "workers" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_exit_code_2_on_bad_value(self, capsys):
        assert main(["--set", "boot.B=lots", "coverage"]) == 2
        assert "boot.B" in capsys.readouterr().err

    @pytest.mark.parametrize("command, settings, key", [
        ("isotropy-experiment", ["process.tau_r_list=1.0,abc"], "process.tau_r_list"),
        ("isotropy-experiment", ["process.tau_r_list=,"], "process.tau_r_list"),
        ("coverage", ["truth.value=x"], "truth.value"),
        ("coverage", ["density.bandwidth1=a", "density.bandwidth2=0.5"],
         "density.bandwidth1"),
        ("coverage", ["block.sizes=qx4"], "block.sizes"),
        ("isotropy-experiment", ["process.kind=matern", "process.phi=z"],
         "process.phi"),
    ])
    def test_unparsable_value_exits_2_naming_the_key(self, tmp_path, capsys,
                                                     command, settings, key):
        args = []
        for kv in ["process.kind=spherical", "grid.sizes=12x12", "methods=fdwb",
                   "boot.B=100", "replicates=1"] + settings:
            args += ["--set", kv]
        assert main(args + ["--out", str(tmp_path / "r"), command]) == 2
        assert key in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_ci_method_comes_from_methods(self, tmp_path, capsys):
        field = _field(tmp_path)
        capsys.readouterr()
        assert main(["--set", "methods=fdwb", "--set", "boot.B=150", "--seed", "4",
                     "ci", "--in", field]) == 0
        ci = json.loads(capsys.readouterr().out)
        res = FieldResampler(load_field_csv(field), psi_cos_lag((1, 0)), 150, 4)
        want = resampled_interval(res, "fdwb", None, 0.9)
        assert ci["method"] == "fdwb"
        assert (ci["lower"], ci["upper"]) == (want.lower, want.upper)

    def test_minvol_is_a_block_size_of_single_field_commands(self, tmp_path,
                                                             capsys):
        field = _field(tmp_path)
        capsys.readouterr()
        assert main(["blocksize", "--in", field]) == 0
        chosen = json.loads(capsys.readouterr().out)
        assert main(["--set", "block.sizes=minvol", "estimate", "--in", field]) == 0
        est = json.loads(capsys.readouterr().out)
        assert (est["b1"], est["b2"]) == (chosen["b1"], chosen["b2"])
        # an experiment runs fixed block sizes only
        assert main(["--set", "block.sizes=minvol", "--set", "grid.sizes=12x12",
                     "--set", "replicates=1", "--out", str(tmp_path / "r"),
                     "coverage"]) == 2
        assert "block.sizes" in capsys.readouterr().err
        assert not list(tmp_path.glob("r*"))

    @pytest.mark.parametrize("command, args, key", [
        ("ci", ["--set", "methods=fdwb", "--set", "replicates=5"], "replicates"),
        ("ci", ["--set", "methods=fdwb", "--set", "truth.value=0.1"],
         "truth.value"),
        ("ci", ["--set", "methods=fdwb", "--workers", "2"], "workers"),
        ("ci", ["--set", "methods=fdwb", "--set", "block.sizes=4x4"],
         "block.sizes"),
        ("estimate", ["--set", "process.kind=matern"], "process.kind"),
        ("estimate", ["--set", "block.sizes=4x4", "--set", "block.window=5"],
         "block.window"),
        ("isotropy", ["--set", "methods=fdwb",
                      "--set", "psi=iso_contrast{h1=(1,0),h2=(0,1)}"], "psi"),
        ("blocksize", ["--out", "x.json"], "out"),
    ])
    def test_single_field_commands_refuse_unread_keys(self, tmp_path, capsys,
                                                      command, args, key):
        # a key the command never reads would be ignored without a word
        field = _field(tmp_path)
        capsys.readouterr()
        assert main(args + [command, "--in", field]) == 2
        out, err = capsys.readouterr()
        assert out == "" and key in err and "does not read" in err
        assert os.listdir(tmp_path) == ["f.csv"]

    @pytest.mark.parametrize("command, args, key", [
        ("simulate", ["--set", "process.kind=spherical",
                      "--set", "process.alpha=0.5"], "process.alpha"),
        ("oracle", ["--set", "replicates=2", "--format", "json"], "format"),
        ("coverage", ["--set", "test.h1=(1,0)"], "test.h1"),
        ("coverage", ["--set", "pvalue.plus_one=true"], "pvalue.plus_one"),
        ("isotropy-experiment", ["--set", "truth.value=0"], "truth.value"),
        ("isotropy-experiment", ["--set", "ci.level=0.8"], "ci.level"),
        ("isotropy-experiment", ["--set", "block.window=3"], "block.window"),
    ])
    def test_writing_commands_refuse_unread_keys(self, tmp_path, capsys,
                                                 command, args, key):
        # refused before a replicate runs or a file is written
        if command.endswith("experiment") or command == "coverage":
            args = args + ["--set", "process.kind=spherical", "--set",
                           "block.sizes=4x4", "--set", "replicates=2"]
        assert main(args + ["--set", "grid.sizes=12x12",
                            "--out", str(tmp_path / "r"), command]) == 2
        out, err = capsys.readouterr()
        assert out == "" and key in err and "does not read" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, settings, key", [
        ("ci", ["ci.level=0.4"], "ci.level"),
        ("ci", ["boot.B=50"], "boot.B"),
        ("ci", ["methods=wild"], "methods"),
        ("ci", ["methods=fdwb,hfdb"], "methods"),
        ("isotropy", ["methods=hfdb_bias"], "methods"),
        ("isotropy", ["boot.B=50"], "boot.B"),
        ("isotropy", ["test.h1=(0,1)"], "test.h1"),
    ])
    def test_single_field_bad_values_name_the_key(self, tmp_path, capsys,
                                                  command, settings, key):
        field = _field(tmp_path)
        capsys.readouterr()
        args = []
        for kv in settings + ["block.sizes=5x5"]:
            args += ["--set", kv]
        assert main(args + [command, "--in", field]) == 2
        out, err = capsys.readouterr()
        assert out == "" and key in err

    @pytest.mark.parametrize("command, settings, key", [
        ("estimate", ["block.sizes=1x1"], "block.sizes"),
        ("estimate", ["block.sizes=25x25"], "block.sizes"),
        ("estimate", ["block.sizes=minvol", "block.window=4"], "block.window"),
        ("estimate", ["block.sizes=minvol", "block.window=9"], "block.window"),
        ("blocksize", ["block.window=1"], "block.window"),
        ("ci", ["block.sizes=20x20", "methods=subsample"], "block.sizes"),
        ("isotropy", ["block.sizes=20x20", "methods=subsample"], "block.sizes"),
        ("ci", ["block.sizes=21x4", "methods=hfdb"], "block.sizes"),
    ])
    def test_single_field_blocks_name_the_key(self, tmp_path, capsys, command,
                                              settings, key):
        # the 20x20 field has 7 minvol candidates, 3x3 to 9x9
        field = _field(tmp_path)
        capsys.readouterr()
        args = []
        for kv in settings:
            args += ["--set", kv]
        assert main(args + [command, "--in", field]) == 2
        out, err = capsys.readouterr()
        assert out == "" and key in err

    def test_isotropy_command_warns_on_unequal_norms(self, tmp_path):
        field = _field(tmp_path)
        with pytest.warns(UserWarning, match="unequal norms"):
            assert main(["--set", "methods=fdwb", "--set", "test.h1=(2,0)",
                         "isotropy", "--in", field]) == 0

    def test_subsample_ci_needs_no_bootstrap_B(self, tmp_path, capsys):
        # as in the experiments, B is checked only for bootstrap methods
        field = _field(tmp_path)
        assert main(["--set", "methods=subsample", "--set", "block.sizes=5x5",
                     "--set", "boot.B=10", "ci", "--in", field]) == 0

    def test_coverage_command_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["--set", "process.kind=white_noise",
                   "--set", "grid.sizes=12x12", "--set", "block.sizes=4x4",
                   "--set", "methods=subsample",
                   "--set", "replicates=5", "--seed", "11",
                   "--out", str(out), "coverage"])
        assert rc == 0
        assert (tmp_path / "run_summary.csv").exists()
        assert "proportion=" in capsys.readouterr().out
