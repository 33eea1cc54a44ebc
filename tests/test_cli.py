"""Configuration parsing, experiment drivers, report emission, CLI."""

import contextlib
import dataclasses
import functools
import inspect
import io
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from freqboot import (BlockSpec, FieldResampler, LatticeField, block_variogram,
                      isotropy_test, kernel_density_estimate, load_field_csv,
                      periodogram, psi_isotropy_contrast, sample_variogram,
                      save_field_csv, subsample_edf, subsample_ensemble)
from freqboot import _pool as pool_module
from freqboot import bootstrap as bootstrap_module
from freqboot import cli as cli_module
from freqboot import subsample as subsample_module
from freqboot.cli import (ExperimentConfig, ExperimentReport, Settings,
                          _chunk, emit_report, experiment_config, main,
                          parse_config_file, report_to_json,
                          run_coverage_experiment, run_isotropy_experiment,
                          true_spectral_mean)
from freqboot.errors import ConfigError, NumericalError
from freqboot.infer import CI_METHODS, TEST_METHODS, resampled_interval
from freqboot.spectral import PsiFunction, psi_cos_lag
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


def _enter_and_leave(times: int) -> int:
    """Enter and leave a pool worker's busy count ``times`` times."""
    for _ in range(times):
        with pool_module.working():
            pass
    return times


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

    def test_readme_lists_exactly_the_declared_keys(self):
        # each entry of the README's key block starts a line; shorthand
        # such as process.alpha/.nu/.phi or seed / out / format names
        # several keys
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        with open(readme) as fh:
            section = fh.read().split("### Configuration keys", 1)[1]
        block = section.split("```", 2)[1]
        listed = []
        for line in block.splitlines():
            entry = re.match(r"[\w.]+(?:\s*/\s*\.?[\w.]+)*", line)
            if entry is None:
                continue
            first, *rest = [part.strip() for part in entry.group().split("/")]
            listed.append(first)
            listed += [first.rsplit(".", 1)[0] + part if part.startswith(".")
                       else part for part in rest]
        assert len(listed) == len(set(listed))
        assert set(listed) == cli_module.KNOWN_KEYS
        count = re.search(r"These (\d+) keys", section)
        assert count is not None and int(count.group(1)) == len(listed)

    @pytest.mark.parametrize("over, settings", [
        (dict(level=0.4), ["ci.level=0.4"]),
        (dict(methods=("wild",)), ["methods=wild"]),
        (dict(methods=("fdwb",), B=50), ["methods=fdwb", "boot.B=50"]),
        (dict(blocks=((20, 20),)), ["block.sizes=20x20"]),
        (dict(blocks=((1, 4),)), ["block.sizes=1x4"]),
        (dict(tau_r_list=(1.5,)), ["process.tau_r_list=1.5"]),
        (dict(replicates=0), ["replicates=0"]),
        (dict(workers=0), ["workers=0"]),
        (dict(sizes=((1, 40),)), ["grid.sizes=1x40"]),
        (dict(bandwidth=(4.0, 0.5)),
         ["density.bandwidth1=4", "density.bandwidth2=0.5"]),
    ])
    def test_library_refuses_in_the_cli_words(self, tmp_path, capsys, over,
                                              settings):
        # a config built as a dataclass refuses what the CLI refuses, with
        # the message that names the CLI key
        with pytest.raises(ConfigError) as exc:
            _cfg(**over)
        args = []
        for kv in ["process.kind=white_noise", "grid.sizes=16x16",
                   "block.sizes=4x4", "methods=fdwb,subsample", "boot.B=120",
                   "replicates=4"] + settings:
            args += ["--set", kv]
        assert main(args + ["--out", str(tmp_path / "r"), "coverage"]) == 2
        assert capsys.readouterr().err == f"config error: {exc.value}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("kind, over, setting, words", [
        ("coverage", dict(methods=("fdwb", "fdwb", "subsample")),
         "methods=fdwb,fdwb,subsample", "methods: 'fdwb' is listed twice"),
        ("coverage", dict(blocks=((4, 4), (6, 6), (4, 4))),
         "block.sizes=4x4,6x6,4", "block.sizes: 4x4 is listed twice"),
        ("coverage", dict(sizes=((16, 16), (16, 16))),
         "grid.sizes=16x16,16x16", "grid.sizes: 16x16 is listed twice"),
        ("isotropy", dict(tau_r_list=(1.0, 1.5, 1.0)),
         "process.tau_r_list=1,1.5,1.0",
         "process.tau_r_list: 1.0 is listed twice"),
    ], ids=["methods", "block.sizes", "grid.sizes", "process.tau_r_list"])
    def test_repeated_list_entries_are_refused(self, tmp_path, capsys, kind,
                                               over, setting, words):
        # a repeated method, block or tau would run again as more
        # replicates of its cell, and a repeated grid would write a second
        # row under one key; the library and the CLI refuse it alike
        iso = dict(model=SphericalAniso(sigma2=1.0, range_=3.0),
                   methods=("fdwb", "subsample")) if kind == "isotropy" else {}
        with pytest.raises(ConfigError) as exc:
            _cfg(kind=kind, **{**iso, **over})
        assert str(exc.value) == words + "; list each entry once"
        args = []
        for kv in ["process.kind=spherical", "grid.sizes=16x16",
                   "block.sizes=4x4", "methods=fdwb,subsample", "boot.B=120",
                   "replicates=2", setting]:
            args += ["--set", kv]
        command = cli_module._COMMAND[kind]
        assert main(args + ["--out", str(tmp_path / "r"), command]) == 2
        assert capsys.readouterr().err == f"config error: {exc.value}\n"
        assert not list(tmp_path.iterdir())

    def test_typed_getters_report_key(self):
        st = Settings({"boot.B": "many"})
        with pytest.raises(ConfigError, match="boot.B"):
            st.get("boot.B")
        st = Settings({"grid.sizes": "50x50,30x30"})
        assert st.get("grid.sizes") == ((50, 50), (30, 30))
        assert Settings({"test.h1": "(1,0)"}).get("test.h1") == (1, 0)

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

    @pytest.mark.parametrize("blocks, key", [
        (((3, 3),), "test.h1"), (((6, 6), (4, 3)), "test.h2")])
    def test_subsample_lags_must_fit_the_blocks(self, blocks, key):
        # the subsample calibration compares variograms inside each block
        iso = dict(kind="isotropy", model=SphericalAniso(sigma2=1.0, range_=3.0),
                   sizes=((12, 12),), blocks=blocks, h1=(3, 0), h2=(0, 3),
                   psi_name="iso_contrast{h1=(3,0),h2=(0,3)}")
        with pytest.raises(ConfigError, match="block.sizes") as exc:
            _cfg(methods=("fdwb", "subsample"), **iso)
        assert key in str(exc.value) and "has no pairs" in str(exc.value)
        # hfdb reads psi on the blocks instead, and a lag of 3 needs 6
        # points on an axis of a block's Fourier grid
        with pytest.raises(ConfigError, match="block.sizes") as exc:
            _cfg(methods=("fdwb", "hfdb"), **iso)
        assert "reads cosine lag test.h1=(3, 0)" in str(exc.value)
        assert _cfg(methods=("fdwb", "hfdb"),
                    **{**iso, "blocks": ((6, 6),)}).blocks == ((6, 6),)

    def test_subsample_lags_outside_the_blocks_exit_2_before_a_replicate(
            self, tmp_path, capsys, monkeypatch):
        def no_field(*args, **kwargs):
            pytest.fail("a replicate ran")
        monkeypatch.setattr(cli_module, "simulate_process", no_field)
        args = []
        for kv in ("process.kind=spherical", "grid.sizes=12x12",
                   "block.sizes=3x3", "methods=subsample", "test.h1=(3,0)",
                   "test.h2=(0,3)", "replicates=2"):
            args += ["--set", kv]
        assert main(args + ["--out", str(tmp_path / "r"),
                            "isotropy-experiment"]) == 2
        err = capsys.readouterr().err
        assert "block.sizes" in err and "test.h1" in err
        assert not list(tmp_path.iterdir())

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
        # coverage runs every kind, an isotropy experiment only some
        ok = Settings({"process.kind": kind, key: "1.0",
                       "block.sizes": "5x5"})
        assert experiment_config(ok, "coverage", 0, 1).tau_r_list == (1.0,)

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

    @pytest.mark.parametrize("command, settings, key", [
        ("isotropy-experiment", ["test.h1=(0,0)", "methods=subsample",
                                 "block.sizes=4x4"], "test.h1"),
        ("isotropy-experiment", ["test.h1=(0,0)", "methods=fdwb"], "test.h1"),
        ("isotropy", ["test.h2=(0,0)", "methods=fdwb"], "test.h2"),
    ])
    def test_zero_lag_exits_2_before_a_field(self, tmp_path, capsys,
                                             monkeypatch, command, settings,
                                             key):
        # the variogram at lag 0 is 0, so a contrast with a zero lag tests
        # nothing about isotropy
        def no_field(*args, **kwargs):
            pytest.fail("a field was simulated")
        monkeypatch.setattr(cli_module, "simulate_process", no_field)
        monkeypatch.chdir(tmp_path)
        args = []
        for kv in ["process.kind=spherical", "grid.sizes=20x20",
                   "replicates=1", "boot.B=100"] + settings:
            args += ["--set", kv]
        assert main(args + [command]) == 2
        err = capsys.readouterr().err
        assert key in err and "nonzero" in err
        assert not list(tmp_path.iterdir())

    def test_isotropy_refuses_tau_with_a_tau_list(self, tmp_path, capsys):
        # the list sets every replicate's tau, so the model's would only be
        # a label in the echo
        args = []
        for kv in ("process.kind=spherical", "process.tau_r=1.7",
                   "process.tau_r_list=1.0,1.2", "grid.sizes=12x12",
                   "block.sizes=4x4", "replicates=1", "boot.B=100"):
            args += ["--set", kv]
        assert main(args + ["--out", str(tmp_path / "r"),
                            "isotropy-experiment"]) == 2
        err = capsys.readouterr().err
        assert "process.tau_r " in err and "process.tau_r_list" in err
        assert not list(tmp_path.iterdir())

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
            def __init__(self, max_workers, **kwargs):
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

    @pytest.mark.parametrize("settings", [
        ["process.kind=white_noise", "methods=fdwb", "replicates=2"],
        # a worker left running the last replicate alone computes its
        # ladder's ensembles on threads
        ["process.kind=spherical", "block.sizes=9x9,11x11",
         "methods=fdwb,hfdb_bias,subsample", "replicates=3"]])
    def test_forked_workers_fill_draws_on_threads(self, tmp_path, settings):
        # a 128 x 128 field has 8,193 weights per bootstrap replicate, so
        # draws are filled on threads; the process runs one worker first,
        # so the pool forks a process that has already run draw threads
        sets = [arg for kv in ["grid.sizes=128x128", "boot.B=100", *settings]
                for arg in ("--set", kv)]
        code = ("import sys\n"
                "from freqboot.cli import main\n"
                "for w in ('1', '2'):\n"
                "    rc = main(['--seed', '5', '--workers', w, '--out',\n"
                "               sys.argv[1] + '/w' + w, '--format', 'both',\n"
                "               *sys.argv[2:], 'coverage'])\n"
                "    assert rc == 0, rc\n")
        src = os.path.dirname(os.path.dirname(cli_module.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        # its own session, so a hung run is killed with its workers
        proc = subprocess.Popen([sys.executable, "-c", code, str(tmp_path),
                                 *sets],
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

    @pytest.mark.parametrize("workers, replicates", [
        (1, 4), (2, 1), (2, 4), (3, 20), (2, 3)])
    def test_worker_processes_divide_the_cpus_among_the_busy(
            self, tmp_path, monkeypatch, workers, replicates):
        # on 2 CPUs a forked worker uses one while another runs a chunk too,
        # and both once it runs alone; a run in this process uses both and
        # leaves this process's count alone
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        log = tmp_path / "cpus"

        def replicate(cfg, psi, i, _replicate=cli_module._replicate):
            busy = pool_module._busy
            if busy is None:
                seen = (0, pool_module.cpus())
            else:
                # the first chunks wait for a second busy worker, up to 5 s
                deadline = time.monotonic() + 5.0
                while (i < workers and busy.value < min(workers, 2)
                       and time.monotonic() < deadline):
                    time.sleep(0.001)
                with busy.get_lock():
                    seen = (busy.value, pool_module.cpus())
            with open(log, "a") as fh:
                fh.write("%d:%d\n" % seen)
            return _replicate(cfg, psi, i)

        monkeypatch.setattr(cli_module, "_replicate", replicate)
        run_coverage_experiment(_cfg(replicates=replicates, workers=workers,
                                     B=100))
        seen = [tuple(map(int, x.split(":"))) for x in log.read_text().split()]
        assert len(seen) == replicates
        assert all(c == max(1, 2 // max(1, b)) for b, c in seen), seen
        if workers == 1 or replicates == 1:
            assert seen == [(0, 2)] * replicates
        else:
            assert (2, 1) in seen or (3, 1) in seen
        assert pool_module._busy is None and pool_module.cpus() == 2

    def test_a_worker_running_alone_uses_every_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        busy = multiprocessing.Value("i", 0)
        monkeypatch.setattr(pool_module, "_busy", busy)
        got = []
        for k in (1, 2, 3, 4, 5):
            busy.value = k
            got.append(pool_module.cpus())
        assert got == [4, 2, 1, 1, 1]
        with pool_module.working():
            assert busy.value == 6
        assert busy.value == 5

    def test_busy_count_loses_no_update(self):
        # more workers than CPUs enter and leave at once; a lost update
        # would leave the count away from zero
        ctx = multiprocessing.get_context("spawn")
        busy = ctx.Value("i", 0)
        with ProcessPoolExecutor(4, mp_context=ctx,
                                 initializer=pool_module.share,
                                 initargs=(busy,)) as pool:
            done = [f.result(timeout=120)
                    for f in [pool.submit(_enter_and_leave, 2000)
                              for _ in range(8)]]
        assert done == [2000] * 8
        assert busy.value == 0

    @pytest.mark.parametrize("kind, methods, blocks, calls, ladders", [
        ("coverage", ("fdwb", "hfdb", "hfdb_bias", "subsample"), ((4, 4),),
         1, 0),
        ("coverage", ("fdwb", "hfdb_bias"), ((4, 4), (5, 3)), 0, 1),
        ("coverage", ("fdwb",), ((4, 4), (5, 3)), 0, 0),
        ("isotropy", ("hfdb", "subsample"), ((4, 4),), 1, 0),
        ("isotropy", ("fdwb", "hfdb"), ((4, 4), (5, 3)), 0, 1),
        ("isotropy", ("fdwb", "subsample"), ((4, 4), (5, 3)), 0, 0)])
    def test_ensembles_per_field(self, monkeypatch, kind, methods, blocks,
                                 calls, ladders):
        # one block: the public subsample_ensemble, once per field, on this
        # thread; two or more: one ladder per field; none when no method
        # reads an ensemble (fdwb, and the variogram-based isotropy
        # subsample calibration).  Each is one wave of batches.
        counts = {"subsample_ensemble": [], "_ladder": [], "_wave": []}
        for module, name in ((bootstrap_module, "subsample_ensemble"),
                             (bootstrap_module, "_ladder"),
                             (subsample_module, "_wave")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kw):
                counts[_name].append(threading.get_ident())
                return _fn(*args, **kw)
            monkeypatch.setattr(module, name, counted)
        cfg = _cfg(kind=kind, model=SphericalAniso(sigma2=1.0, range_=3.0),
                   sizes=((12, 12), (14, 13)), blocks=blocks, methods=methods,
                   replicates=3, B=100, truth=0.0)
        (run_coverage_experiment if kind == "coverage"
         else run_isotropy_experiment)(cfg)
        fields = 3 * 2
        assert counts["subsample_ensemble"] == [threading.get_ident()] * (
            calls * fields)
        assert len(counts["_ladder"]) == ladders * fields
        assert len(counts["_wave"]) == fields * (calls + ladders)

    @pytest.mark.parametrize("kind, methods", [
        ("coverage", ("fdwb", "hfdb_bias", "subsample")),
        ("isotropy", ("fdwb", "hfdb"))])
    def test_public_callables_run_on_the_main_thread(self, monkeypatch, kind,
                                                     methods):
        # a caller's instrumentation may wrap any public freqboot name and
        # need not be thread-safe: with a ladder on two threads and the
        # draws filled beside it, every public function and method is
        # still called on this thread
        calls = []

        def watched(fn):
            @functools.wraps(fn)
            def run(*args, **kwargs):
                calls.append((fn.__qualname__, threading.current_thread()))
                return fn(*args, **kwargs)
            return run

        modules = [m for name, m in sys.modules.items()
                   if name.split(".")[0] == "freqboot"]
        public = {v for m in modules for k, v in vars(m).items()
                  if not k.startswith("_") and (inspect.isfunction(v)
                                                or inspect.isclass(v))
                  and v.__module__.split(".")[0] == "freqboot"}
        for v in public:
            if inspect.isclass(v):
                for k, meth in list(vars(v).items()):
                    if not k.startswith("_") and inspect.isfunction(meth):
                        monkeypatch.setattr(v, k, watched(meth))
                continue
            run = watched(v)
            for m in modules:
                for k, held in list(vars(m).items()):
                    if held is v:
                        monkeypatch.setattr(m, k, run)
        monkeypatch.setattr(pool_module, "cpus", lambda: 2)
        cfg = _cfg(kind=kind, model=SphericalAniso(sigma2=1.0, range_=3.0),
                   sizes=((14, 13),), blocks=((4, 4), (5, 3), (6, 6)),
                   methods=methods, B=100, truth=0.0, tau_r_list=(1.0, 1.5)
                   if kind == "isotropy" else (1.0,))
        cli_module._replicate(cfg, cli_module.psi_from_name(cfg.psi_name), 0)
        off = {name for name, t in calls if t is not threading.main_thread()}
        assert off == set()
        assert "fdwb_draws" in {name for name, _ in calls}

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
        with pytest.raises(ConfigError):
            run_isotropy_experiment(_cfg(kind="isotropy",
                                         model=SeparableARMA(0.2, -0.7)))

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


def test_a_chunk_builds_each_psi_table_once(monkeypatch):
    # a chunk resolves its run's psi once, so psi is evaluated once on the
    # field's grid and on each block grid, and each block shape's tables
    # (the sigma1^2 weights among them) are built once, not per replicate
    cfg = _cfg(sizes=((12, 12),), blocks=((3, 3), (4, 4), (5, 5)),
               methods=("fdwb", "hfdb", "hfdb_bias", "subsample"), B=100,
               truth=0.0, replicates=8)
    resolved, evaluated, built = [], [], []

    def resolve(name, _resolve=cli_module.psi_from_name):
        psi = _resolve(name)
        resolved.append(name)

        def fn(w1, w2):
            evaluated.append((np.shape(w1)[0], np.shape(w2)[1]))
            return psi.fn(w1, w2)
        return PsiFunction(psi.name, fn, psi.cos_terms)

    def tables(psi_block, grid, _build=subsample_module._block_tables):
        built.append((grid.n1, grid.n2))
        return _build(psi_block, grid)

    monkeypatch.setattr(cli_module, "psi_from_name", resolve)
    monkeypatch.setattr(subsample_module, "_block_tables", tables)
    records = _chunk((cfg, list(range(8))))
    assert len(records) == 8 * 3 * 4
    assert resolved == [cfg.psi_name]
    assert sorted(evaluated) == [(3, 3), (4, 4), (5, 5), (12, 12)]
    assert sorted(built) == [(3, 3), (4, 4), (5, 5)]


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
        ("coverage", ["psi=iso_contrast{h1=(1,0),h2=(1,0)}"], "psi"),
        ("coverage", ["psi=spectral_cdf{t=(9,9)}", "truth.value=0.1"], "psi"),
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

    @pytest.mark.parametrize("command, settings, key", [
        ("coverage", ["truth.value=nan"], "truth.value"),
        ("coverage", ["truth.value=inf"], "truth.value"),
        ("simulate", ["process.tau_a=nan"], "process.tau_a"),
        ("simulate", ["process.tau_r=nan"], "process.tau_r"),
        ("simulate", ["process.range=nan"], "process.range"),
        ("simulate", ["process.range=inf"], "process.range"),
        ("simulate", ["process.eta=nan"], "process.eta"),
        ("simulate", ["process.sigma2=nan"], "process.sigma2"),
        ("simulate", ["process.kind=matern", "process.phi=nan"], "process.phi"),
        ("simulate", ["process.kind=white_noise", "process.variance=inf"],
         "process.variance"),
        ("isotropy-experiment", ["process.tau_r_list=1.0,nan"],
         "process.tau_r_list"),
        ("oracle", ["replicates=0"], "replicates"),
        ("oracle", ["replicates=1"], "replicates"),
        ("oracle", ["replicates=-3"], "replicates"),
    ])
    def test_non_finite_value_exits_2_naming_the_key(self, tmp_path, capsys,
                                                     command, settings, key):
        # each ran to exit 0 on a NaN field, truth or fixture, or ended in
        # a traceback, or was refused after the field without a key
        base = {"process.kind": "spherical", "grid.sizes": "12x12"}
        if command in ("coverage", "isotropy-experiment"):
            base.update({"methods": "fdwb", "boot.B": "100", "replicates": "2"})
        args = []
        for kv in [f"{k}={v}" for k, v in base.items()] + settings:
            args += ["--set", kv]
        assert main(args + ["--out", str(tmp_path / "r"), command]) == 2
        assert key in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_fixture_value_is_refused(self, tmp_path, capsys, value):
        fixture = _oracle_fixture(tmp_path, {"value": value})
        args = []
        for kv in ("process.kind=white_noise", "grid.sizes=12x12",
                   "methods=fdwb", "boot.B=100", "replicates=2",
                   f"truth.fixture={fixture}"):
            args += ["--set", kv]
        assert main(args + ["--out", str(tmp_path / "r"), "coverage"]) == 2
        assert "truth.fixture" in capsys.readouterr().err
        assert not list(tmp_path.glob("r*"))

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

    @pytest.mark.parametrize("command, settings, infile, key", [
        ("simulate", ["grid.sizes=1024x1024", "process.kind=matern",
                      "block.sizes=9x9"], None, "block.sizes"),
        ("ci", ["grid.sizes=200x200", "block.sizes=minvol", "test.h1=(1,0)",
                "methods=hfdb", "boot.B=100"], None, "test.h1"),
        ("estimate", ["block.sizes=minvol", "methods=hfdb"], "f.bin",
         "methods"),
        ("isotropy", ["block.sizes=minvol", "methods=subsample",
                      "ci.level=0.8"], "f.csv", "ci.level"),
        ("blocksize", ["boot.B=100"], None, "boot.B"),
    ])
    def test_single_field_commands_refuse_before_any_work(
            self, tmp_path, capsys, monkeypatch, command, settings, infile,
            key):
        # no field is loaded or simulated, and no block selected, before
        # the keys are read and the unread ones refused
        def work(*args, **kwargs):
            pytest.fail("work started before the refusal")

        for name in ("simulate_process", "load_field_binary", "load_field_csv",
                     "select_block_size_min_volatility"):
            monkeypatch.setattr(cli_module, name, work)
        monkeypatch.chdir(tmp_path)
        argv = [arg for kv in settings for arg in ("--set", kv)] + [command]
        assert main(argv + (["--in", infile] if infile else [])) == 2
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
        ("isotropy", ["block.sizes=3x3", "methods=subsample", "test.h1=(3,0)",
                      "test.h2=(0,3)"], "block.sizes: block 3x3 has no pairs "
                                        "at lag test.h1"),
        ("isotropy", ["block.sizes=4x3", "methods=subsample", "test.h1=(3,0)",
                      "test.h2=(0,3)"], "block.sizes: block 4x3 has no pairs "
                                        "at lag test.h2"),
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

    @pytest.mark.parametrize("command, settings, key", [
        ("coverage", ["density.bandwidth1=50", "density.bandwidth2=50"],
         "density.bandwidth1"),
        ("coverage", ["density.bandwidth1=0.5", "density.bandwidth2=-1"],
         "density.bandwidth2"),
        ("coverage", ["grid.sizes=0x5"], "grid.sizes"),
        ("coverage", ["grid.sizes=1x40"], "grid.sizes"),
        ("isotropy-experiment", ["grid.sizes=40x1"], "grid.sizes"),
        ("estimate", ["density.bandwidth1=50", "density.bandwidth2=50"],
         "density.bandwidth1"),
        ("estimate", ["grid.sizes=1x40"], "grid.sizes"),
        ("oracle", ["grid.sizes=1x40"], "grid.sizes"),
        ("simulate", ["grid.sizes=0x5"], "grid.sizes"),
    ])
    def test_bandwidths_and_grid_extents_exit_2_before_a_field(
            self, tmp_path, capsys, monkeypatch, command, settings, key):
        # a bandwidth outside (0, pi] or a grid with no nonzero frequency
        # was refused only by the smoother or the frequency grid, after a
        # field was simulated, without naming the key
        def no_field(*args, **kwargs):
            pytest.fail("a field was simulated")
        monkeypatch.setattr(cli_module, "simulate_process", no_field)
        base = {"process.kind": "white_noise", "grid.sizes": "12x12"}
        if command == "coverage":
            base.update({"methods": "fdwb", "replicates": "2"})
        if command == "isotropy-experiment":
            base.update({"process.kind": "spherical", "methods": "fdwb",
                         "replicates": "2"})
        if command == "oracle":
            base["replicates"] = "2"
        if command != "estimate":
            base["out"] = "r"
        monkeypatch.chdir(tmp_path)
        args = [a for kv in [f"{k}={v}" for k, v in base.items()] + settings
                for a in ("--set", kv)]
        assert main(args + [command]) == 2
        out, err = capsys.readouterr()
        assert out == "" and key in err
        assert not list(tmp_path.iterdir())

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

    def test_matern_truth_at_a_far_lag(self, tmp_path, capsys):
        # gamma(5, 0) is about 5e-2 of gamma(0) here; the lag table settles
        # on a change of 1e-6 gamma(0) rather than of 1e-6 gamma(5, 0)
        rc = main(["--set", "process.kind=matern", "--set", "process.alpha=2",
                   "--set", "process.nu=1", "--set", "psi=cos_lag{h=(5,0)}",
                   "--set", "grid.sizes=12x12", "--set", "methods=fdwb",
                   "--set", "replicates=2", "--set", "boot.B=100",
                   "--out", str(tmp_path / "r"), "coverage"])
        assert rc == 0, capsys.readouterr().err

    def test_exp_cholesky_on_an_elongated_grid(self, tmp_path, capsys):
        # the dense factor reads lags up to (1, 1023); the lag table's torus
        # is sized per axis, so only its long axis is that long
        rc = main(["--set", "process.kind=exp_cholesky",
                   "--set", "grid.sizes=2x1024",
                   "--out", str(tmp_path / "f.csv"), "simulate"])
        assert rc == 0, capsys.readouterr().err

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


_ZEROS = LatticeField(np.zeros((12, 12)))
_COS = psi_cos_lag((1, 0))
# a small run on 12x12 fields that a rule's case spoils with its settings
_RUN = {"process.kind": "spherical", "grid.sizes": "12x12",
        "block.sizes": "4x4", "boot.B": "100", "replicates": "2"}


@pytest.mark.parametrize("library, settings, command, wording, arg, key", [
    (lambda: subsample_ensemble(_ZEROS, BlockSpec(20, 20), _COS),
     {"block.sizes": "20x20"}, "coverage",
     "{}: block 20x20 does not fit grid 12x12", ("spec",), ("block.sizes",)),
    (lambda: subsample_edf(subsample_ensemble(_ZEROS, BlockSpec(12, 12), _COS)),
     {"block.sizes": "12x12", "methods": "subsample"}, "coverage",
     "{}: block 12x12 has one translate in grid 12x12, subsample needs at "
     "least 2", ("ens",), ("block.sizes",)),
    (lambda: sample_variogram(_ZEROS, (0, 0)),
     {"test.h1": "(0,0)"}, "isotropy-experiment",
     "{} must be a nonzero lag: the contrast compares the variogram at two "
     "lags", ("h",), ("test.h1",)),
    (lambda: block_variogram(_ZEROS, BlockSpec(3, 3), (3, 0)),
     {"block.sizes": "3x3", "methods": "subsample", "test.h1": "(3,0)",
      "test.h2": "(0,3)"}, "isotropy-experiment",
     "{}: block 3x3 has no pairs at lag {}=(3, 0), and methods=subsample "
     "compares the variogram at that lag inside every block",
     ("spec", "h"), ("block.sizes", "test.h1")),
    (lambda: FieldResampler(_ZEROS, _COS, 50, 0).draws("fdwb"),
     {"methods": "fdwb", "boot.B": "50"}, "coverage",
     "{} must be >= 100 for bootstrap methods, got 50", ("B",), ("boot.B",)),
    (lambda: FieldResampler(_ZEROS, _COS, 100, 0).draws("hfdb"),
     {"methods": "hfdb", "block.sizes": None}, "coverage",
     "{}: methods=hfdb needs a block size", ("spec",), ("block.sizes",)),
    (lambda: kernel_density_estimate(periodogram(_ZEROS), (4.0, 1.0)),
     {"density.bandwidth1": "4", "density.bandwidth2": "1"}, "coverage",
     "{} must lie in (0, pi], got 4.0", ("bandwidth[0]",),
     ("density.bandwidth1",)),
    (lambda: psi_isotropy_contrast((1, 0), (1, 0)),
     {"test.h1": "(1,0)", "test.h2": "(1,0)"}, "isotropy-experiment",
     "{} and {} must be two distinct lags, both are (1, 0)", ("h1", "h2"),
     ("test.h1", "test.h2")),
    (lambda: psi_isotropy_contrast((1, 0), (-1, 0)),
     {"test.h1": "(1,0)", "test.h2": "(-1,0)"}, "isotropy-experiment",
     "{} and {} must be two distinct lags up to sign, got (1, 0) and "
     "(-1, 0): their contrast is 0", ("h1", "h2"), ("test.h1", "test.h2")),
    (lambda: BlockSpec(1, 4), {"block.sizes": "1x4"}, "coverage",
     "{}: extents must be >= 2, got 1x4", ("spec",), ("block.sizes",)),
], ids=["block_fits", "two_translates", "nonzero_lag", "lag_in_block",
        "boot_B", "block_given", "bandwidth", "distinct_lags",
        "opposite_lags", "block_extents"])
def test_a_rule_words_the_library_and_the_cli_alike(
        tmp_path, capsys, library, settings, command, wording, arg, key):
    # each resampling precondition is worded once: the library's refusal
    # names the argument, the command's the key, in the same words
    with pytest.raises(ConfigError) as refused:
        library()
    assert str(refused.value) == wording.format(*arg)
    args = []
    for k, v in {**_RUN, **settings}.items():
        args += [] if v is None else ["--set", f"{k}={v}"]
    assert main(args + ["--out", str(tmp_path / "r"), command]) == 2
    assert capsys.readouterr().err == f"config error: {wording.format(*key)}\n"


# ---------------------------------------------------------------------------
# the library and the CLI refuse the same runs, in one rule's words

class _Run(NamedTuple):
    """One run, given to the library and to the commands alike."""

    command: str           # ci or isotropy
    grid: tuple            # the field's extents
    block: tuple | None
    lags: tuple            # ci: psi's lag h; isotropy: the test lags
    method: str
    B: int
    bandwidth: tuple | None
    level: float           # ci only
    repeat: bool = False   # the experiment lists its method twice


class _Ran(Exception):
    """An experiment got past its configuration to its first field."""


# the names a rule's words take: the library's arguments, a command's
# keys; an experiment simulates its grid, a single-field command reads it
_NAMES = {"library": {"grid": "fieldz", "block": "spec", "B": "B",
                      "level": "level", "bandwidth1": "bandwidth[0]",
                      "bandwidth2": "bandwidth[1]", "h": "h", "h1": "h1",
                      "h2": "h2"},
          "command": {"grid": "--in", "block": "block.sizes", "B": "boot.B",
                      "level": "ci.level", "bandwidth1": "density.bandwidth1",
                      "bandwidth2": "density.bandwidth2", "h": "psi",
                      "h1": "test.h1", "h2": "test.h2"}}
# only an experiment takes a list of methods
_NAMES["experiment"] = {**_NAMES["command"], "grid": "grid.sizes",
                        "methods": "methods"}


def _aliased(h, window) -> bool:
    """Whether a window's Fourier grid reads cos(h . omega) as the cosine of
    a lag no longer than h other than h and -h: found by comparing the
    cosines, not by the rule's inequalities."""
    w1, w2 = window
    norm = h[0] ** 2 + h[1] ** 2
    others = [(a, b) for a in range(-w1, w1 + 1) for b in range(-w2, w2 + 1)
              if a * a + b * b <= norm and (a, b) not in (h, (-h[0], -h[1]))]
    if not others:
        return False
    g = np.array(others)
    omega1 = 2.0 * np.pi * np.arange(w1) / w1
    omega2 = 2.0 * np.pi * np.arange(w2) / w2

    def cosines(a, b):
        return np.cos(np.multiply.outer(a, omega1)[..., :, None]
                      + np.multiply.outer(b, omega2)[..., None, :])

    same = np.abs(cosines(g[:, 0], g[:, 1]) - cosines(*h)) < 1e-9
    return bool(np.any(np.all(same, axis=(1, 2))))


def _broken(run: _Run) -> list:
    """The words of each rule ``run`` breaks, as functions of the names one
    side gives (``_NAMES``), or of None on a side that cannot break it:
    every refusal must be one of them."""
    (n1, n2), m = run.grid, run.method
    iso = run.command == "isotropy"
    lags = tuple(zip(("h1", "h2") if iso else ("h",), run.lags))
    out = []
    if run.repeat:
        out.append(lambda n: f"{n['methods']}: {m!r} is listed twice; list "
                   f"each entry once" if "methods" in n else None)
    for k, b in enumerate(run.bandwidth or (), 1):
        if not 0.0 < b <= np.pi:
            out.append(lambda n, k=k, b=b:
                       f"{n[f'bandwidth{k}']} must lie in (0, pi], got {b}")
    if not iso and not 0.5 < run.level < 1.0:
        out.append(lambda n: f"{n['level']} must be in (0.5, 1), got {run.level}")
    if m != "subsample" and run.B < 100:
        out.append(lambda n: f"{n['B']} must be >= 100 for bootstrap methods, "
                             f"got {run.B}")
    if iso and run.lags[0] == run.lags[1]:
        out.append(lambda n: f"{n['h1']} and {n['h2']} must be two distinct "
                             f"lags, both are {run.lags[0]}")
    elif iso and run.lags[0] == tuple(-x for x in run.lags[1]):
        out.append(lambda n: f"{n['h1']} and {n['h2']} must be two distinct "
                             f"lags up to sign, got {run.lags[0]} and "
                             f"{run.lags[1]}: their contrast is 0")

    def alias(window, role, h):
        return lambda n: (
            f"{n[window]}: the {'x'.join(map(str, getattr(run, window)))} "
            f"Fourier grid reads cosine lag {n[role]}={h} as another lag; each "
            f"lag needs 2|h_i| <= n_i, with equality only where its other "
            f"component is 0")

    for role, h in lags:
        if iso and h == (0, 0):
            out.append(lambda n, role=role: f"{n[role]} must be a nonzero lag: "
                       f"the contrast compares the variogram at two lags")
        if _aliased(h, run.grid):
            out.append(alias("grid", role, h))
    if m == "fdwb":
        return out
    if run.block is None:
        out.append(lambda n: f"{n['block']}: methods={m} needs a block size")
        return out
    b1, b2 = run.block
    if min(b1, b2) < 2:
        out.append(lambda n: f"{n['block']}: extents must be >= 2, got "
                             f"{b1}x{b2}")
    if b1 > n1 or b2 > n2:
        out.append(lambda n: f"{n['block']}: block {b1}x{b2} does not fit "
                             f"grid {n1}x{n2}")
    elif m == "subsample" and (n1 - b1 + 1) * (n2 - b2 + 1) < 2:
        out.append(lambda n: f"{n['block']}: block {b1}x{b2} has one translate "
                             f"in grid {n1}x{n2}, subsample needs at least 2")
    for role, h in lags:
        # the isotropy subsample calibration compares variograms in the
        # blocks; every other method evaluates psi on them
        if not (iso and m == "subsample") and _aliased(h, run.block):
            out.append(alias("block", role, h))
        if (iso and m == "subsample" and h != (0, 0)
                and (abs(h[0]) >= b1 or abs(h[1]) >= b2)):
            out.append(lambda n, role=role, h=h: (
                f"{n['block']}: block {b1}x{b2} has no pairs at lag "
                f"{n[role]}={h}, and methods=subsample compares the variogram "
                f"at that lag inside every block"))
    return out


@hst.composite
def _runs(draw):
    # a setting breaks its rule one time in eight, a lag component is
    # drawn past the blocks one time in four, and a block extent may be
    # 1, so that about one run in seven breaks no rule; an experiment
    # lists its method twice one time in eight
    def sometimes(good, bad):
        return draw(hst.sampled_from((good,) * 7 + (bad,)))

    iso = draw(hst.booleans())
    n1, n2 = draw(hst.tuples(hst.integers(4, 13), hst.integers(4, 13)))
    size = hst.tuples(hst.integers(1, n1 + 1), hst.integers(1, n2 + 1))
    block = sometimes(draw(size), None)
    part = hst.sampled_from((hst.integers(-2, 2),) * 3 + (
        hst.integers(-2 * max(n1, n2), 2 * max(n1, n2)),)).flatmap(lambda p: p)
    lags = tuple(draw(hst.tuples(part, part)) for _ in range(1 + iso))
    return _Run("isotropy" if iso else "ci", (n1, n2), block, lags,
                draw(hst.sampled_from(TEST_METHODS if iso else CI_METHODS)),
                sometimes(100, 50),
                draw(hst.sampled_from((None,) * 6 + ((0.6, 0.4), (4.0, 0.5)))),
                sometimes(0.9, 0.4), sometimes(False, True))


@pytest.fixture(scope="module")
def field_files(tmp_path_factory):
    """The path of a standard normal field of each grid shape, written once."""
    root, paths = tmp_path_factory.mktemp("fields"), {}

    def path(shape):
        if shape not in paths:
            paths[shape] = str(root / ("%dx%d.csv" % shape))
            rng = np.random.default_rng(shape[0] * 100 + shape[1])
            save_field_csv(LatticeField(rng.standard_normal(shape)), paths[shape])
        return paths[shape]
    return path


def _command(argv):
    """main(argv) in this process: (exit code, stdout, stderr), with exit
    code None for an experiment that got to its first field."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except _Ran:
            code = None
    return code, out.getvalue(), err.getvalue()


def _check_agreement(run: _Run, path: str, out_dir: str) -> None:
    """Give ``run`` to the library entry point, to its single-field
    command with the same field as --in, and to its experiment; each must
    accept it when it breaks no rule it can break, and otherwise refuse it
    in one broken rule's words, with its own names, and before any field
    work."""
    broken = _broken(run)
    field = load_field_csv(path)
    # fdwb reads no block, so neither side is given one
    block = run.block if run.method != "fdwb" else None
    kv = [f"methods={run.method}", f"boot.B={run.B}"]
    if block:
        kv.append("block.sizes=%dx%d" % block)
    if run.bandwidth:
        kv += [f"density.bandwidth{k}={b}"
               for k, b in enumerate(run.bandwidth, 1)]
    if run.command == "ci":
        kv += ["psi=cos_lag{h=(%d,%d)}" % run.lags[0], f"ci.level={run.level}"]
    else:
        kv += ["test.h%d=(%d,%d)" % (k, *h) for k, h in enumerate(run.lags, 1)]
    sets = [a for item in kv for a in ("--set", item)]
    built = []

    class Counted(FieldResampler):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    def no_field(*args, **kwargs):
        raise _Ran

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore")    # the unequal-norms warning
        mp.setattr(cli_module, "FieldResampler", Counted)
        mp.setattr(cli_module, "simulate_process", no_field)
        try:
            spec = BlockSpec(*block) if block else None
            if run.command == "ci":
                got = resampled_interval(
                    FieldResampler(field, psi_cos_lag(run.lags[0]), run.B, 4,
                                   0, run.bandwidth), run.method, spec,
                    run.level)
                got = {"lower": got.lower, "upper": got.upper}
            else:
                got = isotropy_test(field, *run.lags, run.method, spec, run.B,
                                    4, 0, run.bandwidth)
                got = {"ts": got.ts, "p_value": got.p_value}
        except (ConfigError, NumericalError) as exc:
            got = exc
        code, out, err = _command(sets + ["--seed", "4", run.command,
                                          "--in", path])
        twice = ["--set", f"methods={run.method},{run.method}"] * run.repeat
        experiment = _command(
            sets + twice + ["--set", "process.kind=spherical",
                            "--set", "grid.sizes=%dx%d" % run.grid,
                            "--set", "replicates=1", "--out", out_dir + "/r",
                            "coverage" if run.command == "ci"
                            else "isotropy-experiment"])
    words = {side: {w for rule in broken if (w := rule(_NAMES[side]))}
             for side in _NAMES}
    if not words["library"]:
        # a run that breaks no rule runs, and runs the same in the library
        # and the single-field command
        assert not isinstance(got, ConfigError), got
        if isinstance(got, NumericalError):
            assert code == 3 and out == "", err
        else:
            assert code == 0, err
            cli = json.loads(out)
            assert {k: cli[k] for k in got} == got
    else:
        assert isinstance(got, ConfigError) and str(got) in words["library"], got
        assert (code, out, built) == (2, "", []), err
        assert err.startswith("config error: ")
        assert err[len("config error: "):-1] in words["command"], err
    if not words["experiment"]:
        assert experiment[0] is None, experiment
        return
    assert experiment[:2] == (2, "") and not os.listdir(out_dir), experiment
    assert experiment[2][len("config error: "):-1] in words["experiment"]


@settings(max_examples=300, deadline=None)
@given(run=_runs())
# runs that must be refused: a lag past the grid, one past the block and
# isotropy lags past the grid, each read as another lag; a subsample block
# with one translate; a zero isotropy lag; and an off-axis lag that a
# 12 x 12 grid reads as (4, -1)
@example(run=_Run("ci", (12, 12), (4, 4), ((40, 0),), "fdwb", 100, None, 0.9))
@example(run=_Run("ci", (12, 12), (4, 4), ((5, 0),), "hfdb_bias", 100, None,
                  0.9))
@example(run=_Run("isotropy", (12, 12), (4, 4), ((20, 0), (0, 20)), "fdwb",
                  100, None, 0.9))
@example(run=_Run("isotropy", (12, 12), (12, 12), ((1, 0), (0, 1)),
                  "subsample", 100, None, 0.9))
@example(run=_Run("isotropy", (12, 12), None, ((0, 0), (0, 1)), "fdwb", 100,
                  None, 0.9))
@example(run=_Run("ci", (12, 12), (4, 4), ((8, 1),), "fdwb", 100, None, 0.9))
# and isotropy lags h and -h, whose contrast is 0, and a block 1 wide
@example(run=_Run("isotropy", (12, 12), None, ((1, 0), (-1, 0)), "fdwb", 100,
                  None, 0.9))
@example(run=_Run("ci", (12, 12), (1, 4), ((1, 0),), "hfdb", 100, None, 0.9))
# and a method an experiment lists twice, which the single-field sides run
@example(run=_Run("ci", (12, 12), (4, 4), ((1, 0),), "hfdb", 100, None, 0.9,
                  True))
def test_library_and_cli_refuse_the_same_runs(field_files, tmp_path_factory,
                                              run):
    _check_agreement(run, field_files(run.grid),
                     str(tmp_path_factory.mktemp("out")))
