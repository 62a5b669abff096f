"""End-to-end command line behavior: exit codes, reports, reruns."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from exuberance import bootstrap as bt
from exuberance.cli import (
    SCHEMA_VERSION,
    SEED_ENV_VAR,
    RunConfig,
    UsageError,
    emit_plot_data,
    main,
    run_config,
)
from exuberance.dgpsim import CvTable
from exuberance.exceptions import DataError
from exuberance.inference import contagion_delay, rolling_ar_coefficients
from exuberance.series import default_min_window, frac_to_index, load_series


def _write_csv(path, values, header="date,price"):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i, v in enumerate(values):
            fh.write(f"d{i:03d},{float(v)!r}\n")
    return str(path)


def _bubble_values(T=100, start=40, stop=60, rho=1.05, seed=42, y0=100.0):
    rng = np.random.default_rng(seed)
    y = np.empty(T)
    y[0] = y0
    for t in range(1, T):
        coeff = rho if start <= t < stop else 1.0
        y[t] = coeff * y[t - 1] + rng.standard_normal()
    return y


def _flat_values(T=100, seed=7):
    rng = np.random.default_rng(seed)
    return 50.0 + 0.3 * np.cumsum(rng.standard_normal(T))


@pytest.fixture
def bubble_csv(tmp_path):
    return _write_csv(tmp_path / "bubble.csv", _bubble_values())


@pytest.fixture
def flat_csv(tmp_path):
    return _write_csv(tmp_path / "flat.csv", _flat_values())


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_cli_import_leaves_scipy_unloaded():
    # scipy.stats took most of every command's start-up time
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    code = "import sys, exuberance.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class TestRunConfig:
    def test_round_trip(self):
        cfg = RunConfig(subcommand="test", input="a.csv", tau0=0.2, sizes=(50, 100))
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert isinstance(cfg.to_dict()["sizes"], list)

    def test_unknown_field_rejected(self):
        with pytest.raises(UsageError, match="unknown config fields"):
            RunConfig.from_dict({"subcommand": "test", "verbosity": 3})

    def test_removed_threads_option(self, bubble_csv):
        # a config embedded in an older report carries "threads": null,
        # which still loads; a value asks for an option that is gone
        cfg = RunConfig.from_dict({"subcommand": "test", "input": "a.csv", "threads": None})
        assert cfg == RunConfig(subcommand="test", input="a.csv")
        assert "threads" not in cfg.to_dict()
        with pytest.raises(UsageError, match="removed"):
            RunConfig.from_dict({"subcommand": "test", "threads": 2})
        assert main(["test", "--input", bubble_csv, "--column", "price", "--threads", "2"]) == 1

    def test_unread_options_run_at_the_config_defaults(self):
        # a statistic runs an option it does not read at RunConfig's
        # default, so --stat and --method checks agree on what a default is
        default = RunConfig(subcommand="test")
        for name, entry in bt._REGISTRY.items():
            det, k = entry.runs_with("trend", 2)
            assert det == ("trend" if "det" in entry.options else default.det), name
            assert k == (2 if "k" in entry.options else default.k), name
        assert bt._REGISTRY["sign_gsadf"].runs_with("trend", 2) == (default.det, default.k)
        assert bt._REGISTRY["hb_chow"].runs_with("trend", 2) == (default.det, 2)

    def test_bad_values_rejected(self):
        with pytest.raises(UsageError):
            RunConfig(subcommand="frobnicate")
        with pytest.raises(UsageError):
            RunConfig(subcommand="test", tau0="most of it")
        with pytest.raises(UsageError):
            RunConfig(subcommand="test", level=1.5)

    @pytest.mark.parametrize("subcommand, field, value", [
        ("test", "B", "99"),
        ("test", "k", "2"),
        ("test", "level", "0.9"),
        ("simulate-cv", "sizes", "60"),
    ])
    def test_mistyped_config_field_is_a_usage_error(
        self, bubble_csv, tmp_path, capsys, subcommand, field, value
    ):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({field: value}))
        argv = ["--config", str(path)]
        if subcommand == "test":
            argv += ["--input", bubble_csv, "--column", "price", "--cv", "bootstrap"]
        assert main([subcommand, *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and repr(field) in err, err
        assert "Traceback" not in err

    def test_library_route_checks_field_types(self, bubble_csv):
        # run_config(RunConfig(...)) skips from_dict; a mistyped field is
        # still a usage error, not a TypeError from deep inside the run
        with pytest.raises(UsageError, match="'B'"):
            run_config(RunConfig(subcommand="test", input=bubble_csv, column="price", cv="bootstrap", B="99"))
        for bad in ({"k": 2.0}, {"sizes": (60, "80")}, {"tau0": None}, {"seed": True}):
            with pytest.raises(UsageError, match=repr(next(iter(bad)))):
                RunConfig(subcommand="simulate-cv", **bad)
        # argparse hands tuple fields over as tuples and tau0 as 'auto' or a
        # number; a JSON list of a tuple field is stored as a tuple
        cfg = RunConfig(subcommand="simulate-cv", sizes=(40, 60), levels=[0.9, 0.95], tau0="auto")
        assert cfg.sizes == (40, 60) and cfg.levels == (0.9, 0.95) and cfg.tau0 == "auto"
        assert RunConfig(subcommand="test", tau0=0.2).tau0 == 0.2
        # numpy numbers from a caller's computation fit as Python ones
        assert RunConfig(subcommand="test", B=np.int64(99), level=np.float32(0.9)).B == 99

    def test_config_values_checked_against_field_types(self):
        # an int fits a float field; a bool fits no number; null fits only
        # an optional field; a list fits a tuple field element by element
        cfg = RunConfig.from_dict({"subcommand": "test", "epsilon": 1, "scale": 2, "levels": [0.9, 1]})
        assert cfg.epsilon == 1 and cfg.scale == 2 and cfg.levels == (0.9, 1)
        assert RunConfig.from_dict({"subcommand": "test", "origin_x": None}).origin_x is None
        # a column given by 0-based position, as load_series takes it
        assert RunConfig.from_dict({"subcommand": "test", "column": 1, "label_column": 0}).column == 1
        for bad in ({"k": True}, {"B": 99.0}, {"B": None}, {"sizes": [60, "80"]},
                    {"level": False}, {"null_spec": [1]}, {"stat": 3}):
            with pytest.raises(UsageError, match=repr(next(iter(bad)))):
                RunConfig.from_dict({"subcommand": "test", **bad})


class TestTestCommand:
    def test_auto_tau0_resolves_by_rule(self, bubble_csv, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["test", "--input", bubble_csv, "--column", "price",
                   "--stat", "gsadf", "--tau0", "auto", "--out", str(out)])
        assert rc == 0
        rep = _read(out)
        assert rep["schema"] == SCHEMA_VERSION
        assert rep["result"]["tau0"] == pytest.approx(0.19, abs=1e-12)
        assert rep["config"]["seed"] == 0

    def test_rule_decision_on_explosive_and_flat(self, bubble_csv, flat_csv, tmp_path):
        out = tmp_path / "r.json"
        assert main(["test", "--input", bubble_csv, "--column", "price",
                     "--out", str(out)]) == 0
        rep = _read(out)["result"]
        assert rep["cv_source"] == "rule"
        assert rep["reject"] is True
        assert rep["observed"] > rep["critical_value"]
        assert rep["sequence"]["kind"] == "bsadf"
        assert len(rep["sequence"]["index"]) == len(rep["sequence"]["values"])

        out2 = tmp_path / "r2.json"
        assert main(["test", "--input", flat_csv, "--column", "price",
                     "--out", str(out2)]) == 0
        assert _read(out2)["result"]["reject"] is False

    def test_bootstrap_decision(self, flat_csv, tmp_path):
        out = tmp_path / "r.json"
        argv = ["test", "--input", flat_csv, "--column", "price",
                "--cv", "bootstrap", "--B", "99", "--seed", "5", "--out", str(out)]
        assert main(argv) == 0
        rep = _read(out)["result"]
        assert rep["cv_source"] == "bootstrap"
        assert 0.0 < rep["p_value"] <= 1.0
        assert rep["reject"] == (rep["p_value"] <= 0.05)
        first = rep["p_value"]
        assert main(argv) == 0
        assert _read(out)["result"]["p_value"] == first

    def test_table_decision_and_mismatches(self, bubble_csv, tmp_path):
        table = CvTable(
            statistic="gsadf", tau0=None, det="const", k=0,
            sample_sizes=(100,), levels=(0.95,), values={(100, 0.95): 2.1},
            replications=2000, seed=0,
        )
        tpath = tmp_path / "tab.json"
        table.to_json(tpath)
        out = tmp_path / "r.json"
        rc = main(["test", "--input", bubble_csv, "--column", "price",
                   "--cv", f"table:{tpath}", "--out", str(out)])
        assert rc == 0
        rep = _read(out)["result"]
        assert rep["critical_value"] == 2.1
        assert rep["cv_source"] == "table"
        # wrong statistic
        assert main(["test", "--input", bubble_csv, "--column", "price",
                     "--stat", "sadf", "--cv", f"table:{tpath}"]) == 2
        # wrong level
        assert main(["test", "--input", bubble_csv, "--column", "price",
                     "--level", "0.99", "--cv", f"table:{tpath}"]) == 2
        # fixed tau0 against a rule-based table
        assert main(["test", "--input", bubble_csv, "--column", "price",
                     "--tau0", "0.3", "--cv", f"table:{tpath}"]) == 2

    def test_incompatible_options_exit_1(self, flat_csv, capsys):
        assert main(["test", "--input", flat_csv, "--column", "price",
                     "--stat", "sign_sadf", "--det", "trend"]) == 1
        assert "sign statistics are rank-based" in capsys.readouterr().err
        assert main(["test", "--input", flat_csv, "--column", "price",
                     "--stat", "sadf_gls", "--k", "2"]) == 1
        assert main(["test", "--input", flat_csv, "--column", "price",
                     "--stat", "hb_chow", "--det", "trend"]) == 1
        # every subcommand that takes --stat applies the same rule
        assert main(["simulate-cv", "--stat", "hb_chow", "--det", "trend",
                     "--sizes", "40", "--replications", "100"]) == 1
        assert "sup-Chow statistic fixes its own deterministic terms" in capsys.readouterr().err
        assert main(["study", "--stat", "sign_sadf", "--k", "1",
                     "--null-spec", '{"kind": "rw_drift", "T": 60}']) == 1
        assert "sign statistics are rank-based" in capsys.readouterr().err

    def test_usage_and_data_exit_codes(self, tmp_path):
        assert main(["test"]) == 1
        assert main(["test", "--input", str(tmp_path / "absent.csv")]) == 2
        assert main(["test", "--input", "x.csv", "--bogus"]) == 1
        assert main(["not-a-subcommand"]) == 1
        assert main(["test", "--input", "x.csv", "--tau0", "lots"]) == 1

    def test_sign_statistic_runs(self, bubble_csv, tmp_path):
        out = tmp_path / "r.json"
        assert main(["test", "--input", bubble_csv, "--column", "price",
                     "--stat", "sign_gsadf", "--out", str(out)]) == 0
        rep = _read(out)["result"]
        assert np.isfinite(rep["observed"])
        assert rep["sequence"] is None or rep["sequence"]["kind"].startswith("sign")


def _stat_choices(subcommand, capsys):
    with pytest.raises(SystemExit):
        main([subcommand, "--help"])
    found = re.search(r"--stat \{([^}]*)\}", capsys.readouterr().out)
    return None if found is None else tuple(found.group(1).split(","))


@pytest.mark.parametrize("stat", bt.STATISTICS)
def test_statistic_registry_contract(stat, tmp_path, capsys):
    # one registry describes each statistic to the CLI, the bootstrap and
    # the panel scans, so all three must agree on it
    for subcommand in ("test", "simulate-cv", "study"):
        assert _stat_choices(subcommand, capsys) == tuple(sorted(bt._REGISTRY))
    for subcommand in ("datestamp", "monitor"):
        assert _stat_choices(subcommand, capsys) is None

    values = _flat_values(T=60, seed=8)
    path = _write_csv(tmp_path / "walk.csv", values)
    reports = {}
    for cv in ("rule", "bootstrap"):
        out = tmp_path / f"{cv}.json"
        assert main(["test", "--input", path, "--column", "price", "--stat", stat,
                     "--cv", cv, "--B", "99", "--seed", "3", "--out", str(out)]) == 0
        reports[cv] = _read(out)["result"]
    rule, boot = reports["rule"], reports["bootstrap"]
    for key in ("observed", "argmax", "window"):
        assert rule[key] == boot[key]
    assert rule["sequence"]["values"] == boot["sequence"]["values"]

    entry = bt._REGISTRY[stat]
    tau0 = default_min_window(60)
    result = entry.observe(values, tau0, "const", 0)
    assert result.value == rule["observed"]
    panel = np.stack([values[::-1], values, values + np.linspace(0.0, 3.0, 60)])
    assert entry.scores(panel, tau0, "const", 0)[1] == result.value


class TestDatestampCommand:
    def test_psy_finds_the_bubble(self, bubble_csv, tmp_path):
        out = tmp_path / "r.json"
        assert main(["datestamp", "--input", bubble_csv, "--column", "price",
                     "--method", "psy", "--out", str(out)]) == 0
        rep = _read(out)["result"]
        assert rep["n_episodes"] == 1
        ep = rep["episodes"][0]
        assert abs(ep["origin_index"] - 40) <= 5
        assert ep["collapse_index"] >= 60
        assert rep["sequence"]["cv"] == rep["critical_value"]

    def test_no_crossing_gives_empty_episodes_exit_0(self, flat_csv, tmp_path):
        out = tmp_path / "r.json"
        assert main(["datestamp", "--input", flat_csv, "--column", "price",
                     "--method", "psy", "--out", str(out)]) == 0
        rep = _read(out)["result"]
        assert rep["episodes"] == []
        assert rep["n_episodes"] == 0

    @pytest.mark.parametrize("method", ["pwy", "two-step", "sign", "ssr-bic"])
    def test_other_methods_run(self, method, bubble_csv, tmp_path):
        out = tmp_path / "r.json"
        assert main(["datestamp", "--input", bubble_csv, "--column", "price",
                     "--method", method, "--out", str(out)]) == 0
        rep = _read(out)["result"]
        assert rep["method"] == method
        assert isinstance(rep["episodes"], list)

    def test_incompatible_flags(self, bubble_csv):
        assert main(["datestamp", "--input", bubble_csv, "--column", "price",
                     "--method", "sign", "--k", "2"]) == 1
        assert main(["datestamp", "--input", bubble_csv, "--column", "price",
                     "--cv", "bootstrap"]) == 1

    @pytest.mark.parametrize("method", ["sign", "ssr-bic"])
    def test_regression_options_need_an_adf_method(self, method, bubble_csv):
        cfg = RunConfig("datestamp", input=bubble_csv, column="price", method=method)
        for det, k in (("trend", 0), ("const", 1)):
            with pytest.raises(UsageError, match=f"^--det/--k cannot be combined with --method {method}: "):
                run_config(dataclasses.replace(cfg, det=det, k=k))
        # the defaults, given explicitly, are accepted
        assert run_config(dataclasses.replace(cfg, det="const", k=0))["result"]["method"] == method


class TestMonitorCommand:
    def test_alarm_inside_control_window(self, tmp_path):
        values = _bubble_values(T=60, start=25, stop=45, rho=1.08, seed=3)
        path = _write_csv(tmp_path / "m.csv", values)
        out = tmp_path / "r.json"
        argv = ["monitor", "--input", path, "--column", "price",
                "--B", "99", "--seed", "2", "--out", str(out)]
        assert main(argv) == 0
        rep = _read(out)["result"]
        m0, end = rep["window"]
        assert end == m0 + rep["span"] - 1
        assert len(rep["sequence"]["index"]) == rep["span"]
        assert rep["reject"] is True
        assert m0 <= rep["first_alarm"] <= end
        cv_first = rep["critical_value"]
        assert main(argv) == 0
        assert _read(out)["result"]["critical_value"] == cv_first

    def test_quiet_series_raises_no_alarm(self, flat_csv, tmp_path):
        out = tmp_path / "r.json"
        assert main(["monitor", "--input", flat_csv, "--column", "price",
                     "--B", "99", "--seed", "2", "--Tb", "12",
                     "--level", "0.99", "--out", str(out)]) == 0
        rep = _read(out)["result"]
        assert rep["span"] == 12
        assert rep["alarms"] == []
        assert rep["first_alarm"] is None
        assert rep["reject"] is False


class TestSimulateCvCommand:
    def test_writes_loadable_table(self, tmp_path):
        out = tmp_path / "r.json"
        tout = tmp_path / "tab.json"
        assert main(["simulate-cv", "--stat", "sadf", "--sizes", "40,60",
                     "--levels", "0.9,0.95", "--replications", "1000",
                     "--seed", "2", "--table-out", str(tout),
                     "--out", str(out)]) == 0
        rep = _read(out)["result"]
        assert len(rep["table"]["records"]) == 4
        table = CvTable.from_json(tout)
        assert table.lookup(60, 0.95) > table.lookup(60, 0.9)
        looked = {(r["T"], r["level"]): r["value"] for r in rep["table"]["records"]}
        assert looked[(60, 0.95)] == table.lookup(60, 0.95)
        # tables are immutable on disk
        assert main(["simulate-cv", "--stat", "sadf", "--sizes", "40",
                     "--replications", "1000", "--seed", "2",
                     "--table-out", str(tout)]) == 2

    def test_below_grade_warns_and_sizes_required(self, tmp_path):
        with pytest.warns(UserWarning, match="table grade"):
            assert main(["simulate-cv", "--stat", "sadf", "--sizes", "40",
                         "--replications", "200", "--seed", "1",
                         "--out", str(tmp_path / "r.json")]) == 0
        assert main(["simulate-cv", "--stat", "sadf"]) == 1
        assert main(["simulate-cv", "--stat", "sadf", "--sizes", "forty"]) == 1

    def test_below_grade_warning_prints_one_line(self, tmp_path):
        # the console shows the message alone, not the package's file and code
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        env.pop("PYTHONWARNINGS", None)
        argv = ["simulate-cv", "--stat", "sadf", "--sizes", "40", "--replications", "100",
                "--seed", "1", "--out", str(tmp_path / "r.json")]
        run = subprocess.run([sys.executable, "-m", "exuberance.cli", *argv],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 0
        assert run.stderr == (
            "warning: 100 replications is below table grade (1000); quantiles will be noisy\n"
        )


class TestStudyCommand:
    NULL = '{"kind": "rw_drift", "T": 60}'
    ALT = ('{"kind": "pwy_bubble", "T": 60, "tau_e": 0.4, "tau_c": 0.7, '
           '"c": 4.0, "alpha": 0.55}')

    def test_size_and_power(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["study", "--stat", "sadf", "--replications", "60",
                     "--cv-replications", "200", "--seed", "4",
                     "--null-spec", self.NULL, "--alt-spec", self.ALT,
                     "--out", str(out)]) == 0
        rep = _read(out)["result"]
        assert 0.0 <= rep["size"] <= 0.2
        assert rep["power"] > 0.8
        assert rep["level"] == pytest.approx(0.05)

    def test_spec_errors(self, tmp_path):
        assert main(["study", "--stat", "sadf"]) == 1
        assert main(["study", "--stat", "sadf", "--null-spec", '{"kind": "nope", "T": 60}']) == 1
        assert main(["study", "--stat", "sadf",
                     "--null-spec", str(tmp_path / "missing.json")]) == 2
        assert main(["study", "--stat", "sadf", "--null-spec", self.NULL,
                     "--cv", "bootstrap"]) == 1

    def test_volatility_paths_accepted(self, tmp_path):
        out = tmp_path / "r.json"
        vol = '{"kind": "single_break", "tau1": 0.5, "level": 1.0, "level2": 3.0}'
        assert main(["study", "--stat", "sign_sadf", "--replications", "40",
                     "--cv-replications", "200", "--seed", "4",
                     "--null-spec", self.NULL, "--null-vol", vol,
                     "--out", str(out)]) == 0
        rep = _read(out)
        assert rep["config"]["null_vol"]["kind"] == "single_break"
        assert 0.0 <= rep["result"]["size"] <= 0.3


class TestCvTableFiles:
    """`test` and `study` read a --cv table: file by one rule."""

    NULL = '{"kind": "rw_drift", "T": 60}'

    @staticmethod
    def _table(tmp_path, T):
        table = CvTable(
            statistic="sadf", tau0=None, det="const", k=0,
            sample_sizes=(T,), levels=(0.95,), values={(T, 0.95): 1.5},
            replications=2000, seed=0,
        )
        path = tmp_path / f"table{T}.json"
        table.to_json(path)
        return str(path)

    def test_default_rule_table_fits_test_and_study_alike(self, tmp_path):
        # a table at the per-T default tau0 fits a run that spells that tau0 out
        path = self._table(tmp_path, 60)
        tau0 = repr(default_min_window(60))
        csv = _write_csv(tmp_path / "flat.csv", _flat_values(T=60))
        out = tmp_path / "r.json"
        assert main(["test", "--input", csv, "--column", "price", "--stat", "sadf",
                     "--tau0", tau0, "--cv", f"table:{path}", "--out", str(out)]) == 0
        assert _read(out)["result"]["critical_value"] == 1.5
        assert main(["study", "--stat", "sadf", "--replications", "20",
                     "--null-spec", self.NULL, "--tau0", tau0,
                     "--cv", f"table:{path}", "--out", str(out)]) == 0
        assert _read(out)["result"]["critical_value"] == 1.5

    @pytest.mark.parametrize("case", ["missing-T", "fieldless", "not-json", "text-tau0"])
    @pytest.mark.parametrize("subcommand", ["test", "study"])
    def test_unusable_table_exits_2_without_traceback(self, case, subcommand, bubble_csv, tmp_path):
        if case == "missing-T":
            path = self._table(tmp_path, 40)
        elif case == "text-tau0":
            path = tmp_path / "table.json"
            path.write_text(json.dumps(dict(_read(self._table(tmp_path, 100)), tau0="auto")))
        else:
            path = tmp_path / "table.json"
            path.write_text('{"kind": "cv-table"}' if case == "fieldless" else "T,level,value\n")
        if subcommand == "test":
            argv = ["test", "--input", bubble_csv, "--column", "price", "--stat", "sadf"]
        else:
            argv = ["study", "--stat", "sadf", "--replications", "20", "--null-spec", self.NULL]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        run = subprocess.run([sys.executable, "-m", "exuberance.cli", *argv, "--cv", f"table:{path}"],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 2
        assert run.stderr.startswith("data error:")
        assert "Traceback" not in run.stderr
        if case == "missing-T":
            want = "no entry for T=100" if subcommand == "test" else "no entry for T=60"
            assert want in run.stderr


class TestRelateCommand:
    def _pair(self, tmp_path):
        rng = np.random.default_rng(11)
        T = 90
        core = np.empty(T)
        core[0] = 10.0
        for t in range(1, T):
            coeff = 1.06 if 30 <= t < 55 else 1.0
            core[t] = coeff * core[t - 1] + 0.3 * rng.standard_normal()
        target = np.empty(T)
        target[0] = 8.0
        for t in range(1, T):
            coeff = 1.06 if 34 <= t < 59 else 1.0
            target[t] = coeff * target[t - 1] + 0.3 * rng.standard_normal()
        return (
            _write_csv(tmp_path / "core.csv", core, header="v"),
            _write_csv(tmp_path / "target.csv", target, header="v"),
        )

    def test_cobubble(self, tmp_path):
        rng = np.random.default_rng(9)
        base = np.cumsum(rng.standard_normal(90))
        a = _write_csv(tmp_path / "a.csv", 2.0 * base + 0.01 * rng.standard_normal(90), header="v")
        b = _write_csv(tmp_path / "b.csv", base + 0.01 * rng.standard_normal(90), header="v")
        out = tmp_path / "r.json"
        argv = ["relate", "--method", "cobubble", "--input", a, "--input2", b,
                "--B", "199", "--seed", "5", "--out", str(out)]
        assert main(argv) == 0
        rep = _read(out)["result"]
        assert rep["method"] == "cobubble"
        assert 0.0 < rep["p_value"] <= 1.0
        p = rep["p_value"]
        assert main(argv) == 0
        assert _read(out)["result"]["p_value"] == p

    def test_contagion(self, tmp_path):
        core, target = self._pair(tmp_path)
        out = tmp_path / "r.json"
        assert main(["relate", "--method", "contagion", "--input", core,
                     "--input2", target, "--d-max", "8", "--out", str(out)]) == 0
        rep = _read(out)["result"]
        assert 0 <= rep["delay"] <= 8
        assert 0.0 <= rep["r2"] <= 1.0
        # the delay is estimated on rolling windows as long as the
        # resolved minimum window, not on expanding (recursive) ones
        x, y = load_series(core), load_series(target)
        window = frac_to_index(default_min_window(len(x)), len(x))
        direct = contagion_delay(
            rolling_ar_coefficients(x, window),
            rolling_ar_coefficients(y, window),
            range(0, 9),
        )
        assert rep["delay"] == direct.delay
        assert rep["r2"] == direct.r2

    def test_migration(self, tmp_path):
        core, target = self._pair(tmp_path)
        out = tmp_path / "r.json"
        assert main(["relate", "--method", "migration", "--input", core,
                     "--input2", target, "--origin-x", "31", "--origin-y", "45",
                     "--out", str(out)]) == 0
        rep = _read(out)["result"]
        assert 0.0 <= rep["p_value"] <= 1.0
        # origins are mandatory
        assert main(["relate", "--method", "migration", "--input", core,
                     "--input2", target]) == 1
        # a window too small to regress on is a data problem
        assert main(["relate", "--method", "migration", "--input", core,
                     "--input2", target, "--origin-x", "31", "--origin-y", "34"]) == 2

    def test_non_finite_result_written_as_null(self, tmp_path):
        # a tiny scale overflows the migration statistic to -inf
        core, target = self._pair(tmp_path)
        out = tmp_path / "r.json"
        assert main(["relate", "--method", "migration", "--input", core,
                     "--input2", target, "--origin-x", "31", "--origin-y", "45",
                     "--scale", "1e-320", "--out", str(out)]) == 0
        rep = _read(out)["result"]
        assert rep["z_beta"] is None
        assert rep["p_value"] == 1.0

    def test_method_required(self, tmp_path):
        core, target = self._pair(tmp_path)
        assert main(["relate", "--input", core, "--input2", target]) == 1


class TestPlotData:
    def _datestamp_report(self, bubble_csv, tmp_path):
        out = tmp_path / "ds.json"
        assert main(["datestamp", "--input", bubble_csv, "--column", "price",
                     "--method", "psy", "--out", str(out)]) == 0
        return out

    def test_rows_match_sequence_and_episodes(self, bubble_csv, tmp_path):
        report_path = self._datestamp_report(bubble_csv, tmp_path)
        csv_path = tmp_path / "plot.csv"
        assert main(["plot-data", "--input", str(report_path),
                     "--out", str(csv_path)]) == 0
        rows = csv_path.read_text().strip().splitlines()
        rep = _read(report_path)["result"]
        assert rows[0] == "index,label,statistic,cv,in_episode"
        assert len(rows) - 1 == len(rep["sequence"]["index"])
        ep = rep["episodes"][0]
        flagged = [int(r.split(",")[0]) for r in rows[1:] if r.endswith(",1")]
        assert flagged[0] == ep["origin_index"]
        assert flagged[-1] == ep["collapse_index"]
        assert flagged == list(range(ep["origin_index"], ep["collapse_index"] + 1))

    def test_no_episodes_flags_nothing(self, flat_csv, tmp_path):
        out = tmp_path / "ds.json"
        assert main(["datestamp", "--input", flat_csv, "--column", "price",
                     "--method", "psy", "--out", str(out)]) == 0
        csv_path = tmp_path / "plot.csv"
        n = emit_plot_data(str(out), csv_path)
        rows = csv_path.read_text().strip().splitlines()
        assert len(rows) - 1 == n
        assert all(r.endswith(",0") for r in rows[1:])

    def test_episodes_without_sequence(self, tmp_path):
        report = {"result": {"episodes": [
            {"origin_index": 5, "collapse_index": 8, "recovery_index": None},
        ]}}
        csv_path = tmp_path / "plot.csv"
        assert emit_plot_data(report, csv_path) == 4
        rows = csv_path.read_text().strip().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["5", "6", "7", "8"]
        assert all(r.endswith(",1") for r in rows[1:])

    def test_sequence_free_report_is_an_error(self, tmp_path):
        with pytest.raises(DataError, match="no statistic sequence"):
            emit_plot_data({"result": {"size": 0.05}}, tmp_path / "x.csv")
        assert main(["plot-data", "--input", "nope.json", "--out", "x.csv"]) == 2
        assert main(["plot-data", "--out", "x.csv"]) == 1


class TestLabels:
    """A CSV read with --label-column gives its labels to the report's
    sequence, and plot-data writes them."""

    @pytest.mark.parametrize("command", [["test"], ["monitor", "--B", "99", "--seed", "2"]])
    def test_sequence_labels_reach_plot_data(self, bubble_csv, tmp_path, command):
        out = tmp_path / "r.json"
        assert main([*command, "--input", bubble_csv, "--column", "price",
                     "--label-column", "date", "--out", str(out)]) == 0
        seq = _read(out)["result"]["sequence"]
        assert seq["labels"] == [f"d{i - 1:03d}" for i in seq["index"]]
        csv_path = tmp_path / "plot.csv"
        assert main(["plot-data", "--input", str(out), "--out", str(csv_path)]) == 0
        rows = [r.split(",") for r in csv_path.read_text().strip().splitlines()[1:]]
        assert [(int(r[0]), r[1]) for r in rows] == list(zip(seq["index"], seq["labels"]))

    def test_hb_chow_break_index_zero_has_no_label(self, bubble_csv, tmp_path):
        # the sup-Chow grid starts at break index 0, before any observation
        out = tmp_path / "r.json"
        assert main(["test", "--stat", "hb_chow", "--input", bubble_csv, "--column", "price",
                     "--label-column", "date", "--out", str(out)]) == 0
        seq = _read(out)["result"]["sequence"]
        assert seq["index"][0] == 0 and seq["labels"][0] is None
        assert seq["labels"][1:] == [f"d{i - 1:03d}" for i in seq["index"][1:]]
        csv_path = tmp_path / "plot.csv"
        assert main(["plot-data", "--input", str(out), "--out", str(csv_path)]) == 0
        first = csv_path.read_text().splitlines()[1].split(",")
        assert first[:2] == ["0", ""]


class TestDeterminism:
    def _strip_created(self, text: str) -> str:
        return re.sub(r'"created": "[^"]*"', '"created": null', text)

    def test_same_invocation_byte_identical(self, bubble_csv, tmp_path):
        out = tmp_path / "r.json"
        argv = ["test", "--input", bubble_csv, "--column", "price",
                "--cv", "bootstrap", "--B", "99", "--seed", "11", "--out", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        second = out.read_bytes()
        assert self._strip_created(first.decode()) == self._strip_created(second.decode())

    def test_rerun_from_embedded_config(self, bubble_csv, tmp_path):
        out = tmp_path / "r.json"
        assert main(["test", "--input", bubble_csv, "--column", "price",
                     "--cv", "bootstrap", "--B", "99", "--seed", "11",
                     "--out", str(out)]) == 0
        original = _read(out)
        out2 = tmp_path / "r2.json"
        assert main(["test", "--config", str(out), "--out", str(out2)]) == 0
        rerun = _read(out2)
        assert rerun["result"] == original["result"]
        assert rerun["config"]["seed"] == 11

    def test_config_subcommand_mismatch(self, bubble_csv, tmp_path):
        out = tmp_path / "r.json"
        assert main(["test", "--input", bubble_csv, "--column", "price",
                     "--out", str(out)]) == 0
        assert main(["monitor", "--config", str(out)]) == 1

    def test_env_var_seed(self, flat_csv, tmp_path, monkeypatch):
        out = tmp_path / "r.json"
        monkeypatch.setenv(SEED_ENV_VAR, "77")
        assert main(["test", "--input", flat_csv, "--column", "price",
                     "--cv", "bootstrap", "--B", "99", "--out", str(out)]) == 0
        assert _read(out)["config"]["seed"] == 77
        # an explicit flag wins over the environment
        assert main(["test", "--input", flat_csv, "--column", "price",
                     "--cv", "bootstrap", "--B", "99", "--seed", "3",
                     "--out", str(out)]) == 0
        assert _read(out)["config"]["seed"] == 3
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        assert main(["test", "--input", flat_csv, "--column", "price"]) == 1

    def test_run_config_api_matches_cli(self, bubble_csv):
        cfg = RunConfig(subcommand="test", input=bubble_csv, column="price",
                        stat="sadf", seed=2)
        rep1 = run_config(cfg)
        rep2 = run_config(cfg)
        assert rep1["result"] == rep2["result"]
        assert rep1["config"] == rep2["config"]
        assert rep1["kind"] == "exuberance-report"


class TestNonFiniteReports:
    """The engine reads an exactly fitting window as +inf; reports write it as null."""

    @pytest.fixture
    def stretch_csv(self, tmp_path):
        # a walk with a noiseless 4% exponential stretch of 20 observations
        rng = np.random.default_rng(5)
        head = 100 + np.cumsum(rng.standard_normal(40))
        stretch = head[-1] * 1.04 ** np.arange(1, 21)
        tail = stretch[-1] + np.cumsum(rng.standard_normal(40))
        return _write_csv(tmp_path / "stretch.csv", np.concatenate([head, stretch, tail]))

    @pytest.mark.parametrize("cv", [["--cv", "rule"], ["--cv", "bootstrap", "--B", "99"]])
    def test_exact_fit_writes_null(self, stretch_csv, tmp_path, capsys, cv):
        out = tmp_path / "r.json"
        assert main(["test", "--stat", "gsadf", "--input", stretch_csv, *cv, "--out", str(out)]) == 0
        rep = _read(out)["result"]
        assert rep["observed"] is None and rep["reject"] is True
        assert np.isfinite(rep["critical_value"])
        assert capsys.readouterr().out.startswith(f"gsadf = null | cv({cv[1]}) = ")

    def test_study_refuses_unknown_cv(self, tmp_path, capsys):
        argv = ["study", "--stat", "sadf", "--replications", "20", "--cv-replications", "100",
                "--null-spec", '{"kind": "rw_drift", "T": 40}']
        message = "usage error: --cv must be 'rule', 'bootstrap', or 'table:<path>', got 'nope'\n"
        assert main([*argv, "--cv", "nope"]) == 1
        assert capsys.readouterr().err == message
        config = tmp_path / "study.json"
        config.write_text(json.dumps({"subcommand": "study", "cv": "nope"}))
        assert main([*argv, "--config", str(config)]) == 1
        assert capsys.readouterr().err == message
        with pytest.raises(UsageError, match="got 'nope'"):
            RunConfig(subcommand="study", cv="nope")
