"""Command line front end for reproducible runs.

Every invocation is resolved into a :class:`RunConfig`, executed, and
written out as a JSON report that embeds the full config.  Re-running
``<subcommand> --config report.json`` reproduces every number exactly:
all randomness flows through the recorded seed, never the wall clock.
Only the ``created`` timestamp differs between two runs of the same
config.

Exit codes: 0 when the run completed (a non-rejection is not an error),
1 for usage or contract problems, 2 for data problems.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone

import numpy as np

from . import ols
from .bootstrap import (
    MULTIPLIERS,
    STATISTICS,
    composite_monitor_cv,
    wild_bootstrap_pvalue,
)
from .datestamp import (
    episodes_to_json,
    psy_stamp,
    pwy_stamp,
    rule_critical_value,
    select_model_bic,
    sign_stamp,
    two_step_stamp,
)
from .dgpsim import CvTable, DgpSpec, VolPath, size_power_study, tabulate_critical_values
from .exceptions import DataError, DegenerateFitError, ExuberanceError
from .inference import (
    cobubble_test,
    contagion_delay,
    migration_test,
    recursive_ar_coefficients,
    rolling_ar_coefficients,
)
from .recursive import gsadf, hb_sup_chow, sadf, sadf_gls
from .robust import sbz, sign_statistics, time_transformed_tests
from .series import default_min_window, frac_to_index, load_series

__all__ = [
    "RunConfig",
    "UsageError",
    "run_config",
    "emit_plot_data",
    "main",
    "SCHEMA_VERSION",
    "SEED_ENV_VAR",
]

#: Version of the JSON report layout; breaking changes bump it.
SCHEMA_VERSION = 1

#: Environment variable consulted for the default seed when neither the
#: command line nor a config file provides one.
SEED_ENV_VAR = "EXUBERANCE_SEED"

SUBCOMMANDS = ("test", "datestamp", "monitor", "simulate-cv", "study", "relate", "plot-data")
DATESTAMP_METHODS = ("pwy", "psy", "two-step", "sign", "ssr-bic")
RELATE_METHODS = ("migration", "contagion", "cobubble")
DET_CHOICES = ("none", "const", "trend")

#: Options each statistic actually consumes; anything else set to a
#: non-default value is an incompatible combination and is rejected.
_STAT_USES = {
    "sadf": frozenset({"det", "k"}),
    "gsadf": frozenset({"det", "k"}),
    "hb_chow": frozenset({"k"}),
    "sadf_gls": frozenset({"det"}),
    "sbz": frozenset(),
    "sign_sadf": frozenset(),
    "sign_gsadf": frozenset(),
    "stadf": frozenset(),
    "gstadf": frozenset(),
}

_STAT_EXPLAIN = {
    "hb_chow": "the sup-Chow statistic fixes its own deterministic terms",
    "sadf_gls": "the GLS-demeaned statistic does not take lag augmentation",
    "sbz": "the variance-profile statistic is tuned by bandwidth, not regression options",
    "sign_sadf": "sign statistics are rank-based and ignore regression options",
    "sign_gsadf": "sign statistics are rank-based and ignore regression options",
    "stadf": "time-transformed statistics are tuned by bandwidth, not regression options",
    "gstadf": "time-transformed statistics are tuned by bandwidth, not regression options",
}


class UsageError(ExuberanceError):
    """Raised for bad flags, bad config files, or incompatible options."""


@dataclass(frozen=True)
class RunConfig:
    """Complete, serializable description of one CLI run.

    A report's ``config`` block is exactly this dataclass as a dict, so
    any report doubles as a config file for ``--config``.
    """

    subcommand: str
    input: str | None = None
    input2: str | None = None
    column: str | None = None
    label_column: str | None = None
    stat: str = "gsadf"
    method: str | None = None
    tau0: float | str = "auto"
    det: str = "const"
    k: int = 0
    B: int = 499
    seed: int = 0
    level: float = 0.95
    cv: str = "rule"
    Tb: int = 24
    multiplier: str = "gaussian"
    epsilon: float = 0.01
    delay: int = 0
    d_max: int = 12
    origin_x: int | None = None
    origin_y: int | None = None
    scale: float | None = None
    sizes: tuple[int, ...] | None = None
    levels: tuple[float, ...] | None = None
    replications: int | None = None
    cv_replications: int | None = None
    null_spec: dict | None = None
    alt_spec: dict | None = None
    null_vol: dict | None = None
    alt_vol: dict | None = None
    table_out: str | None = None
    out: str | None = None

    def __post_init__(self) -> None:
        if self.subcommand not in SUBCOMMANDS:
            raise UsageError(
                f"unknown subcommand {self.subcommand!r}; choose from {SUBCOMMANDS}"
            )
        if isinstance(self.tau0, str) and self.tau0 != "auto":
            raise UsageError(f"tau0 must be a number or 'auto', got {self.tau0!r}")
        if not 0.0 < self.level < 1.0:
            raise UsageError(f"level must lie in (0, 1), got {self.level}")

    def to_dict(self) -> dict:
        return _jsonable(asdict(self))

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        data = dict(raw)
        # configs embedded in older reports carry the removed engine option
        if data.pop("threads", None) is not None:
            raise UsageError("the 'threads' option was removed: the scan engine is single-threaded numpy")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise UsageError(f"unknown config fields: {', '.join(unknown)}")
        for name in ("sizes", "levels"):
            if data.get(name) is not None:
                data[name] = tuple(data[name])
        return cls(**data)


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays and non-finite floats."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else None
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _resolve_tau0(tau0, T: int) -> float:
    if tau0 is None or tau0 == "auto":
        return default_min_window(T)
    return float(tau0)


def _load_input(config: RunConfig, attr: str = "input"):
    path = getattr(config, attr)
    if path is None:
        raise UsageError(f"--{attr} is required for '{config.subcommand}'")
    column = config.column
    if isinstance(column, str) and column.lstrip("-").isdigit():
        column = int(column)
    label_column = config.label_column
    if isinstance(label_column, str) and label_column.lstrip("-").isdigit():
        label_column = int(label_column)
    return load_series(path, column=column, label_column=label_column)


def _check_stat_options(stat: str, config: RunConfig) -> None:
    uses = _STAT_USES.get(stat)
    if uses is None:
        raise UsageError(f"unknown statistic {stat!r}; choose from {STATISTICS}")
    offending = []
    if "det" not in uses and config.det != "const":
        offending.append(f"--det {config.det}")
    if "k" not in uses and config.k != 0:
        offending.append(f"--k {config.k}")
    if offending:
        raise UsageError(
            f"{' and '.join(offending)} cannot be combined with --stat {stat}: "
            f"{_STAT_EXPLAIN.get(stat, 'the statistic ignores these options')}"
        )


def _sequence_dict(seq, series=None, cv=None) -> dict:
    ends = np.rint(np.asarray(seq.tau2, dtype=float) * seq.nobs).astype(int)
    out = {
        "kind": seq.kind,
        "tau0": float(seq.tau0),
        "nobs": int(seq.nobs),
        "index": ends.tolist(),
        "values": _jsonable(np.asarray(seq.values, dtype=float)),
    }
    labels = getattr(series, "labels", None)
    if labels is not None:
        out["labels"] = [str(labels[i - 1]) for i in ends]
    if cv is not None:
        out["cv"] = _jsonable(cv)
    return out


def _observed_statistic(stat: str, series, tau0: float, det: str, k: int):
    """Observed value plus whatever window/sequence detail the statistic has."""
    if stat == "sadf":
        res = sadf(series, tau0=tau0, det=det, k=k)
    elif stat == "gsadf":
        res = gsadf(series, tau0=tau0, det=det, k=k)
    elif stat == "hb_chow":
        res = hb_sup_chow(series, tau0=tau0, k=k)
    elif stat == "sadf_gls":
        res = sadf_gls(series, tau0=tau0, det=det)
    elif stat == "sbz":
        res = sbz(series, tau0=tau0)
    elif stat in ("sign_sadf", "sign_gsadf"):
        ss = sign_statistics(series, tau0=tau0)
        res = ss.ssadf if stat == "sign_sadf" else ss.sgsadf
    elif stat in ("stadf", "gstadf"):
        tt = time_transformed_tests(series, tau0=tau0)
        res = tt.stadf if stat == "stadf" else tt.gstadf
    else:  # pragma: no cover - guarded by _check_stat_options
        raise UsageError(f"unknown statistic {stat!r}")
    return float(res.value), res.argmax, res.window, res.sequence


def _table_critical_value(config: RunConfig, path: str, T: int, tau0: float) -> float:
    table = CvTable.from_json(path)
    if table.statistic != config.stat:
        raise DataError(
            f"table at {path} tabulates {table.statistic!r}, not {config.stat!r}"
        )
    if table.det != config.det or table.k != config.k:
        raise DataError(
            f"table at {path} was simulated with det={table.det!r}, k={table.k}; "
            f"this run uses det={config.det!r}, k={config.k}"
        )
    if table.tau0 is None:
        if config.tau0 != "auto" and abs(tau0 - default_min_window(T)) > 1e-12:
            raise DataError(
                f"table at {path} uses the default minimum-window rule but this "
                f"run fixes tau0={tau0}"
            )
    elif abs(float(table.tau0) - tau0) > 1e-12:
        raise DataError(
            f"table at {path} was simulated at tau0={table.tau0}, not {tau0}"
        )
    try:
        return table.lookup(T, config.level)
    except KeyError as exc:
        raise DataError(exc.args[0]) from exc


def _run_test(config: RunConfig) -> dict:
    series = _load_input(config)
    T = len(series)
    tau0 = _resolve_tau0(config.tau0, T)
    _check_stat_options(config.stat, config)
    observed, argmax, window, seq = _observed_statistic(
        config.stat, series, tau0, config.det, config.k
    )

    p_value = None
    n_degenerate = 0
    if config.cv == "rule":
        cv = rule_critical_value(T)
        cv_source = "rule"
        reject = observed > cv
    elif config.cv.startswith("table:"):
        cv = _table_critical_value(config, config.cv[len("table:"):], T, tau0)
        cv_source = "table"
        reject = observed > cv
    elif config.cv == "bootstrap":
        rep = wild_bootstrap_pvalue(
            series, config.stat, tau0=tau0, B=config.B,
            multiplier=config.multiplier, seed=config.seed,
            det=config.det, k=config.k,
        )
        p_value = rep.p_value
        cv = float(np.nanquantile(rep.replicates, config.level, method="higher"))
        cv_source = "bootstrap"
        n_degenerate = rep.n_degenerate
        reject = p_value <= 1.0 - config.level
    else:
        raise UsageError(
            f"--cv must be 'rule', 'bootstrap', or 'table:<path>', got {config.cv!r}"
        )

    return {
        "T": T,
        "name": series.name,
        "statistic": config.stat,
        "observed": observed,
        "tau0": tau0,
        "argmax": _jsonable(argmax),
        "window": _jsonable(window),
        "cv_source": cv_source,
        "critical_value": float(cv),
        "p_value": p_value,
        "level": config.level,
        "reject": bool(reject),
        "n_degenerate": int(n_degenerate),
        "sequence": None if seq is None else _sequence_dict(seq, series, cv=float(cv)),
    }


def _run_datestamp(config: RunConfig) -> dict:
    method = config.method or "psy"
    if method not in DATESTAMP_METHODS:
        raise UsageError(
            f"unknown date-stamping method {method!r}; choose from {DATESTAMP_METHODS}"
        )
    if config.cv != "rule":
        raise UsageError(
            "datestamp uses the slowly diverging critical-value rule; "
            "--cv table:/bootstrap apply to 'test' decisions, not stamping"
        )
    series = _load_input(config)
    T = len(series)
    tau0 = _resolve_tau0(config.tau0, T)
    seq = None
    extra: dict = {}
    if method in ("sign", "ssr-bic") and (config.det != "const" or config.k != 0):
        raise UsageError(
            f"--det/--k cannot be combined with --method {method}: "
            "this estimator does not run ADF-style regressions"
        )
    if method == "pwy":
        res = sadf(series, tau0=tau0, det=config.det, k=config.k)
        episodes = pwy_stamp(res.sequence)
        seq = res.sequence
    elif method == "psy":
        res = gsadf(series, tau0=tau0, det=config.det, k=config.k)
        episodes = psy_stamp(res.sequence)
        seq = res.sequence
    elif method == "two-step":
        episodes = two_step_stamp(series, tau0=tau0, det=config.det, k=config.k)
    elif method == "sign":
        episodes = [sign_stamp(series, tau0=tau0, epsilon=config.epsilon)]
    else:  # ssr-bic
        selection = select_model_bic(series)
        episodes = [selection.episode]
        extra = {
            "model": selection.model,
            "bic": _jsonable(selection.bic),
            "ssr": _jsonable(selection.ssr),
            "break_dates": _jsonable(selection.dates),
        }
    cv = rule_critical_value(T)
    return {
        "T": T,
        "name": series.name,
        "method": method,
        "tau0": tau0,
        "critical_value": cv if method in ("pwy", "psy", "two-step") else None,
        "episodes": json.loads(episodes_to_json(episodes)),
        "n_episodes": len(episodes),
        "sequence": None if seq is None else _sequence_dict(seq, series, cv=cv),
        **extra,
    }


def _run_monitor(config: RunConfig) -> dict:
    series = _load_input(config)
    T = len(series)
    tau0 = _resolve_tau0(config.tau0, T)
    report = composite_monitor_cv(
        series, tau0=tau0, span=config.Tb, B=config.B, level=config.level,
        k=config.k, det=config.det, multiplier=config.multiplier, seed=config.seed,
    )
    m0, end = report.window
    maxvals, _, _ = ols.bsadf_backward(
        np.asarray(series.values, dtype=float)[:end], m0, det=config.det, k=config.k
    )
    vals = maxvals[m0:]
    index = list(range(m0, end + 1))
    cv = report.critical_value
    with np.errstate(invalid="ignore"):
        flags = np.asarray(vals > cv)
    alarms = [index[i] for i in np.flatnonzero(flags)]
    return {
        "T": T,
        "name": series.name,
        "tau0": report.tau0,
        "span": report.span,
        "window": [m0, end],
        "critical_value": cv,
        "level": report.level,
        "B": report.B,
        "seed": report.seed,
        "multiplier": report.multiplier,
        "n_degenerate": report.n_degenerate,
        "observed_max": _jsonable(np.nanmax(vals)) if np.any(~np.isnan(vals)) else None,
        "alarms": alarms,
        "first_alarm": alarms[0] if alarms else None,
        "reject": bool(alarms),
        "sequence": {
            "kind": "monitor_bsadf",
            "tau0": report.tau0,
            "nobs": T,
            "index": index,
            "values": _jsonable(vals),
            "cv": cv,
        },
    }


def _run_simulate_cv(config: RunConfig) -> dict:
    if config.sizes is None:
        raise UsageError("--sizes is required for 'simulate-cv' (e.g. --sizes 100,200)")
    tau0 = None if config.tau0 == "auto" else float(config.tau0)
    table = tabulate_critical_values(
        config.stat,
        config.sizes,
        tau0=tau0,
        det=config.det,
        k=config.k,
        levels=config.levels or (0.90, 0.95, 0.99),
        replications=config.replications or 2000,
        seed=config.seed,
    )
    if config.table_out:
        table.to_json(config.table_out)
    return {"table": table.to_dict(), "table_out": config.table_out}


def _build_spec(raw: dict | None, which: str) -> DgpSpec:
    if raw is None:
        raise UsageError(f"--{which} is required for 'study' (inline JSON or a file path)")
    try:
        return DgpSpec(**raw)
    except TypeError as exc:
        raise UsageError(f"bad --{which}: {exc}") from exc


def _build_vol(raw: dict | None, which: str) -> VolPath | None:
    if raw is None:
        return None
    try:
        return VolPath(**raw)
    except TypeError as exc:
        raise UsageError(f"bad --{which}: {exc}") from exc


def _run_study(config: RunConfig) -> dict:
    null_spec = _build_spec(config.null_spec, "null-spec")
    alt_spec = _build_spec(config.alt_spec, "alt-spec") if config.alt_spec else null_spec
    cv = None
    if config.cv.startswith("table:"):
        cv = CvTable.from_json(config.cv[len("table:"):])
    elif config.cv == "bootstrap":
        raise UsageError(
            "'study' calibrates critical values by simulation; use --cv rule "
            "(internal tabulation) or --cv table:<path>"
        )
    tau0 = None if config.tau0 == "auto" else float(config.tau0)
    study = size_power_study(
        config.stat,
        null_spec,
        alt_spec,
        replications=config.replications or 1000,
        level=1.0 - config.level,
        seed=config.seed,
        tau0=tau0,
        det=config.det,
        k=config.k,
        cv=cv,
        null_vol=_build_vol(config.null_vol, "null-vol"),
        alt_vol=_build_vol(config.alt_vol, "alt-vol"),
        cv_replications=config.cv_replications,
    )
    return study.to_dict()


def _run_relate(config: RunConfig) -> dict:
    method = config.method
    if method not in RELATE_METHODS:
        raise UsageError(
            f"--method is required for 'relate'; choose from {RELATE_METHODS}"
        )
    first = _load_input(config, "input")
    second = _load_input(config, "input2")
    if method == "cobubble":
        res = cobubble_test(
            first, second, delay=config.delay, B=config.B,
            seed=config.seed, multiplier=config.multiplier,
        )
        return {"method": method, **json.loads(res.to_json())}
    tau0 = _resolve_tau0(config.tau0, len(first))
    if method == "contagion":
        if config.d_max < 0:
            raise UsageError(f"--d-max must be >= 0, got {config.d_max}")
        # contagion compares rolling windows of one common length: the
        # minimum window that --tau0 gives on the first series
        window = frac_to_index(tau0, len(first))
        res = contagion_delay(
            rolling_ar_coefficients(first, window),
            rolling_ar_coefficients(second, window),
            range(0, config.d_max + 1),
        )
        return {"method": method, **json.loads(res.to_json())}
    # migration
    if config.origin_x is None or config.origin_y is None:
        raise UsageError(
            "migration needs the two origination dates: --origin-x and --origin-y "
            "(1-based observation indices)"
        )
    res = migration_test(
        recursive_ar_coefficients(first, tau0=tau0),
        recursive_ar_coefficients(second, tau0=tau0),
        config.origin_x, config.origin_y, scale=config.scale,
    )
    return {"method": method, **json.loads(res.to_json())}


def _run_plot_data(config: RunConfig) -> dict:
    if config.input is None:
        raise UsageError("--input is required for 'plot-data' (a report JSON path)")
    if config.out is None:
        raise UsageError("--out is required for 'plot-data' (the CSV destination)")
    n = emit_plot_data(config.input, config.out)
    return {"rows": n, "csv": config.out}


_DISPATCH = {
    "test": _run_test,
    "datestamp": _run_datestamp,
    "monitor": _run_monitor,
    "simulate-cv": _run_simulate_cv,
    "study": _run_study,
    "relate": _run_relate,
    "plot-data": _run_plot_data,
}


def run_config(config: RunConfig) -> dict:
    """Execute one configured run and return the report as a dict."""
    runner = _DISPATCH.get(config.subcommand)
    if runner is None:  # pragma: no cover - guarded by RunConfig
        raise UsageError(f"unknown subcommand {config.subcommand!r}")
    result = runner(config)
    return {
        "schema": SCHEMA_VERSION,
        "kind": "exuberance-report",
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "config": config.to_dict(),
        "result": result,
    }


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def _episode_ranges(episodes) -> list[tuple[int, int]]:
    ranges = []
    for ep in episodes:
        start = ep.get("origin_index")
        if start is None:
            continue
        end = ep.get("recovery_index")
        if end is None:
            end = ep.get("collapse_index")
        if end is None:
            end = start
        ranges.append((int(start), int(end)))
    return ranges


def emit_plot_data(report, path) -> int:
    """Write a report's sequence and episode flags as a tidy CSV.

    One row per sequence point with columns ``index, label, statistic,
    cv, in_episode``; reports carrying only episodes emit the flagged
    index ranges.  Returns the number of data rows written.
    """
    if isinstance(report, (str, os.PathLike)):
        try:
            with open(report, encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise DataError(f"cannot read report {report}: {exc}") from exc
    if not isinstance(report, dict):
        raise DataError("emit_plot_data expects a report dict or a report path")
    result = report.get("result", report)
    seq = result.get("sequence")
    episodes = result.get("episodes") or []
    if seq is None and not episodes:
        raise DataError("report contains no statistic sequence or episodes to plot")
    ranges = _episode_ranges(episodes)

    def flagged(i: int) -> int:
        return int(any(lo <= i <= hi for lo, hi in ranges))

    rows = []
    if seq is not None:
        index = seq["index"]
        values = seq["values"]
        labels = seq.get("labels") or [str(i) for i in index]
        cv = seq.get("cv")
        cvs = cv if isinstance(cv, list) else [cv] * len(index)
        for i, lab, val, c in zip(index, labels, values, cvs):
            rows.append([
                i, lab,
                "" if val is None else repr(float(val)),
                "" if c is None else repr(float(c)),
                flagged(i),
            ])
    else:
        for lo, hi in ranges:
            for i in range(lo, hi + 1):
                rows.append([i, str(i), "", "", 1])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "label", "statistic", "cv", "in_episode"])
        writer.writerows(rows)
    return len(rows)


def _json_or_path(text: str) -> dict:
    """Parse inline JSON, or read JSON from a file path."""
    text = text.strip()
    if text.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"bad inline JSON: {exc}") from exc
    try:
        with open(text, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read JSON from {text}: {exc}") from exc


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}") from exc


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise UsageError(f"expected a comma-separated number list, got {text!r}") from exc


def _tau0_arg(text: str):
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError as exc:
        raise UsageError(f"--tau0 must be a number or 'auto', got {text!r}") from exc


class _Parser(argparse.ArgumentParser):
    """Argument parser whose errors become UsageError (exit code 1)."""

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="exuberance", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--config", help="config or report JSON to re-run")
    common.add_argument("--out", help="report destination (stdout when omitted)")
    common.add_argument("--seed", type=int, help=f"RNG seed (default ${SEED_ENV_VAR} or 0)")

    data = _Parser(add_help=False)
    data.add_argument("--input", help="CSV series file")
    data.add_argument("--column", help="value column name or index")
    data.add_argument("--label-column", help="label column name or index")

    statopts = _Parser(add_help=False)
    statopts.add_argument("--stat", choices=STATISTICS, help="statistic (default gsadf)")
    statopts.add_argument("--tau0", type=_tau0_arg, help="minimum window fraction or 'auto'")
    statopts.add_argument("--det", choices=DET_CHOICES, help="deterministic terms (default const)")
    statopts.add_argument("--k", type=int, help="ADF lag order (default 0)")

    boot = _Parser(add_help=False)
    boot.add_argument("--B", type=int, help="bootstrap replications (default 499)")
    boot.add_argument("--multiplier", choices=MULTIPLIERS, help="wild multiplier (default gaussian)")
    boot.add_argument("--level", type=float, help="confidence level (default 0.95)")

    p = sub.add_parser("test", parents=[common, data, statopts, boot],
                       help="one right-tailed test with a cv or bootstrap decision")
    p.add_argument("--cv", help="rule | table:<path> | bootstrap (default rule)")

    p = sub.add_parser("datestamp", parents=[common, data, statopts],
                       help="stamp explosive episodes")
    p.add_argument("--method", choices=DATESTAMP_METHODS, help="default psy")
    p.add_argument("--epsilon", type=float, help="sign-dating trim (default 0.01)")
    p.add_argument("--cv", help=argparse.SUPPRESS)

    p = sub.add_parser("monitor", parents=[common, data, statopts, boot],
                       help="composite sequential monitoring over a control window")
    p.add_argument("--Tb", type=int, help="monitoring window length (default 24)")

    p = sub.add_parser("simulate-cv", parents=[common, statopts],
                       help="tabulate Monte Carlo critical values")
    p.add_argument("--sizes", type=_int_list, help="sample sizes, e.g. 100,200,400")
    p.add_argument("--levels", type=_float_list, help="quantile levels (default 0.9,0.95,0.99)")
    p.add_argument("--replications", type=int, help="Monte Carlo draws (default 2000)")
    p.add_argument("--table-out", help="also write the table alone to this path")

    p = sub.add_parser("study", parents=[common, statopts],
                       help="size/power study under configurable generators")
    p.add_argument("--level", type=float, help="confidence level (default 0.95)")
    p.add_argument("--replications", type=int, help="study replications (default 1000)")
    p.add_argument("--cv-replications", type=int, help="internal tabulation draws")
    p.add_argument("--cv", help="rule (= simulate internally) | table:<path>")
    p.add_argument("--null-spec", help="null DGP (inline JSON or file)")
    p.add_argument("--alt-spec", help="alternative DGP (default: null)")
    p.add_argument("--null-vol", help="null volatility path JSON")
    p.add_argument("--alt-vol", help="alternative volatility path JSON")

    p = sub.add_parser("relate", parents=[common, data, boot],
                       help="migration, contagion-delay, or co-bubble analysis of two series")
    p.add_argument("--input2", help="second CSV series file")
    p.add_argument("--method", choices=RELATE_METHODS)
    p.add_argument("--tau0", type=_tau0_arg, help="minimum window fraction or 'auto'")
    p.add_argument("--delay", type=int, help="co-bubble alignment delay (default 0)")
    p.add_argument("--d-max", type=int, help="largest contagion delay scanned (default 12)")
    p.add_argument("--origin-x", type=int, help="first series origination index")
    p.add_argument("--origin-y", type=int, help="second series origination index")
    p.add_argument("--scale", type=float, help="migration normalization (default log window)")

    p = sub.add_parser("plot-data", parents=[common],
                       help="emit a report's sequence/episodes as tidy CSV")
    p.add_argument("--input", help="report JSON path")

    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    if isinstance(raw, dict) and "config" in raw and "subcommand" not in raw:
        raw = raw["config"]
    if not isinstance(raw, dict):
        raise DataError(f"config {path} is not a JSON object")
    return raw


def _merge_config(args: argparse.Namespace) -> RunConfig:
    names = {f.name for f in fields(RunConfig)}
    explicit = {
        name: value
        for name, value in vars(args).items()
        if name in names and value is not None
    }
    merged: dict = {}
    if getattr(args, "config", None):
        base = _load_config_file(args.config)
        if base.get("subcommand") not in (None, args.subcommand):
            raise UsageError(
                f"config file is for subcommand {base['subcommand']!r}, "
                f"but {args.subcommand!r} was invoked"
            )
        merged.update(base)
    merged.update(explicit)
    merged["subcommand"] = args.subcommand
    for name in ("null_spec", "alt_spec", "null_vol", "alt_vol"):
        if isinstance(merged.get(name), str):
            merged[name] = _json_or_path(merged[name])
    if merged.get("seed") is None:
        env = os.environ.get(SEED_ENV_VAR)
        if env is not None:
            try:
                merged["seed"] = int(env)
            except ValueError as exc:
                raise UsageError(
                    f"{SEED_ENV_VAR} must be an integer, got {env!r}"
                ) from exc
        else:
            merged.pop("seed", None)
    return RunConfig.from_dict(merged)


def _summary_line(report: dict) -> str:
    cfg = report["config"]
    res = report["result"]
    sc = cfg["subcommand"]
    if sc == "test":
        return (
            f"{res['statistic']} = {res['observed']:.4f} | cv({res['cv_source']}) = "
            f"{res['critical_value']:.4f} | reject = {res['reject']}"
        )
    if sc == "datestamp":
        return f"{res['method']}: {res['n_episodes']} episode(s)"
    if sc == "monitor":
        where = res["first_alarm"]
        return f"monitor cv = {res['critical_value']:.4f} | first alarm = {where}"
    if sc == "simulate-cv":
        t = res["table"]
        return f"tabulated {len(t['records'])} critical values"
    if sc == "study":
        return f"size = {res['size']:.4f} | power = {res['power']:.4f}"
    if sc == "relate":
        return f"{res['method']} done"
    return f"wrote {res['rows']} rows to {res['csv']}"


def main(argv=None) -> int:
    """Console entry point; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        config = _merge_config(args)
        report = run_config(config)
        payload = render_report(report)
        if config.out and config.subcommand != "plot-data":
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
            print(f"{_summary_line(report)} | report: {config.out}")
        elif config.subcommand == "plot-data":
            print(_summary_line(report))
        else:
            sys.stdout.write(payload)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, DegenerateFitError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (ExuberanceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
