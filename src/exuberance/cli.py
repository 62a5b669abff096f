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
import json
import os
import sys
import warnings
from collections.abc import Callable
from dataclasses import dataclass, fields
from datetime import datetime, timezone

import numpy as np

from . import ols
from .bootstrap import (
    _REGISTRY,
    MULTIPLIERS,
    STATISTICS,
    composite_monitor_cv,
    wild_bootstrap_pvalue,
)
from .datestamp import (
    psy_stamp,
    pwy_stamp,
    rule_critical_value,
    select_model_bic,
    sign_stamp,
    two_step_stamp,
)
from .dgpsim import (
    CvTable,
    DgpSpec,
    VolPath,
    _table_value,
    size_power_study,
    tabulate_critical_values,
)
from .exceptions import DataError, DegenerateFitError, ExuberanceError
from .inference import (
    cobubble_test,
    contagion_delay,
    migration_test,
    recursive_ar_coefficients,
    rolling_ar_coefficients,
)
from .recursive import StatSequence, gsadf, sadf
from .series import DEFAULT_DET, DEFAULT_K, DETERMINISTICS, _JsonFields, _jsonable, _write_csv, default_min_window, frac_to_index, load_series

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

DATESTAMP_METHODS = ("pwy", "psy", "two-step", "sign", "ssr-bic")
RELATE_METHODS = ("migration", "contagion", "cobubble")

class UsageError(ExuberanceError):
    """Raised for bad flags, bad config files, or incompatible options."""


_JSON_TYPES = {"str": str, "int": (int, np.integer), "float": (int, float, np.integer, np.floating), "dict": dict, "None": type(None)}


def _fits(value, annotation: str) -> bool:
    """Whether a value fits a field annotation such as ``int | None`` or ``tuple[float, ...]``:
    an int fits a float, a numpy number fits as the Python one, a bool fits no number."""
    return any(
        all(_fits(x, part[6:-6]) for x in value) if part.startswith("tuple[") and isinstance(value, (list, tuple))
        else isinstance(value, _JSON_TYPES.get(part, ())) and not isinstance(value, bool)
        for part in annotation.split(" | ")
    )


@dataclass(frozen=True)
class RunConfig(_JsonFields):
    """Complete, serializable description of one CLI run.

    A report's ``config`` block is exactly this dataclass as a dict, so
    any report doubles as a config file for ``--config``.
    """

    subcommand: str
    input: str | None = None
    input2: str | None = None
    column: str | int | None = None
    label_column: str | int | None = None
    stat: str = "gsadf"
    method: str | None = None
    tau0: float | str = "auto"
    det: str = DEFAULT_DET
    k: int = DEFAULT_K
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
        for f in fields(self):
            value = getattr(self, f.name)
            if not _fits(value, f.type):
                raise UsageError(f"config field {f.name!r} must be {f.type}, got {value!r}")
            if isinstance(value, list):  # a JSON array of a tuple field
                object.__setattr__(self, f.name, tuple(value))
        if self.subcommand not in _COMMANDS:
            raise UsageError(
                f"unknown subcommand {self.subcommand!r}; choose from {tuple(_COMMANDS)}"
            )
        if self.cv not in ("rule", "bootstrap") and not self.cv.startswith("table:"):
            raise UsageError(
                f"--cv must be 'rule', 'bootstrap', or 'table:<path>', got {self.cv!r}"
            )
        if isinstance(self.tau0, str) and self.tau0 != "auto":
            raise UsageError(f"tau0 must be a number or 'auto', got {self.tau0!r}")
        if not 0.0 < self.level < 1.0:
            raise UsageError(f"level must lie in (0, 1), got {self.level}")

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        data = dict(raw)
        # configs embedded in older reports carry the removed engine option
        if data.pop("threads", None) is not None:
            raise UsageError("the 'threads' option was removed: the scan engine is single-threaded numpy")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise UsageError(f"unknown config fields: {', '.join(unknown)}")
        return cls(**data)


def _resolve_tau0(tau0, T: int) -> float:
    if tau0 == "auto":
        return default_min_window(T)
    return float(tau0)


def _load_input(config: RunConfig, attr: str = "input"):
    path = getattr(config, attr)
    if path is None:
        raise UsageError(f"--{attr} is required for '{config.subcommand}'")
    column, label_column = (
        int(c) if isinstance(c, str) and c.lstrip("-").isdigit() else c
        for c in (config.column, config.label_column)
    )
    return load_series(path, column=column, label_column=label_column)


def _check_stat_options(config: RunConfig) -> None:
    """Reject --det/--k values that the chosen statistic does not read."""
    entry = _REGISTRY.get(config.stat)
    if entry is None:
        raise UsageError(f"unknown statistic {config.stat!r}; choose from {STATISTICS}")
    asked = (config.det, config.k)
    offending = [
        f"--{name} {value}"
        for name, value, used in zip(("det", "k"), asked, entry.runs_with(*asked))
        if value != used
    ]
    if offending:
        raise UsageError(
            f"{' and '.join(offending)} cannot be combined with --stat {config.stat}: "
            f"{entry.reason}"
        )


def _sequence_dict(seq, series, cv) -> dict:
    ends = np.rint(np.asarray(seq.tau2, dtype=float) * seq.nobs).astype(int)
    out = {
        "kind": seq.kind,
        "tau0": float(seq.tau0),
        "nobs": int(seq.nobs),
        "index": ends.tolist(),
        "values": seq.values,
    }
    if series.labels is not None:
        # grid point i is observation i (1-based); hb_chow's break index 0 has none
        out["labels"] = [str(series.labels[i - 1]) if i > 0 else None for i in ends]
    out["cv"] = cv
    return out


def _run_test(config: RunConfig) -> dict:
    series = _load_input(config)
    T = len(series)
    tau0 = _resolve_tau0(config.tau0, T)
    _check_stat_options(config)
    p_value = None
    n_degenerate = 0
    if config.cv == "bootstrap":
        rep = wild_bootstrap_pvalue(
            series, config.stat, tau0=tau0, B=config.B,
            multiplier=config.multiplier, seed=config.seed,
            det=config.det, k=config.k,
        )
        res, p_value, n_degenerate = rep.result, rep.p_value, rep.n_degenerate
        cv = float(np.nanquantile(rep.replicates, config.level, method="higher"))
        reject = p_value <= 1.0 - config.level
    else:
        res = _REGISTRY[config.stat].observe(series, tau0, config.det, config.k)
        if config.cv == "rule":
            cv = rule_critical_value(T)
        else:
            table = CvTable.from_json(config.cv[len("table:"):])
            cv = _table_value(table, config.stat, T, config.level, tau0, config.det, config.k)
        reject = res.value > cv

    return {
        "T": T,
        "name": series.name,
        "statistic": config.stat,
        "observed": res.value,
        "tau0": tau0,
        "argmax": res.argmax,
        "window": res.window,
        "cv_source": config.cv.partition(":")[0],
        "critical_value": float(cv),
        "p_value": p_value,
        "level": config.level,
        "reject": bool(reject),
        "n_degenerate": int(n_degenerate),
        "sequence": (
            None if res.sequence is None else _sequence_dict(res.sequence, series, cv=float(cv))
        ),
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
    if method in ("sign", "ssr-bic") and (config.det, config.k) != (DEFAULT_DET, DEFAULT_K):
        raise UsageError(
            f"--det/--k cannot be combined with --method {method}: "
            "this estimator does not run ADF-style regressions"
        )
    if method == "pwy":
        seq = sadf(series, tau0=tau0, det=config.det, k=config.k).sequence
        episodes = pwy_stamp(seq)
    elif method == "psy":
        seq = gsadf(series, tau0=tau0, det=config.det, k=config.k).sequence
        episodes = psy_stamp(seq)
    elif method == "two-step":
        episodes = two_step_stamp(series, tau0=tau0, det=config.det, k=config.k)
    elif method == "sign":
        episodes = [sign_stamp(series, tau0=tau0, epsilon=config.epsilon)]
    else:  # ssr-bic
        selection = select_model_bic(series)
        episodes = [selection.episode]
        extra = {
            "model": selection.model,
            "bic": selection.bic,
            "ssr": selection.ssr,
            "break_dates": selection.dates,
        }
    cv = rule_critical_value(T)
    return {
        "T": T,
        "name": series.name,
        "method": method,
        "tau0": tau0,
        "critical_value": cv if method in ("pwy", "psy", "two-step") else None,
        "episodes": [ep.to_dict() for ep in episodes],
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
    maxvals, _ = ols.bsadf_backward(series.values[:end], m0, det=config.det, k=config.k)
    index = np.arange(m0, end + 1)
    seq = StatSequence("monitor_bsadf", report.tau0, index / T, maxvals[m0:], T)
    cv = report.critical_value
    with np.errstate(invalid="ignore"):
        alarms = index[seq.values > cv].tolist()
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
        "observed_max": np.nanmax(seq.values) if np.any(~np.isnan(seq.values)) else None,
        "alarms": alarms,
        "first_alarm": alarms[0] if alarms else None,
        "reject": bool(alarms),
        "sequence": _sequence_dict(seq, series, cv=cv),
    }


def _run_simulate_cv(config: RunConfig) -> dict:
    if config.sizes is None:
        raise UsageError("--sizes is required for 'simulate-cv' (e.g. --sizes 100,200)")
    _check_stat_options(config)
    table = tabulate_critical_values(
        config.stat,
        config.sizes,
        tau0=None if config.tau0 == "auto" else float(config.tau0),
        det=config.det,
        k=config.k,
        levels=config.levels or (0.90, 0.95, 0.99),
        replications=config.replications or 2000,
        seed=config.seed,
    )
    if config.table_out:
        table.to_json(config.table_out)
    return {"table": table.to_dict(), "table_out": config.table_out}


def _build(cls, raw: dict | None, which: str):
    """``cls(**raw)`` from the JSON object of option ``--<which>``; None when it is absent."""
    if raw is None:
        return None
    try:
        return cls(**raw)
    except TypeError as exc:
        raise UsageError(f"bad --{which}: {exc}") from exc


def _run_study(config: RunConfig) -> dict:
    _check_stat_options(config)
    if config.null_spec is None:
        raise UsageError("--null-spec is required for 'study' (inline JSON or a file path)")
    null_spec = _build(DgpSpec, config.null_spec, "null-spec")
    alt_spec = _build(DgpSpec, config.alt_spec, "alt-spec") if config.alt_spec else null_spec
    if config.cv == "bootstrap":
        raise UsageError(
            "'study' calibrates critical values by simulation; use --cv rule "
            "(internal tabulation) or --cv table:<path>"
        )
    cv = None if config.cv == "rule" else CvTable.from_json(config.cv[len("table:"):])
    study = size_power_study(
        config.stat,
        null_spec,
        alt_spec,
        replications=config.replications or 1000,
        level=1.0 - config.level,
        seed=config.seed,
        tau0=None if config.tau0 == "auto" else float(config.tau0),
        det=config.det,
        k=config.k,
        cv=cv,
        null_vol=_build(VolPath, config.null_vol, "null-vol"),
        alt_vol=_build(VolPath, config.alt_vol, "alt-vol"),
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
        return {"method": method, **res.to_dict()}
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
    elif config.origin_x is None or config.origin_y is None:
        raise UsageError(
            "migration needs the two origination dates: --origin-x and --origin-y "
            "(1-based observation indices)"
        )
    else:
        res = migration_test(
            recursive_ar_coefficients(first, tau0=tau0),
            recursive_ar_coefficients(second, tau0=tau0),
            config.origin_x, config.origin_y, scale=config.scale,
        )
    return {"method": method, **res.to_dict()}


def _run_plot_data(config: RunConfig) -> dict:
    if config.input is None:
        raise UsageError("--input is required for 'plot-data' (a report JSON path)")
    if config.out is None:
        raise UsageError("--out is required for 'plot-data' (the CSV destination)")
    return {"rows": emit_plot_data(config.input, config.out), "csv": config.out}


def run_config(config: RunConfig) -> dict:
    """Execute one configured run and return the report as a dict, with
    every non-finite number of the result as None (JSON null)."""
    result = _jsonable(_COMMANDS[config.subcommand].run(config))
    return {
        "schema": SCHEMA_VERSION,
        "kind": "exuberance-report",
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "config": config.to_dict(),
        "result": result,
    }


def _number_cell(value) -> str:
    return "" if value is None else repr(float(value))


def _episode_ranges(episodes) -> list[tuple[int, int]]:
    ranges = []
    for ep in episodes:
        start = ep.get("origin_index")
        ends = (ep.get("recovery_index"), ep.get("collapse_index"), start)
        if start is not None:
            ranges.append((int(start), int(next(end for end in ends if end is not None))))
    return ranges


def _read_json(path, what: str):
    """Load a JSON file; an unreadable one is a DataError naming it as ``what``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


def emit_plot_data(report, path) -> int:
    """Write a report's sequence and episode flags as a tidy CSV.

    One row per sequence point with columns ``index, label, statistic,
    cv, in_episode``; reports carrying only episodes emit the flagged
    index ranges.  Returns the number of data rows written.
    """
    if isinstance(report, (str, os.PathLike)):
        report = _read_json(report, "report")
    if not isinstance(report, dict):
        raise DataError("emit_plot_data expects a report dict or a report path")
    result = report.get("result", report)
    seq = result.get("sequence")
    episodes = result.get("episodes") or []
    if seq is None and not episodes:
        raise DataError("report contains no statistic sequence or episodes to plot")
    ranges = _episode_ranges(episodes)
    if seq is None:
        rows = [[i, str(i), "", "", 1] for lo, hi in ranges for i in range(lo, hi + 1)]
    else:
        index, cv = seq["index"], seq.get("cv")
        labels = seq.get("labels") or [str(i) for i in index]
        cvs = cv if isinstance(cv, list) else [cv] * len(index)
        rows = [
            [i, lab, _number_cell(val), _number_cell(c), int(any(lo <= i <= hi for lo, hi in ranges))]
            for i, lab, val, c in zip(index, labels, seq["values"], cvs)
        ]
    _write_csv(path, ["index", "label", "statistic", "cv", "in_episode"], rows)
    return len(rows)


def _json_or_path(text: str) -> dict:
    """Parse inline JSON, or read JSON from a file path."""
    text = text.strip()
    if text.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"bad inline JSON: {exc}") from exc
    return _read_json(text, "JSON from")


def _list_of(kind, noun: str, text: str) -> tuple:
    """A comma-separated list of ``kind`` values (``noun`` names the kind in errors)."""
    try:
        return tuple(kind(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise UsageError(f"expected a comma-separated {noun} list, got {text!r}") from exc


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


# Option groups shared by several subcommands, as (flag, add_argument keywords).
_COMMON = (
    ("--config", dict(help="config or report JSON to re-run")),
    ("--out", dict(help="report destination (stdout when omitted)")),
    ("--seed", dict(type=int, help=f"RNG seed (default ${SEED_ENV_VAR} or 0)")),
)
_DATA = (
    ("--input", dict(help="CSV series file")),
    ("--column", dict(help="value column name or index")),
    ("--label-column", dict(help="label column name or index")),
)
_STAT = (("--stat", dict(choices=STATISTICS, help="statistic (default gsadf)")),)
_TAU0 = (("--tau0", dict(type=_tau0_arg, help="minimum window fraction or 'auto'")),)
_STATOPTS = _TAU0 + (
    ("--det", dict(choices=DETERMINISTICS, help="deterministic terms (default const)")),
    ("--k", dict(type=int, help="ADF lag order (default 0)")),
)
_LEVEL = (("--level", dict(type=float, help="confidence level (default 0.95)")),)
_BOOT = (
    ("--B", dict(type=int, help="bootstrap replications (default 499)")),
    ("--multiplier", dict(choices=MULTIPLIERS, help="wild multiplier (default gaussian)")),
) + _LEVEL


def _f4(x) -> str:
    """A report number to four decimals; null stands for a non-finite one."""
    return "null" if x is None else f"{x:.4f}"


@dataclass(frozen=True)
class _Command:
    """One subcommand: its runner, its ``--help`` line, the summary line of
    its result, and its options (shared groups first) in ``--help`` order."""

    run: Callable[[RunConfig], dict]
    help: str
    summary: Callable[[dict], str]
    options: tuple
    # plot-data's --out names its CSV, so it prints its summary, never the report
    out_is_report: bool = True


_COMMANDS = {
    "test": _Command(
        _run_test, "one right-tailed test with a cv or bootstrap decision",
        lambda r: f"{r['statistic']} = {_f4(r['observed'])} | cv({r['cv_source']}) = "
        f"{_f4(r['critical_value'])} | reject = {r['reject']}",
        _COMMON + _DATA + _STAT + _STATOPTS + _BOOT
        + (("--cv", dict(help="rule | table:<path> | bootstrap (default rule)")),),
    ),
    "datestamp": _Command(
        _run_datestamp, "stamp explosive episodes",
        lambda r: f"{r['method']}: {r['n_episodes']} episode(s)",
        _COMMON + _DATA + _STATOPTS + (
            ("--method", dict(choices=DATESTAMP_METHODS, help="default psy")),
            ("--epsilon", dict(type=float, help="sign-dating trim (default 0.01)")),
            ("--cv", dict(help=argparse.SUPPRESS)),
        ),
    ),
    "monitor": _Command(
        _run_monitor, "composite sequential monitoring over a control window",
        lambda r: f"monitor cv = {_f4(r['critical_value'])} | first alarm = {r['first_alarm']}",
        _COMMON + _DATA + _STATOPTS + _BOOT
        + (("--Tb", dict(type=int, help="monitoring window length (default 24)")),),
    ),
    "simulate-cv": _Command(
        _run_simulate_cv, "tabulate Monte Carlo critical values",
        lambda r: f"tabulated {len(r['table']['records'])} critical values",
        _COMMON + _STAT + _STATOPTS + (
            ("--sizes", dict(type=lambda text: _list_of(int, "integer", text), help="sample sizes, e.g. 100,200,400")),
            ("--levels", dict(type=lambda text: _list_of(float, "number", text), help="quantile levels (default 0.9,0.95,0.99)")),
            ("--replications", dict(type=int, help="Monte Carlo draws (default 2000)")),
            ("--table-out", dict(help="also write the table alone to this path")),
        ),
    ),
    "study": _Command(
        _run_study, "size/power study under configurable generators",
        lambda r: f"size = {_f4(r['size'])} | power = {_f4(r['power'])}",
        _COMMON + _STAT + _STATOPTS + _LEVEL + (
            ("--replications", dict(type=int, help="study replications (default 1000)")),
            ("--cv-replications", dict(type=int, help="internal tabulation draws")),
            ("--cv", dict(help="rule (= simulate internally) | table:<path>")),
            ("--null-spec", dict(help="null DGP (inline JSON or file)")),
            ("--alt-spec", dict(help="alternative DGP (default: null)")),
            ("--null-vol", dict(help="null volatility path JSON")),
            ("--alt-vol", dict(help="alternative volatility path JSON")),
        ),
    ),
    "relate": _Command(
        _run_relate, "migration, contagion-delay, or co-bubble analysis of two series",
        lambda r: f"{r['method']} done",
        _COMMON + _DATA + _BOOT + (
            ("--input2", dict(help="second CSV series file")),
            ("--method", dict(choices=RELATE_METHODS)),
        ) + _TAU0 + (
            ("--delay", dict(type=int, help="co-bubble alignment delay (default 0)")),
            ("--d-max", dict(type=int, help="largest contagion delay scanned (default 12)")),
            ("--origin-x", dict(type=int, help="first series origination index")),
            ("--origin-y", dict(type=int, help="second series origination index")),
            ("--scale", dict(type=float, help="migration normalization (default log window)")),
        ),
    ),
    "plot-data": _Command(
        _run_plot_data, "emit a report's sequence/episodes as tidy CSV",
        lambda r: f"wrote {r['rows']} rows to {r['csv']}",
        _COMMON + (("--input", dict(help="report JSON path")),),
        out_is_report=False,
    ),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="exuberance", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, kwargs in command.options:
            p.add_argument(flag, **kwargs)
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    names = {f.name for f in fields(RunConfig)}
    explicit = {
        name: value
        for name, value in vars(args).items()
        if name in names and value is not None
    }
    merged: dict = {}
    if getattr(args, "config", None):
        base = _read_json(args.config, "config")
        if isinstance(base, dict) and "config" in base and "subcommand" not in base:
            base = base["config"]  # a report re-runs from its config block
        if not isinstance(base, dict):
            raise DataError(f"config {args.config} is not a JSON object")
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
        merged.pop("seed", None)
        env = os.environ.get(SEED_ENV_VAR)
        if env is not None:
            try:
                merged["seed"] = int(env)
            except ValueError as exc:
                raise UsageError(
                    f"{SEED_ENV_VAR} must be an integer, got {env!r}"
                ) from exc
    return RunConfig.from_dict(merged)


def main(argv=None) -> int:
    """Console entry point; returns the process exit code.  A warning
    still reaches callers but prints as one line, without its source."""
    fmt, warnings.formatwarning = warnings.formatwarning, lambda msg, *_: f"warning: {msg}\n"
    try:
        args = _build_parser().parse_args(argv)
        config = _merge_config(args)
        report = run_config(config)
        payload = json.dumps(report, indent=2, allow_nan=False) + "\n"
        command = _COMMANDS[config.subcommand]
        if not command.out_is_report:
            print(command.summary(report["result"]))
        elif config.out:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
            print(f"{command.summary(report['result'])} | report: {config.out}")
        else:
            sys.stdout.write(payload)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, DegenerateFitError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (ExuberanceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = fmt


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
