"""Data generators and the Monte Carlo tabulation engine.

Simulators for the null and bubble processes used throughout the
package: a random walk with local-to-zero drift, the single-bubble
process with instantaneous collapse and reinitialization, and the
four-regime process with a transitory collapse.  Innovations are
``sigma_t * z_t`` where the volatility path is a separate object, so
every test can be exercised under constant, breaking, or trending
volatility.

The tabulation engine simulates the driftless random-walk null,
evaluates any registered detection statistic per replication, and
stores empirical quantiles in an immutable, self-describing table.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bootstrap import _replicate_rngs, _replicate_values, _resolve
from .exceptions import DataError, DegenerateFitError
from .series import Series, _JsonFields, _write_csv, default_min_window, frac_to_index

__all__ = [
    "DGP_KINDS",
    "VOL_KINDS",
    "INNOVATIONS",
    "VolPath",
    "DgpSpec",
    "simulate",
    "CvTable",
    "tabulate_critical_values",
    "SizePowerStudy",
    "size_power_study",
]


DGP_KINDS = ("rw_drift", "pwy_bubble", "collapse_bubble")
VOL_KINDS = ("constant", "single_break", "double_break", "trend")
INNOVATIONS = ("gaussian", "student-t")

#: Below this many replications a critical-value table is not
#: considered table grade; tabulation still runs but warns.
TABLE_GRADE_REPLICATIONS = 1000


@dataclass(frozen=True)
class VolPath:
    """Deterministic volatility path sigma_t, strictly positive and bounded.

    ``level`` is the base volatility; ``level2`` the alternate level a
    break switches to or a trend ends at.  Break locations are sample
    fractions.  Use the classmethods rather than spelling out fields.
    """

    kind: str = "constant"
    level: float = 1.0
    level2: float | None = None
    tau1: float | None = None
    tau2: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in VOL_KINDS:
            raise ValueError(f"unknown volatility kind {self.kind!r}; choose from {VOL_KINDS}")
        if not self.level > 0.0:
            raise ValueError(f"volatility level must be > 0, got {self.level}")
        needs_level2 = self.kind != "constant"
        if needs_level2:
            if self.level2 is None or not self.level2 > 0.0:
                raise ValueError(f"{self.kind} path needs a positive second level")
        elif self.level2 is not None:
            raise ValueError("constant path takes a single level")
        if self.kind in ("single_break", "double_break"):
            if self.tau1 is None or not 0.0 < self.tau1 < 1.0:
                raise ValueError("break fraction tau1 must lie in (0, 1)")
        elif self.tau1 is not None:
            raise ValueError(f"{self.kind} path takes no tau1")
        if self.kind == "double_break":
            if self.tau2 is None or not self.tau1 < self.tau2 < 1.0:
                raise ValueError("need break fractions 0 < tau1 < tau2 < 1")
        elif self.tau2 is not None:
            raise ValueError(f"{self.kind} path takes no tau2")

    @classmethod
    def constant(cls, level: float = 1.0) -> "VolPath":
        return cls(kind="constant", level=level)

    @classmethod
    def single_break(cls, tau_break: float, level0: float, level1: float) -> "VolPath":
        """Volatility level0 through floor(tau_break*T), level1 after."""
        return cls(kind="single_break", level=level0, level2=level1, tau1=tau_break)

    @classmethod
    def double_break(cls, tau1: float, tau2: float, level0: float, level1: float) -> "VolPath":
        """Volatility level1 inside (floor(tau1*T), floor(tau2*T)], level0 outside."""
        return cls(kind="double_break", level=level0, level2=level1, tau1=tau1, tau2=tau2)

    @classmethod
    def trend(cls, level0: float, level1: float) -> "VolPath":
        """Volatility moving linearly from level0 to level1 across the sample."""
        return cls(kind="trend", level=level0, level2=level1)

    def path(self, T: int) -> np.ndarray:
        """The sigma_t sequence for a sample of length T."""
        if T < 2:
            raise ValueError(f"need T >= 2, got {T}")
        if self.kind == "constant":
            return np.full(T, self.level)
        if self.kind == "single_break":
            sig = np.full(T, self.level)
            sig[frac_to_index(self.tau1, T):] = self.level2
            return sig
        if self.kind == "double_break":
            sig = np.full(T, self.level)
            sig[frac_to_index(self.tau1, T): frac_to_index(self.tau2, T)] = self.level2
            return sig
        return np.linspace(self.level, self.level2, T)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _forbid(spec: "DgpSpec", names: tuple[str, ...]) -> None:
    for name in names:
        value = getattr(spec, name)
        default = 0.0 if name in ("mu", "eta", "y_star") else None
        if value is not None and value != default:
            raise ValueError(f"{spec.kind} does not use {name!r}")


@dataclass(frozen=True)
class DgpSpec:
    """Parameters of one data generating process.

    ``kind`` selects the recursion: ``rw_drift`` is a random walk with
    drift mu * T^-eta; ``pwy_bubble`` runs a random walk, an explosive
    regime with coefficient 1 + c/T^alpha on [tau_e, tau_c], then
    reinitializes at the pre-bubble level plus ``y_star`` and continues
    as a random walk; ``collapse_bubble`` inserts a stationary collapse
    regime with coefficient 1 - delta2 on (tau_c, tau_r] after the
    explosive regime, with the bubble rates given either as fixed
    increments (delta1, delta2) or localized as c1*T^-alpha, c2*T^-beta.
    """

    kind: str
    T: int
    mu: float = 0.0
    eta: float = 0.0
    tau_e: float | None = None
    tau_c: float | None = None
    tau_r: float | None = None
    c: float | None = None
    alpha: float | None = None
    c1: float | None = None
    c2: float | None = None
    beta: float | None = None
    delta1: float | None = None
    delta2: float | None = None
    y_star: float = 0.0
    y0: float = 0.0
    innovations: str = "gaussian"
    df: float = 8.0
    seed: int = 0

    def __post_init__(self) -> None:
        _require(self.kind in DGP_KINDS, f"unknown DGP kind {self.kind!r}; choose from {DGP_KINDS}")
        _require(isinstance(self.T, (int, np.integer)) and self.T >= 20, f"T must be an integer >= 20, got {self.T}")
        _require(self.innovations in INNOVATIONS, f"unknown innovations {self.innovations!r}; choose from {INNOVATIONS}")
        if self.innovations == "student-t":
            _require(self.df > 2.0, f"student-t innovations need df > 2 for unit variance, got {self.df}")
        _require(self.eta >= 0.0, f"drift exponent eta must be >= 0, got {self.eta}")
        if self.kind == "rw_drift":
            _forbid(self, ("tau_e", "tau_c", "tau_r", "c", "alpha", "c1", "c2", "beta", "delta1", "delta2", "y_star"))
            return
        _require(self.tau_e is not None and self.tau_c is not None, f"{self.kind} needs bubble fractions tau_e and tau_c")
        _require(0.0 <= self.tau_e < self.tau_c <= 1.0, f"need 0 <= tau_e < tau_c <= 1, got ({self.tau_e}, {self.tau_c})")
        if self.kind == "pwy_bubble":
            _forbid(self, ("mu", "eta", "c1", "c2", "beta", "delta1", "delta2"))
            _require(self.tau_r is None or self.tau_r == self.tau_c, "pwy_bubble collapses instantaneously; tau_r must be omitted")
            _require(self.c is not None and self.c >= 0.0, f"pwy_bubble needs a localizing constant c >= 0, got {self.c}")
            _require(self.alpha is not None and 0.0 <= self.alpha < 1.0, f"pwy_bubble needs an exponent alpha in [0, 1), got {self.alpha}")
            return
        # collapse_bubble
        _forbid(self, ("c", "y_star"))
        _require(self.tau_r is not None and self.tau_c <= self.tau_r <= 1.0, f"need tau_c <= tau_r <= 1, got tau_r={self.tau_r}")
        fixed1, local1 = self.delta1 is not None, self.c1 is not None
        _require(fixed1 != local1, "give exactly one of delta1 or c1 for the explosive rate")
        fixed2, local2 = self.delta2 is not None, self.c2 is not None
        _require(fixed2 != local2, "give exactly one of delta2 or c2 for the collapse rate")
        if fixed1:
            _require(self.delta1 >= 0.0, f"delta1 must be >= 0, got {self.delta1}")
            _require(self.alpha is None, "alpha belongs to the localized rate c1")
        else:
            _require(self.c1 > 0.0, f"c1 must be > 0, got {self.c1}")
            _require(self.alpha is not None and 0.0 <= self.alpha < 1.0, f"c1 needs an exponent alpha in [0, 1), got {self.alpha}")
        if fixed2:
            _require(0.0 <= self.delta2 < 1.0, f"delta2 must lie in [0, 1), got {self.delta2}")
            _require(self.beta is None, "beta belongs to the localized rate c2")
        else:
            _require(self.c2 > 0.0, f"c2 must be > 0, got {self.c2}")
            _require(self.beta is not None and 0.0 <= self.beta < 1.0, f"c2 needs an exponent beta in [0, 1), got {self.beta}")

    def dates(self) -> tuple[int, ...]:
        """Integer regime boundaries floor(tau * T)."""
        if self.kind == "rw_drift":
            return ()
        T_e = frac_to_index(self.tau_e, self.T)
        T_c = frac_to_index(self.tau_c, self.T)
        if self.kind == "pwy_bubble":
            return (T_e, T_c)
        return (T_e, T_c, frac_to_index(self.tau_r, self.T))

    def explosive_rate(self) -> float:
        """The per-step growth increment of the explosive regime."""
        if self.kind == "pwy_bubble":
            return self.c / self.T**self.alpha
        if self.kind == "collapse_bubble":
            return self.delta1 if self.delta1 is not None else self.c1 / self.T**self.alpha
        raise ValueError(f"{self.kind} has no explosive regime")

    def collapse_rate(self) -> float:
        """The per-step decay of the collapse regime (coefficient 1 - rate)."""
        if self.kind != "collapse_bubble":
            raise ValueError(f"{self.kind} has no collapse regime")
        rate = self.delta2 if self.delta2 is not None else self.c2 / self.T**self.beta
        if not rate < 1.0:
            raise ValueError(
                f"collapse rate c2/T^beta = {rate:.4f} >= 1 leaves a negative "
                "autoregressive coefficient; lower c2 or raise beta"
            )
        return rate


def _draw_innovations(spec: DgpSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.innovations == "gaussian":
        return rng.standard_normal(spec.T)
    scale = math.sqrt(spec.df / (spec.df - 2.0))
    return rng.standard_t(spec.df, spec.T) / scale


def simulate(spec: DgpSpec, vol: VolPath | None = None, seed=None) -> Series:
    """Generate one path of the process described by ``spec``.

    Innovations are sigma_t * z_t with sigma from ``vol`` (constant unit
    volatility when omitted).  The path is a pure function of
    (spec, vol, seed); ``seed`` overrides ``spec.seed`` and may be an
    integer or a Generator (for callers managing their own streams).
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(spec.seed if seed is None else seed)
    return Series(_paths(spec, vol, [rng])[0], name=spec.kind)


def _paths(spec: DgpSpec, vol: VolPath | None, rngs) -> np.ndarray:
    """The (rows, T) panel of paths of ``spec``, row i drawing its
    innovations from the i-th generator of ``rngs``: the volatility scaling, the
    bubble recursion and the unit-root stretches then run over every row at
    once, each row bit for bit its own :func:`simulate`."""
    vol = VolPath.constant() if vol is None else vol
    T = spec.T
    eps = vol.path(T) * np.stack([_draw_innovations(spec, rng) for rng in rngs])
    y, start = np.empty_like(eps), np.full(len(eps), float(spec.y0))

    if spec.kind == "rw_drift":
        drift = spec.mu * T**-spec.eta
        np.cumsum(eps, axis=1, out=y)
        y += spec.y0 + drift * np.arange(1, T + 1)
        return y

    # unit roots before T_e and after T_r, explosive to T_c, collapsing to
    # T_r; a pwy_bubble collapses at once (T_r = T_c) and is reinitialised
    bubble = spec.kind == "pwy_bubble"
    T_e, T_c, T_r = (*spec.dates(), spec.dates()[1])[:3]
    up, down = 1.0 + spec.explosive_rate(), 1.0 if bubble else 1.0 - spec.collapse_rate()
    drift = None if bubble else spec.mu * T**-spec.eta
    lo = max(T_e, 1)
    y[:, : lo - 1] = _walk(start, eps[:, : lo - 1], drift)
    prev = y[:, lo - 2] if lo > 1 else start
    for t in range(lo, T_r + 1):
        prev = y[:, t - 1] = (up if t <= T_c else down) * prev + eps[:, t - 1]
    # a zero localizing constant with no reinit offset degenerates to
    # a pure random walk: there is no bubble, so nothing collapses
    if bubble and not (spec.c == 0.0 and spec.y_star == 0.0):
        prev = (start if T_e < 1 else y[:, T_e - 1]) + spec.y_star
    y[:, T_r:] = _walk(prev, eps[:, T_r:], drift)
    return y


def _walk(prev: np.ndarray, eps: np.ndarray, drift: float | None = None) -> np.ndarray:
    """The unit-root stretches after ``prev``, one per row of ``eps``: each
    step prev + eps_t, or (drift + prev) + eps_t with ``drift``, as one
    in-order cumsum over the steps (drifts and innovations interleaved),
    bit for bit the recursion."""
    k = 1 if drift is None else 2  # sums per step
    steps = eps if k == 1 else np.stack([np.full_like(eps, drift), eps], axis=2).reshape(len(eps), -1)
    return np.cumsum(np.concatenate((prev[:, None], steps), axis=1), axis=1)[:, k::k]


@dataclass(frozen=True)
class CvTable:
    """Finite-sample critical values for one statistic on the null.

    Quantiles are keyed by (sample size, probability level).  ``tau0``
    is the minimum-window fraction, or None for the per-T default rule.
    Tables are immutable; writing one to an existing path raises unless
    overwriting is requested explicitly.
    """

    statistic: str
    tau0: float | None
    det: str
    k: int
    sample_sizes: tuple[int, ...]
    levels: tuple[float, ...]
    values: dict = field(repr=False)
    replications: int
    seed: int
    generator: str = "rw-null-gaussian"
    schema: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "sample_sizes", tuple(int(T) for T in self.sample_sizes))
        object.__setattr__(self, "levels", tuple(float(p) for p in self.levels))
        _require(len(self.levels) > 0 and all(0.0 < p < 1.0 for p in self.levels), "levels must lie in (0, 1)")
        _require(tuple(sorted(set(self.levels))) == self.levels, "levels must be strictly increasing")
        _require(len(set(self.sample_sizes)) == len(self.sample_sizes), "duplicate sample sizes")
        for T in self.sample_sizes:
            prev = -np.inf
            for p in self.levels:
                if (T, p) not in self.values:
                    raise ValueError(f"table is missing the ({T}, {p}) quantile")
                q = self.values[(T, p)]
                if not np.isfinite(q):
                    raise ValueError(f"non-finite quantile at ({T}, {p})")
                if q < prev:
                    raise ValueError(f"quantiles not monotone in level at T={T}")
                prev = q

    def lookup(self, T: int, level: float) -> float:
        """The tabulated quantile for a sample size and probability level."""
        key = (int(T), float(level))
        if key not in self.values:
            raise KeyError(
                f"no entry for T={T}, level={level}; table holds sizes "
                f"{self.sample_sizes} at levels {self.levels}"
            )
        return float(self.values[key])

    def to_dict(self) -> dict:
        records = [
            {"T": T, "level": p, "value": self.values[(T, p)]}
            for T in self.sample_sizes
            for p in self.levels
        ]
        return {
            "schema": self.schema,
            "kind": "cv-table",
            "statistic": self.statistic,
            "tau0": self.tau0,
            "det": self.det,
            "k": self.k,
            "replications": self.replications,
            "seed": self.seed,
            "generator": self.generator,
            "records": records,
        }

    def to_json(self, path, overwrite: bool = False) -> None:
        if os.path.exists(path) and not overwrite:
            raise FileExistsError(
                f"{path} exists; critical-value tables are immutable once "
                "written (pass overwrite=True to replace deliberately)"
            )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def from_json(cls, path) -> "CvTable":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DataError(f"{path} is not a critical-value table: {exc}") from exc
        if not isinstance(raw, dict) or raw.get("kind") != "cv-table":
            raise DataError(f"{path} is not a critical-value table")
        try:
            records = raw["records"]
            sizes = tuple(dict.fromkeys(int(r["T"]) for r in records))
            levels = tuple(sorted({float(r["level"]) for r in records}))
            values = {(int(r["T"]), float(r["level"])): float(r["value"]) for r in records}
            return cls(
                statistic=raw["statistic"],
                tau0=None if raw["tau0"] is None else float(raw["tau0"]),
                det=raw["det"],
                k=int(raw["k"]),
                sample_sizes=sizes,
                levels=levels,
                values=values,
                replications=int(raw["replications"]),
                seed=int(raw["seed"]),
                generator=raw.get("generator", "rw-null-gaussian"),
                schema=int(raw.get("schema", 1)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path} is a malformed critical-value table: {exc!r}") from exc

    def to_csv(self, path) -> None:
        tau0 = "" if self.tau0 is None else format(self.tau0, ".17g")
        _write_csv(path, ["statistic", "T", "tau0", "det", "k", "level", "value"], (
            [self.statistic, T, tau0, self.det, self.k, format(p, ".17g"), format(self.values[(T, p)], ".17g")]
            for T in self.sample_sizes for p in self.levels
        ))


def _table_value(table: CvTable, statistic, T: int, level: float, tau0, det, k) -> float:
    """The table's (T, level) quantile, once the table is checked against
    the run: the statistic, the det and k it reads, tau0 at T (None is
    the per-T default rule) and the entry itself.  DataError on any
    mismatch."""
    name, stat = _resolve(statistic)
    if table.statistic != name:
        raise DataError(f"table tabulates {table.statistic!r}; this run uses {name!r}")
    det, k = stat.runs_with(det, k)
    if (table.det, table.k) != (det, k):
        raise DataError(
            f"table was simulated with det={table.det!r}, k={table.k}; "
            f"this run uses det={det!r}, k={k}"
        )
    have = default_min_window(T) if table.tau0 is None else float(table.tau0)
    want = default_min_window(T) if tau0 is None else float(tau0)
    if abs(have - want) > 1e-12:
        raise DataError(f"table was simulated at tau0={have} at T={T}; this run uses {want}")
    try:
        return table.lookup(T, level)
    except KeyError as exc:
        raise DataError(exc.args[0]) from exc


def tabulate_critical_values(
    statistic,
    sample_sizes,
    tau0: float | None = None,
    det: str = "const",
    k: int = 0,
    levels=(0.90, 0.95, 0.99),
    replications: int = 2000,
    seed: int = 0,
) -> CvTable:
    """Simulate the random-walk null and tabulate statistic quantiles.

    Parameters
    ----------
    statistic : str or callable
        A registered statistic name (see ``bootstrap.STATISTICS``) or a
        callable mapping values to a float.
    sample_sizes : iterable of int
        Sample sizes to tabulate, each simulated independently.
    tau0 : float, optional
        Minimum-window fraction; None applies each statistic's per-T
        default rule.
    det, k : str, int
        Regression options.  The table records those the statistic reads,
        and the defaults for the others (a custom callable: as given).
    levels : iterable of float
        Probability levels for the empirical quantiles.
    replications : int
        Monte Carlo draws per sample size; below 1000 a warning flags
        the table as not table grade.
    seed : int
        Base seed; replicate streams are keyed by (seed, T, r) so the
        table does not depend on the order of ``sample_sizes``.
    """
    name, stat = _resolve(statistic)
    det, k = stat.runs_with(det, k)
    sizes = tuple(int(T) for T in sample_sizes)
    _require(len(sizes) > 0, "need at least one sample size")
    _require(all(T >= 20 for T in sizes), "sample sizes must be >= 20")
    levels = tuple(sorted(float(p) for p in levels))
    _require(all(0.0 < p < 1.0 for p in levels), "levels must lie in (0, 1)")
    _require(replications >= 100, f"need replications >= 100, got {replications}")
    if replications < TABLE_GRADE_REPLICATIONS:
        warnings.warn(
            f"{replications} replications is below table grade "
            f"({TABLE_GRADE_REPLICATIONS}); quantiles will be noisy",
            UserWarning,
            stacklevel=2,
        )
    values: dict = {}
    for T in sizes:
        stats = _replicate_values(  # driftless random walks with unit Gaussian innovations
            replications, T,
            lambda r0, r1: np.cumsum(np.stack([rng.standard_normal(T) for rng in _replicate_rngs(seed, (T,), r0, r1)]), axis=1),
            lambda Y: stat.scores(Y, tau0, det, k),
        )
        good = stats[np.isfinite(stats)]
        if good.size < replications / 2:
            raise DegenerateFitError(
                f"statistic undefined on {replications - good.size} of "
                f"{replications} null paths at T={T}"
            )
        for p in levels:
            values[(T, p)] = float(np.quantile(good, p))
    return CvTable(
        statistic=name,
        tau0=tau0,
        det=det,
        k=k,
        sample_sizes=sizes,
        levels=levels,
        values=values,
        replications=replications,
        seed=seed,
    )


@dataclass(frozen=True)
class SizePowerStudy(_JsonFields):
    """Rejection frequencies of one test under a null and an alternative."""

    statistic: str
    level: float
    critical_value: float
    size: float
    power: float
    size_se: float
    power_se: float
    replications: int
    seed: int
    n_degenerate_null: int
    n_degenerate_alt: int


def _rejection_arm(spec, vol, stat, tau0, det, k, cv, seed, arm, replications):
    stats = _replicate_values(
        replications, spec.T,
        lambda r0, r1: _paths(spec, vol, _replicate_rngs(seed, (arm,), r0, r1)),
        lambda Y: stat.scores(Y, tau0, det, k),
    )
    rejections = int(np.sum(np.isfinite(stats) & (stats > cv)))
    return rejections, int(np.isnan(stats).sum())


def size_power_study(
    statistic,
    null_spec: DgpSpec,
    alt_spec: DgpSpec,
    replications: int = 1000,
    level: float = 0.05,
    seed: int = 0,
    tau0: float | None = None,
    det: str = "const",
    k: int = 0,
    cv=None,
    null_vol: VolPath | None = None,
    alt_vol: VolPath | None = None,
    cv_replications: int | None = None,
) -> SizePowerStudy:
    """Rejection frequencies under a null and an alternative DGP.

    The test rejects when the statistic exceeds the 1 - level quantile
    of the homoskedastic random-walk null.  ``cv`` may be a number, a
    CvTable holding the matching entry, or None to tabulate internally
    with ``cv_replications`` draws (degenerate replications count as
    non-rejections).  Standard errors are binomial.
    """
    name, stat = _resolve(statistic)
    _require(0.0 < level < 1.0, f"significance level must lie in (0, 1), got {level}")
    _require(replications >= 20, f"need replications >= 20, got {replications}")
    quantile = 1.0 - level
    if cv is None:
        reps = cv_replications if cv_replications is not None else TABLE_GRADE_REPLICATIONS
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            table = tabulate_critical_values(
                statistic, [null_spec.T], tau0=tau0, det=det, k=k,
                levels=(quantile,), replications=reps, seed=seed,
            )
        cv_value = table.lookup(null_spec.T, quantile)
    elif isinstance(cv, CvTable):
        cv_value = _table_value(cv, statistic, null_spec.T, quantile, tau0, det, k)
    else:
        cv_value = float(cv)
    (rej_null, bad_null), (rej_alt, bad_alt) = (
        _rejection_arm(spec, vol, stat, tau0, det, k, cv_value, seed, arm, replications)
        for arm, spec, vol in ((1, null_spec, null_vol), (2, alt_spec, alt_vol))
    )
    size = rej_null / replications
    power = rej_alt / replications
    return SizePowerStudy(
        statistic=name,
        level=level,
        critical_value=cv_value,
        size=size,
        power=power,
        size_se=math.sqrt(size * (1.0 - size) / replications),
        power_se=math.sqrt(power * (1.0 - power) / replications),
        replications=replications,
        seed=seed,
        n_degenerate_null=bad_null,
        n_degenerate_alt=bad_alt,
    )
