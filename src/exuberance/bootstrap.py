"""Wild-bootstrap p-values, composite monitoring critical values, and
subsampling calibration for explosive-root test statistics.

The wild bootstrap regenerates the series under the unit-root null by
cumulating multiplier-scaled first differences, so the replicate
distribution inherits the observed heteroskedasticity pattern.  One
driver, :func:`_replicate_values`, seeds every Monte Carlo loop of the
package from one keyed rule, :func:`replicate_rng`: (seed, r) for the
wild p-value, the union, composite monitoring and co-bubble, (seed, T, r)
for tabulation, (seed, arm, r) for study arms.  Running replicates in any
order or in parallel produces bitwise-identical draws.

Each entry point resolves its statistic once (:func:`_resolve`) and
scores replicate paths in panel chunks: a registered sup statistic in
one scan of its curves (per endpoint, or per break date for hb_chow), a
custom callable row by row.  The wild p-value is the union's replicate
driver with one member.  Chunking changes no draw and no value.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from . import ols, recursive, robust
from .exceptions import DegenerateFitError
from .ols import CHUNK_CELLS
from .recursive import SupResult, _resolve_tau0
from .series import DEFAULT_DET, DEFAULT_K, _write_csv, as_values

__all__ = [
    "multiplier_draws",
    "BootstrapReport",
    "wild_bootstrap_pvalue",
    "CompositeCvReport",
    "composite_monitor_cv",
    "bsadf_window_max",
    "SubsamplingCv",
    "subsampling_cv",
    "BootstrapUnionReport",
    "bootstrap_union",
]

MULTIPLIERS = ("gaussian", "rademacher", "skewed")

#: Smallest replication count accepted for p-value computation.
MIN_REPLICATIONS = 99

#: Raise once more than this share of replicates fails to produce a statistic.
MAX_DEGENERATE_SHARE = 0.10

#: Default length of the monitoring control window (two years of monthly data).
DEFAULT_MONITOR_SPAN = 24


def _resolve_seed(seed: int | None) -> int:
    if seed is None:
        return int(np.random.SeedSequence().entropy)
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer or None, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return int(seed)


def replicate_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent generator keyed by ``(seed, *key)``, the keys the module
    docstring lists: the key is the spawn key, so a replicate set does not
    depend on execution order."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _replicate_rngs(seed: int, key: tuple, r0: int, r1: int):
    """The generators ``replicate_rng(seed, *key, r)``, r = r0..r1-1, as one
    Generator re-seeded before each is yielded (draw from it before taking
    the next).  NumPy's SeedSequence hash (the seed's 32-bit words, padded
    with zeros to its pool of 4, then the key's) and PCG64 seeding run for
    every r at once: the same draws, at about a third of the cost."""
    seed = operator.index(seed)
    if seed < 0 or not all(0 <= k < 1 << 32 for k in key + (r0, r1 - 1)):  # not one word each: numpy's own path
        yield from (replicate_rng(seed, *key, r) for r in range(r0, r1))
        return
    words = [seed >> b & 0xFFFFFFFF for b in range(0, max(1, seed.bit_length()), 32)]
    E = np.empty((r1 - r0, max(4, len(words)) + len(key) + 1), dtype=np.uint32)
    E[:, :-1] = words + [0] * (4 - len(words)) + list(key)
    E[:, -1] = np.arange(r0, r1)
    h = [0x43B0D7E5, 0x931E8875]  # the running hash constant and its multiplier

    def hashmix(v):
        v = v ^ np.uint32(h[0])
        h[0] = h[0] * h[1] & 0xFFFFFFFF
        v = v * np.uint32(h[0])
        return v ^ v >> 16

    def mix(x, y):
        x = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
        return x ^ x >> 16

    pool = [hashmix(E[:, i]) for i in range(4)]
    for i in range(4):
        for j in (j for j in range(4) if j != i):
            pool[j] = mix(pool[j], hashmix(pool[i]))
    for i in range(4, E.shape[1]):
        for j in range(4):
            pool[j] = mix(pool[j], hashmix(E[:, i]))
    h = [0x8B51F9DD, 0x58F38DED]
    g = np.random.Generator(bits := np.random.PCG64(0))
    for w in np.stack([hashmix(pool[i % 4]) for i in range(8)], axis=1).astype(np.uint64).tolist():
        # PCG64 seeding from the two 128-bit words s and i: inc = 2 i + 1, state = (inc + s) M + inc
        s, inc = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2], (w[5] << 97 | w[4] << 65 | w[7] << 33 | w[6] << 1 | 1) % (1 << 128)
        state = {"state": ((inc + s) * 0x2360ED051FC65DA44385DF649FCCF645 + inc) % (1 << 128), "inc": inc}
        bits.state = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
        yield g


def _check_draws(B: int, multiplier: str, least: int = MIN_REPLICATIONS) -> None:
    if B < least:
        raise ValueError(f"B must be >= {least}, got {B}")
    if multiplier not in MULTIPLIERS:
        raise ValueError(f"unknown multiplier kind {multiplier!r}; choose from {MULTIPLIERS}")


def multiplier_draws(rng: np.random.Generator, n: int, kind: str = "gaussian") -> np.ndarray:
    """Draw n bootstrap multipliers with mean 0 and variance 1.

    ``skewed`` combines two independent normals as u/sqrt(2) + (v^2-1)/2,
    which additionally has third central moment 1 and so preserves
    asymmetry of the resampled increments.
    """
    if kind == "gaussian":
        return rng.standard_normal(n)
    if kind == "rademacher":
        return rng.integers(0, 2, size=n).astype(np.float64) * 2.0 - 1.0
    if kind == "skewed":
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        return u / np.sqrt(2.0) + (v * v - 1.0) / 2.0
    raise ValueError(f"unknown multiplier kind {kind!r}; choose from {MULTIPLIERS}")


@dataclass(frozen=True)
class _Statistic:
    """One registered sup statistic, read from its curve builder.

    ``curves(Y, m0, strict=False, **options)`` gives the (rows, T+1)
    per-endpoint curves of a (rows, T) panel and their attaining starts,
    NaN where degenerate (``strict``: a degenerate series raises its own
    message); with ``sups=True``, each row's sup alone, in one scan: its
    score.  The SupResult of one series is read from the curve.  ``options``
    names the regression options, of ``det`` and ``k``, that the statistic
    reads: it receives only those, and ``reason`` says why it takes no others.
    """

    kind: str
    curves: Callable
    options: tuple[str, ...] = ()
    reason: str = ""

    def _read(self, det, k) -> dict:
        return {name: val for name, val in (("det", det), ("k", k)) if name in self.options}

    def runs_with(self, det, k) -> tuple[str, int]:
        """The (det, k) the statistic runs with: the caller's for the
        options it reads, ``DEFAULT_DET``/``DEFAULT_K`` for the others."""
        return (det if "det" in self.options else DEFAULT_DET), (k if "k" in self.options else DEFAULT_K)

    def observe(self, values, tau0, det, k) -> SupResult:
        return recursive._curve_result(self.kind, self.curves, values, tau0, **self._read(det, k))

    def scores(self, Y, tau0, det, k) -> np.ndarray:
        return recursive._curve_scores(self.curves, Y, tau0, **self._read(det, k))


class _RowStatistic(_Statistic):
    """The sup-Chow statistic, whose grid is break dates from 0, not endpoints
    from m0: ``curves(Y, tau0, **options)`` gives the (rows, breaks) curves
    of a panel, from which every row is scored in one scan, and
    ``recursive.hb_sup_chow`` the SupResult of one series."""

    def observe(self, values, tau0, det, k) -> SupResult:
        return recursive.hb_sup_chow(values, tau0, **self._read(det, k))

    def scores(self, Y, tau0, det, k) -> np.ndarray:
        return np.fmax.reduce(self.curves(Y, tau0, **self._read(det, k)), axis=1)


class _CustomStatistic(_Statistic):
    """A callable ``curves`` of one series' values: reads det and k as given,
    scores row by row (NaN on DegenerateFitError), has no SupResult."""

    def observe(self, values, tau0, det, k) -> None:
        return None

    def scores(self, Y, tau0, det, k) -> np.ndarray:
        out = np.full(len(Y), np.nan)
        for i, y in enumerate(Y):
            with suppress(DegenerateFitError):
                out[i] = float(self.curves(y))
        return out


_SIGN = "sign statistics are rank-based and ignore regression options"
_TIME = "time-transformed statistics are tuned by bandwidth, not regression options"

#: name -> the one description of a statistic used by the CLI, the
#: bootstrap, tabulation and studies.
_REGISTRY = {
    "sadf": _Statistic("sadf", recursive._prefix_curves, ("det", "k")),
    "gsadf": _Statistic("bsadf", recursive._backward_curves, ("det", "k")),
    "hb_chow": _RowStatistic(
        "hb_chow", recursive._hb_curves, ("k",), "the sup-Chow statistic fixes its own deterministic terms"
    ),
    "sadf_gls": _Statistic(
        "sadf_gls", recursive._gls_curves, ("det",),
        "the GLS-demeaned statistic does not take lag augmentation",
    ),
    "sbz": _Statistic(
        "sbz", robust._sbz_curves, (),
        "the variance-profile statistic is tuned by bandwidth, not regression options",
    ),
    "sign_sadf": _Statistic("sign_sadf", robust._window_curves(robust._sign_rows, False), (), _SIGN),
    "sign_gsadf": _Statistic("sign_bsadf", robust._window_curves(robust._sign_rows, True), (), _SIGN),
    "stadf": _Statistic("stadf", robust._window_curves(robust._tt_rows, False), (), _TIME),
    "gstadf": _Statistic("gstadf", robust._window_curves(robust._tt_rows, True), (), _TIME),
}

#: Statistic names accepted by the bootstrap entry points (and the CLI).
STATISTICS = tuple(sorted(_REGISTRY))


def _resolve(statistic) -> tuple[str, _Statistic]:
    """Map a statistic name or callable to (name, its _Statistic).

    Named statistics follow the package convention: the observed value may
    use the caller's lag order k, while replicates are always evaluated at
    k = 0.  A custom callable receives only one series' values and is
    used verbatim on both sides.
    """
    if callable(statistic):
        name = getattr(statistic, "__name__", "custom")
        return name, _CustomStatistic(name, statistic, ("det", "k"))
    key = str(statistic).strip().lower()
    if key not in _REGISTRY:
        raise ValueError(
            f"unknown statistic {statistic!r}; choose from {STATISTICS} or pass a callable"
        )
    return key, _REGISTRY[key]


def _replicate_values(seed: int, key: tuple, n: int, T: int, draw, score) -> np.ndarray:
    """Score replicates r = 0..n-1 (paths of length T) in chunks: ``draw``
    maps the generators ``replicate_rng(seed, *key, r)`` of r = r0..r1-1,
    taken in order, to their (r1 - r0, T) panel of paths, and ``score`` maps
    it to one value (or row of values) per path, stacked in replicate order.
    """
    step = max(1, CHUNK_CELLS // T)
    return np.concatenate([score(draw(_replicate_rngs(seed, key, r0, min(n, r0 + step)))) for r0 in range(0, n, step)])


def _multipliers(rngs, n: int, kind: str) -> np.ndarray:
    """One row of n multipliers from each generator of ``rngs``."""
    return np.stack([multiplier_draws(rng, n, kind) for rng in rngs])


def _null_resample(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Wild-bootstrap series y*_1 = 0, y*_t = sum_{i<=t} w_i dy_i, one per
    row of multipliers ``w`` (T - 1 of them, or a panel of such rows)."""
    ystar = np.zeros(w.shape[:-1] + v.shape)
    np.cumsum(w * np.diff(v), axis=-1, out=ystar[..., 1:])
    return ystar


def _wild_replicates(v, members, tau0, B, multiplier, seed, det) -> tuple[np.ndarray, np.ndarray]:
    """(B, members) wild-null replicates, every member scoring the same
    paths at k = 0, and each member's degenerate count, guarded."""
    replicates = _replicate_values(
        seed, (), B, v.size,
        lambda rngs: _null_resample(v, _multipliers(rngs, v.size - 1, multiplier)),
        lambda Y: np.column_stack([stat.scores(Y, tau0, det, 0) for _, stat in members]),
    )
    n_degenerate = np.isnan(replicates).sum(axis=0).astype(np.int64)
    for (name, _), n_bad in zip(members, n_degenerate):
        _degenerate_guard(int(n_bad), B, f"{name} statistic")
    return replicates, n_degenerate


@dataclass
class BootstrapReport:
    """Observed statistic, replicate distribution, and bootstrap p-value.

    The p-value convention (1 + #{replicates >= observed}) / (B + 1) never
    returns 0 and is exact at conventional levels when (B + 1) * level is
    an integer.  Degenerate replicates (statistic undefined on the
    resampled series) count as non-exceeding and are reported.
    ``result`` is the observed statistic's SupResult (None for a custom
    callable).
    """

    statistic: str
    observed: float
    p_value: float
    B: int
    seed: int
    multiplier: str
    n_degenerate: int
    replicates: np.ndarray = field(repr=False)
    result: SupResult | None = field(default=None, repr=False)

    def dump_replicates(self, path: str) -> None:
        """Write the replicate values to CSV (blank cell for degenerate)."""
        _write_csv(path, ["replicate", "value"], (
            [i, "" if np.isnan(val) else format(val, ".17g")] for i, val in enumerate(self.replicates)
        ))


def _degenerate_guard(n_bad: int, B: int, what: str) -> None:
    if n_bad > MAX_DEGENERATE_SHARE * B:
        raise DegenerateFitError(
            f"{n_bad} of {B} bootstrap replicates left the {what} undefined "
            f"(limit {MAX_DEGENERATE_SHARE:.0%}); the series is too short or "
            "too nearly constant for resampling"
        )


def wild_bootstrap_pvalue(
    series,
    statistic="gsadf",
    tau0: float | None = None,
    B: int = 499,
    multiplier: str = "gaussian",
    seed: int | None = None,
    det: str = "const",
    k: int = 0,
) -> BootstrapReport:
    """Wild-bootstrap p-value for a sup-type explosive-root statistic.

    Each replicate multiplies the observed first differences by an IID
    mean-zero, unit-variance draw and cumulates from zero, which enforces
    the unit-root null while reproducing the volatility pattern of the
    data.  Replicate statistics use lag order 0 regardless of ``k``; the
    observed statistic uses ``k`` as given.  A named statistic receives
    only the options, of ``det`` and ``k``, that it reads.

    Parameters
    ----------
    series : Series or array-like
        Observed sample path.
    statistic : str or callable
        One of ``STATISTICS``, or a callable mapping values to a float.
    tau0 : float, optional
        Minimum window fraction shared by observed and replicate scans.
    B : int
        Number of replicates, at least ``MIN_REPLICATIONS``.
    multiplier : str
        ``gaussian`` (default), ``rademacher``, or ``skewed``.
    seed : int, optional
        Base seed; drawn fresh (and reported) when omitted.
    det, k : str, int
        Deterministic term and lag order for the observed statistic.
    """
    v = as_values(series)
    _check_draws(B, multiplier)
    name, stat = _resolve(statistic)
    seed = _resolve_seed(seed)
    try:
        result = stat.observe(v, tau0, det, k)
        observed = float(statistic(v)) if result is None else result.value
    except DegenerateFitError:
        observed = np.nan
    if np.isnan(observed):
        raise DegenerateFitError(f"observed {name} statistic is undefined on this series")

    replicates, n_bad = _wild_replicates(v, [(name, stat)], tau0, B, multiplier, seed, det)
    count = int(np.sum(replicates >= observed))
    return BootstrapReport(
        statistic=name, observed=observed, p_value=(1 + count) / (B + 1), B=B, seed=seed,
        multiplier=multiplier, n_degenerate=int(n_bad[0]), replicates=replicates[:, 0], result=result,
    )


@dataclass
class CompositeCvReport:
    """Critical value for the running max of backward sup statistics.

    ``window`` is the inclusive 1-based range of window endpoints that the
    maximum controls; a monitoring rule rejects when any backward sup
    statistic inside it exceeds ``critical_value``, so the family-wise
    error rate over the whole window is held at ``1 - level``.
    """

    critical_value: float
    level: float
    window: tuple[int, int]
    tau0: float
    span: int
    B: int
    seed: int
    multiplier: str
    lag_coeffs: np.ndarray
    n_degenerate: int
    replicate_max: np.ndarray = field(repr=False)


def _control_window(n: int, tau0: float | None, span: int) -> tuple[float, int, int]:
    """``(tau0, m0, end)`` of the monitoring control window of a sample of n:
    the endpoints m0..end = m0 + span - 1, which must lie inside the sample."""
    if span < 1:
        raise ValueError(f"monitor span must be >= 1, got {span}")
    tau0, m0 = _resolve_tau0(n, tau0)
    end = m0 + span - 1
    if end > n:
        raise ValueError(f"sample of length {n} is too short: the control window ends at observation {end}")
    return tau0, m0, end


def composite_monitor_cv(
    series,
    tau0: float | None = None,
    span: int = DEFAULT_MONITOR_SPAN,
    B: int = 199,
    level: float = 0.95,
    k: int = 0,
    det: str = "const",
    multiplier: str = "gaussian",
    seed: int | None = None,
) -> CompositeCvReport:
    """Composite bootstrap critical value for a monitoring window.

    The null model is fitted once on the full provided sample: the first
    differences are regressed on an intercept and their own ``k`` lags
    (no level term, imposing a unit root), giving lag coefficients and
    residuals.  Each replicate rebuilds the path over observations
    1 .. m0 + span - 1 with the fitted lag recursion driven by
    multiplier-scaled residuals at the matching time indices, starting
    from the observed first k + 1 values; the replicate statistic is the
    maximum backward sup statistic over window endpoints m0 .. m0 + span
    - 1 and the critical value is its ``level`` quantile.

    Replicate scans use lag order 0; the fitted lag dynamics enter only
    through the resampling recursion.
    """
    v = as_values(series)
    n = v.size
    tau0, m0, end = _control_window(n, tau0, span)
    _check_draws(B, multiplier, least=1)
    if not 0.0 < level <= 1.0:
        raise ValueError(f"level must lie in (0, 1], got {level}")
    if k < 0:
        raise ValueError(f"lag order k must be >= 0, got {k}")
    seed = _resolve_seed(seed)

    # Null regression on the full sample: dy_t on [1, dy_{t-1..t-k}].
    dy = np.diff(v)
    rows = np.arange(k, n - 1)
    if rows.size < k + 2:
        raise DegenerateFitError(
            f"need at least {2 * k + 3} observations to fit the lag-{k} null model, got {n}"
        )
    X = np.ones((rows.size, k + 1))
    for j in range(1, k + 1):
        X[:, j] = dy[rows - j]
    beta = ols._least_squares(X, dy[rows], "null lag regression is rank deficient")[0]
    phi = beta[1:]
    resid = dy[rows] - X @ beta
    # resid[i] belongs to time index t = k + 2 + i; the recursion consumes
    # residuals at the same indices up to the window end.
    e_used = resid[: end - k - 1]

    def paths(rngs):  # the lag recursion runs over every row at once, in the order of one row's
        w = _multipliers(rngs, e_used.size, multiplier)
        dystar = np.hstack([np.broadcast_to(dy[:k], (len(w), k)), w * e_used])
        for t in range(k, end - 1):
            for j in range(1, k + 1):
                dystar[:, t] += phi[j - 1] * dystar[:, t - j]
        ystar = np.empty((len(w), end))
        ystar[:, 0] = v[0]
        np.cumsum(dystar, axis=1, out=ystar[:, 1:])
        ystar[:, 1:] += v[0]
        return ystar

    replicate_max = _replicate_values(seed, (), B, end, paths, lambda Y: ols._backward(Y, m0, det, 0, sups=True))
    n_bad = int(np.isnan(replicate_max).sum())
    _degenerate_guard(n_bad, B, "windowed backward sup statistic")
    cv = float(np.nanquantile(replicate_max, level, method="higher"))
    return CompositeCvReport(
        critical_value=cv, level=level, window=(m0, end), tau0=tau0, span=span, B=B, seed=seed,
        multiplier=multiplier, lag_coeffs=phi, n_degenerate=n_bad, replicate_max=replicate_max,
    )


def bsadf_window_max(
    series,
    tau0: float | None = None,
    span: int = DEFAULT_MONITOR_SPAN,
    det: str = "const",
    k: int = 0,
) -> float:
    """Maximum backward sup statistic over the monitoring control window.

    Companion to :func:`composite_monitor_cv`: computed on the observed
    series with the same window convention, so the monitoring decision is
    ``bsadf_window_max(...) > report.critical_value``.
    """
    v = as_values(series)
    tau0, m0, end = _control_window(v.size, tau0, span)
    maxvals, _ = ols.bsadf_backward(v[:end], m0, det=det, k=k)
    vals = maxvals[m0:]
    if np.all(np.isnan(vals)):
        raise DegenerateFitError("no window in the monitoring range is estimable")
    return float(np.nanmax(vals))


@dataclass
class SubsamplingCv:
    """Empirical subsample quantiles for the end-of-sample statistics.

    ``cv_sw`` is the quantile over non-degenerate subsamples only (the
    studentised ratio is undefined on flat windows); ``warning`` is set
    when fewer than 20 subsamples are available.
    """

    cv_s: float
    cv_r: float
    cv_sw: float
    m: int
    quantile: float
    n_subsamples: int
    warning: str | None
    subsample_s: np.ndarray = field(repr=False)
    subsample_r: np.ndarray = field(repr=False)
    subsample_sw: np.ndarray = field(repr=False)


def subsampling_cv(training, m: int = 10, quantile: float = 0.95) -> SubsamplingCv:
    """Slide the m-window over a training span and take statistic quantiles.

    The anchors run over every position the window fits, giving the
    reference distribution used to calibrate end-of-sample tests; with
    ``quantile=1.0`` the critical values are the subsample maxima.
    """
    v = as_values(training)
    n = v.size
    if m < 2:
        raise ValueError(f"window length m must be >= 2, got {m}")
    if n < 2 * m:
        raise ValueError(f"training span {n} must be at least 2m = {2 * m}")
    if not 0.0 < quantile <= 1.0:
        raise ValueError(f"quantile must lie in (0, 1], got {quantile}")
    dy = np.diff(v)
    s_vals, r_vals, sw_vals = map(np.array, zip(*(recursive._eos_window(dy, m, j) for j in range(1, n - m + 1))))
    warning = f"only {s_vals.size} subsamples available; quantile estimates are coarse" if s_vals.size < 20 else None
    sw_ok = sw_vals[~np.isnan(sw_vals)]
    return SubsamplingCv(
        cv_s=float(np.quantile(s_vals, quantile)),
        cv_r=float(np.quantile(r_vals, quantile)),
        cv_sw=float(np.quantile(sw_ok, quantile)) if sw_ok.size else np.nan,
        m=m,
        quantile=quantile,
        n_subsamples=s_vals.size,
        warning=warning,
        subsample_s=s_vals,
        subsample_r=r_vals,
        subsample_sw=sw_vals,
    )


@dataclass
class BootstrapUnionReport:
    """Union-of-rejections decision calibrated on one replicate set.

    Member critical values and the union scale come from the same
    replicates: each replicate contributes its maximum cv-normalized
    statistic, and the union rejects when the observed normalized maximum
    exceeds the ``level`` quantile ``psi`` of those maxima.  Normalizing
    by the member critical values makes the rule symmetric, so it does
    not depend on the order the tests are listed.
    """

    reject: bool
    union_stat: float
    psi: float
    members: tuple[str, ...]
    observed: np.ndarray
    member_cvs: np.ndarray
    level: float
    B: int
    seed: int
    multiplier: str
    n_degenerate: np.ndarray
    replicates: np.ndarray = field(repr=False)


def bootstrap_union(
    series,
    tests=("sadf", "sbz"),
    tau0: float | None = None,
    B: int = 499,
    level: float = 0.95,
    multiplier: str = "gaussian",
    seed: int | None = None,
    det: str = "const",
    k: int = 0,
) -> BootstrapUnionReport:
    """Wild-bootstrap union of rejections across several sup tests.

    All member statistics are evaluated on the same resampled series, so
    their dependence under the null is preserved; a single-member union
    reduces to that member's bootstrap test at the same level.
    """
    v = as_values(series)
    _check_draws(B, multiplier)
    if not 0.0 < level <= 1.0:
        raise ValueError(f"level must lie in (0, 1], got {level}")
    if callable(tests) or isinstance(tests, str):
        tests = (tests,)
    members = [_resolve(t) for t in tests]
    if not members:
        raise ValueError("union needs at least one member test")
    names = tuple(name for name, _ in members)
    seed = _resolve_seed(seed)

    observed = np.array([stat.scores(v[None, :], tau0, det, k)[0] for _, stat in members])
    if np.any(np.isnan(observed)):
        bad = [n for n, o in zip(names, observed) if np.isnan(o)]
        raise DegenerateFitError(f"observed statistic undefined for union members {bad}")

    replicates, n_degenerate = _wild_replicates(v, members, tau0, B, multiplier, seed, det)
    member_cvs = np.nanquantile(replicates, level, axis=0, method="higher")
    if not np.all(np.isfinite(member_cvs)) or np.any(member_cvs <= 0):
        raise ValueError(
            "member bootstrap critical values must be finite and positive to "
            f"scale the union; got {member_cvs}"
        )
    with np.errstate(invalid="ignore"):
        norm = replicates / member_cvs
    union_draws = np.full(B, np.nan)
    any_ok = np.any(~np.isnan(norm), axis=1)
    union_draws[any_ok] = np.nanmax(norm[any_ok], axis=1)
    psi = float(np.nanquantile(union_draws, level, method="higher"))
    union_stat = float(np.max(observed / member_cvs))
    return BootstrapUnionReport(
        reject=bool(union_stat > psi), union_stat=union_stat, psi=psi, members=names, observed=observed,
        member_cvs=member_cvs, level=level, B=B, seed=seed, multiplier=multiplier,
        n_degenerate=n_degenerate, replicates=replicates,
    )
