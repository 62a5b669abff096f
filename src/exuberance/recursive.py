"""Sup-type explosiveness statistics over recursive window families.

Window fractions map to observation counts through the floor rule in
:mod:`exuberance.series`; every scan skips windows that cannot support a
fit (recorded as NaN in the emitted sequence) and raises only when no
admissible window produces a statistic.  Tie-breaking is deterministic:
the smallest start fraction wins, then the smallest end fraction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import ols
from .exceptions import DegenerateFitError
from .series import as_values, default_min_window, frac_to_index, normalize_det

__all__ = [
    "StatSequence",
    "SupResult",
    "sadf",
    "gsadf",
    "sadf_panel",
    "gsadf_panel",
    "hb_sup_chow",
    "sadf_gls",
    "end_of_sample_stats",
    "EndOfSampleStats",
    "union_of_rejections",
    "UnionDecision",
]


@dataclass
class StatSequence:
    """A statistic indexed by the window-end fraction tau2.

    NaN entries mark windows skipped as degenerate.  ``nobs`` is the
    sample size the fractions refer to.
    """

    kind: str
    tau0: float
    tau2: np.ndarray
    values: np.ndarray
    nobs: int

    def __post_init__(self) -> None:
        self.tau2 = np.asarray(self.tau2, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.tau2.shape != self.values.shape:
            raise ValueError("tau2 and values must align")
        if self.tau2.size and not np.all(np.diff(self.tau2) > 0):
            raise ValueError("tau2 grid must be strictly increasing")

    @property
    def entries(self) -> list[tuple[float, float]]:
        return list(zip(self.tau2.tolist(), self.values.tolist()))

    @property
    def skipped(self) -> np.ndarray:
        """Mask of entries skipped as degenerate."""
        return np.isnan(self.values)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("tau2,value\n")
            for t2, v in zip(self.tau2, self.values):
                sval = "" if np.isnan(v) else format(v, ".17g")
                fh.write(f"{format(t2, '.17g')},{sval}\n")

    def to_json(self) -> str:
        entries = [
            [t2, None if np.isnan(v) else v]
            for t2, v in zip(self.tau2.tolist(), self.values.tolist())
        ]
        return json.dumps(
            {"kind": self.kind, "tau0": self.tau0, "nobs": self.nobs, "entries": entries}
        )


@dataclass
class SupResult:
    """A sup statistic with its attaining window.

    ``argmax`` holds (tau1, tau2) fractions; ``window`` the matching
    integer observation bounds (start, end]; ``sequence`` the underlying
    per-endpoint curve when one is defined.
    """

    kind: str
    value: float
    argmax: tuple[float, float]
    window: tuple[int, int]
    tau0: float
    sequence: StatSequence | None = field(default=None, repr=False)


def _resolve_tau0(T: int, tau0: float | None) -> tuple[float, int]:
    if tau0 is None:
        tau0 = default_min_window(T)
    m0 = frac_to_index(tau0, T)
    if m0 < 2:
        raise ValueError(
            f"minimum window fraction {tau0} gives {m0} observations; need >= 2"
        )
    return float(tau0), m0


def _prefix_supresult(kind, stats, m0, T, tau0) -> SupResult:
    seq = StatSequence(
        kind=kind,
        tau0=tau0,
        tau2=np.arange(m0, T + 1) / T,
        values=stats[m0:],
        nobs=T,
    )
    if np.isnan(stats[m0:]).all():
        raise DegenerateFitError(f"every window degenerate in {kind} scan")
    e_star = m0 + int(np.nanargmax(stats[m0:]))
    return SupResult(
        kind=kind,
        value=float(stats[e_star]),
        argmax=(0.0, e_star / T),
        window=(0, e_star),
        tau0=tau0,
        sequence=seq,
    )


def _double_supresult(kind, maxvals, argmax_s, m0, T, tau0) -> SupResult:
    if np.isnan(maxvals[m0:]).all():
        raise DegenerateFitError(f"every window degenerate in {kind} scan")
    value = float(np.nanmax(maxvals[m0:]))
    cands = [
        (int(argmax_s[e]), e)
        for e in range(m0, T + 1)
        if maxvals[e] == value
    ]
    s_star, e_star = min(cands)
    seq = StatSequence(
        kind=kind,
        tau0=tau0,
        tau2=np.arange(m0, T + 1) / T,
        values=maxvals[m0:],
        nobs=T,
    )
    return SupResult(
        kind=kind,
        value=value,
        argmax=(s_star / T, e_star / T),
        window=(s_star, e_star),
        tau0=tau0,
        sequence=seq,
    )


def _prefix_curves(Y: np.ndarray, m0: int, det: str, k: int) -> np.ndarray:
    """Prefix-window curves of a (rows, T) panel, e = T pinned from below.

    The scan engine and the dense single-window fit agree to rounding
    error; taking the larger of the two at e = T makes the sup of each
    curve dominate the standalone full-sample statistic exactly.
    """
    T = Y.shape[1]
    stats = ols.sadf_prefix_stats(Y, m0, det=det, k=k)
    for r, y in enumerate(Y):
        dense_T = ols._dense_or_nan(y, 0, T, det, k)
        if not np.isnan(dense_T) and not dense_T <= stats[r, T]:
            stats[r, T] = dense_T
    return stats


def _backward_curves(Y: np.ndarray, m0: int, det: str, k: int):
    """Backward sup curves of a (rows, T) panel and their attaining starts.

    The prefix windows they share with the forward scan are folded in
    from the same arithmetic that scan uses, so the double sup dominates
    the forward sup exactly, not just up to rounding.
    """
    maxvals, argmax_s, _ = ols.bsadf_backward(Y, m0, det=det, k=k)
    prefix = _prefix_curves(Y, m0, det, k)
    upd = ~np.isnan(prefix) & (np.isnan(maxvals) | (prefix >= maxvals))
    maxvals[upd] = prefix[upd]
    argmax_s[upd] = 0
    return maxvals, argmax_s


def _row_sup(curves: np.ndarray) -> np.ndarray:
    """Sup of each row, skipping NaN; NaN for a row with no value."""
    valid = ~np.isnan(curves)
    best = np.where(valid, curves, -np.inf).max(axis=1)
    return np.where(valid.any(axis=1), best, np.nan)


def sadf(series, tau0: float | None = None, det: str = "const", k: int = 0) -> SupResult:
    """Sup of forward-recursive ADF statistics on windows (0, e].

    The endpoint runs over e = m0..T with m0 the floor-mapped minimum
    window.  The emitted sequence is reusable for origination dating.
    """
    v = as_values(series)
    T = v.size
    tau0, m0 = _resolve_tau0(T, tau0)
    stats = _prefix_curves(v[None, :], m0, det, k)[0]
    return _prefix_supresult("sadf", stats, m0, T, tau0)


def gsadf(series, tau0: float | None = None, det: str = "const", k: int = 0) -> SupResult:
    """Double-sup ADF over all windows (s, e] with e - s >= m0.

    The emitted sequence is the backward sup curve (for each endpoint,
    the sup over admissible starts), whose maximum equals the statistic.
    The prefix windows it shares with the forward scan are folded in
    from the same arithmetic that scan uses, so the double sup dominates
    the forward sup exactly, not just up to rounding.
    """
    v = as_values(series)
    T = v.size
    tau0, m0 = _resolve_tau0(T, tau0)
    maxvals, argmax_s = _backward_curves(v[None, :], m0, det, k)
    return _double_supresult("bsadf", maxvals[0], argmax_s[0], m0, T, tau0)


def sadf_panel(panel, tau0: float | None = None, det: str = "const", k: int = 0) -> np.ndarray:
    """:func:`sadf` value of every row of a (rows, T) panel, in one scan.

    A row whose windows are all degenerate gets NaN.
    """
    Y = np.asarray(panel, dtype=np.float64)
    tau0, m0 = _resolve_tau0(Y.shape[1], tau0)
    return _row_sup(_prefix_curves(Y, m0, det, k)[:, m0:])


def gsadf_panel(panel, tau0: float | None = None, det: str = "const", k: int = 0) -> np.ndarray:
    """:func:`gsadf` value of every row of a (rows, T) panel, in one scan.

    A row whose windows are all degenerate gets NaN.
    """
    Y = np.asarray(panel, dtype=np.float64)
    tau0, m0 = _resolve_tau0(Y.shape[1], tau0)
    return _row_sup(_backward_curves(Y, m0, det, k)[0][:, m0:])


def hb_sup_chow(series, tau0: float | None = None, k: int = 0) -> SupResult:
    """Sup of one-shot break statistics for a switch to an explosive root.

    The series is demeaned by its full-sample mean; for each candidate
    break index b the regression explains the differenced series by the
    lagged level switched on after b (plus k lagged differences, no
    intercept), and the sup of the t-ratios over b in [0, (1-tau0)T] is
    returned.  A location shift therefore never changes the value.
    """
    v = as_values(series)
    T = v.size
    if tau0 is None:
        tau0 = default_min_window(T)
    if not 0 < tau0 <= 1:
        raise ValueError(f"tau0 must lie in (0, 1], got {tau0}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    b_max = frac_to_index(1.0 - tau0, T)
    yt = v - v.mean()
    dy = np.diff(yt)
    rows = np.arange(k, T - 1)  # 0-based r = t-2 for t = k+2..T
    dep = dy[rows]
    nobs = rows.size
    p = 1 + k
    if nobs - p < 1:
        raise DegenerateFitError(f"sample of {T} too short for k={k}")
    lev = yt[rows]
    lags = [dy[rows - j] for j in range(1, k + 1)]
    stats = np.full(b_max + 1, np.nan)
    for b in range(b_max + 1):
        x = np.where(rows + 2 > b, lev, 0.0)
        X = np.column_stack([x] + lags) if lags else x[:, None]
        beta, _, rank, _ = np.linalg.lstsq(X, dep, rcond=None)
        if rank < p:
            continue
        resid = dep - X @ beta
        ssr = float(resid @ resid)
        sigma2 = ssr / (nobs - p)
        xtx_inv_00 = np.linalg.inv(X.T @ X)[0, 0]
        var0 = sigma2 * xtx_inv_00
        if var0 > 0:
            stats[b] = beta[0] / np.sqrt(var0)
        elif sigma2 == 0 and beta[0] != 0:
            stats[b] = np.inf if beta[0] > 0 else -np.inf
    if np.isnan(stats).all():
        raise DegenerateFitError("every break regression degenerate")
    b_star = int(np.nanargmax(stats))
    seq = StatSequence(
        kind="hb_chow",
        tau0=float(tau0),
        tau2=np.arange(b_max + 1) / T,
        values=stats,
        nobs=T,
    )
    return SupResult(
        kind="hb_chow",
        value=float(stats[b_star]),
        argmax=(b_star / T, 1.0),
        window=(b_star, T),
        tau0=float(tau0),
        sequence=seq,
    )


def sadf_gls(
    series,
    tau0: float | None = None,
    det: str = "const",
    c_bar: float | None = None,
) -> SupResult:
    """Sup of GLS-detrended recursive statistics on prefix windows.

    Each prefix (0, e] is detrended on its own via ``gls_adjust`` (the
    quasi-differencing constant rescaled by the prefix length) and the
    no-deterministics t-ratio is computed on the residuals.
    """
    v = as_values(series)
    T = v.size
    det = normalize_det(det)
    tau0, m0 = _resolve_tau0(T, tau0)
    stats = np.full(T + 1, np.nan)
    for e in range(m0, T + 1):
        try:
            u = ols.gls_adjust(v[:e], det=det, c_bar=c_bar)
            stats[e] = ols.tstat_ar_noconst(u)
        except DegenerateFitError:
            continue
    return _prefix_supresult("sadf_gls", stats, m0, T, tau0)


@dataclass
class EndOfSampleStats:
    """Short-window drift statistics anchored at observation j.

    The window covers observations j+1 .. j+m; ``s_w`` is NaN when the
    window is flat (the studentised ratio is undefined there).
    """

    s: float
    r: float
    s_w: float
    m: int
    j: int
    training: list["EndOfSampleStats"] | None = None


def _eos_window(dy: np.ndarray, m: int, j: int) -> tuple[float, float, float]:
    d = dy[j - 1 : j - 1 + m]
    w = np.arange(1, m + 1, dtype=float)
    wd = w * d
    s = float(wd.sum())
    tail = np.cumsum(d[::-1])[::-1]
    r = float(tail @ tail)
    den = float(wd @ wd)
    s_w = s / np.sqrt(den) if den > 0 else np.nan
    return s, r, s_w


def end_of_sample_stats(
    series,
    m: int = 10,
    j: int | None = None,
    training_span: int | None = None,
) -> EndOfSampleStats:
    """Weighted-drift and squared-tail-sum statistics on a short window.

    With the default anchor j = T - m the window is the final stretch of
    the sample (monitoring use).  ``training_span`` additionally slides
    the anchor over j = 1 .. span - m and attaches the per-anchor stats,
    giving the reference distribution for subsampling calibration.
    """
    v = as_values(series)
    T = v.size
    if m < 2:
        raise ValueError(f"window length m must be >= 2, got {m}")
    if j is None:
        j = T - m
    if j < 1 or j + m > T:
        raise ValueError(f"anchor j={j} with m={m} does not fit in T={T}")
    dy = np.diff(v)
    s, r, s_w = _eos_window(dy, m, j)
    training = None
    if training_span is not None:
        if not m + 1 <= training_span <= T:
            raise ValueError(
                f"training span {training_span} must lie in [{m + 1}, {T}]"
            )
        training = []
        for jt in range(1, training_span - m + 1):
            st, rt, swt = _eos_window(dy, m, jt)
            training.append(EndOfSampleStats(st, rt, swt, m, jt))
    return EndOfSampleStats(s, r, s_w, m, int(j), training)


@dataclass
class UnionDecision:
    """Outcome of a union-of-rejections rule across several tests."""

    reject: bool
    psi: float
    ratios: np.ndarray
    max_ratio: float
    exceed: np.ndarray


def union_of_rejections(stats, critical_values, psi: float = 1.0) -> UnionDecision:
    """Reject when any statistic exceeds psi times its own critical value.

    Equivalently: max_m stat_m / cv_m > psi.  Critical values must be
    finite and positive so the two forms agree.
    """
    s = np.asarray(stats, dtype=float)
    q = np.asarray(critical_values, dtype=float)
    if s.shape != q.shape:
        raise ValueError("statistics and critical values must align")
    if s.size < 2:
        raise ValueError("union rule needs at least 2 tests")
    if not np.all(np.isfinite(q)) or np.any(q <= 0):
        raise ValueError("critical values must be finite and positive")
    if np.any(np.isnan(s)):
        raise ValueError("statistics must not be NaN")
    if not np.isfinite(psi) or psi <= 0:
        raise ValueError(f"psi must be positive, got {psi}")
    ratios = s / q
    exceed = s > psi * q
    return UnionDecision(
        reject=bool(exceed.any()),
        psi=float(psi),
        ratios=ratios,
        max_ratio=float(ratios.max()),
        exceed=exceed,
    )
