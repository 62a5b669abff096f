"""Sup-type explosiveness statistics over recursive window families.

Window fractions map to observation counts through the floor rule in
:mod:`exuberance.series`; every scan skips windows that cannot support a
fit (recorded as NaN in the emitted sequence) and raises only when no
admissible window produces a statistic.  Tie-breaking is deterministic:
the smallest start fraction wins, then the smallest end fraction.
"""

from __future__ import annotations

import json
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from . import ols
from .exceptions import DegenerateFitError
from .series import _jsonable, as_values, default_min_window, frac_to_index, normalize_det

#: ``_gls_curves`` refits a prefix whose detrended sum of squares u'u falls
#: below this share of the bound (sum_i |alpha_i| sqrt(G_ii))^2 on its terms.
_GLS_CANCEL = 1e-6

__all__ = [
    "StatSequence",
    "SupResult",
    "sadf",
    "gsadf",
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
        return json.dumps(_jsonable(
            {"kind": self.kind, "tau0": self.tau0, "nobs": self.nobs, "entries": self.entries}
        ))


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


def _double_supresult(kind, maxvals, argmax_s, m0, T, tau0) -> SupResult:
    if np.isnan(maxvals[m0:]).all():
        raise DegenerateFitError(f"every window degenerate in {kind} scan")
    value = float(np.nanmax(maxvals[m0:]))
    s_star, e_star = min((int(argmax_s[e]), e) for e in range(m0, T + 1) if maxvals[e] == value)
    seq = StatSequence(kind=kind, tau0=tau0, tau2=np.arange(m0, T + 1) / T, values=maxvals[m0:], nobs=T)
    return SupResult(kind, value, argmax=(s_star / T, e_star / T), window=(s_star, e_star), tau0=tau0, sequence=seq)


def _prefix_curves(Y: np.ndarray, m0: int, strict: bool = False, det: str = "const", k: int = 0):
    """Prefix-window curves of a (rows, T) panel.  The full-sample
    statistic ``ols.adf_stat`` is the e = T point of the same scan, so
    the sup of each curve dominates it exactly."""
    stats = ols.sadf_prefix_stats(Y, m0, det=det, k=k)
    return stats, np.where(np.isnan(stats), -1, 0)


def _backward_curves(Y: np.ndarray, m0: int, strict: bool = False, det: str = "const", k: int = 0):
    """Backward sup curves of a (rows, T) panel and their attaining starts.

    The prefix windows they share with the forward scan are folded in
    from the same arithmetic that scan uses, so the double sup dominates
    the forward sup exactly, not just up to rounding.
    """
    maxvals, argmax_s = ols.bsadf_backward(Y, m0, det=det, k=k)
    prefix = _prefix_curves(Y, m0, det=det, k=k)[0]
    upd = ~np.isnan(prefix) & (np.isnan(maxvals) | (prefix >= maxvals))
    maxvals[upd] = prefix[upd]
    argmax_s[upd] = 0
    return maxvals, argmax_s


def _gls_curves(Y: np.ndarray, m0: int, strict: bool = False, det: str = "const", c_bar: float | None = None):
    """GLS prefix curves of a (rows, T) panel: each prefix (0, e] of each
    row detrended on its own, as ``ols.gls_adjust`` does, NaN where the fit
    is degenerate.

    The detrending residuals do not move when y shifts, so each row is
    anchored at y_1, z_t = y_t - y_1.  Over the rows t = 2..e, h_t = (1,
    [t - 2,] z_{t-1}, dz_t) and G = sum h h' are running sums in the layout
    of ``ols._terms``.  With a = -c_bar/e the quasi-differenced rows are
    Za_t = A h_t and ya_t = dz_t + a z_{t-1} (row 1 adds Za_1 = (1, [0]) and
    ya_1 = 0), so theta solves (e_1 e_1' + A G A') theta = A G w.  The lagged
    residual u_{t-1} and du_t are linear in h_t too, so their cross moments
    are quadratic forms in G that ``ols._tstats`` reads with p = 1.  The
    prefixes it flags, and those whose u'u is within ``_GLS_CANCEL`` of its
    terms, are refit densely; a prefix with no variation from y_1 reads NaN.
    """
    det = normalize_det(det)
    if det == "none":
        raise ValueError("GLS adjustment needs deterministic terms ('const' or 'trend')")
    c_bar = ols.GLS_CBAR[det] if c_bar is None else c_bar
    X, T = np.ascontiguousarray(Y.T), Y.shape[1]
    d, q = np.diff(X, axis=0), ols._det_count(det)
    C, slots = ols._terms((T - 1, len(Y)), det, 0, lambda j: d, X[:-1], np.arange(T - 1.0)[:, None], X[0])
    np.cumsum(C, axis=1, out=C)
    e = np.arange(m0, T + 1)[:, None]
    a = -c_bar / e

    def gram(i, j):  # G_ij over the columns (1, [t-2,] z_{t-1}, dz_t)
        return C[slots[min(i, j), max(i, j)], m0 - 2 :] if i or j else e - 1

    def form(x: dict, y: dict):
        return sum(xi * yj * gram(i, j) for i, xi in x.items() for j, yj in y.items())

    w = {q: a, q + 1: 1.0}
    A = [{0: a}] + [{0: 1.0, 1: a}] * (q == 2)
    M = [[form(Ai, Aj) + (i == j == 0) for j, Aj in enumerate(A)] for i, Ai in enumerate(A)]
    r = [form(Ai, w) for Ai in A]
    if q == 1:
        theta = [r[0] / M[0][0]]
    else:
        det_M = M[0][0] * M[1][1] - M[0][1] ** 2
        theta = [(M[1][1] * r[0] - M[0][1] * r[1]) / det_M, (M[0][0] * r[1] - M[0][1] * r[0]) / det_M]
    lag = {i: -th for i, th in enumerate(theta)} | {q: 1.0}  # u_{t-1}
    diff = ({0: -theta[1]} if q == 2 else {}) | {q + 1: 1.0}  # du_t
    G = np.stack([form(lag, lag), form(lag, diff), form(diff, diff)])
    t, refit = ols._tstats(G, {(0, 0): 0, (0, 1): 1, (1, 1): 2}, e[:, 0] - 1, 1)
    # u'u is a small difference of large terms when the detrending fits z_{t-1} nearly exactly
    refit |= G[0] < _GLS_CANCEL * sum(abs(x) * np.sqrt(gram(i, i)) for i, x in lag.items()) ** 2
    curve = np.full((len(Y), T + 1), np.nan)
    curve[:, m0:] = t.T
    for i, row in zip(*np.nonzero(refit)):
        with suppress(DegenerateFitError):
            curve[row, m0 + i] = ols.tstat_ar_noconst(ols.gls_adjust(Y[row, : m0 + i], det=det, c_bar=c_bar))
    return curve, np.where(np.isnan(curve), -1, 0)


def _row_sup(curves: np.ndarray) -> np.ndarray:
    """Sup of each row, skipping NaN; NaN for a row with no value."""
    valid = ~np.isnan(curves)
    best = np.where(valid, curves, -np.inf).max(axis=1)
    return np.where(valid.any(axis=1), best, np.nan)


def _curve_result(kind: str, curves, series, tau0, **options) -> SupResult:
    """SupResult of one series from a curve builder ``curves(Y, m0,
    strict, **options) -> (curve, starts)``, (rows, T+1) arrays.  The
    builder runs strictly, so a degenerate series raises its own message."""
    v = as_values(series)
    tau0, m0 = _resolve_tau0(v.size, tau0)
    curve, starts = curves(v[None, :], m0, strict=True, **options)
    return _double_supresult(kind, curve[0], starts[0], m0, v.size, tau0)


def _curve_scores(curves, panel, tau0, **options) -> np.ndarray:
    """Sup of each row's curve of a (rows, T) panel, in one scan; NaN for
    a row whose windows are all degenerate."""
    Y = np.asarray(panel, dtype=np.float64)
    m0 = _resolve_tau0(Y.shape[1], tau0)[1]
    return _row_sup(curves(Y, m0, **options)[0][:, m0:])


def sadf(series, tau0: float | None = None, det: str = "const", k: int = 0) -> SupResult:
    """Sup of forward-recursive ADF statistics on windows (0, e].

    The endpoint runs over e = m0..T with m0 the floor-mapped minimum
    window.  The emitted sequence is reusable for origination dating.
    """
    return _curve_result("sadf", _prefix_curves, series, tau0, det=det, k=k)


def gsadf(series, tau0: float | None = None, det: str = "const", k: int = 0) -> SupResult:
    """Double-sup ADF over all windows (s, e] with e - s >= m0.

    The emitted sequence is the backward sup curve (for each endpoint,
    the sup over admissible starts), whose maximum equals the statistic.
    The prefix windows it shares with the forward scan are folded in
    from the same arithmetic that scan uses, so the double sup dominates
    the forward sup exactly, not just up to rounding.
    """
    return _curve_result("bsadf", _backward_curves, series, tau0, det=det, k=k)


def _hb_curves(Y: np.ndarray, tau0: float | None, strict: bool = False, k: int = 0) -> np.ndarray:
    """Sup-Chow break curves of a (rows, T) panel: the t-ratio of each break
    b = 0..(1-tau0)T per row ((rows, b_max+1)), NaN where degenerate
    (``strict``: a sample too short for k raises).

    Every break regression shares the lag columns and dy; only the level,
    switched on from the first row with t > b, differs.  So the moments of
    the rows t = k+2..T in the layout of ``ols._terms`` (no intercept) are
    summed backward once: the level's moments are read as suffix sums from
    that first row, every other moment as the full-sample sum, and
    ``ols._tstats`` solves all breaks at once; it alone picks the breaks
    refit densely.
    """
    Y = np.asarray(Y, dtype=np.float64)
    T = Y.shape[1]
    if tau0 is None:
        tau0 = default_min_window(T)
    if not 0 < tau0 <= 1:
        raise ValueError(f"tau0 must lie in (0, 1], got {tau0}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    b_max, n = frac_to_index(1.0 - tau0, T), T - 1 - k
    curve = np.full((len(Y), b_max + 1), np.nan)
    if n - (1 + k) < 1:
        if strict:
            raise DegenerateFitError(f"sample of {T} too short for k={k}")
        return curve
    Z = Y - Y[:, :1]  # exact for a level offset; the mean is then taken in the data's scale
    yt = np.ascontiguousarray((Z - Z.mean(axis=1, keepdims=True)).T)
    dy = np.diff(yt, axis=0)
    C, slots = ols._terms((n, len(Y)), "none", k, lambda j: dy[k - j : k - j + n], yt[k:-1], None, None)
    S = np.zeros((len(C), n + 1, len(Y)))
    np.cumsum(C[:, ::-1], axis=1, out=S[:, n - 1 :: -1])  # S[:, i] sums the rows from index i on
    first = np.clip(np.arange(b_max + 1) - k - 1, 0, n)  # index of the first row with t > b
    G = np.stack([S[m, first if k in ij else 0 * first] for ij, m in slots.items()])
    t, refit = ols._tstats(G, slots, np.full(b_max + 1, n), k + 1)
    curve[:] = t.T
    for b, row in zip(*np.nonzero(refit)):
        level = np.where(np.arange(k, T - 1) + 2 > b, yt[k:-1, row], 0.0)
        X = np.column_stack([level] + [dy[k - j : k - j + n, row] for j in range(1, k + 1)])
        with suppress(DegenerateFitError):
            beta, ssr, vf = ols._least_squares(X, dy[k:, row])
            curve[row, b] = ols._tratio(beta[0], ssr, n - 1 - k, vf[0])
    return curve


def hb_sup_chow(series, tau0: float | None = None, k: int = 0) -> SupResult:
    """Sup of one-shot break statistics for a switch to an explosive root.

    The series is demeaned by its full-sample mean; for each candidate
    break index b the regression explains the differenced series by the
    lagged level switched on after b (plus k lagged differences, no
    intercept), and the sup of the t-ratios over b in [0, (1-tau0)T] is
    returned.  A location shift therefore never changes the value.  The
    curve is the one-row case of the panel builder ``_hb_curves``.
    """
    v = as_values(series)
    tau0 = float(default_min_window(v.size) if tau0 is None else tau0)
    stats = _hb_curves(v[None, :], tau0, strict=True, k=k)[0]
    if np.isnan(stats).all():
        raise DegenerateFitError("every break regression degenerate")
    b = int(np.nanargmax(stats))
    seq = StatSequence(kind="hb_chow", tau0=tau0, tau2=np.arange(stats.size) / v.size, values=stats, nobs=v.size)
    return SupResult("hb_chow", float(stats[b]), argmax=(b / v.size, 1.0), window=(b, v.size), tau0=tau0, sequence=seq)


def sadf_gls(
    series,
    tau0: float | None = None,
    det: str = "const",
    c_bar: float | None = None,
) -> SupResult:
    """Sup of GLS-detrended recursive statistics on prefix windows.

    Each prefix (0, e] is detrended on its own as ``gls_adjust`` does (the
    quasi-differencing constant rescaled by the prefix length) and the
    no-deterministics t-ratio is computed on the residuals; every prefix is
    read from one pass of running moment sums (``_gls_curves``).
    """
    return _curve_result("sadf_gls", _gls_curves, series, tau0, det=det, c_bar=c_bar)


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
