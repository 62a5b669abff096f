"""Explosiveness statistics robust to time-varying volatility.

Three families:

* a variance-weighted recursive ratio, weighting each increment by a
  kernel estimate of the local innovation variance;
* cumulated-sign statistics, exactly invariant to any positive
  volatility path and to level shifts because only sign(dy) enters;
* time-transformed statistics that resample the series along the
  estimated variance profile so that, in transformed time, innovations
  are close to homoskedastic.

All sup scans share the window conventions of :mod:`exuberance.recursive`
and reuse its result containers.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DegenerateFitError
from .ols import _at, _curve_out, _least_squares, _prefix, _sup_curve
from .recursive import SupResult, _curve_result, _double_supresult, _resolve_tau0
from .series import as_values

__all__ = [
    "kernel_variance",
    "sbz",
    "sign_path",
    "sign_statistics",
    "SignStatistics",
    "variance_profile",
    "VarianceProfile",
    "time_transformed_tests",
    "TimeTransformedTests",
]

_MIN_KERNEL_SAMPLE = 20


def _default_bandwidth(T: int) -> float:
    return float(T) ** (-1.0 / 5.0)


def _check_bandwidth(T: int, bandwidth: float | None) -> float:
    h = _default_bandwidth(T) if bandwidth is None else float(bandwidth)
    if not 0.0 < h < 1.0:
        raise ValueError(f"bandwidth must lie in (0, 1), got {h}")
    return h


def _gaussian_smooth(X: np.ndarray, h: float) -> np.ndarray:
    """Kernel regression of the rows of X (rows, T-1; t = 2..T) on the time fractions.

    The Gaussian weight of t_j at t_i depends only on the lag j - i, so the
    weighted sums are convolutions of each row, and of ones (once per
    panel), with one kernel over the lags -(T-2)..T-2.
    """
    n = X.shape[1]
    u = np.arange(1 - n, n, dtype=float) / ((n + 1) * h)
    w = np.exp(-0.5 * u * u)
    return np.stack([np.convolve(x, w, "valid") for x in X]) / np.convolve(np.ones(n), w, "valid")


def kernel_variance(series, bandwidth: float | None = None) -> np.ndarray:
    """Local variance of the first differences, smoothed in time.

    Returns an array aligned with t = 2..T (length T-1).
    """
    v = as_values(series)
    T = v.size
    if T < _MIN_KERNEL_SAMPLE:
        raise ValueError(f"kernel variance needs T >= {_MIN_KERNEL_SAMPLE}, got {T}")
    h = _check_bandwidth(T, bandwidth)
    return _gaussian_smooth(np.diff(v)[None] ** 2, h)[0]


def sbz(series, tau0: float | None = None, bandwidth: float | None = None) -> SupResult:
    """Sup of variance-weighted recursive ratios on prefix windows.

    The series is shifted by its first observation, each product of
    increment and lagged level is divided by the kernel-estimated local
    variance, and the cumulated ratio is studentised by the weighted sum
    of squared lagged levels.  Weighting makes the statistic insensitive
    to smooth volatility changes; the shift removes the starting level.
    """
    return _curve_result("sbz", _sbz_curves, series, tau0, bandwidth=bandwidth)


def _sbz_curves(Y: np.ndarray, m0: int, strict: bool = False, bandwidth: float | None = None, sups: bool = False):
    """:func:`sbz` prefix curves of a (rows, T) panel: each row's kernel
    variance, then one cumsum over the panel.  A row whose local variance
    vanishes is NaN (strict: raises)."""
    T = Y.shape[1]
    if T < _MIN_KERNEL_SAMPLE:
        raise ValueError(f"this statistic needs T >= {_MIN_KERNEL_SAMPLE}, got {T}")
    h = _check_bandwidth(T, bandwidth)
    sig2 = _gaussian_smooth(np.diff(Y, axis=1) ** 2, h)
    ok = (sig2 > 0).all(axis=1)
    if strict and not ok.all():
        raise DegenerateFitError("local variance estimate vanished")
    yt = Y - Y[:, :1]
    stats = np.full((len(Y), T + 1), np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        num = np.cumsum(np.diff(yt, axis=1) * yt[:, :-1] / sig2, axis=1)[:, m0 - 2 :]
        den = np.cumsum(yt[:, :-1] ** 2 / sig2, axis=1)[:, m0 - 2 :]
        stats[:, m0:] = np.where(ok[:, None] & (den > 0), num / np.sqrt(den), np.nan)
    return _curve_out(stats, m0, sups)


def sign_path(series, mode: str = "raw", filter_lags: int = 0) -> np.ndarray:
    """Cumulated increment signs C_0..C_T (length T+1, C_0 = C_1 = 0).

    mode 'raw' cumulates sign(dy); 'recursively-demeaned' subtracts from
    each sign the running mean of the signs observed so far.  With
    filter_lags = k > 0 the sign at time t is taken from the innovation
    after removing the fitted lagged-difference terms of the expanding
    autoregression on rows k+5..t.  Its k + 2 coefficients are identified
    from t = 2k+6 on; earlier signs, and those of a rank-deficient fit,
    stay unfiltered.
    """
    v = as_values(series)
    T = v.size
    mode = _normalize_sign_mode(mode)
    if filter_lags < 0:
        raise ValueError(f"filter_lags must be >= 0, got {filter_lags}")
    dy = np.diff(v)
    s = np.sign(dy)
    if filter_lags > 0:
        # time t fits rows k+5..t, the ADF window (3, t], and filters the last: one forward
        # moment pass over y_4..y_T, but densely at t = 2k+6, an exact fit anchored at row 1
        k, phi = filter_lags, np.full((filter_lags, T + 1), np.nan)
        phi[:, 3:] = _prefix(v[3:, None], "const", k, 0, coefs=True)[1 : k + 1, :, 0]
        if T >= 2 * k + 6:
            rows = np.arange(k + 5, 2 * k + 7)
            X = np.column_stack([np.ones(k + 2), v[rows - 2] - v[k + 3]] + [dy[rows - 2 - j] for j in range(1, k + 1)])
            with suppress(DegenerateFitError):
                phi[:, 2 * k + 6] = _least_squares(X, dy[rows - 2])[0][2:]
        t = np.flatnonzero(~np.isnan(phi[0]))
        s[t - 2] = np.sign(dy[t - 2] - sum(phi[j - 1, t] * dy[t - 2 - j] for j in range(1, k + 1)))
    if mode == "demeaned":
        s = s - np.cumsum(s) / np.arange(1, s.size + 1)
    C = np.zeros(T + 1)
    C[2:] = np.cumsum(s)
    return C


def _normalize_sign_mode(mode: str) -> str:
    m = mode.strip().lower().replace("_", "-")
    if m in ("raw",):
        return "raw"
    if m in ("demeaned", "recursively-demeaned", "recursive-demeaned"):
        return "demeaned"
    raise ValueError(f"unknown sign mode {mode!r}")


def _sup(kind, double, stat, m0, T, tau0) -> SupResult:
    curve, starts = _sup_curve(stat, 1, m0, T, double)
    return _double_supresult(kind, curve[0], starts[0], m0, T, tau0)


def _window_curves(window, double: bool):
    """Curve builder of a panel closed form ``window(Y, strict)``: its
    prefix curve, or its backward sup curve when ``double``."""
    return lambda Y, m0, strict=False, sups=False: _sup_curve(window(Y, strict), len(Y), m0, Y.shape[1], double, sups)


def _sign_moments(C: np.ndarray, strict: bool = False) -> np.ndarray:
    """Prefix sums over t = 1..e of x dC, x x and dC dC (x = C_{t-1}, dC =
    C_t - C_{t-1}) of time-major (T+1, rows) sign paths; rows t <= 1 add
    zero, so differences cover any start.  ``strict`` refuses a flat row."""
    if strict and not C.any(axis=0).all():
        raise DegenerateFitError("all increment signs are zero (flat series)")
    dC, x = np.diff(C, axis=0), C[:-1]
    return np.cumsum(np.pad(np.stack([x * dC, x * x, dC * dC]), ((0, 0), (1, 0), (0, 0))), axis=1)


def _sign_window(C: np.ndarray, strict: bool = False):
    """Closed form of the sign statistic on windows (s, e] of time-major
    sign paths: the path increments regressed on the lagged path with no
    intercept, the residual variance divided by e - s - 1.  An exact fit (sse
    <= 0) gives +-inf by the slope's sign, NaN for a zero slope; b = 0 is 0/0."""
    A, B, D = _sign_moments(C, strict)

    def stat(e, s, n=None):  # a / b * sqrt(b (n - 1) / max(d - a a / b, 0)), in place; n = e - s
        a, b, d = _at(A, e) - _at(A, s), _at(B, e) - _at(B, s), _at(D, e) - _at(D, s)
        with np.errstate(divide="ignore", invalid="ignore"):
            aa = np.divide(a * a, b)
            sse = np.maximum(np.subtract(d, aa, out=d), 0.0, out=d)
            np.sqrt(np.divide(np.multiply(b, (e - s if n is None else n) - 1.0, out=aa), sse, out=aa), out=aa)
            return np.multiply(np.divide(a, b, out=a), aa, out=a)

    return stat


def _sign_rows(Y: np.ndarray, strict: bool = False):
    """Sign closed form of a (rows, T) panel, on the raw sign paths."""
    return _sign_window(np.pad(np.cumsum(np.sign(np.diff(Y.T, axis=0)), axis=0), ((2, 0), (0, 0))), strict)


@dataclass
class SignStatistics:
    """Prefix-sup and double-sup statistics on the cumulated sign path."""

    ssadf: SupResult
    sgsadf: SupResult
    path: np.ndarray = field(repr=False)


def sign_statistics(
    series,
    tau0: float | None = None,
    mode: str = "raw",
    filter_lags: int = 0,
) -> SignStatistics:
    """Sup tests on cumulated increment signs.

    Because only sign(dy) enters, both statistics are exactly invariant
    to any positive volatility path multiplying the innovations and to
    adding a constant to the series.
    """
    v = as_values(series)
    tau0, m0 = _resolve_tau0(v.size, tau0)
    C = sign_path(v, mode=mode, filter_lags=filter_lags)
    args = _sign_window(C[:, None], strict=True), m0, v.size, tau0
    return SignStatistics(_sup("sign_sadf", False, *args), _sup("sign_bsadf", True, *args), C)


@dataclass
class VarianceProfile:
    """Normalized cumulated squared innovations over the time grid.

    ``eta[t]`` estimates the share of total innovation variance realized
    by time fraction t/T; ``omega_bar2`` is the average innovation
    variance.  ``g`` inverts the profile (leftmost preimage) so that
    sampling at g(q) equalizes variance across transformed time.
    """

    grid: np.ndarray
    eta: np.ndarray
    omega_bar2: float
    bandwidth: float

    def g(self, q):
        q_arr = np.asarray(q, dtype=float)
        if np.any((q_arr < 0) | (q_arr > 1)):
            raise ValueError("profile inverse defined on [0, 1]")
        out = _inverse(self.eta, self.grid, q_arr.ravel(), np.searchsorted(self.eta, q_arr.ravel(), side="left"))
        return out.reshape(q_arr.shape) if np.ndim(q) else float(out[0])

    def transform_indices(self) -> np.ndarray:
        """1-based source index t' for each grid point t = 0..T (t' >= 1)."""
        return _source_indices(self.eta[None])[0]


def _inverse(eta, grid, q, j):
    """The profile inverse at q from j, the count of profile values below q
    (q and j stack along eta's rows): linear between the grid points that
    bracket q, the leftmost preimage on a flat stretch; 0 where j = 0.
    Its steps run in place, so few arrays of j's shape live at once."""
    jj = np.minimum(j, grid.size - 1)
    width = np.take_along_axis(eta, jj, -1)
    jj -= 1
    frac = np.take_along_axis(eta, jj, -1)
    np.subtract(width, frac, out=width)  # e1 - e0, 0 exactly where e1 = e0
    np.subtract(q, frac, out=frac)
    flat = width == 0
    np.divide(frac, width, out=frac, where=~flat)
    frac[flat] = 0.0
    lo = grid[jj]
    np.multiply(frac, np.subtract(grid[np.add(jj, 1, out=jj)], lo, out=width), out=frac)
    frac += lo
    frac[j == 0] = 0.0
    return frac


def _source_indices(eta: np.ndarray) -> np.ndarray:
    """:meth:`VarianceProfile.transform_indices` of every row of a (rows,
    T+1) panel of profiles at once: the count of a row's profile values
    below each grid point, from where each value falls on the grid."""
    rows, T = eta.shape[0], eta.shape[1] - 1
    grid = np.arange(T + 1) / T
    j = np.bincount(
        (np.searchsorted(grid, eta, side="right") + (T + 2) * np.arange(rows)[:, None]).ravel(), minlength=rows * (T + 2)
    ).reshape(rows, T + 2)
    g = _inverse(eta, grid, grid, np.cumsum(j, axis=1, out=j)[:, :-1])
    idx = np.floor(np.add(np.multiply(g, T, out=g), 1e-9, out=g), out=g).astype(np.int64)
    return np.maximum(idx, 1, out=idx)


def _profiles(Y: np.ndarray, bandwidth: float | None, strict: bool = False):
    """Variance profiles of the rows of a (rows, T) panel in one pass:
    ``(eta, om2, h)``, eta (rows, T+1).  A row whose innovation proxies
    all vanish has om2 NaN and eta 0 but eta_T = 1 (strict: raises)."""
    T = Y.shape[1]
    if T < _MIN_KERNEL_SAMPLE:
        raise ValueError(f"variance profile needs T >= {_MIN_KERNEL_SAMPLE}, got {T}")
    h = _check_bandwidth(T, bandwidth)
    dy = np.diff(Y, axis=1)
    eps2 = (dy - _gaussian_smooth(dy, h)) ** 2
    total = eps2.sum(axis=1, keepdims=True)
    if strict and not (total > 0).all():
        raise DegenerateFitError("all innovation proxies are zero")
    eta = np.zeros((len(Y), T + 1))
    np.divide(np.cumsum(eps2, axis=1), total, out=eta[:, 2:], where=total > 0)
    eta[:, T] = 1.0
    return eta, np.where(total[:, 0] > 0, total[:, 0] / T, np.nan), h


def variance_profile(series, bandwidth: float | None = None) -> VarianceProfile:
    """Estimate the variance profile from kernel-demeaned differences.

    The innovation proxy at t is dy_t minus a kernel-smoothed local mean
    of the differences; the profile cumulates its squares and normalizes
    by the total, pinning eta(0) = 0 and eta(1) = 1.
    """
    v = as_values(series)
    eta, om2, h = _profiles(v[None], bandwidth, strict=True)
    return VarianceProfile(grid=np.arange(v.size + 1) / v.size, eta=eta[0], omega_bar2=float(om2[0]), bandwidth=h)


@dataclass
class TimeTransformedTests:
    """Sup statistics computed in variance-equalized time."""

    stadf: SupResult
    gstadf: SupResult
    profile: VarianceProfile


def _tt_window(Y: np.ndarray, eta: np.ndarray, om2: np.ndarray):
    """Closed form of the time-transformed statistic on windows (s, e] of
    the rows of a (rows, T) panel, each resampled at the floor-mapped
    inverse of its variance profile ``eta`` and shifted by its first value,
    time-major; ``om2`` holds their average innovation variances, NaN for a
    degenerate row.  Endpoint levels are squared by libm's pow
    (``float_power``), start levels by multiplication, as this scan always
    has: the two differ in the last bit for about one value in a thousand."""
    ytil = np.take_along_axis(Y, _source_indices(eta) - 1, axis=1)
    ytil = np.ascontiguousarray((ytil - ytil[:, :1]).T)
    ytil[:, np.isnan(om2)] = np.nan
    sq, sq_end = ytil**2, np.float_power(ytil, 2.0)
    Q = np.cumsum(np.pad(sq[:-1], ((1, 0), (0, 0))), axis=0)
    scale = 2.0 * np.sqrt(om2)

    def stat(e, s, n=None):  # Q sums squares, so den >= 0: NaN where it is 0; n = e - s
        den, st = _at(Q, e) - _at(Q, s), _at(sq_end, e) - _at(sq, s)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.subtract(st, np.multiply(om2, (e - s if n is None else n) + 0.0), out=st)
            r = np.sqrt(den)
            np.divide(st, np.multiply(scale, r, out=r), out=st)
        np.copyto(st, np.nan, where=den == 0)
        return st

    return stat


def _tt_rows(Y: np.ndarray, strict: bool = False):
    """Time-transformed closed form of a panel, every row's variance
    profile from one pass; a degenerate row is NaN (strict: raises)."""
    return _tt_window(Y, *_profiles(Y, None, strict)[:2])


def time_transformed_tests(
    series,
    tau0: float | None = None,
    bandwidth: float | None = None,
) -> TimeTransformedTests:
    """Prefix-sup and double-sup statistics on the time-transformed series.

    The window statistic compares the growth of the squared transformed
    path against the average innovation variance, studentised by the
    cumulated squared path.
    """
    v = as_values(series)
    tau0, m0 = _resolve_tau0(v.size, tau0)
    prof = variance_profile(v, bandwidth)
    args = _tt_window(v[None], prof.eta[None], np.array([prof.omega_bar2])), m0, v.size, tau0
    return TimeTransformedTests(_sup("stadf", False, *args), _sup("gstadf", True, *args), prof)
