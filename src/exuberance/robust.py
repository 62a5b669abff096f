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


def _gaussian_smooth(x: np.ndarray, T: int, h: float) -> np.ndarray:
    """Kernel regression of x (indexed by t = 2..T) on the time fractions.

    The Gaussian weight of t_j at t_i depends only on the lag j - i, so the
    weighted sums are convolutions of x, and of ones, with one kernel over
    the lags -(T-2)..T-2.
    """
    n = T - 1
    u = np.arange(1 - n, n, dtype=float) / (T * h)
    w = np.exp(-0.5 * u * u)
    return np.convolve(x, w)[n - 1 : 2 * n - 1] / np.convolve(np.ones(n), w)[n - 1 : 2 * n - 1]


def kernel_variance(series, bandwidth: float | None = None) -> np.ndarray:
    """Local variance of the first differences, smoothed in time.

    Returns an array aligned with t = 2..T (length T-1).
    """
    v = as_values(series)
    T = v.size
    if T < _MIN_KERNEL_SAMPLE:
        raise ValueError(f"kernel variance needs T >= {_MIN_KERNEL_SAMPLE}, got {T}")
    h = _check_bandwidth(T, bandwidth)
    return _gaussian_smooth(np.diff(v) ** 2, T, h)


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
    sig2 = np.stack([_gaussian_smooth(d**2, T, h) for d in np.diff(Y, axis=1)])
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
    C_t - C_{t-1}) of (rows, T+1) sign paths; rows t <= 1 add zero, so
    differences cover any start.  ``strict`` refuses a flat row."""
    if strict and not C.any(axis=1).all():
        raise DegenerateFitError("all increment signs are zero (flat series)")
    dC, x = np.diff(C, axis=1), C[:, :-1]
    return np.cumsum(np.pad(np.stack([x * dC, x * x, dC * dC]), ((0, 0), (0, 0), (1, 0))), axis=2)


def _sign_window(C: np.ndarray, strict: bool = False):
    """Closed form of the sign statistic on windows (s, e] of sign paths:
    the path increments regressed on the lagged path with no intercept,
    the residual variance divided by e - s - 1.  An exact fit gives +-inf
    by the sign of the slope (NaN for a zero slope); a flat row is NaN."""
    A, B, D = _sign_moments(C, strict)

    def stat(e, s):
        a, b, d = _at(A, e) - _at(A, s), _at(B, e) - _at(B, s), _at(D, e) - _at(D, s)
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = a / b
            sse = d - a * a / b
            st = np.where(sse > 0, delta * np.sqrt(b * (e - s - 1) / sse), np.sign(delta) * np.inf)
        return np.where(b > 0, st, np.nan)

    return stat


def _sign_rows(Y: np.ndarray, strict: bool = False):
    """Sign closed form of a (rows, T) panel, on the raw sign paths."""
    C = np.pad(np.cumsum(np.sign(np.diff(Y, axis=1)), axis=1), ((0, 0), (2, 0)))
    return _sign_window(C, strict)


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
    args = _sign_window(C[None], strict=True), m0, v.size, tau0
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
        q_arr = np.atleast_1d(np.asarray(q, dtype=float))
        if np.any((q_arr < 0) | (q_arr > 1)):
            raise ValueError("profile inverse defined on [0, 1]")
        T = self.grid.size - 1
        j = np.searchsorted(self.eta, q_arr, side="left")
        out = np.zeros_like(q_arr)
        inner = j > 0
        jj = np.minimum(j[inner], T)
        e0 = self.eta[jj - 1]
        e1 = self.eta[jj]
        g0 = self.grid[jj - 1]
        g1 = self.grid[jj]
        flat = e1 == e0
        frac = np.where(flat, 0.0, (q_arr[inner] - e0) / np.where(flat, 1.0, e1 - e0))
        out[inner] = g0 + frac * (g1 - g0)
        return out if np.ndim(q) else float(out[0])

    def transform_indices(self) -> np.ndarray:
        """1-based source index t' for each grid point t = 0..T (t' >= 1)."""
        T = self.grid.size - 1
        g = self.g(self.grid)
        return np.maximum(np.floor(g * T + 1e-9).astype(np.int64), 1)


def variance_profile(series, bandwidth: float | None = None) -> VarianceProfile:
    """Estimate the variance profile from kernel-demeaned differences.

    The innovation proxy at t is dy_t minus a kernel-smoothed local mean
    of the differences; the profile cumulates its squares and normalizes
    by the total, pinning eta(0) = 0 and eta(1) = 1.
    """
    v = as_values(series)
    T = v.size
    if T < _MIN_KERNEL_SAMPLE:
        raise ValueError(f"variance profile needs T >= {_MIN_KERNEL_SAMPLE}, got {T}")
    h = _check_bandwidth(T, bandwidth)
    dy = np.diff(v)
    eps2 = (dy - _gaussian_smooth(dy, T, h)) ** 2
    total = float(eps2.sum())
    if not total > 0:
        raise DegenerateFitError("all innovation proxies are zero")
    eta = np.zeros(T + 1)
    eta[2:] = np.cumsum(eps2) / total
    eta[T] = 1.0
    return VarianceProfile(
        grid=np.arange(T + 1) / T,
        eta=eta,
        omega_bar2=total / T,
        bandwidth=h,
    )


@dataclass
class TimeTransformedTests:
    """Sup statistics computed in variance-equalized time."""

    stadf: SupResult
    gstadf: SupResult
    profile: VarianceProfile


def _transformed(v: np.ndarray, bandwidth: float | None):
    """(path, variance profile): the series resampled at the floor-mapped
    inverse of its variance profile, shifted by its first value."""
    prof = variance_profile(v, bandwidth=bandwidth)
    ytil = v[prof.transform_indices() - 1]
    return ytil - ytil[0], prof


def _tt_window(ytil: np.ndarray, om2: np.ndarray):
    """Closed form of the time-transformed statistic on windows (s, e] of
    (rows, T+1) paths with average innovation variances ``om2``, one per row.
    Endpoint levels are squared by libm's pow (``float_power``), start
    levels by multiplication, as this scan always has: the two differ in
    the last bit for about one value in a thousand."""
    sq, sq_end, om2 = ytil**2, np.float_power(ytil, 2.0), om2.reshape(-1, 1, 1)
    Q = np.cumsum(np.pad(sq[:, :-1], ((0, 0), (1, 0))), axis=1)
    scale = 2.0 * np.sqrt(om2)

    def stat(e, s):
        den = _at(Q, e) - _at(Q, s)
        with np.errstate(divide="ignore", invalid="ignore"):
            st = (_at(sq_end, e) - _at(sq, s) - om2 * (e - s)) / (scale * np.sqrt(den))
        return np.where(den > 0, st, np.nan)

    return stat


def _tt_rows(Y: np.ndarray, strict: bool = False):
    """Time-transformed closed form of a panel; a degenerate row is NaN (strict: raises)."""
    ytil, om2 = np.full((len(Y), Y.shape[1] + 1), np.nan), np.full((len(Y), 1), np.nan)
    for i, v in enumerate(Y):
        with suppress(() if strict else DegenerateFitError):
            ytil[i], prof = _transformed(v, None)
            om2[i] = prof.omega_bar2
    return _tt_window(ytil, om2)


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
    ytil, prof = _transformed(v, bandwidth)
    args = _tt_window(ytil[None], np.array([[prof.omega_bar2]])), m0, v.size, tau0
    return TimeTransformedTests(_sup("stadf", False, *args), _sup("gstadf", True, *args), prof)
