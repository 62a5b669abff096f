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

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DegenerateFitError
from .recursive import (
    SupResult,
    _double_supresult,
    _prefix_supresult,
    _resolve_tau0,
)
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
    v = as_values(series)
    T = v.size
    if T < _MIN_KERNEL_SAMPLE:
        raise ValueError(f"this statistic needs T >= {_MIN_KERNEL_SAMPLE}, got {T}")
    h = _check_bandwidth(T, bandwidth)
    tau0, m0 = _resolve_tau0(T, tau0)
    sig2 = _gaussian_smooth(np.diff(v) ** 2, T, h)
    if not np.all(sig2 > 0):
        raise DegenerateFitError("local variance estimate vanished")
    yt = v - v[0]
    num = np.cumsum(np.diff(yt) * yt[:-1] / sig2)
    den = np.cumsum(yt[:-1] ** 2 / sig2)
    stats = np.full(T + 1, np.nan)
    e_grid = np.arange(m0, T + 1)
    d = den[e_grid - 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        stats[e_grid] = np.where(d > 0, num[e_grid - 2] / np.sqrt(d), np.nan)
    return _prefix_supresult("sbz", stats, m0, T, tau0)


def sign_path(series, mode: str = "raw", filter_lags: int = 0) -> np.ndarray:
    """Cumulated increment signs C_0..C_T (length T+1, C_0 = C_1 = 0).

    mode 'raw' cumulates sign(dy); 'recursively-demeaned' subtracts from
    each sign the running mean of the signs observed so far.  With
    filter_lags = k > 0 the sign at time t (for t >= k+5) is taken from
    the innovation after removing the fitted lagged-difference terms of
    an expanding autoregression; earlier signs stay unfiltered.
    """
    v = as_values(series)
    T = v.size
    mode = _normalize_sign_mode(mode)
    if filter_lags < 0:
        raise ValueError(f"filter_lags must be >= 0, got {filter_lags}")
    dy = np.diff(v)
    s = np.sign(dy)
    if filter_lags > 0:
        k = filter_lags
        s = s.copy()
        for t in range(k + 5, T + 1):
            rows = np.arange(k + 5, t + 1)
            dep = dy[rows - 2]
            cols = [np.ones(rows.size), v[rows - 2]]
            for j in range(1, k + 1):
                cols.append(dy[rows - 2 - j])
            X = np.column_stack(cols)
            coef, _, _, _ = np.linalg.lstsq(X, dep, rcond=None)
            phi = coef[2:]
            f = dy[t - 2] - phi @ np.array([dy[t - 2 - j] for j in range(1, k + 1)])
            s[t - 2] = np.sign(f)
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


def _sign_scan(C: np.ndarray, m0: int):
    """Prefix stats, per-endpoint sups, and smallest maximizing starts.

    Window (s, e] regresses the sign-path increments on the lagged path
    with no intercept; the variance estimate divides by e - s - 1.  Rows
    with t <= 1 contribute zero to every accumulated moment, so plain
    prefix sums cover all starts uniformly.
    """
    T = C.size - 1
    dC = np.diff(C)
    x = C[:-1]
    PA = np.zeros(T + 1)
    PB = np.zeros(T + 1)
    PC = np.zeros(T + 1)
    PA[1:] = np.cumsum(x * dC)
    PB[1:] = np.cumsum(x * x)
    PC[1:] = np.cumsum(dC * dC)
    prefix = np.full(T + 1, np.nan)
    maxvals = np.full(T + 1, np.nan)
    argmax_s = np.full(T + 1, -1, dtype=np.int64)
    for e in range(m0, T + 1):
        s_arr = np.arange(0, e - m0 + 1)
        A = PA[e] - PA[s_arr]
        Bq = PB[e] - PB[s_arr]
        Cq = PC[e] - PC[s_arr]
        dof = (e - s_arr - 1).astype(float)
        valid = Bq > 0
        st = np.full(s_arr.size, np.nan)
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = np.where(valid, A / np.where(valid, Bq, 1.0), np.nan)
            sse = Cq - np.where(valid, A * A / np.where(valid, Bq, 1.0), 0.0)
            exact = valid & (sse <= 0)
            ok = valid & (sse > 0)
            st[ok] = delta[ok] * np.sqrt(Bq[ok] * dof[ok] / sse[ok])
        st[exact & (delta > 0)] = np.inf
        st[exact & (delta < 0)] = -np.inf
        st[exact & (delta == 0)] = np.nan
        valid = ~np.isnan(st)
        if not valid.any():
            continue
        prefix[e] = st[0]
        filled = np.where(valid, st, -np.inf)
        m = filled.max()
        maxvals[e] = m
        if m == -np.inf:
            argmax_s[e] = int(np.flatnonzero(valid)[0])
        else:
            argmax_s[e] = int(np.flatnonzero(filled == m)[0])
    return prefix, maxvals, argmax_s


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
    T = v.size
    tau0, m0 = _resolve_tau0(T, tau0)
    C = sign_path(v, mode=mode, filter_lags=filter_lags)
    if not np.any(C != 0):
        raise DegenerateFitError("all increment signs are zero (flat series)")
    prefix, maxvals, argmax_s = _sign_scan(C, m0)
    ssadf = _prefix_supresult("sign_sadf", prefix, m0, T, tau0)
    sgsadf = _double_supresult("sign_bsadf", maxvals, argmax_s, m0, T, tau0)
    return SignStatistics(ssadf=ssadf, sgsadf=sgsadf, path=C)


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


def time_transformed_tests(
    series,
    tau0: float | None = None,
    bandwidth: float | None = None,
) -> TimeTransformedTests:
    """Prefix-sup and double-sup statistics on the time-transformed series.

    The series is resampled at the floor-mapped inverse of the variance
    profile and shifted by its first transformed value; the window
    statistic compares the growth of the squared path against the average
    innovation variance, studentised by the cumulated squared path.
    """
    v = as_values(series)
    T = v.size
    tau0, m0 = _resolve_tau0(T, tau0)
    prof = variance_profile(v, bandwidth=bandwidth)
    idx = prof.transform_indices()
    ytil = v[idx - 1]
    ytil = ytil - ytil[0]
    om2 = prof.omega_bar2
    om = np.sqrt(om2)
    Q = np.cumsum(ytil**2)

    prefix = np.full(T + 1, np.nan)
    maxvals = np.full(T + 1, np.nan)
    argmax_s = np.full(T + 1, -1, dtype=np.int64)
    for e in range(m0, T + 1):
        s_arr = np.arange(0, e - m0 + 1)
        den = Q[e - 1] - np.where(s_arr > 0, Q[s_arr - 1], 0.0)
        num = ytil[e] ** 2 - ytil[s_arr] ** 2 - om2 * (e - s_arr)
        valid = den > 0
        st = np.full(s_arr.size, np.nan)
        st[valid] = num[valid] / (2.0 * om * np.sqrt(den[valid]))
        if not valid.any():
            continue
        if valid[0]:
            prefix[e] = st[0]
        filled = np.where(valid, st, -np.inf)
        m = filled.max()
        maxvals[e] = m
        argmax_s[e] = int(np.flatnonzero(filled == m)[0])
    stadf = _prefix_supresult("stadf", prefix, m0, T, tau0)
    gstadf = _double_supresult("gstadf", maxvals, argmax_s, m0, T, tau0)
    return TimeTransformedTests(stadf=stadf, gstadf=gstadf, profile=prof)
