"""Reference computations made apart from the program under test.

Everything here is plain numpy written from the method's definitions, not
from the package's code paths, so a fault in the package's scan engine,
bootstrap or regime search cannot hide itself by also corrupting the
reference.
"""

from __future__ import annotations

import numpy as np


def adf_tstat(y: np.ndarray, s: int, e: int) -> float:
    """ADF t-ratio on the window (s, e]: dy_t on [1, y_{t-1}], no lags.

    Dense least squares on the window's own rows t = s+2..e, with
    sigma^2 = ssr / (nobs - 2).
    """
    w = y[s:e]
    d = np.diff(w)
    X = np.column_stack([np.ones(d.size), w[:-1]])
    beta = np.linalg.lstsq(X, d, rcond=None)[0]
    resid = d - X @ beta
    sigma2 = (resid @ resid) / (d.size - 2)
    return float(beta[1] / np.sqrt(sigma2 * np.linalg.inv(X.T @ X)[1, 1]))


def gsadf_dense(y: np.ndarray, m0: int) -> float:
    """GSADF by one least-squares fit per window (s, e], e - s >= m0."""
    T = y.size
    return max(
        adf_tstat(y, s, e) for e in range(m0, T + 1) for s in range(0, e - m0 + 1)
    )


def _window_pairs(T: int, m0: int) -> tuple[np.ndarray, np.ndarray]:
    ends = np.concatenate([np.full(e - m0 + 1, e) for e in range(m0, T + 1)])
    starts = np.concatenate([np.arange(e - m0 + 1) for e in range(m0, T + 1)])
    return starts, ends


def gsadf_moments(y: np.ndarray, m0: int, pairs=None) -> float:
    """GSADF from centred window moments, all windows at once.

    The same statistic as :func:`gsadf_dense`, several hundred times
    faster, for the bootstrap replicates a report's p-value rests on.
    """
    starts, ends = _window_pairs(y.size, m0) if pairs is None else pairs
    x = y[:-1] - y.mean()  # row r: level y_r, increment y_{r+1} - y_r
    d = np.diff(y)
    P = [np.concatenate([[0.0], np.cumsum(v)]) for v in (x, x * x, d, d * d, x * d)]
    lo, hi = starts, ends - 1  # rows s .. e-2
    Sx, Sxx, Sd, Sdd, Sxd = (p[hi] - p[lo] for p in P)
    n = (hi - lo).astype(float)
    cxx = Sxx - Sx * Sx / n
    cxd = Sxd - Sx * Sd / n
    cdd = Sdd - Sd * Sd / n
    ssr = cdd - cxd * cxd / cxx
    return float(np.max(cxd / np.sqrt(ssr * cxx / (n - 2))))


def wild_bootstrap_replicates(y: np.ndarray, m0: int, B: int, seed: int) -> np.ndarray:
    """GSADF of B wild-bootstrap null paths with Gaussian multipliers.

    Follows the package's documented replicate contract: replicate r draws
    its T-1 multipliers from ``SeedSequence(seed, spawn_key=(r,))`` and
    cumulates the multiplied first differences from zero.
    """
    pairs = _window_pairs(y.size, m0)
    dy = np.diff(y)
    out = np.empty(B)
    for r in range(B):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
        w = rng.standard_normal(y.size - 1)
        ystar = np.concatenate([[0.0], np.cumsum(w * dy)])
        out[r] = gsadf_moments(ystar, m0, pairs)
    return out


def regime_ssr(y: np.ndarray, a: int, b: int, c: int) -> float:
    """SSR of the four-regime dummy regression with dates (a, b, c).

    dy_t (t = 2..T) is regressed on an intercept and the lagged level
    switched on inside the explosive regime a < t <= b, and again inside
    the collapse regime b < t <= c; outside both the increments enter raw.
    """
    T = y.size
    t = np.arange(2, T + 1)
    d = np.diff(y)
    lag = y[:-1]
    up = ((t > a) & (t <= b)).astype(float)
    down = ((t > b) & (t <= c)).astype(float)
    X = np.column_stack([up, up * lag, down, down * lag])
    beta = np.linalg.lstsq(X, d, rcond=None)[0]
    resid = d - X @ beta
    return float(resid @ resid)


def regime_admissible(y: np.ndarray, a: int, b: int, c: int, min_seg: int) -> bool:
    """Whether (a, b, c) lies in the exact four-regime date grid.

    Every regime spans at least ``min_seg`` observations, and the level at
    the peak b exceeds the levels at the origin a and at the recovery c.
    """
    T = y.size
    return (
        a >= min_seg
        and b - a >= min_seg
        and c - b >= min_seg
        and T - c >= min_seg
        and y[b - 1] > y[a - 1]
        and y[b - 1] > y[c - 1]
    )
