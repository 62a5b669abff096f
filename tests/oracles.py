"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: explicit design matrices, dense
least squares, brute-force double loops.  Nothing imports the library's
engines, so agreement between these oracles and the package is a genuine
dual-route check.

Index convention matches the package: a window (s, e] of a 1-based series
y_1..y_T holds observations ``values[s:e]`` of the 0-based array.
"""

from __future__ import annotations

import collections
import math

import numpy as np


def ols(X: np.ndarray, y: np.ndarray):
    """Plain dense OLS: returns (beta, se, ssr, sigma2, nobs)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    beta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < p:
        raise np.linalg.LinAlgError("rank deficient design")
    resid = y - X @ beta
    ssr = float(resid @ resid)
    dof = n - p
    if dof < 1:
        raise np.linalg.LinAlgError("no residual degrees of freedom")
    sigma2 = ssr / dof
    xtx_inv = np.linalg.inv(X.T @ X)
    se = np.sqrt(sigma2 * np.diag(xtx_inv))
    return beta, se, ssr, sigma2, n

AdfOracle = collections.namedtuple(
    "AdfOracle", "delta tstat beta se ssr sigma2 nobs"
)


def adf_fit(values, start, end, det="const", k=0):
    """ADF regression on window (start, end]: dy_t on det, y_{t-1}, dy lags.

    Rows are t = start+k+2 .. end (1-based).  With 0-based r = t-2 the
    dependent value is dw[r], the lagged level w[r], and the local time
    for the trend column is r+2.
    """
    w = np.asarray(values, dtype=float)[start:end]
    n = w.size
    dw = np.diff(w)
    rows = np.arange(k, n - 1)  # r = t-2 for t = k+2 .. n
    dep = dw[rows]
    cols = []
    if det in ("const", "trend"):
        cols.append(np.ones(rows.size))
    if det == "trend":
        cols.append((rows + 2).astype(float) / n)
    cols.append(w[rows])  # y_{t-1}: level lagged one obs behind dep
    for j in range(1, k + 1):
        cols.append(dw[rows - j])
    X = np.column_stack(cols)
    beta, se, ssr, sigma2, nobs = ols(X, dep)
    pos = X.shape[1] - k - 1
    return AdfOracle(
        float(beta[pos]), float(beta[pos] / se[pos]), beta, se, ssr, sigma2, nobs
    )


def sadf(values, m0, det="const", k=0):
    """Brute-force sup of prefix-window ADF t-stats; returns (value, e*)."""
    T = len(values)
    best, arg = -np.inf, None
    for e in range(m0, T + 1):
        try:
            t = adf_fit(values, 0, e, det, k).tstat
        except np.linalg.LinAlgError:
            continue
        if t > best:
            best, arg = t, e
    return best, arg


def gsadf(values, m0, det="const", k=0):
    """Brute-force double-sup ADF; returns (value, s*, e*), smallest (s, e) ties."""
    T = len(values)
    best = -np.inf
    cands = []
    for e in range(m0, T + 1):
        for s in range(0, e - m0 + 1):
            try:
                t = adf_fit(values, s, e, det, k).tstat
            except np.linalg.LinAlgError:
                continue
            if t > best:
                best = t
                cands = [(s, e)]
            elif t == best:
                cands.append((s, e))
    s, e = min(cands, key=lambda p: (p[0], p[1]))
    return best, s, e


def bsadf_curve(values, m0, det="const", k=0):
    """Backward sup sequence: for each e, sup over s of the window stat.

    Returns (stats, starts) where starts[e] is the smallest maximizing s.
    """
    T = len(values)
    out = np.full(T + 1, np.nan)
    arg = np.full(T + 1, -1, dtype=int)
    for e in range(m0, T + 1):
        best, bs = -np.inf, -1
        for s in range(0, e - m0 + 1):
            try:
                t = adf_fit(values, s, e, det, k).tstat
            except np.linalg.LinAlgError:
                continue
            if t > best:  # strict: ascending s keeps the smallest on ties
                best, bs = t, s
        if best > -np.inf:
            out[e] = best
            arg[e] = bs
    return out, arg


def hb_sup_chow(values, tau0, k=0):
    """Brute-force sup Chow-type break statistic on demeaned values."""
    y = np.asarray(values, dtype=float)
    T = y.size
    yt = y - y.mean()
    dy = np.diff(yt)
    best, arg = -np.inf, None
    bmax = int(math.floor((1.0 - tau0) * T + 1e-9))
    for b in range(0, bmax + 1):
        rows = np.arange(k, T - 1)  # r = t-2 for t = k+2..T
        dep = dy[rows]
        ind = (rows + 2) > b  # indicator 1(t > b) with t = rows+2 in 1-based terms
        xb = np.where(ind, yt[rows], 0.0)
        cols = [xb]
        for j in range(1, k + 1):
            cols.append(dy[rows - j])
        X = np.column_stack(cols)
        try:
            beta, se, ssr, sigma2, nobs = ols(X, dep)
        except np.linalg.LinAlgError:
            continue
        t = beta[0] / se[0]
        if t > best:
            best, arg = float(t), b
    return best, arg


def gls_residuals(values, det="const", c_bar=None):
    y = np.asarray(values, dtype=float)
    n = y.size
    if c_bar is None:
        c_bar = 1.6 if det == "const" else 2.4
    rho = 1.0 + c_bar / n
    Z = np.ones((n, 1)) if det == "const" else np.column_stack(
        [np.ones(n), np.arange(1, n + 1, dtype=float)]
    )
    ya = np.concatenate([[y[0]], y[1:] - rho * y[:-1]])
    Za = np.vstack([Z[0], Z[1:] - rho * Z[:-1]])
    theta, _, _, _ = np.linalg.lstsq(Za, ya, rcond=None)
    return y - Z @ theta


def gls_tstat(u):
    """No-deterministics ADF t-ratio on residuals u, sigma2 = ssr/(nobs-1)."""
    u = np.asarray(u, dtype=float)
    du = np.diff(u)
    x = u[:-1]
    sxx = float(x @ x)
    if sxx <= 0:
        raise np.linalg.LinAlgError("zero lagged sum of squares")
    delta = float(x @ du) / sxx
    resid = du - delta * x
    ssr = float(resid @ resid)
    nobs = du.size
    if nobs - 1 < 1:
        raise np.linalg.LinAlgError("no dof")
    sigma2 = ssr / (nobs - 1)
    if sigma2 <= 0:
        return math.inf if delta > 0 else -math.inf
    return delta / math.sqrt(sigma2 / sxx)


def sadf_gls(values, m0, det="const", c_bar=None):
    y = np.asarray(values, dtype=float)
    T = y.size
    best, arg = -np.inf, None
    for e in range(m0, T + 1):
        try:
            u = gls_residuals(y[:e], det, c_bar)
            t = gls_tstat(u)
        except np.linalg.LinAlgError:
            continue
        if t > best:
            best, arg = float(t), e
    return best, arg


def kernel_var(values, h=None):
    """Gaussian-kernel local variance of first differences, full sample."""
    y = np.asarray(values, dtype=float)
    T = y.size
    if h is None:
        h = T ** (-1.0 / 5.0)
    dy2 = np.diff(y) ** 2  # t = 2..T at positions 0..T-2
    t_idx = np.arange(2, T + 1, dtype=float)
    out = np.empty(T - 1)
    for j, t in enumerate(t_idx):
        u = (t_idx - t) / T / h
        w = np.exp(-0.5 * u * u)
        out[j] = float(w @ dy2 / w.sum())
    return out


def sbz(values, m0, h=None):
    y = np.asarray(values, dtype=float)
    T = y.size
    yt = y - y[0]
    sig2 = kernel_var(y, h)
    num = np.diff(yt) * yt[:-1] / sig2
    den = yt[:-1] ** 2 / sig2
    best, arg = -np.inf, None
    for e in range(m0, T + 1):
        d = float(den[: e - 1].sum())
        if d <= 0:
            continue
        stat = float(num[: e - 1].sum()) / math.sqrt(d)
        if stat > best:
            best, arg = stat, e
    return best, arg


def sign_path(values, mode="raw", filter_lags=0):
    """Cumulative sign path C_0..C_T (length T+1, C_0 = C_1 = 0).

    With filter_lags = k the sign at 1-based t is filtered by the fit of
    rows k+5..t, from t = 2k+6 on, where its k + 2 coefficients are
    identified; earlier signs, and those of a rank-deficient fit, stay raw.
    """
    y = np.asarray(values, dtype=float)
    T = y.size
    dy = np.diff(y)  # t = 2..T at positions 0..T-2
    s = np.sign(dy)
    if filter_lags > 0:
        k = filter_lags
        s = s.copy()
        for t in range(2 * k + 6, T + 1):  # 1-based t
            rows = np.arange(k + 5, t + 1)  # regression rows i
            dep = dy[rows - 2]
            cols = [np.ones(rows.size), y[rows - 2]]
            for j in range(1, k + 1):
                cols.append(dy[rows - 2 - j])
            X = np.column_stack(cols)
            coef, _, rank, _ = np.linalg.lstsq(X, dep, rcond=None)
            if rank < X.shape[1]:
                continue
            phi = coef[2:]
            f = dy[t - 2] - sum(phi[j - 1] * dy[t - 2 - j] for j in range(1, k + 1))
            s[t - 2] = np.sign(f)
    if mode == "demeaned":
        sd = np.empty_like(s)
        for i in range(s.size):
            sd[i] = s[i] - s[: i + 1].mean()
        s = sd
    C = np.zeros(T + 1)
    C[2:] = np.cumsum(s)
    return C


def sign_stat_window(C, s, e):
    """No-intercept sign regression stat on window (s, e]; C has length T+1."""
    t = np.arange(max(s + 1, 2), e + 1)
    dep = C[t] - C[t - 1]
    x = C[t - 1]
    sxx = float(x @ x)
    if sxx <= 0:
        return np.nan
    delta = float(x @ dep) / sxx
    resid = dep - delta * x
    ssr = float(resid @ resid)
    dof = e - s - 1
    if dof < 1:
        return np.nan
    s2 = ssr / dof
    if s2 <= 0:
        return math.inf if delta > 0 else (-math.inf if delta < 0 else np.nan)
    return delta / math.sqrt(s2 / sxx)


def sign_sups(values, m0, mode="raw", filter_lags=0):
    """Brute force (sSADF, sGSADF) values."""
    C = sign_path(values, mode, filter_lags)
    T = len(values)
    best_s, best_g = -np.inf, -np.inf
    for e in range(m0, T + 1):
        for s in range(0, e - m0 + 1):
            t = sign_stat_window(C, s, e)
            if not np.isnan(t):
                best_g = max(best_g, t)
                if s == 0:
                    best_s = max(best_s, t)
    return best_s, best_g


def variance_profile(values, h=None):
    """(grid s = t/T, eta values, omega_bar^2) with kernel-demeaned diffs."""
    y = np.asarray(values, dtype=float)
    T = y.size
    if h is None:
        h = T ** (-1.0 / 5.0)
    dy = np.diff(y)
    t_idx = np.arange(2, T + 1, dtype=float)
    eps2 = np.empty(T - 1)
    for j, t in enumerate(t_idx):
        u = (t_idx - t) / T / h
        w = np.exp(-0.5 * u * u)
        m = float(w @ dy / w.sum())
        eps2[j] = (dy[j] - m) ** 2
    total = eps2.sum()
    eta = np.zeros(T + 1)
    eta[2:] = np.cumsum(eps2) / total
    omega2 = total / T
    return np.arange(T + 1) / T, eta, omega2


def tt_stat(ytil, s, e, omega2):
    om = math.sqrt(omega2)
    den = float((ytil[s:e] ** 2).sum())  # sum of ytil_{t-1}^2, t = s+1..e
    if den <= 0:
        return np.nan
    return (ytil[e] ** 2 - ytil[s] ** 2 - omega2 * (e - s)) / (2 * om * math.sqrt(den))


def time_transformed(values, m0, h=None):
    """Brute-force (STADF, GSTADF) with the estimated variance profile."""
    y = np.asarray(values, dtype=float)
    T = y.size
    grid, eta, omega2 = variance_profile(y, h)
    ytil = np.empty(T + 1)
    for t in range(T + 1):
        q = t / T
        j = int(np.searchsorted(eta, q, side="left"))
        if j == 0:
            g = 0.0
        else:
            j = min(j, T)
            e0, e1 = eta[j - 1], eta[j]
            g = grid[j - 1] if e1 == e0 else grid[j - 1] + (q - e0) / (e1 - e0) * (
                grid[j] - grid[j - 1]
            )
        tp = max(int(math.floor(g * T + 1e-9)), 1)
        ytil[t] = y[tp - 1]
    base = ytil[0]
    ytil -= base
    best_s, best_g = -np.inf, -np.inf
    for e in range(m0, T + 1):
        for s in range(0, e - m0 + 1):
            t = tt_stat(ytil, s, e, omega2)
            if not np.isnan(t):
                best_g = max(best_g, t)
                if s == 0:
                    best_s = max(best_s, t)
    return best_s, best_g


def end_of_sample(values, m, j):
    y = np.asarray(values, dtype=float)
    dy = np.diff(y)  # dy[t-2] = y_t - y_{t-1}
    t = np.arange(j + 1, j + m + 1)
    d = dy[t - 2]
    wts = (t - j).astype(float)
    S = float(wts @ d)
    R = float(sum(d[i:].sum() ** 2 for i in range(m)))
    den = float(((wts * d) ** 2).sum())
    Sw = S / math.sqrt(den) if den > 0 else np.nan
    return S, R, Sw


def bubble_model_fit(values, model, a, b=None, c=None):
    """Dummy-regression SSR at integer dates; returns (ssr, valid)."""
    y = np.asarray(values, dtype=float)
    T = y.size
    t = np.arange(2, T + 1)
    dep = y[t - 1] - y[t - 2]
    lag = y[t - 2]
    if model == 1:
        b_eff = T
        reg1 = (t > a) & (t <= b_eff)
        cols = [reg1.astype(float), reg1 * lag]
        valid = y[a - 1] < y[b_eff - 1]
    elif model == 2:
        reg1 = (t > a) & (t <= b)
        cols = [reg1.astype(float), reg1 * lag]
        valid = y[a - 1] < y[b - 1]
    elif model == 3:
        c_eff = T
        reg1 = (t > a) & (t <= b)
        reg2 = (t > b) & (t <= c_eff)
        cols = [reg1.astype(float), reg1 * lag, reg2.astype(float), reg2 * lag]
        valid = (y[a - 1] < y[b - 1]) and (y[b - 1] > y[c_eff - 1])
    elif model == 4:
        reg1 = (t > a) & (t <= b)
        reg2 = (t > b) & (t <= c)
        cols = [reg1.astype(float), reg1 * lag, reg2.astype(float), reg2 * lag]
        valid = (y[a - 1] < y[b - 1]) and (y[b - 1] > y[c - 1])
    else:
        raise ValueError(model)
    X = np.column_stack(cols)
    beta, _, rank, _ = np.linalg.lstsq(X, dep, rcond=None)
    if rank < X.shape[1]:
        return np.inf, False
    resid = dep - X @ beta
    return float(resid @ resid), bool(valid)


def bubble_model_search(values, model, min_seg=3):
    """Exhaustive admissible-date SSR minimization; returns (ssr, dates)."""
    T = len(values)
    best = (np.inf, (T + 1, T + 2, T + 3))
    if model == 1:
        for a in range(min_seg, T - min_seg + 1):
            ssr, ok = bubble_model_fit(values, 1, a)
            if ok and (ssr, (a,)) < best:
                best = (ssr, (a,))
    elif model == 2:
        for a in range(min_seg, T + 1):
            for b in range(a + min_seg, T - min_seg + 1):
                ssr, ok = bubble_model_fit(values, 2, a, b)
                if ok and (ssr, (a, b)) < best:
                    best = (ssr, (a, b))
    elif model == 3:
        for a in range(min_seg, T + 1):
            for b in range(a + min_seg, T - min_seg + 1):
                ssr, ok = bubble_model_fit(values, 3, a, b)
                if ok and (ssr, (a, b)) < best:
                    best = (ssr, (a, b))
    elif model == 4:
        for a in range(min_seg, T + 1):
            for b in range(a + min_seg, T + 1):
                for c in range(b + min_seg, T - min_seg + 1):
                    ssr, ok = bubble_model_fit(values, 4, a, b, c)
                    if ok and (ssr, (a, b, c)) < best:
                        best = (ssr, (a, b, c))
    return best


def sign_argmax(values, m0, epsilon=0.01, mode="raw", filter_lags=0):
    """Brute-force sign-based date estimator with the corrected variance."""
    C = sign_path(values, mode, filter_lags)
    T = len(values)
    s2_prefix = np.full(T + 1, np.nan)
    for e in range(2, T + 1):
        t = np.arange(2, e + 1)
        dep = C[t] - C[t - 1]
        x = C[t - 1]
        sxx = float(x @ x)
        if sxx <= 0 or e - 1 < 1:
            continue
        delta = float(x @ dep) / sxx
        resid = dep - delta * x
        s2_prefix[e] = float(resid @ resid) / (e - 1)
    best = (-np.inf, None)
    for e in range(m0, T + 1):
        for s in range(0, e - m0 + 1):
            if s > 0 and np.isnan(s2_prefix[s]):
                continue
            if np.isnan(s2_prefix[e]):
                continue
            num = e * s2_prefix[e] - (s * s2_prefix[s] if s > 0 else 0.0)
            s2c = num / (e - s - 1)
            if not s2c > 0:
                continue
            t_set = np.arange(max(s + 1, 2), e + 1)
            dep = C[t_set] - C[t_set - 1]
            x = C[t_set - 1]
            sxx = float(x @ x)
            if sxx <= 0:
                continue
            delta = float(x @ dep) / sxx
            stat = delta / math.sqrt(s2c**epsilon / sxx)
            if stat > best[0]:
                best = (stat, (s, e))
    return best


def ar1_slope(values, s, e):
    """Levels AR(1) with intercept on window (s, e]: slope and its se."""
    w = np.asarray(values, dtype=float)[s:e]
    X = np.column_stack([np.ones(w.size - 1), w[:-1]])
    beta, se, *_ = ols(X, w[1:])
    return float(beta[1]), float(se[1])


def cauchy_two_sided(level):
    """Two-sided standard-Cauchy percentile from the closed-form quantile."""
    return math.tan(math.pi * level / 2.0)


def cauchy_interval(values, level, percentile=None):
    """No-intercept AR(1) root and self-normalized half-width."""
    v = np.asarray(values, dtype=float)
    lag, cur = v[:-1], v[1:]
    rho = float(lag @ cur) / float(lag @ lag)
    c = cauchy_two_sided(level) if percentile is None else percentile
    half_width = (rho * rho - 1.0) / rho ** v.size * c
    return rho, half_width


def drift_moments(values):
    """Trend moments behind the drift-exponent estimators."""
    v = np.asarray(values, dtype=float)
    T = v.size
    t = np.arange(1, T + 1, dtype=float)
    mu_hat = float(t @ v) / float(t @ t)
    td = t - t.mean()
    mu_tilde = float(td @ v) / float(td @ td)
    return mu_hat, mu_tilde


def migration_fit(ends_x, theta_x, ends_y, theta_y, origin_x, origin_y):
    """Row-by-row replay of the migration regression; returns (b0, b1, n)."""
    look_x = {int(e): v for e, v in zip(ends_x, theta_x)}
    look_y = {int(e): v for e, v in zip(ends_y, theta_y)}
    m = origin_y - origin_x
    rows = []
    for end in sorted(set(look_x) & set(look_y)):
        if not origin_x < end <= origin_y:
            continue
        tx, ty = look_x[end], look_y[end]
        if np.isnan(tx) or np.isnan(ty):
            continue
        rows.append((ty - 1.0, (tx - 1.0) * (end - origin_x) / m))
    dep = np.array([r[0] for r in rows])
    reg = np.array([r[1] for r in rows])
    X = np.column_stack([np.ones(dep.size), reg])
    beta, *_ = ols(X, dep)
    return float(beta[0]), float(beta[1]), dep.size


def contagion_scan(core, target, d_range):
    """Brute-force delay scan; returns {d: (r2, theta1, theta2)}."""
    core = np.asarray(core, dtype=float)
    target = np.asarray(target, dtype=float)
    n = core.size
    out = {}
    for d in d_range:
        if d >= n:
            continue
        dep = target[d:]
        reg = core[: n - d]
        good = np.isfinite(dep) & np.isfinite(reg)
        if good.sum() < 3:
            continue
        dep_g, reg_g = dep[good], reg[good]
        syy = float(np.sum((dep_g - dep_g.mean()) ** 2))
        if syy <= 0 or np.ptp(reg_g) == 0:
            continue
        X = np.column_stack([np.ones(dep_g.size), reg_g])
        try:
            beta, _, ssr, _, _ = ols(X, dep_g)
        except np.linalg.LinAlgError:
            continue
        out[int(d)] = (1.0 - ssr / syy, float(beta[0]), float(beta[1]))
    return out


def cusum_stat(resid, T):
    """Normalized squared partial sums of residuals."""
    resid = np.asarray(resid, dtype=float)
    ps = np.cumsum(resid)
    return float(ps @ ps) / (T * float(resid @ resid))
