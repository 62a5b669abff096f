"""Windowed ADF regression engine.

The package computes one regression shape everywhere: the first difference
of the series on optional deterministic terms (intercept, intercept plus
trend), the lagged level, and ``k`` lagged differences over a window
(start, end].  Regression rows are t = start+k+2 .. end so every lag is
built from observations inside the window; nobs = end - start - k - 1.
The test statistic is the t-ratio of the lagged-level coefficient with
sigma^2 = ssr / (nobs - #params).

``fit_adf_window`` is the dense per-window least-squares reference; it and
every other dense regression of the package run through ``_least_squares``, whose
rank and exact-fit judgements do not depend on the data's units.  Every
scan (``bsadf_backward``, ``sadf_prefix_stats``, ``adf_tstat_pairs``) runs
one moment engine, on a single series or on a (rows, T) panel at once.
For an endpoint e the rows t = e, e-1, ..., k+2 are re-anchored at y_e
(when an intercept is present), and running sums of their cross moments
give the Gram matrix of every window (s, e] at once; the prefix windows
(0, e] read the same running sums forward from y_1 in one pass.  Each
Gram matrix is equilibrated to unit diagonal and factored; the level
coefficient's t-ratio follows without forming the inverse.

The moment route is guarded.  A window whose equilibrated Gram has
condition number above ``COND_LIMIT`` (1e12) or is not numerically
positive definite, whose residual sum of squares is within cancellation
error of zero, or whose t-ratio is not finite is refit densely, and only
the dense fit reads a window as exact (t-ratio +-inf); a window that
cannot support the fit (too short, or a column with no variation from
the anchor) yields NaN.  Scans read endpoints in the blocks of ``_blocks``,
one backward moment scan per block; ``_sup_curve`` is the one sup loop.

Re-anchoring changes nothing for an intercept regression, but it keeps
cancellation error in the running sums small; for integer-valued data
the statistic becomes exactly invariant to integer level shifts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateFitError
from .series import Series, as_values, normalize_det

__all__ = [
    "AdfFit",
    "fit_adf_window",
    "adf_stat",
    "adf_tstat_pairs",
    "sadf_prefix_stats",
    "bsadf_backward",
    "gls_adjust",
    "tstat_ar_noconst",
    "GLS_CBAR",
    "COND_LIMIT",
]

COND_LIMIT = 1.0e12

#: Cells (rows x observations) of one scan batch: a bootstrap chunk of
#: replicate paths fills it, and a block of endpoints pads one path per
#: endpoint into an eighth of it, since its moments hold many such arrays.
CHUNK_CELLS = 1 << 15

# a dense fit whose ssr is at most this share of dy'dy fits exactly
_EXACT_FIT = 1.0e-20

# Quasi-differencing constants for the right-tailed GLS variant.
GLS_CBAR = {"const": 1.6, "trend": 2.4}


@dataclass
class AdfFit:
    """Result of a single windowed ADF regression."""

    delta: float
    tstat: float
    se: float
    sigma2: float
    ssr: float
    nobs: int
    coeffs: np.ndarray
    columns: tuple[str, ...]
    start: int
    end: int
    det: str
    k: int


def _det_count(det: str) -> int:
    return {"none": 0, "const": 1, "trend": 2}[det]


def _nparams(det: str, k: int) -> int:
    """Regressor count p; a window with moments at index i (i + 1
    observations) leaves a residual degree of freedom iff i >= p."""
    return _det_count(det) + 1 + k


def _min_window_len(det: str, k: int) -> int:
    """Smallest window length leaving one residual degree of freedom."""
    return k + 1 + _nparams(det, k) + 1


def _least_squares(
    X: np.ndarray, y: np.ndarray, deficient: str = "rank-deficient design", gram: bool = False
):
    """The package's one dense least-squares fit of ``y`` on the columns
    of ``X``.

    Returns ``(beta, ssr, ginv)``: the coefficients, the residual sum of
    squares, read as 0 for an exact fit (ssr at most ``_EXACT_FIT`` times
    y'y), and with ``gram`` the inverse Gram matrix (X'X)^-1 (else None).
    Plain ``lstsq`` runs first.  Its rank cut is relative to the largest
    singular value, so a tiny-valued column beside an intercept looks
    deficient; only then are the columns scaled to unit norm, rank judged
    again on their Gram matrix and the fit redone there, the results
    mapped back to the data's units.  Raises ``DegenerateFitError`` with
    the message ``deficient`` when that design is rank deficient too, or
    when its Gram matrix is singular.
    Callers anchor a level column beside an intercept inside the sample,
    so a level offset does not swamp it.
    """
    p = X.shape[1]
    beta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    scale = None
    if rank < p:
        scale = np.linalg.norm(X, axis=0)
        if not scale.all():
            raise DegenerateFitError(deficient)
        X = X / scale
        if np.linalg.matrix_rank(X.T @ X) < p:
            raise DegenerateFitError(deficient)
        beta = np.linalg.lstsq(X, y, rcond=None)[0]
    resid = y - X @ beta
    ssr = float(resid @ resid)
    if ssr <= _EXACT_FIT * float(y @ y):
        ssr = 0.0
    try:
        ginv = np.linalg.inv(X.T @ X) if gram else None
    except np.linalg.LinAlgError:  # full rank to lstsq, singular once squared
        raise DegenerateFitError(deficient) from None
    if scale is not None:
        beta = beta / scale
        if gram:
            ginv = ginv / np.outer(scale, scale)
    return beta, ssr, ginv


def fit_adf_window(
    values,
    start: int,
    end: int,
    det: str = "const",
    k: int = 0,
) -> AdfFit:
    """Dense ADF regression on the window (start, end].

    Parameters
    ----------
    values : Series or array
        Full sample; the window picks ``values[start:end]``.
    start, end : int
        Window bounds, 0 <= start < end <= T.
    det : {'none', 'const', 'trend'}
        Deterministic terms; 'trend' means intercept plus linear trend.
    k : int
        Number of lagged differences.

    Raises
    ------
    DegenerateFitError
        If the window is too short for (det, k) or the design is rank
        deficient.
    """
    v = as_values(values)
    det = normalize_det(det)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    T = v.size
    if not (0 <= start < end <= T):
        raise ValueError(f"invalid window ({start}, {end}] for T={T}")
    n = end - start
    if n < _min_window_len(det, k):
        raise DegenerateFitError(
            f"window length {n} too short for det={det!r}, k={k} "
            f"(needs >= {_min_window_len(det, k)})"
        )
    w = v[start:end]
    anchor = w[0] if det != "none" else 0.0
    a = w - anchor if det != "none" else w
    da = np.diff(a)
    dep = da[k:]
    nobs = dep.size
    cols: list[np.ndarray] = []
    names: list[str] = []
    if det in ("const", "trend"):
        cols.append(np.ones(nobs))
        names.append("const")
    if det == "trend":
        cols.append(np.arange(k + 2, n + 1, dtype=float) / n)
        names.append("trend")
    cols.append(a[k : n - 1])
    names.append("level")
    for j in range(1, k + 1):
        cols.append(da[k - j : n - 1 - j])
        names.append(f"dlag{j}")
    X = np.column_stack(cols)
    p = X.shape[1]
    dpos = names.index("level")
    beta, ssr, ginv = _least_squares(
        X, dep, f"rank-deficient design on window ({start}, {end}]", gram=True
    )
    sigma2 = ssr / (nobs - p)
    se = float(np.sqrt(sigma2 * ginv[dpos, dpos]))
    if ssr > 0:
        tstat = float(beta[dpos] / se)
    elif beta[dpos] != 0:
        tstat = np.inf if beta[dpos] > 0 else -np.inf
    else:
        raise DegenerateFitError(f"zero-variance fit on window ({start}, {end}]")
    if det != "none":
        # map the intercept back to the un-anchored scale
        beta[0] = beta[0] - beta[dpos] * anchor
    return AdfFit(
        delta=float(beta[dpos]),
        tstat=tstat,
        se=se,
        sigma2=float(sigma2),
        ssr=ssr,
        nobs=nobs,
        coeffs=beta,
        columns=tuple(names),
        start=int(start),
        end=int(end),
        det=det,
        k=int(k),
    )


def adf_stat(values, det: str = "const", k: int = 0) -> float:
    """Full-sample ADF t-ratio (the e = T prefix window)."""
    v = as_values(values)
    return fit_adf_window(v, 0, v.size, det=det, k=k).tstat


def _dense_or_nan(v: np.ndarray, s: int, e: int, det: str, k: int) -> float:
    try:
        return fit_adf_window(v, int(s), int(e), det=det, k=k).tstat
    except DegenerateFitError:
        return np.nan


def _as_panel(values) -> tuple[np.ndarray, bool]:
    """Validate a 1-D series or a (rows, T) panel.

    Returns the panel in time-major (T, rows) layout and whether the
    input was a single series.
    """
    if not isinstance(values, Series):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim == 2:
            if arr.shape[0] < 1 or arr.shape[1] < 2:
                raise ValueError(f"a panel needs >= 1 row of >= 2 observations, got shape {arr.shape}")
            if not np.isfinite(arr).all():
                raise ValueError("panel contains non-finite values")
            return np.ascontiguousarray(arr.T), False
    return as_values(values)[:, None], True


def _moments(Y: np.ndarray, d: np.ndarray, e: int, det: str, k: int, backward: bool = True):
    """Running cross moments of the regression rows t = k+2..e.

    ``Y`` is a time-major (T, rows) panel and ``d`` its first
    differences.  Backward, the rows run t = e, e-1, ..., k+2 re-anchored
    at y_e, so ``C[i]`` sums the window (e-k-2-i, e]; forward, they run
    t = k+2, ..., e re-anchored at y_1, so ``C[i]`` sums the prefix
    window (0, k+2+i].  Either window has i + 1 observations.  Returns
    ``(C, slots)``: ``C[i, slot]`` is one running sum per series, and
    ``slots`` maps (i, j) to Gram entry G_ij (i <= j; absent when both
    columns are the intercept, whose sum is the observation count),
    ("b", i) to Z_i'dy and "dd" to dy'dy.  Columns run intercept, trend,
    lagged differences, and the lagged level last.
    """
    order = slice(None, None, -1) if backward else slice(None)
    dep = d[k : e - 1][order]
    level = Y[k : e - 1][order]
    cols: list[np.ndarray | None] = []
    if det != "none":
        cols.append(None)
        level = level - Y[e - 1 if backward else 0]
    if det == "trend":
        cols.append(np.arange(dep.shape[0], dtype=float)[:, None])
    cols += [d[k - j : e - 1 - j][order] for j in range(1, k + 1)]
    cols.append(level)
    terms, slots = [], {}
    for i, a in enumerate(cols):
        for j in range(i, len(cols)):
            c = cols[j]
            if a is not None or c is not None:
                slots[i, j] = len(terms)
                terms.append(c if a is None else a if c is None else a * c)
        slots["b", i] = len(terms)
        terms.append(dep if a is None else a * dep)
    slots["dd"] = len(terms)
    terms.append(dep * dep)
    return np.cumsum(np.stack(np.broadcast_arrays(*terms), axis=1), axis=0), slots


def _tstats(C: np.ndarray, slots: dict, nobs: np.ndarray, p: int):
    """Level t-ratios of a batch of windows from their cross moments.

    ``C[w, slot]`` holds window w's moments (one column per series) and
    ``nobs[w]`` its observation count.  The Gram matrix is equilibrated
    to unit diagonal and factored as L L'; with the level last its
    t-ratio is z_p / sigma, where z = L^-1 D Z'dy.  Returns ``(t,
    refit)``: t is NaN where the window cannot support the fit or needs
    a dense refit, and ``refit`` marks windows whose equilibrated Gram is
    not numerically positive definite or has condition number above
    ``COND_LIMIT``, whose residual sum of squares is within cancellation
    error of zero (ssr <= 1e-5 dy'dy) or whose ratio is not finite.
    """
    nobs = nobs[:, None]

    def gram(i, j):
        return C[:, slots[i, j]] if (i, j) in slots else nobs

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        usable = nobs >= p + 1
        for i in range(p):
            usable = usable & (gram(i, i) > 0)
        D = [1.0 / np.sqrt(gram(i, i)) for i in range(p)]
        # Cholesky factor of the unit-diagonal Gram, its inverse and z
        L: dict = {}
        pd = usable
        for j in range(p):
            piv = 1.0 - sum(L[j, m] ** 2 for m in range(j))
            pd = pd & (piv > 0)
            L[j, j] = np.sqrt(piv)
            for i in range(j + 1, p):
                gh = gram(j, i) * D[i] * D[j]
                L[i, j] = (gh - sum(L[i, m] * L[j, m] for m in range(j))) / L[j, j]
        Linv: dict = {}
        trace = 0.0
        for c in range(p):
            for i in range(c, p):
                acc = (1.0 if i == c else 0.0) - sum(L[i, m] * Linv[m, c] for m in range(c, i))
                Linv[i, c] = acc / L[i, i]
                trace = trace + Linv[i, c] ** 2
        z: list = []
        for i in range(p):
            z.append((D[i] * C[:, slots["b", i]] - sum(L[i, m] * z[m] for m in range(i))) / L[i, i])
        # lambda_max <= p and lambda_min >= 1 / trace(Gram^-1) = 1 / trace,
        # so only windows with p * trace past the limit need the exact
        # eigenvalue check
        illcond = usable & ~pd
        suspect = np.flatnonzero(pd & ~(p * trace <= COND_LIMIT))
        if suspect.size:
            G = np.empty((suspect.size, p, p))
            for i in range(p):
                G[:, i, i] = 1.0
                for j in range(i + 1, p):
                    G[:, i, j] = G[:, j, i] = (gram(i, j) * D[i] * D[j]).ravel()[suspect]
            lam = np.linalg.eigvalsh(G)
            np.put(illcond, suspect[~(lam[:, 0] > 0) | (lam[:, -1] > COND_LIMIT * lam[:, 0])], True)
        sdd = C[:, slots["dd"]]
        ssr = sdd - sum(zi * zi for zi in z)
        # the dense fit alone decides what counts as an exact fit
        t = z[-1] / np.sqrt(ssr / (nobs - p))
        refit = illcond | (pd & ~((ssr > 1e-5 * np.maximum(sdd, 1e-300)) & np.isfinite(t)))
        t[~pd | refit] = np.nan
    return t, refit


def _window_tstats(Y, C, slots, nobs, starts, ends, det, k):
    """t-ratios (windows x series) of the windows (starts[w], ends[w]]
    whose moments are ``C[w]``, flagged windows refit densely."""
    t, refit = _tstats(C, slots, nobs, _nparams(det, k))
    for w, r in zip(*np.nonzero(refit)):
        t[w, r] = _dense_or_nan(Y[:, r], starts[w], ends[w], det, k)
    return t


def _check_scan(values, m0, det, k):
    Y, single = _as_panel(values)
    det = normalize_det(det)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    T = Y.shape[0]
    m0 = int(m0)
    if not 2 <= m0 <= T:
        raise ValueError(f"minimum window {m0} out of range for T={T}")
    return Y, single, det, m0


def adf_tstat_pairs(values, starts, ends, det: str = "const", k: int = 0) -> np.ndarray:
    """ADF t-ratios for many windows (starts[i], ends[i]] of one series.

    Windows are grouped by end into blocks, each served by one backward
    moment scan; windows that cannot support the fit yield NaN.
    """
    v = as_values(values)
    det = normalize_det(det)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    starts = np.atleast_1d(np.asarray(starts, dtype=np.int64))
    ends = np.atleast_1d(np.asarray(ends, dtype=np.int64))
    if starts.shape != ends.shape:
        raise ValueError("starts and ends must have equal length")
    T = v.size
    if starts.size and (starts.min() < 0 or ends.max() > T or (starts >= ends).any()):
        raise ValueError("window bounds out of range")
    Y = v[:, None]
    d = np.diff(Y, axis=0)
    fit = np.flatnonzero(ends - starts - k - 2 >= _nparams(det, k))
    out = np.full(starts.size, np.nan)
    for e in _blocks(np.unique(ends[fit]), 1, T):
        sel = fit[np.isin(ends[fit], e)]
        out[sel] = _block_tstats(Y, d, e, np.searchsorted(e, ends[sel]), starts[sel], det, k)[0][:, 0]
    return out


def sadf_prefix_stats(values, m0: int, det: str = "const", k: int = 0) -> np.ndarray:
    """ADF t-ratios on prefix windows (0, e], e = m0..T.

    Returns an array indexed by e along its last axis (length T+1; one
    row per series for a panel); entries below m0 and degenerate windows
    are NaN.  One forward pass of the moment scan serves every e.
    """
    Y, single, det, m0 = _check_scan(values, m0, det, k)
    T = Y.shape[0]
    lo = max(m0, _nparams(det, k) + k + 2)
    out = np.full((T + 1, Y.shape[1]), np.nan)
    if lo <= T:
        C, slots = _moments(Y, np.diff(Y, axis=0), T, det, k, backward=False)
        ends = np.arange(lo, T + 1)
        out[lo:] = _window_tstats(Y, C[lo - k - 2 :], slots, ends - k - 1, np.zeros_like(ends), ends, det, k)
    return out[:, 0].copy() if single else np.ascontiguousarray(out.T)


def _blocks(ends: np.ndarray, rows: int, T: int) -> list[np.ndarray]:
    """Consecutive blocks of the ascending endpoints of a (rows, T) scan,
    of at most CHUNK_CELLS / 8 cells (rows x endpoints x T) or one endpoint."""
    nb = max(1, CHUNK_CELLS // (8 * rows * T))
    return [ends[i : i + nb] for i in range(0, ends.size, nb)]


def _sup_curve(stat, rows: int, m0: int, T: int, double: bool = True):
    """The package's one sup loop: for e = m0..T, the sup over starts
    s = 0..e-m0 of ``stat(e, s)`` per row, and the smallest start
    attaining it ((rows, T+1) arrays; NaN and start -1 where no window is
    defined).  Endpoints run in :func:`_blocks`: ``stat`` maps integer
    arrays e (nb, 1) and s (1, n) to a (rows, nb, n) array, NaN where
    undefined, and starts past e - m0 of a block's earlier endpoints are
    masked here.  A prefix curve (``double`` False) takes only s = 0, in
    one call."""
    curve = np.full((rows, T + 1), np.nan)
    starts = np.full((rows, T + 1), -1, dtype=np.int64)
    if double:
        for e in _blocks(np.arange(m0, T + 1), rows, T):
            s = np.arange(e[-1] - m0 + 1)
            st = stat(e[:, None], s[None])
            if e.size > 1:
                st[:, s > e[:, None] - m0] = np.nan
            b = slice(e[0], e[-1] + 1)
            curve[:, b] = np.fmax.reduce(st, axis=2)
            starts[:, b] = np.argmax(st == curve[:, b, None], axis=2)
    else:
        curve[:, m0:] = stat(np.arange(m0, T + 1)[:, None], np.zeros((1, 1), dtype=np.int64))[..., 0]
        starts[:, m0:] = 0
    starts[np.isnan(curve)] = -1
    return curve, starts


def _block_tstats(Y: np.ndarray, d: np.ndarray, ends: np.ndarray, j, s, det: str, k: int):
    """(t-ratios (windows x series), moments) of the windows (s[w],
    ends[j[w]]] of a time-major panel ``Y``.  One backward moment scan
    serves the ascending block ``ends``: each endpoint's y_1..y_e, padded
    in front with y_1 to length ends[-1], is one column per series, so its
    sums are its endpoint's own, in the same order; with s >= 0 no padded
    window is read or refit."""
    E = int(ends[-1])
    pad = E - ends
    Z, dZ = Y, d
    if pad.any():
        Z = Y[np.maximum(np.arange(E)[:, None] - pad, 0)].reshape(E, -1)
        dZ = np.diff(Z, axis=0)
    C, slots = _moments(Z, dZ, E, det, k)
    e = ends[j]
    i = e - k - 2 - s
    if ends.size == 1 and np.array_equal(s, np.arange(s.size)):
        C = C[i[-1] : i[0] + 1][::-1]  # one endpoint's starts 0, 1, ...: a reversed slice, no copy
    else:
        C = C.reshape(C.shape[0], C.shape[1], ends.size, -1)[i, :, j]
    return _window_tstats(Y, C, slots, i + 1, s, e, det, k), C


def _adf_window(Y: np.ndarray, m0: int, det: str, k: int):
    """ADF window statistic of a time-major (T, rows) panel for
    :func:`_sup_curve`: for a block e (nb, 1) and starts s (1, n), the
    (rows, nb, n) t-ratios of the windows (s, e] of at least m0
    observations, NaN elsewhere and where too short for the fit."""
    d = np.diff(Y, axis=0)
    p = _nparams(det, k)
    # the last moments stay referenced until the next exist, as in a plain loop:
    # freed first, their pages are returned and faulted in at every block
    held = []

    def stat(e, s):
        t = np.full((e.size, s.size, Y.shape[1]), np.nan)
        j, c = np.nonzero((s <= e - m0) & (e - s - k - 2 >= p))
        if j.size:
            t[j, c], C = _block_tstats(Y, d, e[:, 0], j, s[0, c], det, k)
            held[:] = [C]
        return t.transpose(2, 0, 1)

    return stat


def bsadf_backward(values, m0: int, det: str = "const", k: int = 0):
    """Backward sup scan: for each e in [m0, T], sup over s in [0, e-m0].

    ``values`` is one series or a (rows, T) panel; a panel is scanned for
    all rows at once, a block of endpoints at a time.  Returns ``(maxvals,
    argmax_s)``: ``maxvals[..., e]`` is the sup of the window statistic
    over admissible starts (NaN when every window is degenerate) and
    ``argmax_s[..., e]`` the smallest attaining start (-1 when none).
    """
    Y, single, det, m0 = _check_scan(values, m0, det, k)
    maxvals, argmax_s = _sup_curve(_adf_window(Y, m0, det, k), Y.shape[1], m0, Y.shape[0])
    return (maxvals[0], argmax_s[0]) if single else (maxvals, argmax_s)


def gls_adjust(values, det: str = "const", c_bar: float | None = None) -> np.ndarray:
    """Quasi-difference detrending residuals for the GLS test variant.

    The series and the deterministic terms are quasi-differenced with
    rho_bar = 1 + c_bar/n (n = sample length; c_bar defaults to 1.6 with an
    intercept, 2.4 with a trend), the detrending coefficients are estimated
    on the transformed sample, and the residuals y - z'theta are returned.
    """
    v = as_values(values)
    det = normalize_det(det)
    if det == "none":
        raise ValueError("GLS adjustment needs deterministic terms ('const' or 'trend')")
    n = v.size
    p = _det_count(det)
    if n < p + 1:
        raise DegenerateFitError(f"sample of {n} too short for GLS det={det!r}")
    if c_bar is None:
        c_bar = GLS_CBAR[det]
    rho = 1.0 + c_bar / n
    Z = np.ones((n, p))
    if det == "trend":
        Z[:, 1] = np.arange(1, n + 1)
    ya, Za = v.copy(), Z.copy()
    ya[1:] -= rho * v[:-1]
    Za[1:] -= rho * Z[:-1]
    theta = _least_squares(Za, ya, "rank-deficient quasi-differenced deterministics")[0]
    return v - Z @ theta


def tstat_ar_noconst(u: np.ndarray) -> float:
    """t-ratio of delta in du_t = delta*u_{t-1} + e_t (no deterministics).

    sigma^2 = ssr/(nobs - 1); raises on zero lagged sum of squares or
    missing degrees of freedom.
    """
    u = np.asarray(u, dtype=float)
    if u.size < 3:
        raise DegenerateFitError("need at least 3 observations")
    du = np.diff(u)
    x = u[:-1]
    sxx = float(x @ x)
    if not sxx > 0:
        raise DegenerateFitError("zero lagged sum of squares")
    delta = float(x @ du) / sxx
    resid = du - delta * x
    ssr = float(resid @ resid)
    sigma2 = ssr / (du.size - 1)
    if sigma2 == 0:
        if delta == 0:
            raise DegenerateFitError("zero-variance fit")
        return np.inf if delta > 0 else -np.inf
    return delta / np.sqrt(sigma2 / sxx)
