"""Windowed ADF regression engine.

The package computes one regression shape everywhere: the first difference
of the series on optional deterministic terms (intercept, intercept plus
trend), the lagged level, and ``k`` lagged differences over a window
(start, end].  Regression rows are t = start+k+2 .. end so every lag is
built from observations inside the window; nobs = end - start - k - 1.
The test statistic is the t-ratio of the lagged-level coefficient with
sigma^2 = ssr / (nobs - #params).

``fit_adf_window`` is the dense per-window least-squares reference; it and
every other dense regression run through ``_least_squares``, one thin SVD
of the design whose rank and exact-fit judgements do not depend on the
data's units, and ``_tratio``, the one t-ratio rule.  ``adf_stat`` is the
prefix scan's e = T point.  Every scan (``bsadf_backward``,
``sadf_prefix_stats``, ``adf_tstat_pairs``) runs one moment engine, on a
single series or on a (rows, T) panel at once.  For an endpoint e the
rows t = e, e-1, ..., k+2 are re-anchored at y_e (when an intercept is
present), and running sums of their cross moments give the Gram matrix
of every window (s, e]; the backward scans sweep window lengths shortest
first, adding each length's row in place to the sums of every endpoint,
and the prefix windows (0, e] sum the same terms forward from y_1 in one
pass.  Each Gram matrix is equilibrated to unit diagonal and factored;
the level coefficient's t-ratio follows without forming the inverse, and
the coefficients a reader asks for by one back-substitution (the AR
sequences of ``inference``, the sign filter of ``robust``).  The sup-Chow
and GLS curve builders in ``recursive`` use ``_terms`` and ``_tstats`` too,
and the regime search of ``datestamp`` reads every segment SSR from the
const, k = 0 sums of one backward sweep (``_sweep``).

The moment route is guarded.  A window whose equilibrated Gram has
condition number above ``COND_LIMIT`` (1e12) or is not numerically
positive definite, whose residual sum of squares is within cancellation
error of zero, or whose t-ratio is not finite is refit densely.  The
factor's pivots bound the condition number by p^p / prod(pivots), and only
windows past the limit by that bound get an exact eigenvalue check.  Only
the dense fit reads a window as exact (t-ratio +-inf); a window that
cannot support the fit (too short, or a column with no variation from
the anchor) yields NaN.  The sweep runs in blocks of consecutive lengths
sized by ``CHUNK_CELLS``; ``_sup_curve`` is the one sup loop.

Re-anchoring changes nothing for an intercept regression, but it keeps
cancellation error in the running sums small; for integer-valued data
the statistic becomes exactly invariant to integer level shifts.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache, reduce

import numpy as np

from .exceptions import DegenerateFitError
from .series import Series, as_values, normalize_det

__all__ = [
    "AdfFit",
    "fit_adf_window",
    "adf_stat",
    "adf_tstat_pairs",
    "gls_adjust",
]

COND_LIMIT = 1.0e12

#: Cells (rows x observations) of one scan batch: a bootstrap chunk of
#: replicate paths fills it, and a block of window lengths of a sweep takes
#: a quarter of it (lengths x endpoints x rows), since its moments hold
#: many such arrays.
CHUNK_CELLS = 1 << 15

# a dense fit whose ssr is at most this share of dy'dy fits exactly
_EXACT_FIT = 1.0e-20
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny

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


def _least_squares(X: np.ndarray, y: np.ndarray, deficient: str = "rank-deficient design"):
    """The package's one dense least-squares fit of ``y`` on the columns
    of ``X``, all read from one thin SVD X = U S V' (no Gram matrix is
    formed, so the condition number is not squared).

    Returns ``(beta, ssr, vf)``: the coefficients, the residual sum of
    squares, 0 for an exact fit (ssr at most ``_EXACT_FIT`` times y'y),
    and the variance factors vf_j = ((X'X)^-1)_jj = sum_k (V_jk / s_k)^2.
    Rank is judged as ``lstsq`` judges it, relative to s_max, so a
    tiny-valued column beside an intercept looks deficient; only then are
    the columns scaled to unit norm and rank judged at the Gram level
    (s_min^2 > p eps s_max^2), the results mapped back to the data's
    units.  Raises ``DegenerateFitError`` with the message ``deficient``
    when that design is rank deficient too, or when s_min^2 underflows.
    Callers anchor a level column beside an intercept inside the sample.
    """
    n, p = X.shape
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    if not s[-1] > s[0] * _EPS * n:
        scale = np.linalg.norm(X, axis=0)
        if not scale.all():
            raise DegenerateFitError(deficient)
        U, s, Vt = np.linalg.svd(X / scale, full_matrices=False)
        if not s[-1] ** 2 > s[0] ** 2 * _EPS * p:
            raise DegenerateFitError(deficient)
        Vt = Vt / scale  # the data's units: X^+ = diag(1 / scale) V S^-1 U'
    if not s[-1] ** 2 >= _TINY:  # the Gram matrix underflows, as the scans read it
        raise DegenerateFitError(deficient)
    W = Vt.T / s
    c = y @ U
    resid = y - U @ c
    ssr = float(resid @ resid)
    if ssr <= _EXACT_FIT * float(y @ y):
        ssr = 0.0
    return W @ c, ssr, (W * W).sum(axis=1)


def _tratio(beta, ssr: float, dof: int, vf) -> float:
    """The package's one t-ratio rule for a dense fit, beta / sqrt(ssr /
    dof * vf): +-inf by the sign of beta where that variance is 0 (an exact
    fit, or underflow), and NaN, undefined, where beta is 0 too."""
    var = ssr / dof * vf
    if var > 0:
        return float(beta) / math.sqrt(var)
    return math.copysign(math.inf, beta) if beta != 0 else math.nan


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
    a = w - anchor
    da = np.diff(a)
    dep = da[k:]
    nobs = dep.size
    dpos = _det_count(det)
    names = ["const", "trend"][:dpos] + ["level"] + [f"dlag{j}" for j in range(1, k + 1)]
    cols = [np.ones(nobs)][:dpos]
    if det == "trend":
        cols.append(np.arange(k + 2, n + 1, dtype=float) / n)
    X = np.column_stack(cols + [a[k : n - 1]] + [da[k - j : n - 1 - j] for j in range(1, k + 1)])
    p = X.shape[1]
    beta, ssr, vf = _least_squares(X, dep, f"rank-deficient design on window ({start}, {end}]")
    tstat = _tratio(beta[dpos], ssr, nobs - p, vf[dpos])
    if math.isnan(tstat):
        raise DegenerateFitError(f"zero-variance fit on window ({start}, {end}]")
    sigma2 = ssr / (nobs - p)
    se = float(np.sqrt(sigma2 * vf[dpos]))
    if det != "none":
        # map the intercept back to the un-anchored scale
        beta[0] = beta[0] - beta[dpos] * anchor
    return AdfFit(
        delta=float(beta[dpos]), tstat=tstat, se=se, sigma2=float(sigma2), ssr=ssr, nobs=nobs, coeffs=beta,
        columns=tuple(names), start=int(start), end=int(end), det=det, k=int(k),
    )


def adf_stat(values, det: str = "const", k: int = 0) -> float:
    """Full-sample ADF t-ratio: the prefix scan's e = T point, so a sup over
    prefix windows dominates it exactly; where NaN, the dense fit raises."""
    v = as_values(values)
    t = sadf_prefix_stats(v, v.size, det=det, k=k)[-1]
    return fit_adf_window(v, 0, v.size, det=det, k=k).tstat if np.isnan(t) else float(t)


def _dense_or_nan(v: np.ndarray, s: int, e: int, det: str, k: int, coefs: bool = False):
    """The dense fit's t-ratio, NaN where it raises; with ``coefs`` also its lag and level coefficients."""
    try:
        fit = fit_adf_window(v, int(s), int(e), det=det, k=k)
    except DegenerateFitError:
        return np.full(k + 2, np.nan) if coefs else np.nan
    return np.r_[fit.tstat, fit.coeffs[_det_count(det) + 1 :], fit.delta] if coefs else fit.tstat


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


@cache
def _slots(det: str, k: int) -> dict:  # the slot of each cross moment (i, j), i <= j, in _terms' layout
    p = _nparams(det, k)
    return {ij: n for n, ij in enumerate((i, j) for i in range(p + 1) for j in range(i, p + 1) if j or det == "none")}


def _terms(shape: tuple, det: str, k: int, lag, level, trend, anchor, out=None, add: bool = False):
    """Row terms of every scan's one moment layout, ``(C, slots)``, ``C[slot]``
    of ``shape``.  Columns run intercept, trend, lagged differences
    ``lag(j)``, the lagged level and, as column p, dy ``lag(0)``; slot (i,
    j), i <= j, holds column i times column j, so (i, p) is Z_i'dy, and the
    intercept's own sum, the observation count, has none.  The level is
    re-anchored at ``anchor`` into its intercept slot, if any.  Terms go to
    ``out`` if given, or with ``add`` are added to its sums, term first,
    through two scratch entries that follow them."""
    cols = [None] * (det != "none") + [trend] * (det == "trend")
    cols += [lag(j) for j in range(1, k + 1)] + [level, lag(0)]
    p, slots = len(cols) - 1, _slots(det, k)
    C = np.empty((len(slots),) + shape) if out is None else out
    if det != "none":
        cols[p - 1] = np.subtract(level, anchor, out=C[len(slots)] if add else C[slots[0, p - 1]])
    for (i, j), o in zip(slots, C):
        if add:
            np.add(cols[j] if cols[i] is None else np.multiply(cols[i], cols[j], out=C[-1]), o, out=o)
        elif cols[i] is not None:
            np.multiply(cols[i], cols[j], out=o)
        elif j != p - 1:
            o[...] = cols[j]
    return C, slots


def _lengths(ne: int, rows: int, left: int) -> int:
    """Lengths in a sweep block over ne endpoints of rows series: CHUNK_CELLS / 4 cells, 1..min(left, ne)."""
    return max(1, min(left, ne, CHUNK_CELLS // 4 // (rows * ne)))


def _sweep(Y: np.ndarray, det: str, k: int, e_lo: int, back: int = 0):
    """Backward moments of a time-major (T, rows) panel, swept over window
    lengths shortest first: ``block(i0, nl)`` returns ``(C, slots, ends,
    nobs)`` for the windows of i0+1..i0+nl rows t = e, e-1, ... that end at
    e >= e_lo and start at or after y_1, lengths outer, an intercept
    re-anchored at y_(e-back), :func:`_tstats`' scratch after the slots.
    Calls run i0 upward; lengths no call asked for are added first.  A
    one-length block adds its row in place to every endpoint's running
    sums; a many-length block (one series) gathers its windows' terms,
    adds the carried sums to its first length and each length to the next."""
    (T, R), slots = Y.shape, _slots(det, k)
    n, d, Ya = len(slots), np.diff(Y, axis=0), np.roll(Y, back, axis=0) if back else Y
    S = np.full((2 * n + _nparams(det, k) + 4, T + 1, R), -0.0)  # S[:n, e]: window e's sums so far; -0.0 adds nothing, not even a sign
    i, P = 0, S[:, :0]

    def block(i0, nl):  # not recursive, so the workspaces go with the last reference to it
        while i < i0:
            sums(i, _lengths(T - max(e_lo, k + 2 + i) + 1, R, i0 - i))
        return sums(i0, nl)

    def sums(i0, nl):
        nonlocal i, P
        e0 = max(e_lo, k + 2 + i0)
        top, ne, i = e0 - 2 - i0, T - e0 + 1, i0 + nl  # y[top] is y_(t-1) of the first window's newest row
        if nl == 1:
            C = _terms((ne, R), det, k, lambda j: d[top - j : top - j + ne], Y[top : top + ne], float(i0), Ya[e0 - 1 :], S[:, e0:], True)[0]
            return C, slots, np.arange(e0, T + 1), np.full(ne, i0 + 1)
        cnt = ne - np.maximum(0, np.arange(nl) - (e0 - k - 2 - i0))  # the windows from y_1 on: each length's last cnt ends
        l, ends = np.repeat(np.arange(nl), cnt), np.cumsum(cnt)
        q = np.arange(l.size) - np.repeat(ends - ne, cnt)
        P = P if P.shape[1] >= l.size else np.empty((len(S), max(l.size, CHUNK_CELLS // 4 // R), R))  # a block's budget, or more
        row = top + q - l
        C = _terms((l.size, R), det, k, lambda j: d[row - j], Y[row], (i0 + l)[:, None] + 0.0, Ya[e0 - 1 + q], P[:, : l.size])[0]
        C[:n, :ne] += S[:n, e0:]
        for end, c in zip(ends[:-1].tolist(), cnt[1:].tolist()):  # each length's windows end at its predecessor's last c
            C[:n, end : end + c] += C[:n, end - c : end]
        S[:n, T + 1 - cnt[-1] :] = C[:n, l.size - cnt[-1] :]
        return C, slots, e0 + q, i0 + 1 + l

    return block


def _tstats(C: np.ndarray, slots: dict, nobs: np.ndarray, p: int, coefs: int = 0):
    """Level t-ratios of a batch of windows from their cross moments.

    ``C[slot, w]`` holds window w's moments (one column per series) and
    ``nobs[w]`` its observation count (an int ``nobs``: every window's).
    The Gram matrix is equilibrated to unit diagonal and factored as L L';
    with the level last its t-ratio is z_p / sigma, where z = L^-1 D Z'dy.
    Returns ``(t, refit)``: t is NaN where the window cannot support the
    fit or needs a dense refit, and ``refit`` marks windows whose
    equilibrated Gram is not numerically positive definite or has condition
    number above ``COND_LIMIT``, whose residual sum of squares is within
    cancellation error of zero (ssr <= 1e-5 dy'dy) or whose ratio is not finite.
    With ``coefs`` = c > 0, t stacks the t-ratios over the last c coefficients D L'^-1 z.

    D, L, z, ssr and t go to scratch entries after ``C``'s slots (made
    here if it has none).  A unit diagonal gives lambda_max <= p and det =
    prod(L_jj^2) <= lambda_min p^(p-1), so cond <= p^p / det.  One mask
    passes windows with nobs > p, a finite t, ssr above the band and that
    bound within ``COND_LIMIT`` (a zero diagonal or a nonpositive pivot
    spoils ssr or the bound); only the rest are classified one by one.
    """
    nobs, shape = nobs[:, None] if np.ndim(nobs) else nobs, C.shape[1:]
    first, need = max(slots.values()) + 1, len(slots) + p + 4  # D, L, the pivots' product, z, ssr, t, two temporaries
    work = iter(C[first : first + need] if len(C) >= first + need else np.empty((need,) + shape))
    acc, tmp = next(work), next(work)

    def gram(i, j):
        return C[slots[i, j]] if (i, j) in slots else nobs

    def fold(pairs, out):  # the sum of the products a b, from its first term, into out
        (a, b), *rest = pairs
        return reduce(lambda o, ab: np.add(o, np.multiply(*ab, out=tmp), out=o), rest, np.multiply(a, b, out=out))

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        D = [1.0 / np.sqrt(nobs) if (i, i) not in slots else np.divide(1.0, np.sqrt(gram(i, i), out=w), out=w)
             for i, w in zip(range(p), work)]
        # Cholesky factor of the unit-diagonal Gram (L_00 = 1), the product
        # of its pivots (the Gram's determinant) and z; column 0 needs no division
        L, pivots = {}, 1.0
        for j in range(p):
            if j:
                piv = np.subtract(1.0, fold(((L[j, m], L[j, m]) for m in range(j)), acc), out=acc if j > 1 else next(work))
                L[j, j] = np.sqrt(piv, out=next(work))
                pivots = np.multiply(pivots, piv, out=pivots) if j > 1 else piv
            for i in range(j + 1, p):
                L[i, j] = gh = np.multiply(gram(j, i), D[i], out=next(work))
                np.multiply(gh, D[j], out=gh)
                if j:
                    np.divide(np.subtract(gh, fold(((L[i, m], L[j, m]) for m in range(j)), acc), out=gh), L[j, j], out=gh)
        z = []
        for i in range(p):
            z.append(np.multiply(D[i], gram(i, p), out=next(work)))
            if i:
                np.divide(np.subtract(z[i], fold(((L[i, m], z[m]) for m in range(i)), acc), out=z[i]), L[i, i], out=z[i])
        sdd = C[slots[p, p]]
        ssr = np.subtract(sdd, fold(((zi, zi) for zi in z), acc), out=next(work))
        # the dense fit alone decides what counts as an exact fit
        t = np.divide(ssr, nobs - p, out=next(work))
        np.divide(z[-1], np.sqrt(t, out=t), out=t)
        ok = (ssr > (band := np.multiply(1e-5, np.maximum(sdd, 1e-300, out=acc), out=acc))) & np.isfinite(t) & (nobs >= p + 1)
        ok &= pivots >= p**p / COND_LIMIT * (1 + 1e-9)  # pivots * COND_LIMIT >= p^p, less a margin for rounding
        refit = np.zeros(shape, dtype=bool)
        if not ok.all():
            bad = np.nonzero(~ok)
            at = lambda a: np.broadcast_to(a, shape)[bad]  # noqa: E731
            usable = reduce(operator.and_, (at(gram(i, i)) > 0 for i in range(p)), at(nobs >= p + 1))
            pd = reduce(operator.and_, (at(L[j, j]) > 0 for j in range(1, p)), usable)
            illcond, suspect = usable & ~pd, np.flatnonzero(pd & (at(pivots) * COND_LIMIT < p**p))
            if suspect.size:
                G = np.empty((suspect.size, p, p))
                for i in range(p):
                    G[:, i, i] = 1.0
                    for j in range(i + 1, p):
                        G[:, i, j] = G[:, j, i] = (at(gram(i, j)) * at(D[i]) * at(D[j]))[suspect]
                lam = np.linalg.eigvalsh(G)
                illcond[suspect[~(lam[:, 0] > 0) | (lam[:, -1] > COND_LIMIT * lam[:, 0])]] = True
            refit[bad] = illcond | (pd & ~((at(ssr) > at(band)) & np.isfinite(at(t))))
            t[tuple(b[~pd | refit[bad]] for b in bad)] = np.nan
        for i in range(p - 1, p - 1 - coefs, -1):  # L' w = z by back-substitution
            z[i] = reduce(operator.add, (-L[m, i] * z[m] for m in range(i + 1, p)), z[i]) / L.get((i, i), 1.0)
    if coefs:
        t = np.where(np.isnan(t), np.nan, np.stack([t] + [D[i] * z[i] for i in range(p - coefs, p)]))
    return t, refit


def _window_tstats(Y, C, slots, nobs, starts, ends, det, k, coefs: bool = False):
    """t-ratios (windows x series) of the windows (starts[w], ends[w]] whose moments are ``C[w]``, flagged windows
    refit densely; with ``coefs``, (k+2, windows, series): the t-ratios, then the k lag and the level coefficients."""
    out, refit = _tstats(C, slots, nobs, _nparams(det, k), coefs and k + 1)
    for w, r in zip(*np.nonzero(refit)) if refit.any() else ():
        out[..., w, r] = _dense_or_nan(Y[:, r], starts[w], ends[w], det, k, coefs)
    return out


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

    The windows are read from one backward sweep of :func:`_sweep` over
    their lengths; windows that cannot support the fit yield NaN.  The
    sweep covers every length between the shortest and the longest
    window, at every end between the smallest and the largest, so a few
    windows of a long series cost a full O(T^2) scan.
    """
    v = as_values(values)
    det = normalize_det(det)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    starts, ends = (np.atleast_1d(np.asarray(a, dtype=np.int64)) for a in (starts, ends))
    if starts.shape != ends.shape:
        raise ValueError("starts and ends must have equal length")
    if starts.size and (starts.min() < 0 or ends.max() > v.size or (starts >= ends).any()):
        raise ValueError("window bounds out of range")
    Y = v[:, None]
    fit = np.flatnonzero(ends - starts - k - 2 >= _nparams(det, k))
    out = np.full(starts.size, np.nan)
    if fit.size:
        e_lo, T, i = ends[fit].min(), ends[fit].max(), ends[fit] - starts[fit] - k - 2
        block, i0 = _sweep(Y[:T], det, k, e_lo), i.min()
        while i0 <= i.max():
            e0 = max(e_lo, k + 2 + i0)
            nl = _lengths(T - e0 + 1, 1, i.max() + 1 - i0)
            (C, slots, at, nobs), sel = block(i0, nl), (i >= i0) & (i < i0 + nl)
            w, first = fit[sel], np.searchsorted(nobs, i[sel] + 1)  # a length's first window
            out[w] = _window_tstats(Y, C[:, first + ends[w] - at[first]], slots, i[sel] + 1, starts[w], ends[w], det, k)[:, 0]
            i0 += nl
    return out


def sadf_prefix_stats(values, m0: int, det: str = "const", k: int = 0) -> np.ndarray:
    """ADF t-ratios on prefix windows (0, e], e = m0..T.

    Returns an array indexed by e along its last axis (length T+1; one
    row per series for a panel); entries below m0 and degenerate windows
    are NaN.  One forward pass of the moment scan serves every e.
    """
    Y, single, det, m0 = _check_scan(values, m0, det, k)
    out = _prefix(Y, det, k, m0)
    return out[:, 0].copy() if single else np.ascontiguousarray(out.T)


def _prefix(Y: np.ndarray, det: str, k: int, m0: int, coefs: bool = False):
    """:func:`_window_tstats` of the prefix windows (0, e], e = 0..T (NaN below m0 or where too short),
    of a time-major (T, rows) panel: its rows t = k+2..T re-anchored at y_1, summed forward."""
    T, lo = Y.shape[0], max(m0, _min_window_len(det, k))
    out = np.full((k + 2,) * coefs + (T + 1, Y.shape[1]), np.nan)
    if lo <= T:  # C[:, i] sums (0, k+2+i]
        d, n, ends = np.diff(Y, axis=0), T - k - 1, np.arange(lo, T + 1)
        C, slots = _terms((n, Y.shape[1]), det, k, lambda j: d[k - j : k - j + n], Y[k:-1], np.arange(n, dtype=float)[:, None], Y[0])
        np.cumsum(C, axis=1, out=C)
        out[..., lo:, :] = _window_tstats(Y, C[:, lo - k - 2 :], slots, ends - k - 1, np.zeros_like(ends), ends, det, k, coefs)
    return out


def _rolling(Y: np.ndarray, window: int, det: str, k: int, coefs: bool = False):
    """As :func:`_prefix`, for the windows (e - window, e], e = window..T: one sweep block, intercepts at y_(e-window+1)."""
    C, slots, ends, _ = _sweep(Y, det, k, window, window - 1)(window - k - 2, 1)
    return _window_tstats(Y, C, slots, window - k - 1, ends - window, ends, det, k, coefs)


def _at(A: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``A[idx]`` of a time-major (T+1, rows) array at an index (nl, ne, 1) of
    :func:`_sup_curve`: a one-length index is an ascending run, a contiguous view."""
    return A[None, idx[0, 0, 0] : idx[0, 0, 0] + idx.size] if len(idx) == 1 else A[idx[..., 0]]


def _curve_out(curve: np.ndarray, m0: int, sups: bool):
    """A prefix curve's ``(curve, starts)``, start 0 (-1 where NaN), or with ``sups`` each row's sup over e >= m0 (NaN where none)."""
    return np.fmax.reduce(curve[:, m0:], axis=1) if sups else (curve, np.where(np.isnan(curve), -1, 0))


def _sup_curve(stat, rows: int, m0: int, T: int, double: bool = True, sups: bool = False):
    """The package's one sup loop: for e = m0..T, the sup over starts
    s = 0..e-m0 of ``stat(e, s, n)`` per row, and the smallest start
    attaining it ((rows, T+1) arrays; NaN and start -1 where no window is
    defined).  Window lengths n run shortest first, nl of them per block
    (:func:`_lengths`: one once endpoints x rows fill the budget, many for
    one series), over every endpoint at once: ``stat`` maps e (1, ne, 1),
    s = e - n (nl, ne, 1) and the lengths n = e - s, an int when the block
    holds one length (else an array), to time-major (nl, ne, rows), NaN
    where undefined, an array this loop may overwrite; cells with s < 0 are
    not read.  Each block's best value and its longest attaining length per
    endpoint come from one reduction over its lengths, and a tie goes to the
    longer window, the smaller start.  A prefix curve (``double`` False)
    takes only s = 0, in one call.  ``sups`` keeps only each row's running
    maximum (NaN where none)."""
    if not double:
        curve, e = np.full((rows, T + 1), np.nan), np.arange(m0, T + 1)[None, :, None]
        st = stat(e, np.zeros((1, 1, 1), dtype=np.int64), e)[0].T
        np.copyto(curve[:, m0:], st, where=~np.isnan(st))  # NaN cells keep the fill's NaN, sign bit and all
        return _curve_out(curve, m0, sups)
    best, curve = np.full(rows, np.nan), np.full((rows, (T + 1) * (not sups)), -np.inf)  # any window takes it; NaN where none did
    length = np.zeros(curve.shape, dtype=np.int64)
    n0 = m0
    while n0 <= T:
        e = np.arange(n0, T + 1)[None, :, None]
        nl = _lengths(e.size, rows, T + 1 - n0)
        n = np.arange(n0, n0 + nl)[:, None, None]
        st = stat(e, e - n, int(n0) if nl == 1 else n)
        top, at = st[0], 0
        if nl > 1:
            st[n[:, 0] > e[0, :, 0]] = np.nan  # s < 0: no window
            if not sups:  # the longest length attaining the block's best, read from st: -0.0 keeps its sign
                at = nl - 1 - np.argmax((st == np.fmax.reduce(st, axis=0))[::-1], axis=0)
                top = np.take_along_axis(st, at[None], 0)[0]
        if sups:
            np.fmax(best, np.fmax.reduce(np.fmax.reduce(st, axis=1), axis=0), out=best)
        else:
            take = top.T >= curve[:, n0:]  # NaN never takes; a tie goes to the longer window
            np.copyto(curve[:, n0:], top.T, where=take)
            np.copyto(length[:, n0:], n0 + np.transpose(at), where=take)
        n0 += nl
    curve[length == 0] = np.nan
    return best if sups else (curve, np.where(length > 0, np.arange(T + 1) - length, -1))


def bsadf_backward(values, m0: int, det: str = "const", k: int = 0):
    """Backward sup scan: for each e in [m0, T], sup over s in [0, e-m0].

    ``values`` is one series or a (rows, T) panel; a panel is scanned for
    all rows at once, a block of window lengths at a time.  Returns
    ``(maxvals, argmax_s)``: ``maxvals[..., e]`` is the sup of the window
    statistic over admissible starts (NaN when every window is
    degenerate) and ``argmax_s[..., e]`` the smallest attaining start (-1
    when none).
    """
    return _backward(values, m0, det, k)


def _backward(values, m0: int, det: str, k: int, sups: bool = False):  # bsadf_backward, or with sups the row sups
    Y, single, det, m0 = _check_scan(values, m0, det, k)
    m0 = max(m0, _min_window_len(det, k))  # shorter windows cannot support the fit
    block = _sweep(Y, det, k, m0)

    def stat(e, s, n):  # the sweep's blocks are the sup loop's; one length n reads with one nobs
        C, slots, ends, nobs = block(i0 := int(e[0, 0, 0] - s[0, 0, 0] - k - 2), len(s))
        if np.ndim(n) == 0:
            return _window_tstats(Y, C, slots, n - k - 1, ends - n, ends, det, k)[None]
        t = np.full((s.size, Y.shape[1]), np.nan)  # a cell with s < 0 is no window, and NaN
        t[(nobs - i0 - 1) * e.size + ends - e[0, 0, 0]] = _window_tstats(Y, C, slots, nobs, ends - nobs - k - 1, ends, det, k)
        return t.reshape(len(s), e.size, -1)

    out = _sup_curve(stat, Y.shape[1], m0, Y.shape[0], True, sups)
    return out if sups else (out[0][0], out[1][0]) if single else out


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
    """t-ratio of delta in du_t = delta*u_{t-1} + e_t (no deterministics):
    the dense fit of the det 'none', k = 0 window (0, n] of ``u``, which
    raises on too few observations or a zero-variance fit."""
    u = np.asarray(u, dtype=float)
    return fit_adf_window(u, 0, u.size, det="none").tstat
