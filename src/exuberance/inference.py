"""Post-detection inference for explosive segments.

Confidence intervals for the autoregressive root of a dated episode,
estimation of the drift-magnitude exponent, and three cross-series
relationship tests: migration of explosiveness between markets, delay
estimation for contagion, and a residual-based co-movement test with a
wild-bootstrap p-value.

All operations are pure functions of their inputs; randomness enters
only through explicit seeds: co-movement replicate r through the stream
keyed (seed, r) by the package's one replicate driver.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from .bootstrap import _check_draws, _multipliers, _replicate_values, _resolve_seed
from .exceptions import DataError, DegenerateFitError
from .ols import _least_squares, _prefix, _rolling, fit_adf_window
from .recursive import StatSequence, _resolve_tau0
from .series import _JsonFields, as_values, normalize_det

__all__ = [
    "CAUCHY_PERCENTILES",
    "MildlyExplosiveCI",
    "DriftExponent",
    "MigrationTest",
    "ContagionFit",
    "CobubbleTest",
    "cauchy_critical_value",
    "cauchy_ci",
    "t_ci",
    "drift_exponent",
    "recursive_ar_coefficients",
    "rolling_ar_coefficients",
    "migration_test",
    "contagion_delay",
    "cobubble_test",
]


#: Two-sided standard-Cauchy percentiles at the conventional confidence
#: levels, kept at their published rounding.  Other levels fall through
#: to the exact quantile function.
CAUCHY_PERCENTILES = {0.90: 6.315, 0.95: 12.7, 0.99: 63.65674}


def cauchy_critical_value(level: float) -> float:
    """Two-sided standard-Cauchy critical value for a confidence level.

    The three conventional levels return the tabulated constants in
    :data:`CAUCHY_PERCENTILES`; any other level in (0, 1) is served by
    the exact quantile function.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    for lev, c in CAUCHY_PERCENTILES.items():
        if abs(level - lev) < 1e-12:
            return c
    return math.tan(math.pi * level / 2.0)


@dataclass
class MildlyExplosiveCI(_JsonFields):
    """Confidence interval for the root of an explosive segment.

    ``method`` records how the half-width was formed: ``cauchy`` for the
    self-normalized interval that needs no variance estimate, ``t-normal``
    for t-statistic inversion with normal quantiles.
    """

    rho_hat: float
    lower: float
    upper: float
    level: float
    method: str
    nobs: int

    def __post_init__(self) -> None:
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must be in (0, 1), got {self.level}")
        if self.method not in ("cauchy", "t-normal"):
            raise ValueError(f"unknown CI method {self.method!r}")
        if not self.lower <= self.rho_hat <= self.upper:
            raise ValueError(
                f"interval [{self.lower}, {self.upper}] must bracket "
                f"rho_hat={self.rho_hat}"
            )

    @property
    def half_width(self) -> float:
        return (self.upper - self.lower) / 2.0


def cauchy_ci(segment, level: float = 0.95) -> MildlyExplosiveCI:
    """Self-normalized confidence interval for an explosive AR root.

    Fits y_t = rho * y_{t-1} + e_t by least squares *without* an
    intercept on the supplied segment and returns

        rho_hat +/- ((rho_hat^2 - 1) / rho_hat^n) * C

    where n is the segment length and C the two-sided Cauchy critical
    value.  The interval is asymptotically valid for mildly explosive
    roots without any variance estimation; it is meaningless for
    non-explosive fits, so ``rho_hat <= 1`` raises.

    Parameters
    ----------
    segment : Series or array
        Observations covering the explosive episode only.  Trimming the
        segment to the dated episode is the caller's job.
    level : float
        Two-sided confidence level in (0, 1).
    """
    v = as_values(segment)
    n = v.size
    if n < 3:
        raise DataError(f"segment too short for a CI: {n} < 3 observations")
    lag = v[:-1]
    denom = float(lag @ lag)
    if denom <= 0.0:
        raise DegenerateFitError("segment is identically zero before its last point")
    rho_hat = float(lag @ v[1:]) / denom
    if rho_hat <= 1.0:
        raise DataError(
            f"rho_hat = {rho_hat:.6f} <= 1; this interval applies to explosive "
            "segments only — date-stamp first and pass the explosive regime"
        )
    c = cauchy_critical_value(level)
    half_width = (rho_hat * rho_hat - 1.0) / rho_hat**n * c
    return MildlyExplosiveCI(
        rho_hat=rho_hat,
        lower=rho_hat - half_width,
        upper=rho_hat + half_width,
        level=float(level),
        method="cauchy",
        nobs=n,
    )


def t_ci(segment, det: str = "const", level: float = 0.95) -> MildlyExplosiveCI:
    """Confidence interval for the AR root by t-statistic inversion.

    Runs the usual first-order autoregression with the requested
    deterministic terms and collects every rho not rejected by the
    two-sided t test with standard-normal quantiles, which is the
    interval rho_hat +/- z * se(rho_hat).  Valid for explosive segments
    regardless of drift magnitude.

    Parameters
    ----------
    segment : Series or array
        Observations covering the episode; at least 10 points.
    det : {'none', 'const', 'trend'}
        Deterministic terms included in the autoregression.
    level : float
        Two-sided confidence level in (0, 1).
    """
    v = as_values(segment)
    n = v.size
    if n < 10:
        raise DataError(f"segment too short for a t interval: {n} < 10 observations")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    det = normalize_det(det)
    fit = fit_adf_window(v, 0, n, det=det, k=0)
    rho_hat = 1.0 + fit.delta
    if not np.isfinite(fit.se) or fit.se < 0.0:
        raise DegenerateFitError("standard error undefined on this segment")
    z = statistics.NormalDist().inv_cdf(0.5 + level / 2.0)
    half_width = z * fit.se
    return MildlyExplosiveCI(
        rho_hat=rho_hat,
        lower=rho_hat - half_width,
        upper=rho_hat + half_width,
        level=float(level),
        method="t-normal",
        nobs=n,
    )


@dataclass
class DriftExponent(_JsonFields):
    """Estimated decay exponent of a shrinking drift.

    For a drift of the form mu * T^{-eta}, both point estimates recover
    eta up to a second-order bias of -log|mu| / log T.  ``eta_hat`` uses
    the raw trend moment, ``eta_tilde`` the demeaned-trend variant.
    """

    eta_hat: float
    eta_tilde: float
    mu_hat: float
    mu_tilde: float
    nobs: int


def drift_exponent(series) -> DriftExponent:
    """Estimate how fast the drift of a unit-root process shrinks with T.

    Regresses the series on the time index t = 1..T through the origin:
    mu_hat = sum(t * y_t) / sum(t^2), and on the demeaned index
    t - mean(t) for the variant.  The exponent estimate is
    -log|mu| / log T.  Requires T >= 10 and a nonzero trend moment.
    """
    v = as_values(series)
    T = v.size
    if T < 10:
        raise DataError(f"need at least 10 observations, got {T}")
    t = np.arange(1, T + 1, dtype=np.float64)
    mu_hat = float(t @ v) / float(t @ t)
    td = t - t.mean()
    mu_tilde = float(td @ v) / float(td @ td)
    if mu_hat == 0.0 or mu_tilde == 0.0:
        raise DegenerateFitError(
            "trend moment is exactly zero; the drift exponent is undefined"
        )
    log_T = math.log(T)
    return DriftExponent(
        eta_hat=-math.log(abs(mu_hat)) / log_T,
        eta_tilde=-math.log(abs(mu_tilde)) / log_T,
        mu_hat=mu_hat,
        mu_tilde=mu_tilde,
        nobs=T,
    )


def recursive_ar_coefficients(series, tau0: float | None = None) -> StatSequence:
    """First-order AR coefficient over expanding prefix windows.

    For each end point e from the minimum window onward (all from one
    forward moment pass), fits the autoregression with intercept on
    observations 1..e and records 1 + delta_hat, the implied level
    coefficient.  Windows where the fit is degenerate are NaN.  This is
    the coefficient sequence the migration test consumes.
    """
    v = as_values(series)
    T = v.size
    tau0, m0 = _resolve_tau0(T, tau0)
    delta = _prefix(v[:, None], "const", 0, m0, coefs=True)[-1, m0:, 0]
    return StatSequence(kind="ar1_recursive", tau0=tau0, tau2=np.arange(m0, T + 1) / T, values=1.0 + delta, nobs=T)


def rolling_ar_coefficients(series, window: int) -> StatSequence:
    """First-order AR coefficient over fixed-length rolling windows.

    For each end point s from ``window`` onward (all from one block of the
    backward moment sweep), fits the autoregression with intercept on the
    window (s - window, s] and records 1 + delta_hat.  The ``tau0`` field
    stores the window as a fraction of the sample.  This is the coefficient
    sequence the contagion delay estimator consumes.
    """
    v = as_values(series)
    T = v.size
    window = int(window)
    if window < 4:
        raise ValueError(f"rolling window must be >= 4 observations, got {window}")
    if window > T:
        raise DataError(f"rolling window {window} exceeds sample length {T}")
    delta = _rolling(v[:, None], window, "const", 0, coefs=True)[-1, :, 0]
    return StatSequence(kind="ar1_rolling", tau0=window / T, tau2=np.arange(window, T + 1) / T, values=1.0 + delta, nobs=T)


def _sequence_ends(seq: StatSequence) -> np.ndarray:
    """Integer time labels of a coefficient sequence's window ends."""
    return np.rint(seq.tau2 * seq.nobs).astype(np.int64)


@dataclass
class MigrationTest(_JsonFields):
    """Result of the explosiveness-migration regression.

    ``z_beta`` is oriented so that evidence of migration (a negative
    slope on the scaled source coefficient) produces large positive
    values; ``p_value`` is the matching one-sided normal tail.
    """

    beta0_hat: float
    beta1_hat: float
    z_beta: float
    p_value: float
    origin_x: int
    origin_y: int
    m: int
    scale: float
    nobs: int


def migration_test(
    theta_x: StatSequence,
    theta_y: StatSequence,
    origin_x: int,
    origin_y: int,
    scale: float | None = None,
) -> MigrationTest:
    """Test whether explosiveness migrated from series X to series Y.

    Over the window of time labels (origin_x, origin_y], regresses
    theta_Y - 1 on an intercept and (theta_X - 1) * (t - origin_x) / m
    with m = origin_y - origin_x.  Under migration the slope is
    negative: X's explosiveness dies out as Y's builds up.  The
    standardized statistic z_beta = -beta1_hat / scale rejects for
    large values against one-sided normal critical values.

    Parameters
    ----------
    theta_x, theta_y : StatSequence
        Recursive AR(1) coefficient sequences on a common time grid,
        e.g. from :func:`recursive_ar_coefficients`.
    origin_x, origin_y : int
        Dated bubble origins (time labels) of the two series; the
        origin in Y must postdate the origin in X.
    scale : float, optional
        Slowly varying normalization L(m); defaults to log(m).
    """
    origin_x = int(origin_x)
    origin_y = int(origin_y)
    if origin_y <= origin_x:
        raise DataError(
            f"origin_y ({origin_y}) must postdate origin_x ({origin_x}); "
            "confirm the ordering with a date-stamping pass first"
        )
    ends_x = _sequence_ends(theta_x)
    ends_y = _sequence_ends(theta_y)
    common, ix, iy = np.intersect1d(ends_x, ends_y, return_indices=True)
    sel = (common > origin_x) & (common <= origin_y)
    ends = common[sel]
    thx = theta_x.values[ix[sel]]
    thy = theta_y.values[iy[sel]]
    good = np.isfinite(thx) & np.isfinite(thy)
    ends, thx, thy = ends[good], thx[good], thy[good]
    if ends.size < 5:
        raise DataError(
            f"migration window covers {ends.size} usable points; need >= 5"
        )
    m = origin_y - origin_x
    dep = thy - 1.0
    reg = (thx - 1.0) * (ends - origin_x).astype(np.float64) / m
    X = np.column_stack([np.ones(ends.size), reg])
    beta = _least_squares(X, dep, "scaled source coefficient has no variation over the window")[0]
    L = math.log(m) if scale is None else float(scale)
    if L <= 0.0:
        raise ValueError(f"normalization scale must be positive, got {L}")
    z_beta = -float(beta[1]) / L
    return MigrationTest(
        beta0_hat=float(beta[0]),
        beta1_hat=float(beta[1]),
        z_beta=z_beta,
        p_value=0.5 * math.erfc(z_beta / math.sqrt(2.0)),
        origin_x=origin_x,
        origin_y=origin_y,
        m=m,
        scale=L,
        nobs=int(ends.size),
    )


@dataclass
class ContagionFit(_JsonFields):
    """Estimated transmission delay between two rolling coefficient paths.

    ``r2_by_delay`` keeps the full profile so callers can judge how
    sharply the best delay is identified.
    """

    delay: int
    theta1_hat: float
    theta2_hat: float
    r2: float
    nobs: int
    r2_by_delay: dict[int, float] = field(repr=False)


def contagion_delay(
    core_coeffs: StatSequence,
    target_coeffs: StatSequence,
    d_range=range(0, 13),
) -> ContagionFit:
    """Estimate the delay with which explosiveness spreads from a core series.

    For each candidate delay d, regresses the target's rolling AR
    coefficient at time s on an intercept and the core coefficient at
    time s - d (a constant transmission coefficient; time-varying
    versions are out of scope).  Returns the delay with the largest
    R-squared; ties break toward the smallest delay.

    Both sequences must come from rolling windows of the same length on
    the same time grid, e.g. from :func:`rolling_ar_coefficients`;
    sequences of any other kind (such as expanding-window coefficients)
    raise :class:`DataError`.
    """
    kinds = (core_coeffs.kind, target_coeffs.kind)
    if kinds != ("ar1_rolling", "ar1_rolling"):
        raise DataError(
            f"contagion needs rolling AR coefficients (kind 'ar1_rolling'), got {kinds}; "
            "see rolling_ar_coefficients"
        )
    ends = _sequence_ends(core_coeffs)
    ends_t = _sequence_ends(target_coeffs)
    if not np.array_equal(ends, ends_t):
        raise DataError("coefficient sequences must share the same time grid")
    if abs(core_coeffs.tau0 * core_coeffs.nobs - target_coeffs.tau0 * target_coeffs.nobs) > 0.5:
        raise DataError("coefficient sequences must use a common rolling window length")
    if ends.size < 2 or not np.array_equal(ends, np.arange(ends[0], ends[-1] + 1)):
        raise DataError("rolling coefficient sequences must cover consecutive end points")
    core = core_coeffs.values
    target = target_coeffs.values
    n = ends.size

    best: tuple[float, int] | None = None
    best_beta = None
    best_rows = 0
    profile: dict[int, float] = {}
    for d in d_range:
        d = int(d)
        if d < 0:
            raise ValueError(f"delays must be nonnegative, got {d}")
        if d >= n:
            continue
        dep = target[d:]
        reg = core[: n - d]
        good = np.isfinite(dep) & np.isfinite(reg)
        rows = int(good.sum())
        if rows < 3:
            continue
        dep_g, reg_g = dep[good], reg[good]
        syy = float(np.sum((dep_g - dep_g.mean()) ** 2))
        if syy <= 0.0:
            continue
        try:
            beta, ssr, _ = _least_squares(np.column_stack([np.ones(rows), reg_g]), dep_g)
        except DegenerateFitError:
            continue
        r2 = 1.0 - ssr / syy
        profile[d] = r2
        if best is None or r2 > best[0]:
            best = (r2, d)
            best_beta = beta
            best_rows = rows
    if best is None:
        raise DataError("no usable overlap between the sequences at any delay")
    r2, d_hat = best
    return ContagionFit(
        delay=d_hat,
        theta1_hat=float(best_beta[0]),
        theta2_hat=float(best_beta[1]),
        r2=r2,
        nobs=best_rows,
        r2_by_delay=profile,
    )


@dataclass
class CobubbleTest(_JsonFields):
    """Residual-based co-movement test between two bubbling series.

    ``stat`` is a KPSS-type statistic on the residuals from regressing
    one series on the (possibly shifted) other: small values mean the
    residuals look stationary, i.e. the explosive parts cancel, which
    is the co-movement null.  ``p_value`` comes from a wild bootstrap
    that rejects for *large* values of the statistic.
    """

    stat: float
    p_value: float
    delay: int
    intercept: float
    slope: float
    n_overlap: int
    B: int
    seed: int
    multiplier: str
    replicates: np.ndarray = field(repr=False)

    _omit = ("replicates",)


def _cusum_ratio(resid: np.ndarray, T: int) -> float:
    """Normalized squared partial sums: sum_t(cumsum^2) / (T * sum(e^2))."""
    psum = np.cumsum(resid)
    return float(psum @ psum) / (T * float(resid @ resid))


def cobubble_test(
    y,
    x,
    delay: int = 0,
    B: int = 499,
    seed: int | None = None,
    multiplier: str = "gaussian",
) -> CobubbleTest:
    """Test whether two series share a common explosive component.

    Regresses y_t on an intercept and x_{t-delay} over the overlap left
    after shifting, then forms the normalized squared partial sums of
    the residuals.  If the two series co-bubble, the residuals are free
    of explosive behavior and the statistic stays small; a large value
    rejects co-movement.  The p-value is computed by a wild bootstrap
    on the regression residuals, which keeps the test level under
    heteroskedasticity.

    Parameters
    ----------
    y, x : Series or array
        Two series of equal length.
    delay : int
        Shift applied to x; positive means x leads y by that many steps,
        negative means x lags.  The overlap must keep >= 10 points.
    B : int
        Bootstrap replications, at least ``MIN_REPLICATIONS``.
    seed : int, optional
        Base seed; drawn from entropy when omitted.
    multiplier : {'gaussian', 'rademacher', 'skewed'}
        Wild bootstrap multiplier distribution.
    """
    vy = as_values(y)
    vx = as_values(x)
    if vy.size != vx.size:
        raise DataError(
            f"series must have equal length, got {vy.size} and {vx.size}"
        )
    T = vy.size
    d = int(delay)
    if d > 0:
        ys, xs = vy[d:], vx[: T - d]
    elif d < 0:
        ys, xs = vy[: T + d], vx[-d:]
    else:
        ys, xs = vy, vx
    n = ys.size
    if n < 10:
        raise DataError(f"overlap after shifting is {n} points; need >= 10")
    _check_draws(B, multiplier)
    base_seed = _resolve_seed(seed)

    # both levels anchored at the first overlap point, inside the sample
    X = np.column_stack([np.ones(n), xs - xs[0]])
    ya = ys - ys[0]
    coef, sse, _ = _least_squares(X, ya, "x is constant over the overlap")
    intercept = float(coef[0] + ys[0] - coef[1] * xs[0])
    fitted = X @ coef
    resid = ya - fitted
    # an exact linear relation leaves residuals that carry nothing: the
    # statistic is 0 and the null of co-movement cannot be rejected
    observed, replicates = 0.0, np.zeros(B)
    if sse > 0:
        observed = _cusum_ratio(resid, T)
        # a basis of unit-norm columns keeps a tiny-valued x beside the intercept
        U = np.linalg.svd(X / np.linalg.norm(X, axis=0), full_matrices=False)[0]
        replicates = _replicate_values(  # each row projected by itself: a panel matmul rounds differently
            base_seed, (), B, n, lambda rngs: fitted + _multipliers(rngs, n, multiplier) * resid,
            lambda Y: np.array([_cusum_ratio(y - U @ (y @ U), T) for y in Y]),
        )
    p_value = (1.0 + float(np.sum(replicates >= observed))) / (B + 1.0)
    return CobubbleTest(
        stat=observed,
        p_value=p_value,
        delay=d,
        intercept=intercept,
        slope=float(coef[1]),
        n_overlap=n,
        B=B,
        seed=base_seed,
        multiplier=multiplier,
        replicates=replicates,
    )
