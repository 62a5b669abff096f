"""Episode dating: crossing rules on statistic sequences, start-point
refinement, and regime-model fitting by least squares.

Two families of estimators live here.  Crossing-based stamping reads a
statistic sequence against a critical-value sequence: an episode starts
at the first window end whose statistic exceeds its critical value and
ends at the first later point (at least a minimum duration away) back
below it.  Model-based stamping fits piecewise autoregressions with
regime dummies and picks break dates by sum-of-squared-residual and
information-criterion comparison.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import ols, recursive
from .exceptions import DegenerateFitError
from .recursive import StatSequence, _resolve_tau0
from .robust import _sign_moments, sign_path
from .series import Series, _write_csv, as_values, frac_to_index

__all__ = [
    "Episode",
    "CvSequence",
    "rule_critical_value",
    "default_min_duration",
    "pwy_stamp",
    "psy_stamp",
    "bic_init",
    "BubbleModelFit",
    "fit_bubble_model",
    "ModelSelection",
    "select_model_bic",
    "two_step_stamp",
    "sign_stamp",
    "training_max_monitor",
    "episodes_to_json",
    "episodes_to_csv",
]

CV_SOURCES = ("asymptotic-rule", "simulated", "bootstrap")

#: Information-criterion penalty per model: estimated coefficients plus
#: estimated break dates (2+1, 2+2, 4+2, 4+3).
BIC_PENALTY = {1: 3, 2: 4, 3: 6, 4: 7}

#: Dates each model estimates: the first 1, 2, 2 or 3 of (a, b, c).
_N_DATES = {1: 1, 2: 2, 3: 2, 4: 3}

DEFAULT_MIN_SEGMENT = 3


def rule_critical_value(T: int) -> float:
    """Slowly diverging critical value (2/3)·log(log² T) for date stamping.

    Grows without bound so the false-detection probability vanishes
    asymptotically, yet slowly enough to keep power against explosive
    windows.
    """
    if T < 3:
        raise ValueError(f"rule critical value needs T >= 3, got {T}")
    return (2.0 / 3.0) * math.log(math.log(T) ** 2)


def default_min_duration(T: int, delta: float = 1.0) -> float:
    """Minimum episode length delta·log(T)/T as a fraction of the sample.

    Keeps stamped episodes economically significant: the implied duration
    in observations grows like log T.
    """
    if T < 2:
        raise ValueError(f"minimum duration rule needs T >= 2, got {T}")
    if delta <= 0:
        raise ValueError(f"duration multiplier must be positive, got {delta}")
    return delta * math.log(T) / T


@dataclass
class CvSequence:
    """Critical values aligned one-to-one with a statistic sequence."""

    values: np.ndarray
    source: str = "asymptotic-rule"

    def __post_init__(self) -> None:
        self.values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if self.source not in CV_SOURCES:
            raise ValueError(f"cv source must be one of {CV_SOURCES}, got {self.source!r}")

    @classmethod
    def constant(cls, value: float, n: int, source: str = "simulated") -> "CvSequence":
        return cls(values=np.full(n, float(value)), source=source)

    @classmethod
    def from_rule(cls, seq: StatSequence) -> "CvSequence":
        value = rule_critical_value(seq.nobs)
        return cls(values=np.full(seq.values.size, value), source="asymptotic-rule")


@dataclass
class Episode:
    """One explosive episode: origin, collapse, and optional recovery.

    Fractions are index/T; integer indices are the primary record (the
    floor-mapped counterparts of the fractions).  ``model`` is set when
    the dates come from a regime-model fit.
    """

    origin: float
    collapse: float
    origin_index: int
    collapse_index: int
    recovery: float | None = None
    recovery_index: int | None = None
    model: int | None = None

    def __post_init__(self) -> None:
        if not self.origin < self.collapse:
            raise ValueError(
                f"origin {self.origin} must precede collapse {self.collapse}"
            )
        if not self.origin_index < self.collapse_index:
            raise ValueError("origin index must precede collapse index")
        if (self.recovery is None) != (self.recovery_index is None):
            raise ValueError("recovery fraction and index must be set together")
        if self.recovery is not None and not self.collapse <= self.recovery:
            raise ValueError(
                f"collapse {self.collapse} must not exceed recovery {self.recovery}"
            )
        if self.model is not None and self.model not in BIC_PENALTY:
            raise ValueError(f"model must be one of {sorted(BIC_PENALTY)}, got {self.model}")

    def to_dict(self) -> dict:
        return {
            "origin": self.origin,
            "collapse": self.collapse,
            "recovery": self.recovery,
            "origin_index": self.origin_index,
            "collapse_index": self.collapse_index,
            "recovery_index": self.recovery_index,
            "model": self.model,
        }


def episodes_to_json(episodes) -> str:
    return json.dumps([ep.to_dict() for ep in episodes])


def episodes_to_csv(path, episodes, series: Series | None = None) -> None:
    """Write episodes as CSV; adds date labels when the series has them."""
    labels = series.labels if series is not None else None
    head = ["origin", "collapse", "recovery", "model", "origin_index", "collapse_index", "recovery_index"]
    if labels is not None:
        head += ["origin_label", "collapse_label", "recovery_label"]
    rows = []
    for ep in episodes:
        row = [
            format(ep.origin, ".17g"),
            format(ep.collapse, ".17g"),
            "" if ep.recovery is None else format(ep.recovery, ".17g"),
            "" if ep.model is None else ep.model,
            ep.origin_index,
            ep.collapse_index,
            "" if ep.recovery_index is None else ep.recovery_index,
        ]
        if labels is not None:
            row += [
                labels[ep.origin_index - 1],
                labels[ep.collapse_index - 1],
                "" if ep.recovery_index is None else labels[ep.recovery_index - 1],
            ]
        rows.append(row)
    _write_csv(path, head, rows)


def _resolve_cv(seq: StatSequence, cv) -> CvSequence:
    if cv is None:
        return CvSequence.from_rule(seq)
    if isinstance(cv, CvSequence):
        if cv.values.size != seq.values.size:
            raise ValueError(
                f"critical-value sequence length {cv.values.size} does not match "
                f"statistic sequence length {seq.values.size}"
            )
        return cv
    return CvSequence.constant(float(cv), seq.values.size)


def _scan_crossings(seq: StatSequence, cv: CvSequence, min_duration: float):
    """Shared crossing scan: strict up-crossing opens an episode, first
    strict down-crossing at least min_duration later closes it; an
    episode still open at the sample end is closed there when its
    duration already clears the floor."""
    T = seq.nobs
    ends = np.rint(seq.tau2 * T).astype(np.int64)
    vals = seq.values
    cvs = cv.values
    if not 0.0 < min_duration < 1.0:
        raise ValueError(f"min_duration must lie in (0, 1), got {min_duration}")
    gap = min_duration * T
    episodes: list[tuple[int, int]] = []
    n = vals.size
    i = 0
    while i < n:
        while i < n and not vals[i] > cvs[i]:
            i += 1
        if i == n:
            break
        o = i
        j = o
        while j < n and ends[j] < ends[o] + gap - 1e-9:
            j += 1
        while j < n and not vals[j] < cvs[j]:
            j += 1
        if j == n:
            if ends[n - 1] >= ends[o] + gap - 1e-9:
                episodes.append((o, n - 1))
            break
        episodes.append((o, j))
        i = j
    return [
        Episode(
            origin=float(seq.tau2[o]),
            collapse=float(seq.tau2[c]),
            origin_index=int(ends[o]),
            collapse_index=int(ends[c]),
        )
        for o, c in episodes
    ]


def pwy_stamp(
    seq: StatSequence,
    cv=None,
    min_duration: float | None = None,
    delta: float = 1.0,
) -> list[Episode]:
    """Date episodes from a forward-recursive statistic sequence.

    The origin is the first window end whose statistic strictly exceeds
    its critical value; the collapse is the first subsequent end, at
    least ``min_duration`` later, strictly back below.  ``cv`` may be a
    CvSequence, a scalar, or None for the slowly diverging rule; ties at
    the critical value never trigger.
    """
    T = seq.nobs
    if min_duration is None:
        min_duration = default_min_duration(T, delta)
    return _scan_crossings(seq, _resolve_cv(seq, cv), min_duration)


def psy_stamp(
    bsadf: StatSequence,
    cv=None,
    min_duration: float | None = None,
    delta: float = 1.0,
) -> list[Episode]:
    """Date episodes from a backward-sup statistic sequence.

    Same crossing rules as :func:`pwy_stamp`, applied to the per-endpoint
    backward sup curve; after each collapse the scan restarts from that
    point, so several episodes are stamped in order.  Because every
    window end looks back over all admissible starts, later bubbles are
    found even when shorter than earlier ones.
    """
    return pwy_stamp(bsadf, cv, min_duration, delta)


def bic_init(series, origin_index: int, n_min: int | None = None) -> int:
    """Refine the recursion start behind a stamped origin by model comparison.

    Starting from the ``n_min`` observations before the stamped origin,
    the window grows backward one observation at a time while the
    information criterion prefers the autoregression over the random
    walk with drift and the autoregressive root exceeds one; the walk
    stops as soon as the random-walk model wins, and the reached start
    (floor 1) is returned.  Reaching 1 recovers the full-sample
    recursion.
    """
    v = as_values(series)
    T = v.size
    if not 2 <= origin_index <= T:
        raise ValueError(f"origin index {origin_index} outside sample of length {T}")
    if n_min is None:
        n_min = max(3, (origin_index - 1) // 10)
    if n_min < 3:
        raise ValueError(f"n_min must be >= 3, got {n_min}")
    start = origin_index - n_min
    if start < 1:
        raise ValueError(
            f"origin index {origin_index} leaves no room for n_min={n_min} "
            "observations before it"
        )
    dy = np.diff(v)
    while True:
        # regression rows t = start+1 .. origin_index on the sample that
        # begins at the current initial condition, the level anchored there
        d = dy[start - 1 : origin_index - 1]
        lag = v[start - 1 : origin_index - 1] - v[start - 1]
        n = d.size
        ur_resid = d - d.mean()
        ssr_ur = float(ur_resid @ ur_resid)
        X = np.column_stack([np.ones(n), lag])
        beta, ssr_ar, _ = ols._least_squares(
            X, d + lag, f"autoregression is rank deficient on window starting at {start}"
        )
        # an exact fit (ssr 0) is preferred to any other
        bic_ur = math.log(ssr_ur / n) + math.log(n) / n if ssr_ur > 0 else -math.inf
        bic_ar = math.log(ssr_ar / n) + 2.0 * math.log(n) / n if ssr_ar > 0 else -math.inf
        delta_hat = beta[1]
        if bic_ur > bic_ar and delta_hat > 1.0 and start > 1:
            start -= 1
            continue
        return start


@dataclass
class BubbleModelFit:
    """SSR and coefficients of one regime-dummy regression candidate.

    ``valid`` is False when the level-ordering constraints fail (the
    explosive regime must end above its start, and above the recovery
    point when a collapse regime is present); such candidates are
    excluded from date minimisation but their fit is still reported.
    """

    model: int
    ssr: float
    coeffs: np.ndarray
    valid: bool
    dates: tuple[int, ...]
    fractions: tuple[float, ...]


def _model_dates_to_indices(model: int, fractions, T: int) -> tuple[int, ...]:
    fr = tuple(float(f) for f in fractions)
    if len(fr) != 3:
        raise ValueError("candidate dates must be a (tau1, tau2, tau3) triple")
    t1, t2, t3 = fr
    if not 0 < t1 < 1:
        raise ValueError(f"tau1 must lie in (0, 1), got {t1}")
    if model == 1:
        if not (t2 == 1.0 and t3 == 1.0):
            raise ValueError("model 1 requires tau2 = tau3 = 1")
    elif model == 2:
        if not t2 == t3:
            raise ValueError("model 2 requires tau2 = tau3")
    elif model == 3:
        if not t3 == 1.0:
            raise ValueError("model 3 requires tau3 = 1")
    elif model != 4:
        raise ValueError(f"model must be one of {sorted(BIC_PENALTY)}, got {model}")
    if not t1 < t2 <= t3 <= 1.0:
        raise ValueError(f"dates must satisfy tau1 < tau2 <= tau3 <= 1, got {fr}")
    return frac_to_index(t1, T), frac_to_index(t2, T), frac_to_index(t3, T)


def _check_segments(model: int, a: int, b: int, c: int, T: int, min_seg: int) -> None:
    spans = [("pre-break regime", a), ("explosive regime", b - a)]
    if model in (3, 4):
        spans.append(("collapse regime", c - b))
    if model in (2, 4):
        spans.append(("post-break regime", T - c))
    for name, length in spans:
        if length < min_seg:
            raise ValueError(
                f"{name} has {length} observations; need at least {min_seg}"
            )


def fit_bubble_model(
    series,
    model: int,
    dates,
    min_seg: int = DEFAULT_MIN_SEGMENT,
) -> BubbleModelFit:
    """Fit one piecewise-regime candidate by dummy regression in differences.

    The first differences are regressed on regime indicators and
    indicator-times-lagged-level terms; observations outside the explosive
    and collapse regimes enter the SSR as raw differences, encoding a
    unit root there.  Adding a constant to the series leaves the SSR
    unchanged because the regime intercepts absorb the shift.
    """
    v = as_values(series)
    T = v.size
    a, b, c = _model_dates_to_indices(model, dates, T)
    _check_segments(model, a, b, c, T, min_seg)
    return _fit_regimes(v, model, a, b, c)


def _fit_regimes(v: np.ndarray, model: int, a: int, b: int, c: int) -> BubbleModelFit:
    """The regression of :func:`fit_bubble_model` at checked indices (a, b, c)."""
    T = v.size
    t = np.arange(2, T + 1)
    dep = v[t - 1] - v[t - 2]
    # the level anchored at the origin, inside the sample
    lag = v[t - 2] - v[a - 1]
    reg1 = (t > a) & (t <= b)
    cols = [reg1.astype(float), reg1 * lag]
    if model in (3, 4):
        reg2 = (t > b) & (t <= c)
        cols += [reg2.astype(float), reg2 * lag]
    beta, ssr, _ = ols._least_squares(
        np.column_stack(cols), dep, f"model {model} regression singular at dates {(a, b, c)}"
    )
    # each regime's intercept back to the un-anchored level
    beta[0::2] -= beta[1::2] * v[a - 1]
    valid = v[b - 1] > v[a - 1]
    if model in (3, 4):
        valid = valid and v[b - 1] > v[c - 1]
    return BubbleModelFit(
        model=model,
        ssr=ssr,
        coeffs=beta,
        valid=bool(valid),
        dates=(a, b, c),
        fractions=(a / T, b / T, c / T),
    )


@dataclass
class ModelSelection:
    """Winning regime model with its dates and the per-model comparison.

    A model's dates are the index triple (a, b, c) of origin, collapse
    and recovery, with b = c = T in model 1, c = b in model 2 and c = T
    in model 3.  ``dates[m]`` lists the first 1, 2, 2 or 3 entries, the
    ones model m estimates; ``fit.dates`` is the winner's whole triple.
    """

    model: int
    episode: Episode
    bic: dict
    ssr: dict
    dates: dict
    fit: BubbleModelFit


def _segment_ssrs(v: np.ndarray, ms: int):
    """seg(a, b), the SSR of dy on [1, y_(t-1)] over rows t = a+1..b, of
    every segment of ms..T-ms rows ending at b >= 2 ms: yields ``(i0, nl,
    b, n, seg)`` per block of lengths n = i0+1..i0+nl, in the layout of
    one backward sweep (:func:`ols._sweep`).  Segment (a, b] is the ADF
    window (a-1, b] at const, k = 0, its sums anchored at y_b; seg is the
    2x2 closed form cdd - cyd^2 / cyy, a tiny negative value 0 and +inf
    where the level is collinear with the intercept (cyy <= 1e-12 syy)."""
    T = v.size
    block, i0 = ols._sweep(v[:, None], "const", 0, 2 * ms), ms - 1
    while i0 < T - ms:
        nl = ols._lengths(T - max(2 * ms, i0 + 2) + 1, 1, T - ms - i0)
        C, slots, b, n = block(i0, nl)
        sy, sd, syy, syd, sdd = (C[slots[ij], :, 0] for ij in ((0, 1), (0, 2), (1, 1), (1, 2), (2, 2)))
        cyy, cyd, seg, nobs = sy * sy, sy * sd, sd * sd, n + 0.0
        for centred, raw in ((cyy, syy), (cyd, syd), (seg, sdd)):  # cyy = syy - sy^2 / n, ...
            np.subtract(raw, np.divide(centred, nobs, out=centred), out=centred)
        with np.errstate(divide="ignore", invalid="ignore"):
            seg -= np.divide(np.multiply(cyd, cyd, out=cyd), cyy, out=cyd)
        np.maximum(seg, 0.0, out=seg)
        np.copyto(seg, np.inf, where=~(cyy > 1e-12 * syy))
        yield i0, nl, b, n, seg
        i0 += nl


def _search_models(v, min_seg):
    """Minimum-SSR admissible dates of every regime model in one pass.

    A candidate's SSR is head(a) + seg(a, b) + rest(b), head(a) the raw
    squared differences of rows 2..a, so every model shares the best
    origin of a peak b, f(b) = min over a >= ms, b - a >= ms, v_a < v_b
    of head(a) + seg(a, b).  The rest after the peak is nothing (model 1,
    b = T), the raw tail (model 2), seg(b, T) with v_b > v_T (model 3), or
    g(b) = min over c in [b+ms, T-ms], v_c < v_b of seg(b, c) + tail(c)
    (model 4).  Each block of :func:`_segment_ssrs` updates f by its
    segments ending at each peak (ties to the longer, the smaller a) and
    g by those starting there (ties to the shorter, the smaller c); ties
    between peaks go to the smallest (a, b).  Returns {model: (ssr, (a,
    b, c))} for the models with an admissible candidate, in the layout of
    :class:`ModelSelection`.
    """
    T, ms = v.size, min_seg
    d2 = np.diff(v) ** 2
    # by date j = 1..T, at row j + P of each view: y_j, and head(j) and
    # tail(j), +inf where j is no admissible origin or recovery; NaN outside
    P, pad = T + 1, np.full(T + 1, np.nan)
    y, head, tail = (
        np.lib.stride_tricks.sliding_window_view(np.r_[pad, x, pad, pad], P)
        for x in (
            np.r_[np.nan, v],
            np.r_[np.full(ms, np.inf), np.cumsum(d2)[ms - 2 :]],
            np.r_[np.inf, np.cumsum(d2[::-1])[::-1][: T - ms], np.full(ms, np.inf)],
        )
    )
    f, g, to_end = np.full((3, T + 1), np.inf)  # by peak
    flen, glen = np.zeros((2, T + 1), dtype=np.int64)  # the lengths attaining f and g
    for i0, nl, b, n, seg in _segment_ssrs(v, ms):
        # one grid, two views: by start, S[l, a - lo] = seg(a, a+i0+1+l); by
        # end, longest first, E[r, b - e0] = seg(b-i0-nl+r, b), so a = lo+r+b-e0
        e0, ne = b[0], T - b[0] + 1
        lo, span = e0 - i0 - nl, ne + nl
        S = np.full(nl * span, np.inf)
        S[n * (span - 1) + b - (i0 + 1) * span - lo] = seg
        E, S = S[nl - 1 : nl - 1 + nl * (span - 1)].reshape(nl, span - 1)[::-1, :ne], S.reshape(nl, span)
        to_end[T - i0 - nl : T - i0] = E[:, -1]
        # peaks from 2 ms with a recovery a+i0+1 <= T - ms: columns skip..skip+w of S
        skip = max(0, 2 * ms - lo)
        w = max(0, T - ms - i0 - lo - skip)
        F, G = np.full((nl, ne), np.inf), np.full((nl, w), np.inf)
        a, c = lo + P, lo + skip + i0 + 1 + P
        np.add(E, head[a : a + nl, :ne], out=F, where=y[a : a + nl, :ne] < y[e0 + P, :ne])
        np.add(S[:, skip : skip + w], tail[c : c + nl, :w], out=G, where=y[c : c + nl, :w] < y[a + skip, :w])
        for best, size, grid, at, origin in ((f, flen, F, e0, True), (g, glen, G, lo + skip, False)):
            new, run = grid.min(axis=0), best[at : at + grid.shape[1]]
            take = np.flatnonzero(new <= run if origin else new < run)
            i = grid[:, take].argmin(axis=0)
            run[take], size[at + take] = new[take], i0 + nl - i if origin else i0 + 1 + i
    bs = np.arange(2 * ms, T + 1)
    rests = (np.where(bs == T, 0.0, np.inf), tail[P, bs], np.where(v[bs - 1] > v[T - 1], to_end[bs], np.inf), g[bs])
    found = {}
    for m, rest in enumerate(rests, 1):
        ssr = f[bs] + rest
        if np.isfinite(top := np.min(ssr, initial=np.inf)):
            tied = bs[ssr == top]
            b = int(tied[np.argmin(tied - flen[tied])])
            found[m] = (float(top), (b - int(flen[b]), b, (T, b, T, b + int(glen[b]))[m - 1]))
    return found


def _regime_episode(model: int, a: int, b: int, c: int, T: int) -> Episode:
    """The episode of regime model ``model`` at dates (a, b, c): a
    recovery at c only for the models with a collapse regime (3, 4)."""
    if model in (3, 4):
        return Episode(a / T, b / T, a, b, recovery=c / T, recovery_index=c, model=model)
    return Episode(a / T, b / T, a, b, model=model)


def select_model_bic(
    series,
    min_seg: int = DEFAULT_MIN_SEGMENT,
    models=(1, 2, 3, 4),
) -> ModelSelection:
    """Choose the regime model and dates by penalized SSR comparison.

    Every model's SSR is minimized over all integer dates of its
    admissible grid, then models are compared by T·log(SSR/T) plus a
    penalty of 3, 4, 6, or 7 times log T counting coefficients and
    estimated dates.  Ties prefer the smaller model.  Intended to run
    after a detection pass has already flagged an episode.  Each model
    carries the date triple (a, b, c) of :class:`ModelSelection`;
    ``dates[m]`` keeps its first 1, 2, 2 or 3 entries.
    """
    v = as_values(series)
    T = v.size
    if min_seg < 2:
        raise ValueError(f"min_seg must be >= 2, got {min_seg}")
    for m in models:
        if m not in BIC_PENALTY:
            raise ValueError(f"unknown model {m}")
    found = _search_models(v, min_seg)
    bics: dict[int, float] = {}
    ssrs: dict[int, float] = {}
    dates: dict[int, tuple[int, ...]] = {}
    for m in models:
        if m not in found:
            continue
        ssr, abc = found[m]
        if not ssr > 0:
            # an exact fit: the penalty comparison degenerates, keep it as
            # a perfect candidate with formally infinite preference
            bics[m] = -np.inf
        else:
            bics[m] = T * math.log(ssr / T) + BIC_PENALTY[m] * math.log(T)
        ssrs[m] = ssr
        dates[m] = abc[: _N_DATES[m]]
    if not bics:
        raise DegenerateFitError(
            "no admissible regime candidate in any model; the sample is too "
            "short or too degenerate for date fitting"
        )
    winner = min(bics, key=lambda m: (bics[m], m))
    a, b, c = found[winner][1]
    return ModelSelection(
        model=winner,
        episode=_regime_episode(winner, a, b, c, T),
        bic=bics,
        ssr=ssrs,
        dates=dates,
        fit=_fit_regimes(v, winner, a, b, c),
    )


def two_step_stamp(
    series,
    tau0: float | None = None,
    det: str = "const",
    k: int = 0,
    cv=None,
    min_duration: float | None = None,
    delta: float = 1.0,
    min_seg: int = DEFAULT_MIN_SEGMENT,
) -> list[Episode]:
    """Crossing-based stamping refined by per-episode regime-model fits.

    Step one stamps episodes from the backward sup curve and merges
    consecutive ones less than the duration floor (``min_duration`` * T
    observations) apart, so a short dip below the critical value does not
    split a bubble.  Step two splits the sample at midpoints between
    consecutive episodes and reruns the penalized model search on each
    piece, replacing the stamped dates with the fitted ones (mapped back
    to full-sample indices).  Episodes whose piece admits no regime
    candidate keep their stamped dates.
    """
    v = as_values(series)
    T = v.size
    if min_duration is None:
        min_duration = default_min_duration(T, delta)
    sup = recursive.gsadf(v, tau0=tau0, det=det, k=k)
    rough: list[Episode] = []
    for ep in psy_stamp(sup.sequence, cv=cv, min_duration=min_duration):
        if rough and ep.origin_index - rough[-1].collapse_index < min_duration * T:
            ep = replace(rough.pop(), collapse=ep.collapse, collapse_index=ep.collapse_index)
        rough.append(ep)
    refined: list[Episode] = []
    for i, ep in enumerate(rough):
        lo = 1 if i == 0 else (rough[i - 1].collapse_index + ep.origin_index) // 2
        hi = T if i == len(rough) - 1 else (ep.collapse_index + rough[i + 1].origin_index) // 2
        piece = v[lo - 1 : hi]
        try:
            sel = select_model_bic(piece, min_seg=min_seg)
        except DegenerateFitError:
            refined.append(ep)
            continue
        a, b, c = (lo - 1 + d for d in sel.fit.dates)
        refined.append(_regime_episode(sel.model, a, b, c, T))
    return refined


def sign_stamp(
    series,
    tau0: float | None = None,
    epsilon: float = 0.01,
    mode: str = "raw",
    filter_lags: int = 0,
) -> Episode:
    """Date one episode by maximizing the corrected sign statistic.

    The window statistic on the cumulated increment signs is rescaled by
    a between-window variance built from prefix variances, raised to a
    small exponent (default 0.01); jointly maximizing over both window
    ends makes origin and collapse estimates consistent.  The maximizing
    window must span at least the minimum window fraction.
    """
    v = as_values(series)
    T = v.size
    tau0, m0 = _resolve_tau0(T, tau0)
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    C = sign_path(v, mode=mode, filter_lags=filter_lags)
    sxy, sxx, sdd = _sign_moments(C[:, None], strict=True)
    # prefix variances of the sign regression, defined from window (0, e]
    e_all = np.arange(T + 1)[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        s2 = (sdd - sxy * sxy / sxx) / (e_all - 1)
    s2[(sxx <= 0) | (e_all < 2)] = np.nan

    def stat(e, s, n):
        num = e * ols._at(s2, e) - np.where(s > 0, s * ols._at(s2, s), 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            s2c = num / (n - 1)
            b = ols._at(sxx, e) - ols._at(sxx, s)
            st = ((ols._at(sxy, e) - ols._at(sxy, s)) / b) / np.sqrt(s2c**epsilon / b)
        return np.where((b > 0) & (s2c > 0), st, np.nan)

    curve, starts = ols._sup_curve(stat, 1, m0, T)
    if np.isnan(curve).all():
        raise DegenerateFitError("no admissible window for sign-based dating")
    e_star = int(np.nanargmax(curve[0]))  # ties: the earliest endpoint
    s_star = int(starts[0, e_star])
    return Episode(
        origin=s_star / T, collapse=e_star / T, origin_index=s_star, collapse_index=e_star
    )


def training_max_monitor(training: StatSequence, monitor: StatSequence):
    """First monitoring position whose statistic strictly exceeds the
    training maximum, or None.

    A tie with the training maximum is not a detection.
    """
    if training.values.size == 0 or np.all(np.isnan(training.values)):
        raise ValueError("training sequence must contain at least one statistic")
    threshold = float(np.nanmax(training.values))
    above = np.flatnonzero(monitor.values > threshold)
    return int(above[0]) if above.size else None
