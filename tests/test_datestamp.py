"""Episode dating: crossing rules, start refinement, regime models, sign dating."""

import csv
import functools
import inspect
import json
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import oracles
from exuberance import ols, recursive
from exuberance.datestamp import (
    BIC_PENALTY,
    _segment_ssrs,
    CvSequence,
    Episode,
    bic_init,
    default_min_duration,
    episodes_to_csv,
    episodes_to_json,
    fit_bubble_model,
    psy_stamp,
    pwy_stamp,
    rule_critical_value,
    select_model_bic,
    sign_stamp,
    training_max_monitor,
    two_step_stamp,
)
from exuberance.dgpsim import DgpSpec, simulate
from exuberance.exceptions import DegenerateFitError
from exuberance.recursive import StatSequence
from exuberance.series import Series, frac_to_index


def _collapse_bubbles():
    """40 collapsing bubbles at T = 300, no seed dropped: 3% growth for
    0.15T from an origin in [0.35T, 0.45T), then 4% decay for 0.05T.
    Yields (seed, series, (origin, collapse, recovery) indices)."""
    T = 300
    for seed in range(40):
        tau_e = float(np.random.default_rng(seed).uniform(0.35, 0.45))
        spec = DgpSpec(
            kind="collapse_bubble", T=T, tau_e=tau_e, tau_c=tau_e + 0.15,
            tau_r=tau_e + 0.2, delta1=0.03, delta2=0.04, y0=100.0, seed=seed,
        )
        yield seed, simulate(spec), spec.dates()


@functools.cache
def _collapse_fits():
    """``select_model_bic`` and ``two_step_stamp(k=2)`` on each draw of
    :func:`_collapse_bubbles`, computed once for every test that reads
    them.  A tuple of (seed, values, dates, selection, episodes)."""
    return tuple(
        (seed, y.values, dates, select_model_bic(y), two_step_stamp(y, k=2))
        for seed, y, dates in _collapse_bubbles()
    )


#: Changes of units and level, (a, b) for a * y + b, that change no date.
UNITS = ((1e-12, 0.0), (1e-9, 0.0), (1e9, 0.0), (1e12, 0.0), (1.0, 1e8))


def _unit_dates(y, a, b, origin):
    """The dates of the regime model, of two-step dating and of the start
    behind ``origin`` on ``a * y + b``."""
    v = a * y + b
    sel = select_model_bic(v)
    return (sel.model, sel.fit.dates), two_step_stamp(v, k=2), bic_init(v, origin)


def _walk(seed, T, scale=1.0):
    rng = np.random.default_rng(seed)
    return np.cumsum(scale * rng.standard_normal(T))


def _regime_series(T, origin, peak, recover=None, up=1.05, down=0.85, base=1.0,
                   noise=0.0, seed=0):
    """Piecewise series: flat, explosive up, optional decay, flat tail."""
    rng = np.random.default_rng(seed)
    y = np.empty(T)
    y[:origin] = base
    for t in range(origin, T):
        if t < peak:
            y[t] = up * y[t - 1]
        elif recover is not None and t < recover:
            y[t] = down * y[t - 1]
        else:
            y[t] = y[t - 1]
    if noise:
        y = y + noise * rng.standard_normal(T)
    return y


def _bubble_walk(rng, T, delta, windows, y0=20.0, sigma=1.0):
    """Random walk with explosive windows; collapse resets to the
    pre-bubble level."""
    y = np.empty(T)
    e = rng.standard_normal(T) * sigma
    y[0] = y0 + e[0]
    spans = [(int(a * T), int(b * T)) for a, b in windows]
    for t in range(1, T):
        tt = t + 1
        inside = any(a < tt <= b for a, b in spans)
        reset = next((a for a, b in spans if tt == b + 1), None)
        if inside:
            y[t] = delta * y[t - 1] + e[t]
        elif reset is not None:
            y[t] = y[reset - 1] + e[t]
        else:
            y[t] = y[t - 1] + e[t]
    return y


def _make_seq(values, T, tau0):
    m0 = int(round(tau0 * T))
    vals = np.asarray(values, dtype=float)
    assert vals.size == T - m0 + 1
    return StatSequence(
        kind="bsadf", tau0=tau0, tau2=np.arange(m0, T + 1) / T, values=vals, nobs=T
    )


def _replay_stamp(seq, cv_values, min_duration):
    """Independent replay of the crossing rules used by the stampers."""
    T = seq.nobs
    ends = [int(round(f * T)) for f in seq.tau2]
    out = []
    i = 0
    n = len(ends)
    while i < n:
        if not seq.values[i] > cv_values[i]:
            i += 1
            continue
        o = i
        j = o
        while j < n and ends[j] < ends[o] + min_duration * T - 1e-9:
            j += 1
        while j < n and not seq.values[j] < cv_values[j]:
            j += 1
        if j == n:
            if ends[-1] >= ends[o] + min_duration * T - 1e-9:
                out.append((ends[o], ends[-1]))
            break
        out.append((ends[o], ends[j]))
        i = j
    return out


class TestRuleConstants:
    def test_rule_cv_at_T400(self):
        assert rule_critical_value(400) == (2.0 / 3.0) * math.log(math.log(400) ** 2)

    def test_rule_cv_slowly_increasing(self):
        values = [rule_critical_value(T) for T in (50, 200, 800, 3200)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_rule_cv_needs_three_observations(self):
        with pytest.raises(ValueError):
            rule_critical_value(2)

    def test_default_min_duration(self):
        assert default_min_duration(400) == math.log(400) / 400
        assert default_min_duration(400, delta=2.0) == 2.0 * math.log(400) / 400

    def test_min_duration_validation(self):
        with pytest.raises(ValueError):
            default_min_duration(1)
        with pytest.raises(ValueError):
            default_min_duration(100, delta=0.0)


class TestCvSequence:
    def test_constant_builder(self):
        cv = CvSequence.constant(2.5, 7)
        assert cv.values.shape == (7,)
        assert np.all(cv.values == 2.5)
        assert cv.source == "simulated"

    def test_from_rule_matches_rule_value(self):
        seq = _make_seq(np.zeros(81), 100, 0.2)
        cv = CvSequence.from_rule(seq)
        assert np.all(cv.values == rule_critical_value(100))
        assert cv.source == "asymptotic-rule"

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError):
            CvSequence(np.ones(3), source="guessed")


class TestEpisode:
    def test_fields_and_dict(self):
        ep = Episode(0.3, 0.5, 30, 50, recovery=0.6, recovery_index=60, model=4)
        d = ep.to_dict()
        assert d["origin"] == 0.3 and d["collapse"] == 0.5 and d["recovery"] == 0.6
        assert d["origin_index"] == 30 and d["recovery_index"] == 60 and d["model"] == 4

    def test_origin_must_precede_collapse(self):
        with pytest.raises(ValueError):
            Episode(0.5, 0.5, 50, 50)
        with pytest.raises(ValueError):
            Episode(0.5, 0.4, 50, 40)

    def test_recovery_pairing_and_order(self):
        with pytest.raises(ValueError):
            Episode(0.3, 0.5, 30, 50, recovery=0.6)
        with pytest.raises(ValueError):
            Episode(0.3, 0.5, 30, 50, recovery=0.4, recovery_index=40)

    def test_model_validated(self):
        with pytest.raises(ValueError):
            Episode(0.3, 0.5, 30, 50, model=5)

    def test_json_export(self):
        eps = [Episode(0.3, 0.5, 30, 50), Episode(0.6, 0.7, 60, 70, model=2)]
        loaded = json.loads(episodes_to_json(eps))
        assert len(loaded) == 2
        assert loaded[0]["origin"] == 0.3
        assert loaded[1]["model"] == 2
        assert loaded[0]["recovery"] is None

    def test_csv_export_with_labels(self, tmp_path):
        labels = [f"2001-{i:02d}" for i in range(1, 13)]
        s = Series(values=np.arange(12.0), labels=labels)
        eps = [Episode(3 / 12, 8 / 12, 3, 8)]
        path = tmp_path / "eps.csv"
        episodes_to_csv(path, eps, series=s)
        rows = list(csv.reader(open(path)))
        assert rows[0][-3:] == ["origin_label", "collapse_label", "recovery_label"]
        assert rows[1][rows[0].index("origin_label")] == "2001-03"
        assert rows[1][rows[0].index("collapse_label")] == "2001-08"

    def test_csv_export_without_labels(self, tmp_path):
        path = tmp_path / "eps.csv"
        episodes_to_csv(path, [Episode(0.25, 0.5, 5, 10)])
        rows = list(csv.reader(open(path)))
        assert "origin_label" not in rows[0]
        assert rows[1][rows[0].index("origin_index")] == "5"


class TestCrossingScan:
    def test_always_below_gives_empty_list(self):
        seq = _make_seq(np.full(81, -1.0), 100, 0.2)
        assert pwy_stamp(seq, cv=1.0) == []

    def test_single_crossing_replay(self):
        # up at 0.40, down at 0.60, well beyond the duration floor
        T = 100
        vals = np.full(81, 0.0)
        ends = np.arange(20, T + 1)
        vals[(ends >= 40) & (ends < 60)] = 2.0
        seq = _make_seq(vals, T, 0.2)
        eps = pwy_stamp(seq, cv=1.0, min_duration=0.02)
        assert len(eps) == 1
        assert eps[0].origin == 0.40 and eps[0].collapse == 0.60
        assert eps[0].origin_index == 40 and eps[0].collapse_index == 60

    def test_single_hump_psy(self):
        T = 100
        ends = np.arange(20, T + 1)
        vals = np.where((ends >= 30) & (ends < 50), 2.0, 0.0)
        eps = psy_stamp(_make_seq(vals, T, 0.2), cv=1.0)
        assert [(e.origin, e.collapse) for e in eps] == [(0.3, 0.5)]

    def test_two_humps_restart(self):
        T = 100
        ends = np.arange(20, T + 1)
        vals = np.zeros(ends.size)
        vals[(ends >= 30) & (ends < 50)] = 2.0
        vals[(ends >= 70) & (ends < 78)] = 2.0
        eps = psy_stamp(_make_seq(vals, T, 0.2), cv=1.0)
        assert len(eps) == 2
        assert eps[1].origin_index >= eps[0].collapse_index
        assert (eps[0].origin_index, eps[0].collapse_index) == (30, 50)
        assert (eps[1].origin_index, eps[1].collapse_index) == (70, 78)

    def test_early_dip_does_not_close(self):
        # brief return below cv before the duration floor elapses is ignored
        T = 100
        ends = np.arange(20, T + 1)
        vals = np.zeros(ends.size)
        above = ((ends >= 30) & (ends <= 31)) | ((ends >= 35) & (ends <= 40))
        vals[above] = 2.0
        eps = pwy_stamp(_make_seq(vals, T, 0.2), cv=1.0)  # floor = log(100) obs
        assert [(e.origin_index, e.collapse_index) for e in eps] == [(30, 41)]

    def test_open_episode_with_enough_duration_closes_at_end(self):
        T = 100
        ends = np.arange(20, T + 1)
        vals = np.where(ends >= 90, 2.0, 0.0)
        eps = pwy_stamp(_make_seq(vals, T, 0.2), cv=1.0)
        assert [(e.origin_index, e.collapse_index) for e in eps] == [(90, 100)]

    def test_terminal_blip_shorter_than_floor_dropped(self):
        T = 100
        ends = np.arange(20, T + 1)
        vals = np.where(ends >= 98, 2.0, 0.0)
        assert pwy_stamp(_make_seq(vals, T, 0.2), cv=1.0) == []

    def test_exact_tie_never_triggers(self):
        seq = _make_seq(np.full(81, 1.0), 100, 0.2)
        assert pwy_stamp(seq, cv=1.0) == []

    def test_tie_at_collapse_keeps_episode_open(self):
        T = 100
        ends = np.arange(20, T + 1)
        vals = np.zeros(ends.size)
        vals[(ends >= 30) & (ends < 50)] = 2.0
        vals[(ends >= 50) & (ends < 55)] = 1.0  # equals cv: not a close
        vals[ends >= 55] = 2.0  # back above without ever closing
        eps = pwy_stamp(_make_seq(vals, T, 0.2), cv=1.0)
        assert [(e.origin_index, e.collapse_index) for e in eps] == [(30, 100)]

    def test_nan_windows_neither_open_nor_close(self):
        T = 100
        ends = np.arange(20, T + 1)
        vals = np.zeros(ends.size)
        vals[(ends >= 30) & (ends < 50)] = 2.0
        vals[(ends >= 36) & (ends <= 38)] = np.nan
        eps = pwy_stamp(_make_seq(vals, T, 0.2), cv=1.0)
        assert [(e.origin_index, e.collapse_index) for e in eps] == [(30, 50)]

    def test_rule_cv_is_default_gate(self):
        T = 400
        m0 = 80
        vals = np.full(T - m0 + 1, rule_critical_value(T) + 0.01)
        vals[-1] = 0.0
        seq = StatSequence(
            kind="sadf", tau0=0.2, tau2=np.arange(m0, T + 1) / T, values=vals, nobs=T
        )
        eps = pwy_stamp(seq)
        assert len(eps) == 1 and eps[0].origin_index == m0
        # a hair below the rule value never triggers
        seq2 = StatSequence(
            kind="sadf", tau0=0.2, tau2=np.arange(m0, T + 1) / T,
            values=np.full(T - m0 + 1, rule_critical_value(T) - 0.01), nobs=T,
        )
        assert pwy_stamp(seq2) == []

    def test_cv_length_mismatch_rejected(self):
        seq = _make_seq(np.zeros(81), 100, 0.2)
        with pytest.raises(ValueError):
            pwy_stamp(seq, cv=CvSequence(np.ones(5)))

    def test_min_duration_bounds(self):
        seq = _make_seq(np.zeros(81), 100, 0.2)
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                pwy_stamp(seq, cv=1.0, min_duration=bad)

    def test_matches_independent_replay_on_real_sequences(self):
        for seed in range(10):
            v = _walk(seed, 120)
            v[60:90] += np.linspace(0, 12, 30)
            seq = recursive.sadf(v).sequence
            md = default_min_duration(120)
            got = [(e.origin_index, e.collapse_index)
                   for e in pwy_stamp(seq, cv=0.8, min_duration=md)]
            want = _replay_stamp(seq, np.full(seq.values.size, 0.8), md)
            assert got == want

    def test_episode_invariants_on_stamped_output(self):
        for seed in range(8):
            v = _walk(seed, 150)
            v[80:115] += np.linspace(0, 10, 35)
            seq = recursive.gsadf(v).sequence
            eps = psy_stamp(seq, cv=0.9)
            md = default_min_duration(150)
            prev_end = -1
            for ep in eps:
                assert ep.origin < ep.collapse
                assert ep.collapse - ep.origin >= md - 1e-9
                assert ep.origin_index > prev_end
                prev_end = ep.collapse_index
                assert frac_to_index(ep.origin, 150) == ep.origin_index
                assert frac_to_index(ep.collapse, 150) == ep.collapse_index


class TestPsyFindsSecondBubble:
    def test_short_second_bubble_found_by_backward_sup_not_prefix(self):
        # two explosive windows, the second much shorter; the backward sup
        # scan recovers both while the expanding-prefix scan, dominated by
        # the first collapse, usually misses the second
        T, R = 400, 60
        rng = np.random.default_rng(2024)
        psy_both = pwy_both = 0
        for _ in range(R):
            y = _bubble_walk(rng, T, 1.10, [(0.20, 0.32), (0.60, 0.66)])
            def hits(eps):
                first = any(0.15 <= e.origin <= 0.40 for e in eps)
                second = any(0.55 <= e.origin <= 0.75 for e in eps)
                return first and second
            psy_both += hits(psy_stamp(recursive.gsadf(y).sequence))
            pwy_both += hits(pwy_stamp(recursive.sadf(y).sequence))
        assert psy_both >= 0.70 * R
        assert pwy_both <= 0.50 * R


def _bic_walk_replay(v, origin_index, n_min):
    """Independent replay of the backward start-selection walk."""
    start = origin_index - n_min
    while True:
        rows = np.arange(start + 1, origin_index + 1)
        y_t = v[rows - 1]
        y_lag = v[rows - 2]
        n = rows.size
        d = y_t - y_lag
        ssr_ur = float(np.sum((d - d.mean()) ** 2))
        X = np.column_stack([np.ones(n), y_lag])
        beta, *_ = np.linalg.lstsq(X, y_t, rcond=None)
        ssr_ar = float(np.sum((y_t - X @ beta) ** 2))
        bic_ur = math.log(ssr_ur / n) + math.log(n) / n
        bic_ar = math.log(ssr_ar / n) + 2 * math.log(n) / n
        if bic_ur > bic_ar and beta[1] > 1.0 and start > 1:
            start -= 1
        else:
            return start


class TestBicInit:
    def test_matches_independent_replay(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            y = np.cumsum(rng.standard_normal(150))
            y[80:110] = y[79] * 1.05 ** np.arange(1, 31)
            assert bic_init(y, 100, n_min=8) == _bic_walk_replay(y, 100, 8)
            z = np.cumsum(rng.standard_normal(150))
            assert bic_init(z, 100, n_min=8) == _bic_walk_replay(z, 100, 8)

    def test_never_later_than_first_window_start(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            y = np.cumsum(rng.standard_normal(120))
            out = bic_init(y, 90, n_min=10)
            assert 1 <= out <= 80

    def test_random_walk_stops_at_first_window(self):
        # with no explosive signal the random-walk model wins immediately,
        # so the start stays at origin - n_min in almost every replication
        rng = np.random.default_rng(123)
        stays = 0
        for _ in range(200):
            y = np.cumsum(rng.standard_normal(200))
            stays += bic_init(y, 100, n_min=10) == 90
        assert stays >= 180

    def test_explosive_regime_extends_walk(self):
        rng = np.random.default_rng(124)
        extended = 0
        for _ in range(100):
            y = np.cumsum(rng.standard_normal(200))
            y[120:150] = y[119] * 1.05 ** np.arange(1, 31)
            y[150:] = y[149] + np.cumsum(rng.standard_normal(50))
            extended += bic_init(y, 140, n_min=10) < 130
        assert extended >= 80

    def test_deterministic(self):
        y = _walk(77, 150)
        assert bic_init(y, 90) == bic_init(y, 90)

    def test_default_n_min_is_tenth_of_history(self):
        y = _walk(3, 150)
        assert bic_init(y, 100) == bic_init(y, 100, n_min=9)
        y2 = _walk(4, 60)
        assert bic_init(y2, 31) == bic_init(y2, 31, n_min=3)

    def test_validation(self):
        y = _walk(1, 50)
        with pytest.raises(ValueError):
            bic_init(y, 60, n_min=5)
        with pytest.raises(ValueError):
            bic_init(y, 30, n_min=2)
        with pytest.raises(ValueError):
            bic_init(y, 5, n_min=10)

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateFitError):
            bic_init(np.ones(60), 40, n_min=5)


class TestFitBubbleModel:
    def _oracle_args(self, model, dates):
        a, b, c = dates
        if model == 1:
            return (a,)
        if model in (2, 3):
            return (a, b)
        return (a, b, c)

    def test_matches_oracle_on_noisy_data(self):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            v = np.cumsum(rng.standard_normal(60))
            v[20:35] += np.linspace(0, 8, 15)
            T = v.size
            cases = [
                (1, (20 / T, 1.0, 1.0)),
                (2, (20 / T, 35 / T, 35 / T)),
                (3, (20 / T, 35 / T, 1.0)),
                (4, (20 / T, 35 / T, 50 / T)),
            ]
            for model, dates in cases:
                fit = fit_bubble_model(v, model, dates)
                ssr, valid = oracles.bubble_model_fit(
                    v, model, *self._oracle_args(model, fit.dates)
                )
                assert fit.ssr == pytest.approx(ssr, rel=1e-10)
                assert fit.valid == valid

    def test_noiseless_series_fits_exactly(self):
        T = 60
        scale = 1.05 ** 15
        cases = [
            (1, _regime_series(T, 45, T), (45 / T, 1.0, 1.0)),
            (2, _regime_series(T, 15, 30), (0.25, 0.5, 0.5)),
            (3, _regime_series(T, 30, 45, recover=T), (0.5, 0.75, 1.0)),
            (4, _regime_series(T, 15, 30, recover=40), (0.25, 0.5, 40 / T)),
        ]
        for model, v, dates in cases:
            fit = fit_bubble_model(v, model, dates)
            assert fit.valid
            assert fit.ssr <= 1e-10 * scale ** 2
            assert fit.coeffs[1] == pytest.approx(0.05, abs=1e-6)

    def test_constraint_violating_candidate_flagged(self):
        # explosive regime pointing down: peak ends below the origin level
        T = 40
        v = np.full(T, 4.0)
        for t in range(10, 25):
            v[t] = 0.9 * v[t - 1]
        fit = fit_bubble_model(v, 2, (0.25, 0.625, 0.625))
        assert not fit.valid
        assert np.isfinite(fit.ssr)

    def test_ssr_invariant_to_level_shift(self):
        v = _walk(9, 80)
        v[30:55] += np.linspace(0, 9, 25)
        for model, dates in [(2, (0.3, 0.6, 0.6)), (4, (0.3, 0.55, 0.8))]:
            base = fit_bubble_model(v, model, dates).ssr
            shifted = fit_bubble_model(v + 1000.0, model, dates).ssr
            assert shifted == pytest.approx(base, rel=1e-6)

    def test_model_restrictions_enforced(self):
        v = _walk(2, 50)
        with pytest.raises(ValueError):
            fit_bubble_model(v, 1, (0.3, 0.8, 1.0))
        with pytest.raises(ValueError):
            fit_bubble_model(v, 2, (0.3, 0.5, 0.7))
        with pytest.raises(ValueError):
            fit_bubble_model(v, 3, (0.3, 0.5, 0.9))
        with pytest.raises(ValueError):
            fit_bubble_model(v, 4, (0.5, 0.3, 0.8))
        with pytest.raises(ValueError):
            fit_bubble_model(v, 5, (0.3, 0.5, 0.8))

    def test_short_segments_rejected(self):
        v = _walk(3, 50)
        with pytest.raises(ValueError):
            fit_bubble_model(v, 2, (0.04, 0.5, 0.5))  # pre-break too short
        with pytest.raises(ValueError):
            fit_bubble_model(v, 4, (0.3, 0.34, 0.8))  # explosive too short

    def test_singular_regression_raises(self):
        with pytest.raises(DegenerateFitError):
            fit_bubble_model(np.ones(40), 2, (0.25, 0.6, 0.6))

    def test_fraction_snapping(self):
        v = _walk(4, 100)
        fit = fit_bubble_model(v, 2, (0.29, 0.58, 0.58))
        assert fit.dates == (29, 58, 58)


def _model_search_cases():
    """The (series, min_seg) cases of the regime-model oracle test:
    noisy bubbles, integer steps with exact SSR ties, samples too short
    for some models, and a recovery level just above the peak."""
    cases = []
    for seed in (11, 12, 13):
        rng = np.random.default_rng(seed)
        v = np.cumsum(rng.standard_normal(40))
        v[12:24] += np.linspace(0, 6, 12)
        cases.append((v, 3))
        if seed == 11:
            cases += [(v, 2), (v, 5)]
    for seed, T, ms in ((14, 20, 2), (116, 24, 3), (181, 24, 3), (186, 24, 3),
                        (191, 24, 3)):
        rng = np.random.default_rng(seed)
        cases.append((np.cumsum(rng.integers(-1, 2, T)).astype(float), ms))
    cases += [(_walk(3, 8), 3), (_walk(4, 10), 3)]
    rng = np.random.default_rng(3)
    level = np.cumsum(0.3 * rng.standard_normal(36))
    level[10:20] += np.linspace(0, 5, 10)
    for t in range(20, 36):
        gap = level[t - 1] - level[19] - 0.2
        level[t] = level[19] + 0.2 - 0.6 * gap + 0.3 * rng.standard_normal()
    cases.append((level, 3))
    return cases


class TestSelectModelBic:
    def test_penalty_constants(self):
        assert BIC_PENALTY == {1: 3, 2: 4, 3: 6, 4: 7}

    def test_per_model_search_matches_oracle(self):
        cases = []
        for seed in (11, 12, 13):
            rng = np.random.default_rng(seed)
            v = np.cumsum(rng.standard_normal(40))
            v[12:24] += np.linspace(0, 6, 12)
            cases.append((v, 3))
            if seed == 11:
                cases += [(v, 2), (v, 5)]
        # integer steps in {-1, 0, 1}: exact SSR ties at the minimum between
        # peaks (seeds 14 and 116), between origins at one peak (181, 191)
        # and between recovery dates (186)
        for seed, T, ms in ((14, 20, 2), (116, 24, 3), (181, 24, 3), (186, 24, 3),
                            (191, 24, 3)):
            rng = np.random.default_rng(seed)
            cases.append((np.cumsum(rng.integers(-1, 2, T)).astype(float), ms))
        # too short for models 2-4 (T = 8) and for model 4 (T = 10)
        cases += [(_walk(3, 8), 3), (_walk(4, 10), 3)]
        # a post-peak regime oscillating about a level just above the peak:
        # the best recovery date ignoring the level rule lies above the peak
        rng = np.random.default_rng(3)
        level = np.cumsum(0.3 * rng.standard_normal(36))
        level[10:20] += np.linspace(0, 5, 10)
        for t in range(20, 36):
            gap = level[t - 1] - level[19] - 0.2
            level[t] = level[19] + 0.2 - 0.6 * gap + 0.3 * rng.standard_normal()
        cases.append((level, 3))
        for v, ms in cases:
            for model in (1, 2, 3, 4):
                o_ssr, o_dates = oracles.bubble_model_search(v, model, min_seg=ms)
                if not np.isfinite(o_ssr):
                    with pytest.raises(DegenerateFitError):
                        select_model_bic(v, min_seg=ms, models=(model,))
                    continue
                sel = select_model_bic(v, min_seg=ms, models=(model,))
                n_dates = {1: 1, 2: 2, 3: 2, 4: 3}[model]
                assert sel.dates[model] == o_dates[:n_dates]
                assert sel.ssr[model] == pytest.approx(o_ssr, rel=1e-9)
        a, b, c = select_model_bic(level, models=(4,)).dates[4]
        free = min(
            (oracles.bubble_model_fit(level, 4, a, b, cc)[0], cc)
            for cc in range(b + 3, level.size - 2)
        )
        assert level[free[1] - 1] >= level[b - 1] > level[c - 1]

    def test_winner_fit_and_episode_follow_its_dates(self):
        # dates[m] read in model m's layout: b = c = T (1), c = b (2), c = T (3)
        n = 0
        for v, ms in _model_search_cases():
            T = v.size
            for model in (1, 2, 3, 4):
                try:
                    sel = select_model_bic(v, min_seg=ms, models=(model,))
                except DegenerateFitError:
                    continue
                n += 1
                a, b, c = {
                    1: lambda a: (a, T, T),
                    2: lambda a, b: (a, b, b),
                    3: lambda a, b: (a, b, T),
                    4: lambda a, b, c: (a, b, c),
                }[model](*sel.dates[model])
                want = fit_bubble_model(v, model, (a / T, b / T, c / T), min_seg=ms)
                got = sel.fit
                assert (got.model, got.ssr, got.valid) == (want.model, want.ssr, want.valid)
                assert (got.dates, got.fractions) == (want.dates, want.fractions)
                assert np.array_equal(got.coeffs, want.coeffs)
                assert got.ssr == pytest.approx(sel.ssr[model], rel=1e-9, abs=1e-9)
                recovery = model in (3, 4)
                assert sel.episode == Episode(
                    a / T, b / T, a, b,
                    recovery=c / T if recovery else None,
                    recovery_index=c if recovery else None,
                    model=model,
                )
        assert n == 39  # 14 cases x 4 models, less those without an admissible candidate

    @pytest.mark.parametrize("nl", [1, 2, 7])
    def test_length_blocks_change_no_date(self, monkeypatch, nl):
        # the oracle cases fit one block of segment lengths; in blocks of nl
        # lengths, exact ties between origins or recoveries fall in
        # different blocks and must still go to the smallest date
        want = [self._selection(v, ms) for v, ms in _model_search_cases()]
        monkeypatch.setattr(ols, "_lengths", lambda ne, rows, left: min(nl, ne, left))
        assert [self._selection(v, ms) for v, ms in _model_search_cases()] == want

    def test_recovery_tie_goes_to_the_smallest_date(self):
        # model 4 fits (3, 7, 10) and (3, 7, 11) equally well in exact
        # arithmetic, so the earlier recovery wins
        v = np.array([1, 2, 1, 2, 1, 1, 2, 2, 1, 1, 1, 0, 0, 0], dtype=float)
        for model in (2, 3, 4):  # model 1 has no origin below y_T = 0
            o_ssr, o_dates = oracles.bubble_model_search(v, model, min_seg=3)
            sel = select_model_bic(v, min_seg=3, models=(model,))
            assert sel.dates[model] == o_dates[: len(sel.dates[model])]
            assert sel.ssr[model] == pytest.approx(o_ssr, rel=1e-12)

    @staticmethod
    def _selection(v, ms):
        try:
            sel = select_model_bic(v, min_seg=ms)
        except DegenerateFitError:
            return None
        return sel.model, sel.dates, sel.ssr

    def test_bic_formula(self):
        v = _walk(21, 80)
        v[30:55] += np.linspace(0, 10, 25)
        sel = select_model_bic(v)
        T = v.size
        for m, ssr in sel.ssr.items():
            if ssr > 0:
                want = T * math.log(ssr / T) + BIC_PENALTY[m] * math.log(T)
                assert sel.bic[m] == pytest.approx(want, rel=1e-12)

    def test_noiseless_model2_selected_with_exact_dates(self):
        v = _regime_series(60, 15, 30)
        sel = select_model_bic(v)
        assert sel.model == 2
        assert sel.dates[2] == (15, 30)
        assert sel.ssr[2] <= 1e-12
        ep = sel.episode
        assert (ep.origin_index, ep.collapse_index) == (15, 30)
        assert ep.recovery is None and ep.model == 2

    def test_noiseless_model1_selected_when_explosive_to_end(self):
        v = _regime_series(60, 45, 60)
        sel = select_model_bic(v)
        assert sel.model == 1
        assert sel.dates[1] == (45,)
        ep = sel.episode
        assert ep.collapse == 1.0 and ep.recovery is None

    def test_noiseless_model3_episode_shape(self):
        v = _regime_series(60, 30, 45, recover=60)
        sel = select_model_bic(v)
        assert sel.model == 3
        assert sel.dates[3] == (30, 45)
        ep = sel.episode
        assert ep.recovery == 1.0 and ep.recovery_index == 60

    def test_noiseless_model4_episode_shape(self):
        v = _regime_series(60, 15, 30, recover=40)
        sel = select_model_bic(v)
        assert sel.model == 4
        assert sel.dates[4] == (15, 30, 40)
        ep = sel.episode
        assert ep.recovery_index == 40 and ep.recovery == 40 / 60

    def test_model4_recovered_in_majority_of_noisy_replications(self):
        rng = np.random.default_rng(505)
        T, R = 200, 30
        wins = 0
        close = 0
        for _ in range(R):
            y = np.empty(T)
            e = rng.standard_normal(T)
            y[0] = 50.0 + e[0]
            a, b, c = int(0.3 * T), int(0.5 * T), int(0.65 * T)
            for t in range(1, T):
                tt = t + 1
                if a < tt <= b:
                    y[t] = 1.08 * y[t - 1] + e[t]
                elif b < tt <= c:
                    y[t] = 0.92 * y[t - 1] + e[t]
                else:
                    y[t] = y[t - 1] + e[t]
            sel = select_model_bic(y)
            if sel.model == 4:
                wins += 1
                da, db, dc = sel.dates[4]
                if max(abs(da - a), abs(db - b), abs(dc - c)) <= 0.05 * T:
                    close += 1
        assert wins >= 0.6 * R
        assert close >= 0.8 * wins

    def test_validation(self):
        v = _walk(1, 50)
        with pytest.raises(ValueError):
            select_model_bic(v, min_seg=1)
        with pytest.raises(ValueError):
            select_model_bic(v, models=(9,))
        with pytest.raises(DegenerateFitError):
            select_model_bic(_walk(2, 5))


#: Largest error of a segment or candidate SSR against a reference, as a
#: share of dy'dy over the same rows: the largest measured on the inputs
#: of TestSegmentSsrs, 5.2e-14 (the 5% bubble), rounded up to a power of
#: ten.  The candidate SSRs of TestSearchOptimality measured 5.2e-16.
SSR_BOUND = 1e-13


def _segment_reference(v, a, b):
    """Long-double two-pass SSR of dy on [1, y_(t-1)] over rows t =
    a+1..b, and dy'dy over them, for segments (a, b] of one length."""
    x = v.astype(np.longdouble)
    t = a[:, None] + np.arange(1, b[0] - a[0] + 1)
    dy, lag = x[t - 1] - x[t - 2], x[t - 2]
    dc, lc = dy - dy.mean(axis=1, keepdims=True), lag - lag.mean(axis=1, keepdims=True)
    cyy, cyd, cdd = (lc * lc).sum(axis=1), (lc * dc).sum(axis=1), (dc * dc).sum(axis=1)
    return cdd - cyd * cyd / cyy, (dy * dy).sum(axis=1)


class TestSegmentSsrs:
    def test_every_segment_matches_long_double_reference(self):
        # a walk at a high level, 3% and 5% bubbles from 100 (from t = 105
        # to 165, then back to the pre-bubble level), the 3% one at + 1e4
        T, ms = 300, 3
        walk = 100 + np.cumsum(np.random.default_rng(71).standard_normal(T))
        b3, b5 = (
            _bubble_walk(np.random.default_rng(seed), T, growth, [(0.35, 0.55)], y0=100.0)
            for seed, growth in ((72, 1.03), (73, 1.05))
        )
        want = {(b - n, b) for n in range(ms, T - ms + 1) for b in range(max(2 * ms, n + 1), T + 1)}
        for v in (walk + 1e6, b3, b5, b3 + 1e4):
            seen = set()
            for _, _, b, n, seg in _segment_ssrs(v, ms):
                seen.update(zip((b - n).tolist(), b.tolist()))
                for length in np.unique(n):
                    at = n == length
                    ref, dd = _segment_reference(v, b[at] - length, b[at])
                    assert np.isfinite(seg[at]).all()
                    assert (np.abs(seg[at] - ref) <= SSR_BOUND * dd).all()
            assert seen == want


def _two_step_bubble(seed, T=300):
    """A collapsing bubble as ``datestamp-two-step`` draws them: a unit
    root from 100, growth at 1.03 on a < t <= a+45 from a in [105, 135),
    decay at 0.96 on a+45 < t <= a+60, N(0, 1) innovations."""
    rng = np.random.default_rng(seed)
    a = int(rng.integers(105, 135))
    e = rng.standard_normal(T)
    y, prev = np.empty(T), 100.0
    for t in range(1, T + 1):
        prev = (1.03 if a < t <= a + 45 else 0.96 if a + 45 < t <= a + 60 else 1.0) * prev + e[t - 1]
        y[t - 1] = prev
    return y


class TestSearchOptimality:
    @pytest.mark.parametrize("seed", range(2201, 2207))
    def test_models_fit_their_dates_and_no_neighbour_fits_better(self, seed):
        y, ms = _two_step_bubble(seed), 3
        T, scale = y.size, SSR_BOUND * float(np.diff(y) @ np.diff(y))
        sel = select_model_bic(y, min_seg=ms)

        def triple(model, dates):
            return {1: lambda a: (a, T, T), 2: lambda a, b: (a, b, b),
                    3: lambda a, b: (a, b, T), 4: lambda a, b, c: (a, b, c)}[model](*dates)

        def dense(model, abc):
            return fit_bubble_model(y, model, tuple(d / T for d in abc), min_seg=ms)

        for m, dates in sel.dates.items():
            assert abs(sel.ssr[m] - dense(m, triple(m, dates)).ssr) <= scale, m
        best = dense(sel.model, sel.fit.dates).ssr
        wins = sel.dates[sel.model]
        for step in np.ndindex(*(3,) * len(wins)):
            moved = tuple(d + s - 1 for d, s in zip(wins, step))
            try:
                fit = dense(sel.model, triple(sel.model, moved))
            except ValueError:  # too short a regime, or dates out of order
                continue
            if fit.valid:
                assert fit.ssr >= best - scale, moved


class TestTwoStep:
    def test_no_episodes_gives_empty_list(self):
        assert two_step_stamp(_walk(12, 150), cv=50.0) == []

    def test_single_episode_refit_uses_full_sample(self):
        rng = np.random.default_rng(88)
        y = _bubble_walk(rng, 150, 1.07, [(0.4, 0.6)], y0=40.0)
        two = two_step_stamp(y)
        assert len(two) == 1
        sel = select_model_bic(y)
        got = two[0]
        assert got.model == sel.model
        assert got.origin_index == sel.episode.origin_index
        assert got.collapse_index == sel.episode.collapse_index
        assert got.recovery_index == sel.episode.recovery_index

    def test_refined_dates_inside_their_pieces(self):
        rng = np.random.default_rng(99)
        y = _bubble_walk(rng, 300, 1.09, [(0.25, 0.4), (0.65, 0.78)], y0=40.0)
        rough = psy_stamp(recursive.gsadf(y).sequence)
        refined = two_step_stamp(y)
        assert len(refined) == len(rough)
        T = y.size
        for i, ep in enumerate(refined):
            lo = 1 if i == 0 else (rough[i - 1].collapse_index + rough[i].origin_index) // 2
            hi = T if i == len(rough) - 1 else (
                (rough[i].collapse_index + rough[i + 1].origin_index) // 2
            )
            assert lo <= ep.origin_index <= ep.collapse_index <= hi
            if ep.recovery_index is not None:
                assert ep.recovery_index <= hi

    def test_refined_episode_is_its_piece_selection_shifted(self):
        # same two-bubble series as test_refined_dates_inside_their_pieces
        rng = np.random.default_rng(99)
        y = _bubble_walk(rng, 300, 1.09, [(0.25, 0.4), (0.65, 0.78)], y0=40.0)
        rough = psy_stamp(recursive.gsadf(y).sequence)
        refined = two_step_stamp(y)
        assert len(refined) == len(rough) == 2
        T = y.size
        for i, ep in enumerate(refined):
            lo = 1 if i == 0 else (rough[i - 1].collapse_index + rough[i].origin_index) // 2
            hi = T if i == len(rough) - 1 else (
                (rough[i].collapse_index + rough[i + 1].origin_index) // 2
            )
            sub = select_model_bic(y[lo - 1 : hi]).episode
            shift = lo - 1
            recovery = None if sub.recovery_index is None else sub.recovery_index + shift
            assert ep == Episode(
                (sub.origin_index + shift) / T,
                (sub.collapse_index + shift) / T,
                sub.origin_index + shift,
                sub.collapse_index + shift,
                recovery=None if recovery is None else recovery / T,
                recovery_index=recovery,
                model=sub.model,
            )

    def test_simulated_bubbles_come_back_whole(self):
        # a dip of the backward sup curve below the critical value split
        # four of the draws into fragments before close episodes were merged
        T = 300
        floor = default_min_duration(T) * T
        for seed, _, (origin, collapse, _), _, episodes in _collapse_fits():
            near = min(episodes, key=lambda ep: abs(ep.origin_index - origin))
            assert abs(near.origin_index - origin) <= 5, seed
            assert abs(near.collapse_index - collapse) <= 5, seed
            for prev, ep in zip(episodes, episodes[1:]):
                assert ep.origin_index - prev.collapse_index >= floor, seed

    def test_refinement_beats_crossing_dates_on_average(self):
        rng = np.random.default_rng(555)
        R, T = 25, 200
        err_psy = []
        err_two = []
        for _ in range(R):
            y = np.empty(T)
            e = rng.standard_normal(T)
            y[0] = 50.0 + e[0]
            for t in range(1, T):
                tt = t + 1
                if 80 < tt <= 120:
                    y[t] = 1.05 * y[t - 1] + e[t]
                elif 120 < tt <= 140:
                    y[t] = 0.95 * y[t - 1] + e[t]
                else:
                    y[t] = y[t - 1] + e[t]
            eps = psy_stamp(recursive.gsadf(y).sequence)
            two = two_step_stamp(y)
            if eps:
                ep = max(eps, key=lambda q: q.collapse - q.origin)
                err_psy.append(abs(ep.origin - 0.4))
            if two:
                ep = max(two, key=lambda q: q.collapse - q.origin)
                err_two.append(abs(ep.origin - 0.4))
        assert err_psy and err_two
        assert np.mean(err_two) <= np.mean(err_psy)


class TestSignStamp:
    def test_epsilon_default(self):
        sig = inspect.signature(sign_stamp)
        assert sig.parameters["epsilon"].default == 0.01

    def test_matches_exhaustive_oracle(self):
        for seed, T in [(1, 25), (2, 40), (3, 60)]:
            rng = np.random.default_rng(seed)
            v = np.cumsum(rng.standard_normal(T))
            lo, hi = T // 3, 2 * T // 3
            v[lo:hi] += np.linspace(0, 5, hi - lo)
            m0 = 8
            _, dates = oracles.sign_argmax(v, m0)
            ep = sign_stamp(v, tau0=m0 / T)
            assert (ep.origin_index, ep.collapse_index) == dates

    def test_filtered_variant_matches_oracle(self):
        rng = np.random.default_rng(14)
        v = np.cumsum(rng.standard_normal(40))
        v[20:34] += np.linspace(0, 6, 14)
        _, dates = oracles.sign_argmax(v, 10, filter_lags=1)
        ep = sign_stamp(v, tau0=0.25, filter_lags=1)
        assert (ep.origin_index, ep.collapse_index) == dates

    def test_window_respects_minimum_span(self):
        for seed in range(5):
            v = _walk(seed, 50)
            ep = sign_stamp(v, tau0=0.3)
            assert ep.collapse_index - ep.origin_index >= 15
            assert ep.collapse - ep.origin >= 0.3 - 1e-12

    def test_brackets_clear_bubble(self):
        v = _regime_series(120, 50, 90, noise=0.5, seed=42, base=20.0)
        ep = sign_stamp(v, tau0=0.2)
        assert 30 <= ep.origin_index <= 60
        assert 80 <= ep.collapse_index <= 120

    def test_flat_series_raises(self):
        with pytest.raises(DegenerateFitError):
            sign_stamp(np.ones(40), tau0=0.3)

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            sign_stamp(_walk(1, 40), tau0=0.3, epsilon=0.0)


class TestTrainingMaxMonitor:
    def _seq(self, values, T=50):
        vals = np.asarray(values, dtype=float)
        m0 = T - vals.size + 1
        return StatSequence(
            kind="sadf", tau0=m0 / T, tau2=np.arange(m0, T + 1) / T,
            values=vals, nobs=T,
        )

    def test_all_below_gives_none(self):
        tr = self._seq([1.0, 2.0, 1.5])
        mo = self._seq([0.5, 1.9, 2.0])
        assert training_max_monitor(tr, mo) is None

    def test_first_value_above_gives_zero(self):
        tr = self._seq([1.0, 2.0])
        mo = self._seq([2.5, 0.1])
        assert training_max_monitor(tr, mo) == 0

    def test_tie_is_not_detection(self):
        tr = self._seq([1.0, 2.0])
        mo = self._seq([2.0, 2.0, 2.2])
        assert training_max_monitor(tr, mo) == 2

    def test_nan_training_values_ignored(self):
        tr = self._seq([1.0, np.nan, 1.5])
        mo = self._seq([1.6])
        assert training_max_monitor(tr, mo) == 0

    def test_all_nan_training_rejected(self):
        tr = self._seq([np.nan, np.nan])
        mo = self._seq([1.0])
        with pytest.raises(ValueError):
            training_max_monitor(tr, mo)


class TestDatingAccuracy:
    """Dates of the 40 simulated collapsing bubbles of
    :func:`_collapse_bubbles`, every seed kept.  The bounds are the
    measured behaviour of each method, so a change that dates any draw
    worse fails."""

    def test_psy_origin_late_and_collapse_close(self):
        # PSY detects an origin only once the backward sup curve has risen
        # past the critical value, so it is late, never early.  Seeds 5, 18,
        # 30 and 35 split into two episodes at a dip of the curve; seeds 10
        # and 31 add a short false detection far from the bubble
        extra = []
        for seed, y, (origin, collapse, _) in _collapse_bubbles():
            episodes = psy_stamp(recursive.gsadf(y, k=2).sequence)
            near = min(episodes, key=lambda ep: abs(ep.origin_index - origin))
            assert 0 <= near.origin_index - origin <= 31, seed
            last = min(episodes, key=lambda ep: abs(ep.collapse_index - collapse))
            assert 1 <= last.collapse_index - collapse <= 2, seed
            assert len(episodes) <= 2, seed
            if len(episodes) > 1:
                extra.append(seed)
        assert set(extra) <= {5, 10, 18, 30, 31, 35}

    def test_ssr_bic_picks_model_4_with_close_dates(self):
        for seed, _, (origin, collapse, recovery), sel, _ in _collapse_fits():
            ep = sel.episode
            assert sel.model == 4, seed
            assert -2 <= ep.origin_index - origin <= 0, seed
            assert (ep.collapse_index, ep.recovery_index) == (collapse, recovery), seed

    def test_sign_dating_collapse_exact_on_most_draws(self):
        # seeds 5, 10 and 24 date a window far from the bubble
        wild = []
        for seed, y, (origin, collapse, _) in _collapse_bubbles():
            ep = sign_stamp(y)
            if ep.collapse_index != collapse:
                wild.append(seed)
                continue
            assert -41 <= ep.origin_index - origin <= 11, seed
        assert set(wild) <= {5, 10, 24}

    def test_dates_do_not_depend_on_units(self):
        # a price in other units, or an index at a high level, dates the same
        # episode: the regime fits once raised, and two-step dating fell back
        # to its crossing dates, at 1e-12, 1e-9, 1e12 and +1e8
        fits = _collapse_fits()
        want = [
            ((sel.model, sel.fit.dates), episodes, bic_init(y, dates[0]))
            for _, y, dates, sel, episodes in fits
        ]
        jobs = [(y, a, b, dates[0]) for a, b in UNITS for _, y, dates, _, _ in fits]
        # two processes: 200 two-step datings take about 25 s in one
        with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
            got = list(pool.map(_unit_dates, *zip(*jobs), timeout=600))
        assert len(got) == len(jobs)
        for i, (a, b) in enumerate(UNITS):
            for (seed, *_), w, g in zip(fits, want, got[i * len(fits) : (i + 1) * len(fits)]):
                assert g == w, (a, b, seed)
