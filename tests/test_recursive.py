"""Sup-type statistics: oracle equality, nesting, frozen examples."""

import json
from contextlib import suppress

import numpy as np
import pytest

import oracles
from exuberance import DegenerateFitError, adf_stat
from exuberance import bootstrap as bt
from exuberance import ols, recursive
from exuberance.ols import GLS_CBAR, sadf_prefix_stats
from exuberance.recursive import (
    StatSequence,
    end_of_sample_stats,
    gsadf,
    hb_sup_chow,
    sadf,
    sadf_gls,
    union_of_rejections,
)


def _walk(seed, T, drift=0.0):
    rng = np.random.default_rng(seed)
    return np.cumsum(drift + rng.standard_normal(T))


LD = np.longdouble


def _bubble(seed, T, growth, start=40, length=30):
    """A walk from 100 that grows by ``growth`` on start < t <= start+length."""
    e = np.random.default_rng(seed).standard_normal(T)
    y = np.empty(T)
    y[0] = 100.0
    for t in range(1, T):
        y[t] = (growth if start < t <= start + length else 1.0) * y[t - 1] + e[t]
    return y


def _accuracy_classes(T=100):
    """The input classes of the moment routes' accuracy contract."""
    rows = {}
    for s in range(2):
        walk = _walk(500 + s, T)
        rows[f"walk{s}"] = walk
        rows[f"walk{s}+1e6"] = walk + 1e6
        rows[f"int{s}+1e6"] = np.cumsum(np.random.default_rng(510 + s).integers(-3, 4, T)) + 1e6
        rows[f"walk{s}x1e12"] = walk * 1e12
        rows[f"walk{s}x1e-12"] = walk * 1e-12
        rows[f"drift{s}"] = _walk(520 + s, T, drift=0.5)
        rows[f"bubble3%{s}"] = _bubble(530 + s, T, 1.03)
        rows[f"bubble5%{s}"] = _bubble(540 + s, T, 1.05, start=30, length=70)
    return rows


def _gls_ld(y, m0, det):
    """Long-double GLS curve: each prefix detrended on its own by the
    normal equations of the quasi-differenced sample, then the
    no-deterministics AR t-ratio.  The detrending residuals do not move
    with a level shift, so the prefix is taken from y_1, which is exact
    in long double."""
    y = np.asarray(y, dtype=LD)
    out = np.full(y.size + 1, np.nan)
    for e in range(max(m0, 3), y.size + 1):
        w, rho = y[:e] - y[0], LD(1) + LD(GLS_CBAR[det]) / LD(e)
        Z = np.stack([np.ones(e, dtype=LD), np.arange(1, e + 1, dtype=LD)][: 1 + (det == "trend")], axis=1)
        wa, Za = w.copy(), Z.copy()
        wa[1:] -= rho * w[:-1]
        Za[1:] -= rho * Z[:-1]
        M, r = Za.T @ Za, Za.T @ wa
        if det == "const":
            theta = r / M[0, 0]
        else:
            theta = np.array([M[1, 1] * r[0] - M[0, 1] * r[1], M[0, 0] * r[1] - M[0, 1] * r[0]])
            theta /= M[0, 0] * M[1, 1] - M[0, 1] ** 2
        u = w - Z @ theta
        x, du = u[:-1], np.diff(u)
        delta = (x @ du) / (x @ x)
        res = du - delta * x
        out[e] = float(delta / np.sqrt(res @ res / (du.size - 1) / (x @ x)))
    return out


def _hb_ld(y, tau0, k):
    """Long-double sup-Chow curve: each break regression solved by a
    twice-orthogonalised Gram-Schmidt QR."""
    y = np.asarray(y, dtype=LD)
    T = y.size
    yt = y - y.sum() / LD(T)
    dy = np.diff(yt)
    rows = np.arange(k, T - 1)
    out = np.full(int(np.floor((1 - tau0) * T + 1e-9)) + 1, np.nan)
    for b in range(out.size):
        X = np.stack([np.where(rows + 2 > b, yt[rows], 0)] + [dy[rows - j] for j in range(1, k + 1)], axis=1)
        Q, R = np.zeros(X.shape, dtype=LD), np.zeros((k + 1, k + 1), dtype=LD)
        for j in range(k + 1):
            v = X[:, j].copy()
            for _ in range(2):
                c = Q[:, :j].T @ v
                R[:j, j] += c
                v -= Q[:, :j] @ c
            R[j, j] = np.sqrt(v @ v)
            if not R[j, j] > 0:
                break
            Q[:, j] = v / R[j, j]
        else:
            c = Q.T @ dy[rows]
            res = dy[rows] - Q @ c
            Rinv = np.zeros_like(R)
            for j in range(k, -1, -1):  # rows of R^-1, bottom up
                Rinv[j] = (np.eye(k + 1, dtype=LD)[j] - R[j, j + 1 :] @ Rinv[j + 1 :]) / R[j, j]
            beta0 = Rinv[0] @ c
            out[b] = float(beta0 / np.sqrt(res @ res / (rows.size - k - 1) * (Rinv[0] @ Rinv[0])))
    return out


def _rel_err(got, want):
    """Largest error of the finite values relative to max(1, |t|), with the
    NaN patterns equal."""
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    ok = np.isfinite(want)
    return float((np.abs(got[ok] - want[ok]) / np.maximum(1.0, np.abs(want[ok]))).max())


def _exact_break_fit(T=60, phi=0.5, delta=0.05):
    """A series whose demeaned path solves dy_t = delta y_{t-1} + phi dy_{t-1}
    exactly: the k = 1 break regressions with every row switched on fit
    it exactly.  The recursion is linear, so the mean-zero solution is a
    combination of two."""
    def solve(y1, y2):
        y = [y1, y2]
        while len(y) < T:
            y.append((1 + phi + delta) * y[-1] - phi * y[-2])
        return np.array(y)

    a, b = solve(1.0, 0.0), solve(0.0, 1.0)
    return 100.0 + a * b.mean() - b * a.mean()


class TestSadf:
    def test_matches_oracle_small_samples(self):
        for seed in range(6):
            v = _walk(seed, 28)
            r = sadf(v, tau0=0.3)
            want, e_want = oracles.sadf(v, 8)
            assert r.value == pytest.approx(want, abs=1e-9)
            assert r.window == (0, e_want)
            assert r.argmax == (0.0, e_want / 28)

    def test_dominates_full_sample_stat(self):
        # the full-sample statistic is the prefix scan's e = T point, bit
        # for bit, so the sup dominates it by construction
        for seed in range(20):
            v = _walk(seed, 80)
            assert sadf(v).value >= adf_stat(v)
            for det, k in (("const", 0), ("none", 1), ("trend", 2)):
                assert adf_stat(v, det=det, k=k) == sadf_prefix_stats(v, v.size, det=det, k=k)[-1]
                assert sadf(v, det=det, k=k).sequence.values[-1] == adf_stat(v, det=det, k=k)
        with pytest.raises(DegenerateFitError):
            adf_stat(np.full(30, 2.0))

    def test_deterministic(self):
        v = _walk(7, 200)
        assert sadf(v).value == sadf(v.copy()).value

    def test_sequence_structure(self):
        v = _walk(11, 50)
        r = sadf(v, tau0=0.2)
        seq = r.sequence
        assert seq.kind == "sadf"
        assert np.all(np.diff(seq.tau2) > 0)
        assert seq.tau2[0] == pytest.approx(10 / 50)
        assert np.nanmax(seq.values) == r.value

    def test_all_degenerate_raises(self):
        with pytest.raises(DegenerateFitError):
            sadf(np.full(30, 2.0), tau0=0.2)

    def test_default_min_window_rule(self):
        v = _walk(3, 100)
        r = sadf(v)
        assert r.tau0 == pytest.approx(0.19)
        assert r.sequence.tau2[0] == pytest.approx(0.19)

    def test_too_small_window_rejected(self):
        with pytest.raises(ValueError):
            sadf(_walk(1, 50), tau0=0.02)


class TestGsadf:
    def test_tiny_sample_exhaustive_oracle(self):
        for seed in range(6):
            v = _walk(100 + seed, 25)
            r = gsadf(v, tau0=0.4)
            want, s_want, e_want = oracles.gsadf(v, 10)
            assert r.value == pytest.approx(want, abs=1e-9)
            assert r.window == (s_want, e_want)

    def test_dominates_sadf_exactly(self):
        for seed in range(30):
            v = _walk(seed, 100)
            assert gsadf(v).value >= sadf(v).value

    def test_value_is_max_of_sequence(self):
        v = _walk(21, 60)
        r = gsadf(v, tau0=0.25)
        assert r.value == np.nanmax(r.sequence.values)
        assert r.sequence.kind == "bsadf"

    def test_with_lags_and_trend(self):
        v = _walk(23, 30)
        for det, k in (("trend", 0), ("const", 2)):
            r = gsadf(v, tau0=0.45, det=det, k=k)
            want, s_want, e_want = oracles.gsadf(v, 13, det, k)
            assert r.value == pytest.approx(want, abs=1e-9)
            assert r.window == (s_want, e_want)


class TestHbSupChow:
    def test_matches_exhaustive_oracle(self):
        for seed in range(5):
            v = _walk(200 + seed, 20)
            r = hb_sup_chow(v, tau0=0.3)
            want, b_want = oracles.hb_sup_chow(v, 0.3)
            assert r.value == pytest.approx(want, abs=1e-9)
            assert r.window == (b_want, 20)

    def test_location_shift_invariance(self):
        v = _walk(31, 60)
        a = hb_sup_chow(v, tau0=0.2)
        b = hb_sup_chow(v + 123.0, tau0=0.2)
        assert b.value == pytest.approx(a.value, abs=1e-9)
        assert b.window == a.window

    def test_with_lags(self):
        v = _walk(37, 24)
        r = hb_sup_chow(v, tau0=0.3, k=1)
        want, b_want = oracles.hb_sup_chow(v, 0.3, k=1)
        assert r.value == pytest.approx(want, abs=1e-9)
        assert r.window[0] == b_want

    def test_break_grid_respects_tau0(self):
        v = _walk(41, 50)
        r = hb_sup_chow(v, tau0=0.3)
        assert r.sequence.tau2.size == int(np.floor(0.7 * 50)) + 1
        assert r.window[0] <= 35


class TestBreakCurves:
    """hb_chow read from one backward moment sum: the long-double
    reference, the dense refit and the panel rows."""

    TAU0 = 0.19

    @pytest.mark.parametrize("k", [0, 2])
    def test_matches_long_double_reference(self, k):
        # measured: at most 6.2e-15 on these classes but
        # the long 5% bubbles, where k = 2 reads 2.6e-12 (k = 0: 4.6e-15)
        worst = max(
            _rel_err(hb_sup_chow(v, self.TAU0, k=k).sequence.values, _hb_ld(v, self.TAU0, k))
            for v in _accuracy_classes().values()
        )
        assert worst < 1e-11

    def test_exact_fit_goes_to_the_dense_fit(self, monkeypatch):
        calls = []
        dense = ols._least_squares
        monkeypatch.setattr(ols, "_least_squares", lambda *a: calls.append(1) or dense(*a))
        y = _exact_break_fit()
        r = hb_sup_chow(y, tau0=0.2, k=1)
        # every break b <= k+1 switches the level on for every row: an exact fit
        assert r.value == np.inf and r.window == (0, 60)
        assert (r.sequence.values[:3] == np.inf).all() and np.isfinite(r.sequence.values[3:]).all()
        assert 0 < len(calls) < r.sequence.values.size

    def test_panel_rows_equal_one_series_bit_for_bit(self):
        Y = np.stack(list(_accuracy_classes(80).values()) + [_exact_break_fit(80)])
        for k in (0, 2):
            curves = recursive._hb_curves(Y, self.TAU0, k=k)
            scores = bt._REGISTRY["hb_chow"].scores(Y, self.TAU0, "const", k)
            for v, curve, score in zip(Y, curves, scores):
                r = hb_sup_chow(v, self.TAU0, k=k)
                np.testing.assert_array_equal(curve, r.sequence.values)
                assert score == r.value

    def test_short_panel_reads_nan_and_one_series_raises(self):
        Y = np.stack([_walk(1, 6), _walk(2, 6)])
        assert np.isnan(bt._REGISTRY["hb_chow"].scores(Y, 0.5, "const", 2)).all()
        with pytest.raises(DegenerateFitError, match="sample of 6 too short for k=2"):
            hb_sup_chow(Y[0], 0.5, k=2)


class TestGlsCurves:
    """sadf_gls read from one forward moment sum: the long-double
    reference, the dense refit and flat stretches."""

    @pytest.mark.parametrize("det", ["const", "trend"])
    def test_matches_long_double_reference(self, det):
        # measured: at most 9.1e-14 (const; 1.4e-15 but
        # for the long 5% bubbles) and 4.6e-14 (trend) on these classes
        m0 = 19
        worst = max(
            _rel_err(sadf_gls(v, 0.19, det=det).sequence.values, _gls_ld(v, m0, det)[m0:])
            for v in _accuracy_classes().values()
        )
        assert worst < 1e-12

    @pytest.mark.parametrize("det, y, flagged", [
        # exact growth from 100: near e = 40 the GLS intercept passes the
        # series' own offset, 0, so the residuals grow almost exactly and
        # the AR fit is within cancellation error of exact (t in the thousands)
        ("const", 100.0 * 1.1 ** np.arange(60), [40, 41]),
        # an exactly linear start: the trend fits every prefix inside it, so
        # u'u is a difference of rounding errors, which the GLS flag marks
        ("trend", np.concatenate([10.0 + 0.5 * np.arange(30), 24.5 + _walk(4, 30)]), list(range(12, 31))),
    ])
    def test_flagged_prefixes_go_to_the_dense_fit(self, det, y, flagged, monkeypatch):
        calls = []
        adjust = ols.gls_adjust
        monkeypatch.setattr(ols, "gls_adjust", lambda u, **kw: calls.append(u.size) or adjust(u, **kw))
        curve = recursive._gls_curves(y[None], 12, det=det)[0][0]
        assert calls == flagged
        dense = np.full(y.size + 1, np.nan)
        for e in range(12, y.size + 1):
            with suppress(DegenerateFitError):
                dense[e] = ols.tstat_ar_noconst(adjust(y[:e], det=det))
        np.testing.assert_array_equal(curve[flagged], dense[flagged])
        # measured: 3.5e-12 (const, t up to 3,686) and
        # 4.5e-14 (trend) off the long-double reference on the rest
        rest = np.setdiff1d(np.arange(12, y.size + 1), flagged)
        assert _rel_err(curve[rest], _gls_ld(y, 12, det)[rest]) < 1e-11

    @pytest.mark.parametrize("det", ["const", "trend"])
    def test_flat_start_reads_nan(self, det):
        # 30 equal observations, then a walk: every prefix inside the flat
        # part has no variation and reads NaN, as in every other scan,
        # through sadf_gls and through the registry's panel
        y = np.concatenate([np.full(30, 50.0), 50.0 + _walk(9, 60)])
        m0 = 17
        seq = sadf_gls(y, det=det).sequence
        assert seq.tau2[0] == m0 / 90
        assert np.isnan(seq.values[: 30 - m0 + 1]).all() and np.isfinite(seq.values[31 - m0 :]).all()
        entry = bt._REGISTRY["sadf_gls"]
        panel = np.stack([y, y[::-1], y + 1e6])
        curve = entry.curves(panel, m0, det=det)[0]
        np.testing.assert_array_equal(curve[0, m0:], seq.values)
        assert np.isnan(curve[2, m0:31]).all()
        assert entry.scores(panel, None, det, 0)[0] == sadf_gls(y, det=det).value


class TestSadfGls:
    def test_default_quasi_diff_constants(self):
        assert GLS_CBAR == {"const": 1.6, "trend": 2.4}

    def test_matches_per_prefix_oracle(self):
        for seed in range(5):
            v = _walk(300 + seed, 25)
            r = sadf_gls(v, tau0=0.4)
            want, e_want = oracles.sadf_gls(v, 10)
            assert r.value == pytest.approx(want, abs=1e-9)
            assert r.window == (0, e_want)

    def test_trend_variant(self):
        v = _walk(43, 25)
        r = sadf_gls(v, tau0=0.4, det="trend")
        want, e_want = oracles.sadf_gls(v, 10, det="trend")
        assert r.value == pytest.approx(want, abs=1e-9)

    def test_deterministic(self):
        v = _walk(47, 120)
        assert sadf_gls(v).value == sadf_gls(v.copy()).value


class TestEndOfSample:
    def test_frozen_two_step_window(self):
        # increments (1, 1) with m = 2: S = 1*1 + 2*1 = 3, R = (1+1)^2 + 1^2 = 5
        r = end_of_sample_stats(np.array([0.0, 1.0, 2.0]), m=2)
        assert r.s == 3.0
        assert r.r == 5.0
        assert r.s_w == pytest.approx(3.0 / np.sqrt(5.0))

    def test_default_window_length_is_ten(self):
        v = _walk(51, 40)
        r = end_of_sample_stats(v)
        assert r.m == 10
        assert r.j == 30

    def test_flat_window(self):
        v = np.concatenate([_walk(53, 20), np.full(5, 0.0)])
        v[-5:] = v[19]
        r = end_of_sample_stats(v, m=4)
        assert r.s == 0.0 and r.r == 0.0
        assert np.isnan(r.s_w)

    def test_matches_oracle(self):
        v = _walk(59, 30)
        r = end_of_sample_stats(v, m=6, j=12)
        s, rr, sw = oracles.end_of_sample(v, 6, 12)
        assert r.s == pytest.approx(s, abs=1e-12)
        assert r.r == pytest.approx(rr, abs=1e-12)
        assert r.s_w == pytest.approx(sw, abs=1e-12)

    def test_training_slide(self):
        v = _walk(61, 40)
        r = end_of_sample_stats(v, m=5, training_span=20)
        assert r.training is not None
        assert [t.j for t in r.training] == list(range(1, 16))
        s0, _, _ = oracles.end_of_sample(v, 5, 7)
        assert r.training[6].s == pytest.approx(s0, abs=1e-12)

    def test_validation(self):
        v = _walk(67, 15)
        with pytest.raises(ValueError):
            end_of_sample_stats(v, m=1)
        with pytest.raises(ValueError):
            end_of_sample_stats(v, m=10, j=8)
        with pytest.raises(ValueError):
            end_of_sample_stats(v, m=5, j=0)


class TestUnionOfRejections:
    def test_no_rejection_below_cvs(self):
        d = union_of_rejections([1.0, 2.0], [1.5, 2.5], psi=1.0)
        assert not d.reject
        assert d.max_ratio == pytest.approx(0.8)

    def test_single_exceedance_rejects(self):
        d = union_of_rejections([1.6, 2.0], [1.5, 2.5], psi=1.0)
        assert d.reject
        assert list(d.exceed) == [True, False]

    def test_monotone_in_psi(self):
        stats, cvs = [1.2, 0.4], [1.0, 1.0]
        rejected = [
            union_of_rejections(stats, cvs, psi=p).reject
            for p in (0.5, 1.0, 1.19, 1.21, 2.0)
        ]
        assert rejected == [True, True, True, False, False]

    def test_max_form_equivalence(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            stats = rng.normal(size=3)
            cvs = rng.uniform(0.5, 2.0, size=3)
            psi = rng.uniform(0.5, 1.5)
            d = union_of_rejections(stats, cvs, psi=psi)
            assert d.reject == (d.max_ratio > psi)

    def test_validation(self):
        with pytest.raises(ValueError):
            union_of_rejections([1.0], [1.0])
        with pytest.raises(ValueError):
            union_of_rejections([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            union_of_rejections([1.0, 2.0], [1.0, -0.5])
        with pytest.raises(ValueError):
            union_of_rejections([1.0, np.nan], [1.0, 1.0])


class TestStatSequence:
    def test_csv_export(self, tmp_path):
        seq = StatSequence(
            kind="sadf",
            tau0=0.2,
            tau2=np.array([0.2, 0.4, 0.6]),
            values=np.array([0.5, np.nan, -1.25]),
            nobs=5,
        )
        path = tmp_path / "seq.csv"
        seq.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "tau2,value"
        assert lines[2].endswith(",")  # skipped entry stays blank

    def test_json_export(self):
        seq = StatSequence(
            kind="bsadf",
            tau0=0.1,
            tau2=np.array([0.1, 0.2]),
            values=np.array([1.0, np.nan]),
            nobs=10,
        )
        data = json.loads(seq.to_json())
        assert data["kind"] == "bsadf"
        assert data["entries"][1][1] is None

    def test_skipped_mask(self):
        seq = StatSequence("x", 0.1, np.array([0.1, 0.2]), np.array([np.nan, 2.0]), 10)
        assert list(seq.skipped) == [True, False]

    def test_monotone_grid_enforced(self):
        with pytest.raises(ValueError):
            StatSequence("x", 0.1, np.array([0.2, 0.2]), np.array([1.0, 2.0]), 10)
