"""Volatility-robust statistics: oracle equality and exact invariances."""

import warnings
from contextlib import suppress

import numpy as np
import pytest

import oracles
from test_ols import length_blocks
from exuberance import DegenerateFitError
from exuberance import bootstrap as bt
from exuberance import ols, robust
from exuberance.datestamp import sign_stamp
from exuberance.recursive import _gls_curves, sadf_gls
from exuberance.robust import (
    kernel_variance,
    sbz,
    sign_path,
    sign_statistics,
    time_transformed_tests,
    variance_profile,
)
from exuberance.series import frac_to_index


def _walk(seed, T):
    return np.cumsum(np.random.default_rng(seed).standard_normal(T))


class TestSbz:
    def test_matches_oracle(self):
        for seed in range(5):
            v = _walk(seed, 26)
            r = sbz(v, tau0=0.5)
            want, e_want = oracles.sbz(v, 13)
            assert r.value == pytest.approx(want, abs=1e-9)
            assert r.window == (0, e_want)

    def test_level_shift_bit_exact_on_integer_data(self):
        v = np.cumsum(np.random.default_rng(3).integers(-3, 4, size=40)).astype(float)
        a = sbz(v, tau0=0.5)
        b = sbz(v + 1024.0, tau0=0.5)
        assert a.value == b.value
        assert a.window == b.window

    def test_hand_formula_prefix(self):
        # one prefix evaluated by the direct ratio formula
        v = _walk(9, 24)
        sig2 = kernel_variance(v)
        yt = v - v[0]
        e = 18
        num = sum(
            (yt[t - 1] - yt[t - 2]) * yt[t - 2] / sig2[t - 2] for t in range(2, e + 1)
        )
        den = sum(yt[t - 2] ** 2 / sig2[t - 2] for t in range(2, e + 1))
        r = sbz(v, tau0=0.5)
        assert r.sequence.values[e - 12] == pytest.approx(num / np.sqrt(den), abs=1e-9)

    def test_near_constant_weighting_matches_mean_weight(self):
        # constant-volatility series: kernel weights are nearly flat, so
        # the weighted sequence tracks the mean-weight analogue closely
        rng = np.random.default_rng(11)
        v = np.cumsum(rng.standard_normal(400))
        sig2 = kernel_variance(v)
        flat = np.full_like(sig2, sig2.mean())
        yt = v - v[0]
        num_w = np.cumsum(np.diff(yt) * yt[:-1] / sig2)
        den_w = np.cumsum(yt[:-1] ** 2 / sig2)
        num_f = np.cumsum(np.diff(yt) * yt[:-1] / flat)
        den_f = np.cumsum(yt[:-1] ** 2 / flat)
        e = 400
        bz_w = num_w[e - 2] / np.sqrt(den_w[e - 2])
        bz_f = num_f[e - 2] / np.sqrt(den_f[e - 2])
        assert bz_w == pytest.approx(bz_f, abs=0.2)

    def test_flat_series_degenerate(self):
        with pytest.raises(DegenerateFitError):
            sbz(np.full(30, 1.0), tau0=0.5)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            sbz(_walk(1, 15), tau0=0.5)
        with pytest.raises(ValueError):
            sbz(_walk(1, 30), tau0=0.5, bandwidth=1.5)


class TestSignPath:
    def test_starts_with_two_zeros(self):
        C = sign_path(_walk(13, 20))
        assert C[0] == 0.0 and C[1] == 0.0
        assert C.size == 21

    def test_strictly_increasing_series(self):
        C = sign_path(np.arange(6.0))
        np.testing.assert_array_equal(C, [0, 0, 1, 2, 3, 4, 5])

    def test_matches_oracle_filtered_and_demeaned(self):
        v = _walk(17, 30)
        for mode, k in (("raw", 0), ("raw", 2), ("recursively-demeaned", 0)):
            got = sign_path(v, mode=mode, filter_lags=k)
            want = oracles.sign_path(
                v, "demeaned" if "demeaned" in mode else "raw", k
            )
            np.testing.assert_allclose(got, want, atol=1e-12)
        # whole filtered paths, on the walks of TestSignFilterReader
        for seed in range(12):
            w = _walk(900 + seed, 40)
            for k in (1, 2, 3):
                np.testing.assert_array_equal(sign_path(w, filter_lags=k), oracles.sign_path(w, "raw", k))
        # the filter's fits do not depend on the series' units or level
        want = sign_path(v, filter_lags=2)
        for f in (lambda v: v * 1e-21, lambda v: v * 1e-12, lambda v: v * 1e12, lambda v: v + 1e8):
            np.testing.assert_array_equal(sign_path(f(v), filter_lags=2), want)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            sign_path(_walk(1, 10), mode="centered")


class TestSignFilterReader:
    """The lag filter reads one forward moment pass, except at t = 2k+6,
    whose exact fit stays dense."""

    def test_matches_the_per_t_dense_oracle(self):
        # the oracle refits every t, also before the fit is identified; from
        # t = 2k+6 on (increment t - 1) the filtered signs agree exactly
        for seed in range(12):
            v = _walk(900 + seed, 40)
            for k in (1, 2, 3):
                got, want = (np.diff(f(v, "raw", k)) for f in (sign_path, oracles.sign_path))
                np.testing.assert_array_equal(got[2 * k + 5 :], want[2 * k + 5 :])

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_first_filtered_point_is_the_exact_fit(self, k):
        v = _walk(4, 40)
        t = 2 * k + 6
        dy = np.diff(v)
        rows = np.arange(k + 5, t + 1)
        X = np.column_stack([np.ones(rows.size), v[rows - 2]] + [dy[rows - 2 - j] for j in range(1, k + 1)])
        phi = np.linalg.solve(X, dy[rows - 2])[2:]
        want = np.sign(dy[t - 2] - sum(phi[j - 1] * dy[t - 2 - j] for j in range(1, k + 1)))
        got = np.diff(sign_path(v, filter_lags=k))
        assert got[t - 1] == want != np.sign(dy[t - 2])
        # no sign before t is filtered
        np.testing.assert_array_equal(got[1 : t - 1], np.sign(dy[: t - 2]))

    def test_rank_deficient_stretch_stays_unfiltered(self):
        # a linear stretch has constant lagged differences, collinear with
        # the intercept: every fit ending in it is rank deficient
        v = np.concatenate([0.5 * np.arange(20.0), 9.5 + _walk(5, 30)])
        for k in (1, 2):
            got = np.diff(sign_path(v, filter_lags=k))[1:]
            np.testing.assert_array_equal(got[:19], np.ones(19))
            assert (got[19:] != np.sign(np.diff(v))[19:]).any()


class TestSignStatistics:
    def test_frozen_increasing_path_window(self):
        # window over path values (1,2,3,4): slope 3/7, variance 3/14,
        # statistic exactly 2*sqrt(3)
        y = np.arange(6.0)
        r = sign_statistics(y, tau0=0.5)
        C = sign_path(y)
        got = oracles.sign_stat_window(C, 2, 5)
        assert got == pytest.approx(2.0 * np.sqrt(3.0), abs=1e-12)
        # the double sup covers that window, so it can only be larger
        assert r.sgsadf.value >= got - 1e-12

    def test_matches_oracle(self):
        for seed in range(5):
            v = _walk(400 + seed, 24)
            r = sign_statistics(v, tau0=0.4)
            want_s, want_g = oracles.sign_sups(v, 9)
            assert r.ssadf.value == pytest.approx(want_s, abs=1e-9)
            assert r.sgsadf.value == pytest.approx(want_g, abs=1e-9)

    def test_matches_oracle_demeaned_filtered(self):
        v = _walk(21, 26)
        r = sign_statistics(v, tau0=0.4, mode="recursively-demeaned", filter_lags=1)
        want_s, want_g = oracles.sign_sups(v, 10, "demeaned", 1)
        assert r.ssadf.value == pytest.approx(want_s, abs=1e-9)
        assert r.sgsadf.value == pytest.approx(want_g, abs=1e-9)

    def test_volatility_path_bit_exact(self):
        rng = np.random.default_rng(23)
        z = rng.standard_normal(80)
        for profile in (
            np.linspace(0.2, 3.0, 80),
            np.where(np.arange(80) < 40, 0.5, 4.0),
            np.exp(rng.standard_normal(80)),
        ):
            a = sign_statistics(np.cumsum(z), tau0=0.25)
            b = sign_statistics(np.cumsum(profile * z), tau0=0.25)
            assert a.ssadf.value == b.ssadf.value
            assert a.sgsadf.value == b.sgsadf.value
            assert a.ssadf.window == b.ssadf.window

    def test_level_shift_bit_exact(self):
        v = _walk(29, 60)
        a = sign_statistics(v, tau0=0.25)
        b = sign_statistics(v + 3.75, tau0=0.25)
        assert a.ssadf.value == b.ssadf.value
        assert a.sgsadf.value == b.sgsadf.value

    def test_nesting(self):
        for seed in range(10):
            r = sign_statistics(_walk(seed, 70), tau0=0.2)
            assert r.sgsadf.value >= r.ssadf.value

    def test_flat_series_raises(self):
        with pytest.raises(DegenerateFitError):
            sign_statistics(np.full(30, 5.0), tau0=0.3)


class TestVarianceProfile:
    def test_endpoints_pinned(self):
        p = variance_profile(_walk(31, 50))
        assert p.eta[0] == 0.0
        assert p.eta[-1] == 1.0
        assert np.all(np.diff(p.eta) >= 0)

    def test_matches_oracle(self):
        v = _walk(37, 44)
        p = variance_profile(v)
        grid, eta, om2 = oracles.variance_profile(v)
        np.testing.assert_allclose(p.eta, eta, atol=1e-12)
        assert p.omega_bar2 == pytest.approx(om2, rel=1e-12)

    def test_homoskedastic_profile_near_diagonal(self):
        rng = np.random.default_rng(41)
        hits = 0
        for _ in range(20):
            v = np.cumsum(rng.standard_normal(2000))
            p = variance_profile(v)
            if np.max(np.abs(p.eta - p.grid)) < 0.1:
                hits += 1
        assert hits >= 18

    def test_single_break_profile_level(self):
        rng = np.random.default_rng(43)
        T = 2000
        sig = np.where(np.arange(T) < T // 2, 1.0, 3.0)
        v = np.cumsum(sig * rng.standard_normal(T))
        p = variance_profile(v)
        assert p.eta[T // 2] == pytest.approx(0.1, abs=0.05)

    def test_inverse_leftmost_preimage(self):
        p = variance_profile(_walk(47, 60))
        # g(eta(t/T)) recovers t/T wherever eta strictly increases
        for t in (10, 25, 40, 59):
            q = p.eta[t]
            left = np.flatnonzero(p.eta >= q)[0]
            assert p.g(q) == pytest.approx(p.grid[left], abs=1e-12)

    def test_flat_series_raises(self):
        with pytest.raises(DegenerateFitError):
            variance_profile(np.full(30, 2.0))

    def test_short_sample_rejected(self):
        with pytest.raises(ValueError):
            variance_profile(_walk(1, 10))


class TestTimeTransformed:
    def test_matches_oracle(self):
        for seed in range(4):
            v = _walk(500 + seed, 26)
            r = time_transformed_tests(v, tau0=0.45)
            want_s, want_g = oracles.time_transformed(v, 11)
            assert r.stadf.value == pytest.approx(want_s, abs=1e-9)
            assert r.gstadf.value == pytest.approx(want_g, abs=1e-9)

    def test_nesting(self):
        for seed in range(10):
            r = time_transformed_tests(_walk(seed, 60), tau0=0.25)
            assert r.gstadf.value >= r.stadf.value

    def test_constant_volatility_close_to_untransformed(self):
        # with eta near the diagonal the transform is near the identity,
        # so the same statistic without transformation is close
        rng = np.random.default_rng(53)
        v = np.cumsum(rng.standard_normal(1200))
        r = time_transformed_tests(v, tau0=0.3)
        p = r.profile
        ytil = np.concatenate([[0.0], v - v[0]])
        om2 = p.omega_bar2
        T = v.size
        m0 = int(0.3 * T)
        Q = np.cumsum(ytil**2)
        best = -np.inf
        for e in range(m0, T + 1):
            s_arr = np.arange(0, e - m0 + 1)
            den = Q[e - 1] - np.where(s_arr > 0, Q[s_arr - 1], 0.0)
            num = ytil[e] ** 2 - ytil[s_arr] ** 2 - om2 * (e - s_arr)
            ok = den > 0
            if ok.any():
                best = max(best, np.max(num[ok] / (2 * np.sqrt(om2) * np.sqrt(den[ok]))))
        assert r.gstadf.value == pytest.approx(best, abs=0.5)

    def test_denominator_positive_on_attained_window(self):
        v = _walk(59, 40)
        r = time_transformed_tests(v, tau0=0.3)
        assert np.isfinite(r.gstadf.value)


class TestPanels:
    """Registry panel forms: one scan of a panel equals each row alone."""

    T, TAU0 = 48, 0.25
    ONE = {
        "sign_sadf": lambda v, tau0: sign_statistics(v, tau0).ssadf.value,
        "sign_gsadf": lambda v, tau0: sign_statistics(v, tau0).sgsadf.value,
        "stadf": lambda v, tau0: time_transformed_tests(v, tau0).stadf.value,
        "gstadf": lambda v, tau0: time_transformed_tests(v, tau0).gstadf.value,
    }
    ORACLE = {
        "sign_sadf": lambda v, m0: oracles.sign_sups(v, m0)[0],
        "sign_gsadf": lambda v, m0: oracles.sign_sups(v, m0)[1],
        "stadf": lambda v, m0: oracles.time_transformed(v, m0)[0],
        "gstadf": lambda v, m0: oracles.time_transformed(v, m0)[1],
    }

    def _panel(self):
        # a walk; an integer-step walk with zero increments and exact ties;
        # rises then a flat stretch of 20 > m0 (the sign scan's sse = 0
        # windows); a flat start before a drift, which the variance
        # profile stretches over many grid points (the time-transformed
        # den <= 0 windows); and a constant row
        rng = np.random.default_rng(71)
        T = self.T
        walk = np.cumsum(rng.standard_normal(T))
        ties = np.cumsum(np.random.default_rng(87).integers(-1, 2, size=T)).astype(float)
        stretch = np.concatenate([np.arange(10.0), np.full(20, 9.0),
                                  9.0 + np.cumsum(rng.standard_normal(T - 30))])
        start = np.concatenate([np.zeros(20), np.cumsum(1.0 + 0.1 * rng.standard_normal(T - 20))])
        return np.stack([walk, ties, stretch, start, np.full(T, 3.0)])

    def test_rows_reach_the_degenerate_window_branches(self):
        _, ties, stretch, start, _ = self._panel()
        m0 = frac_to_index(self.TAU0, self.T)
        assert np.any(np.diff(ties) == 0)
        # lagged sign path constant and nonzero, increments zero: the
        # windows inside the stretch fit exactly, sse = 0
        C = sign_path(stretch)
        assert C[10] != 0 and np.all(C[10:31] == C[10]) and 20 > m0
        # the transformed path stays at zero over more than m0 grid points,
        # so the first endpoints have no defined window at all
        idx = variance_profile(start).transform_indices()
        assert np.sum(idx <= 20) > m0
        assert np.isnan(time_transformed_tests(start, self.TAU0).gstadf.sequence.values[0])

    def test_ties_take_the_smallest_window(self):
        # integer steps repeat window statistics exactly: the double sup
        # keeps the smallest start among its maximizers, sign dating the
        # earliest endpoint and then the smallest start
        ties = self._panel()[1]
        m0 = frac_to_index(self.TAU0, self.T)
        C = sign_path(ties)
        grid = {(s, e): oracles.sign_stat_window(C, s, e)
                for e in range(m0, self.T + 1) for s in range(e - m0 + 1)}
        best = np.nanmax(list(grid.values()))
        tied = sorted(w for w, t in grid.items() if t >= best - 1e-12)
        assert len({e for _, e in tied}) < len(tied)  # starts tie at one endpoint
        assert sign_statistics(ties, self.TAU0).sgsadf.window == tied[0]
        ep = sign_stamp(ties, tau0=self.TAU0)
        _, want = oracles.sign_argmax(ties, m0)
        assert (ep.origin_index, ep.collapse_index) == want

    def test_panel_rows_equal_one_series_and_oracles(self):
        Y = self._panel()
        m0 = frac_to_index(self.TAU0, self.T)
        for name, one in self.ONE.items():
            entry = bt._REGISTRY[name]
            got = entry.scores(Y, self.TAU0, "const", 0)
            for value, v in zip(got[:-1], Y[:-1]):
                assert value == one(v, self.TAU0)
                assert value == entry.observe(v, self.TAU0, "const", 0).value
                assert value == pytest.approx(self.ORACLE[name](v, m0), abs=1e-9)
            assert np.isnan(got[-1])
            message = "signs are zero" if name.startswith("sign") else "proxies are zero"
            with pytest.raises(DegenerateFitError, match=message):
                one(Y[-1], self.TAU0)
            with pytest.raises(DegenerateFitError, match=message):
                entry.observe(Y[-1], self.TAU0, "const", 0)


class TestLengthBlocks:
    """The robust double sups and sign dating, scanned in blocks of 2, 3
    and 7 window lengths, equal one length at a time bit for bit, on the
    rows of :class:`TestPanels` (ties, flat stretches and NaN windows)."""

    T, TAU0 = TestPanels.T, TestPanels.TAU0

    def _run(self, monkeypatch, nl, Y):
        sizes = length_blocks(monkeypatch, nl)
        scores = {name: bt._REGISTRY[name].scores(Y, self.TAU0, "const", 0) for name in ("sign_gsadf", "gstadf")}
        ones = []
        for v in Y[:-1]:
            sg = sign_statistics(v, self.TAU0).sgsadf
            tt = time_transformed_tests(v, self.TAU0).gstadf
            ep = sign_stamp(v, tau0=self.TAU0)
            ones.append((sg.sequence.values, sg.window, tt.sequence.values, tt.window,
                         ep.origin_index, ep.collapse_index))
        # 37 lengths: the last block is partial for nl = 2, 3 and 7
        assert nl in sizes and (nl == 1 or 0 < sizes[-1] < nl)
        return scores, ones

    def test_block_sizes_match_single_lengths(self, monkeypatch):
        Y = TestPanels()._panel()
        want_scores, want_ones = self._run(monkeypatch, 1, Y)
        for nl in (2, 3, 7):
            scores, ones = self._run(monkeypatch, nl, Y)
            for name, want in want_scores.items():
                np.testing.assert_array_equal(scores[name], want)
                # panel rows equal the one-series values
                key = 0 if name == "sign_gsadf" else 2
                np.testing.assert_array_equal(
                    scores[name][:-1], [np.nanmax(one[key]) for one in want_ones])
            for got, want in zip(ones, want_ones):
                for a, b in zip(got, want):
                    np.testing.assert_array_equal(a, b)
        # the flat start leaves the first endpoints without a defined window
        assert np.isnan(want_ones[3][2][0])


class TestCurvePanels:
    """sbz and sadf_gls scored as panels: one curve build for every row
    equals each row alone, on the rows of :class:`TestPanels`."""

    T, TAU0 = TestPanels.T, TestPanels.TAU0
    ONE = {
        "sbz": lambda v, tau0: sbz(v, tau0).value,
        "sadf_gls": lambda v, tau0: sadf_gls(v, tau0).value,
    }
    ORACLE = {
        "sbz": lambda v, m0: oracles.sbz(v, m0)[0],
        "sadf_gls": lambda v, m0: oracles.sadf_gls(v, m0)[0],
    }
    MESSAGE = {"sbz": "local variance estimate vanished", "sadf_gls": "every window degenerate"}

    def test_panel_rows_equal_one_series_and_oracles(self):
        Y = TestPanels()._panel()
        m0 = frac_to_index(self.TAU0, self.T)
        for name, one in self.ONE.items():
            entry = bt._REGISTRY[name]
            got = entry.scores(Y, self.TAU0, "const", 0)
            for value, v in zip(got[:-1], Y[:-1]):
                assert value == one(v, self.TAU0)
                assert value == entry.observe(v, self.TAU0, "const", 0).value
                assert value == pytest.approx(self.ORACLE[name](v, m0), abs=1e-9)
            assert np.isnan(got[-1])
            with pytest.raises(DegenerateFitError, match=self.MESSAGE[name]):
                one(Y[-1], self.TAU0)
            with pytest.raises(DegenerateFitError, match=self.MESSAGE[name]):
                entry.observe(Y[-1], self.TAU0, "const", 0)

    def test_curves_are_the_one_series_sequences(self):
        # the SupResult's sequence is the panel curve's row, bit for bit
        Y = TestPanels()._panel()[:-1]
        m0 = frac_to_index(self.TAU0, self.T)
        for name, curves in (("sbz", robust._sbz_curves), ("sadf_gls", _gls_curves)):
            curve, starts = curves(Y, m0)
            assert curve.shape == starts.shape == (len(Y), self.T + 1)
            for r, v in enumerate(Y):
                seq = bt._REGISTRY[name].observe(v, self.TAU0, "const", 0).sequence
                np.testing.assert_array_equal(curve[r, m0:], seq.values)
            np.testing.assert_array_equal(starts, np.where(np.isnan(curve), -1, 0))


def _ref_smooth(x, T, h):
    """The per-row kernel smoother: full convolutions of the row and of ones, sliced."""
    n = T - 1
    u = np.arange(1 - n, n, dtype=float) / (T * h)
    w = np.exp(-0.5 * u * u)
    return np.convolve(x, w)[n - 1 : 2 * n - 1] / np.convolve(np.ones(n), w)[n - 1 : 2 * n - 1]


def _ref_transformed(v):
    """(path, om2, eta, source indices) of one series, step by step: its variance profile,
    the profile inverse by ``searchsorted`` at each grid point, the floor
    map and the shifted resampled path."""
    T = v.size
    dy = np.diff(v)
    eps2 = (dy - _ref_smooth(dy, T, T ** (-1.0 / 5.0))) ** 2
    total = float(eps2.sum())
    if not total > 0:
        raise DegenerateFitError("all innovation proxies are zero")
    eta = np.zeros(T + 1)
    eta[2:] = np.cumsum(eps2) / total
    eta[T] = 1.0
    grid = np.arange(T + 1) / T
    j = np.searchsorted(eta, grid, side="left")
    g = np.zeros(T + 1)
    inner = j > 0
    jj = np.minimum(j[inner], T)
    e0, e1 = eta[jj - 1], eta[jj]
    flat = e1 == e0
    frac = np.where(flat, 0.0, (grid[inner] - e0) / np.where(flat, 1.0, e1 - e0))
    g[inner] = grid[jj - 1] + frac * (grid[jj] - grid[jj - 1])
    idx = np.maximum(np.floor(g * T + 1e-9).astype(np.int64), 1)
    ytil = v[idx - 1]
    return ytil - ytil[0], total / T, eta, idx


def _ref_at(A, idx):
    return A[:, idx]


def _raw_signs(Y):
    """Row-major (rows, T+1) raw sign paths of a (rows, T) panel."""
    return np.pad(np.cumsum(np.sign(np.diff(Y, axis=1)), axis=1), ((0, 0), (2, 0)))


def _ref_sign_window(C):
    """The sign closed form on row-major (rows, T+1) sign paths, IEEE
    special cases spelled out with ``np.where``."""
    dC, x = np.diff(C, axis=1), C[:, :-1]
    A, B, D = np.cumsum(np.pad(np.stack([x * dC, x * x, dC * dC]), ((0, 0), (0, 0), (1, 0))), axis=2)

    def stat(e, s):
        a, b, d = _ref_at(A, e) - _ref_at(A, s), _ref_at(B, e) - _ref_at(B, s), _ref_at(D, e) - _ref_at(D, s)
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = a / b
            sse = d - a * a / b
            st = np.where(sse > 0, delta * np.sqrt(b * (e - s - 1) / sse), np.sign(delta) * np.inf)
        return np.where(b > 0, st, np.nan)

    return stat


def _ref_tt_window(Y):
    """The time-transformed closed form on row-major paths from :func:`_ref_transformed`, NaN for a degenerate row."""
    ytil, om2 = np.full((len(Y), Y.shape[1] + 1), np.nan), np.full((len(Y), 1, 1), np.nan)
    for i, v in enumerate(Y):
        with suppress(DegenerateFitError):
            ytil[i], om2[i] = _ref_transformed(v)[:2]
    sq, sq_end = ytil**2, np.float_power(ytil, 2.0)
    Q = np.cumsum(np.pad(sq[:, :-1], ((0, 0), (1, 0))), axis=1)
    scale = 2.0 * np.sqrt(om2)

    def stat(e, s):
        den = _ref_at(Q, e) - _ref_at(Q, s)
        with np.errstate(divide="ignore", invalid="ignore"):
            st = (_ref_at(sq_end, e) - _ref_at(sq, s) - om2 * (e - s)) / (scale * np.sqrt(den))
        return np.where(den > 0, st, np.nan)

    return stat


def _ref_sups(stat, rows, m0, T, double):
    """Curves, starts and row sups by brute force over the (rows, s, e) grid
    of ``stat``: the largest value at each e, the smallest start among ties."""
    e, s = np.arange(T + 1)[None], np.arange(T + 1)[:, None]
    grid = stat(e, s if double else np.zeros((1, 1), dtype=np.int64))
    grid = np.where((s <= e - m0) if double else (e >= m0) & (s == 0), grid, np.nan)
    defined = ~np.isnan(grid)
    curve = np.where(defined.any(axis=1), np.max(np.where(defined, grid, -np.inf), axis=1), np.nan)
    first = np.argmax(defined & (grid == curve[:, None]), axis=1)
    starts = np.where(np.isnan(curve), -1, first if double else 0)
    return curve, starts, np.fmax.reduce(curve[:, m0:], axis=1)


class TestPanelProfiles:
    """Every row's variance profile from one panel pass equals the
    step-by-step per-row construction of :func:`_ref_transformed` bit for bit."""

    def _panels(self):
        rng = np.random.default_rng(2024)
        walks = 100.0 + np.cumsum(rng.standard_normal((12, 90)), axis=1)
        breaks = np.cumsum(rng.standard_normal((8, 120)) * np.r_[np.ones(60), 3.0 * np.ones(60)], axis=1)
        late = np.cumsum(rng.standard_normal((4, 120)) * np.r_[3.0 * np.ones(90), 0.2 * np.ones(30)], axis=1)
        ints = np.cumsum(rng.integers(-3, 4, size=(8, 70)), axis=1).astype(float)
        return {"walks": walks, "breaks": np.vstack([breaks, late]), "integers": ints,
                "x1e-9": walks * 1e-9, "x1e12": walks * 1e12, "flat start": TestPanels()._panel()[:-1]}

    def test_rows_equal_the_per_row_construction(self):
        for name, Y in self._panels().items():
            eta, om2, h = robust._profiles(Y, None)
            idx = robust._source_indices(eta)
            assert h == Y.shape[1] ** (-1.0 / 5.0) and idx.shape == eta.shape == (len(Y), Y.shape[1] + 1)
            for i, v in enumerate(Y):
                _, want_om2, want_eta, want_idx = _ref_transformed(v)
                assert eta[i].tobytes() == want_eta.tobytes(), name
                assert om2[i] == want_om2, name
                np.testing.assert_array_equal(idx[i], want_idx)
                prof = variance_profile(v)
                assert prof.eta.tobytes() == want_eta.tobytes() and prof.omega_bar2 == want_om2
                np.testing.assert_array_equal(prof.transform_indices(), want_idx)
                dy = np.diff(v)
                assert kernel_variance(v).tobytes() == _ref_smooth(dy**2, v.size, h).tobytes()

    def test_flat_row_is_nan_without_a_warning(self):
        Y = self._panels()["walks"][:4].copy()
        Y[2] = 7.0
        m0 = frac_to_index(0.3, Y.shape[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eta, om2, _ = robust._profiles(Y, None)
            idx = robust._source_indices(eta)
            curve = bt._REGISTRY["gstadf"].curves(Y, m0)[0]
            scores = bt._REGISTRY["gstadf"].curves(Y, m0, sups=True)
        assert np.isnan(om2[2]) and np.isnan(curve[2]).all() and np.isnan(scores[2])
        assert ((idx[2] >= 1) & (idx[2] <= Y.shape[1])).all()  # a flat profile still maps inside the sample
        for i in (0, 1, 3):
            _, want_om2, _, want_idx = _ref_transformed(Y[i])
            assert om2[i] == want_om2 and np.array_equal(idx[i], want_idx)
            assert np.isfinite(scores[i])

    def test_strict_raises(self):
        Y = self._panels()["walks"][:3].copy()
        Y[1] = -2.5
        with pytest.raises(DegenerateFitError, match="all innovation proxies are zero"):
            robust._profiles(Y, None, strict=True)
        m0 = frac_to_index(0.3, Y.shape[1])
        with pytest.raises(DegenerateFitError, match="all innovation proxies are zero"):
            bt._REGISTRY["gstadf"].curves(Y, m0, strict=True)


class TestTimeMajorScans:
    """The time-major sign and time-transformed scans equal the row-major
    closed forms above, with their IEEE special cases spelled out, on every
    window, and so in curves, starts and row sups."""

    def _panel(self):
        # TestPanels' rows (ties, an exact-fit stretch, a flat start, a
        # constant row), a down step after one up step then a flat stretch
        # (sign windows that fit exactly with slope -1: -inf), and walks
        T = TestPanels.T
        rng = np.random.default_rng(5)
        drop = np.concatenate([[0.0, 1.0], np.zeros(20), np.cumsum(rng.standard_normal(T - 22))])
        walks = np.cumsum(rng.standard_normal((3, T)), axis=1)
        return np.vstack([TestPanels()._panel(), drop, walks])

    def test_closed_forms_on_every_window(self):
        Y = self._panel()
        T = Y.shape[1]
        e, s = np.arange(T + 1), np.arange(T + 1)
        live = s[:, None] <= e[None] - 2  # windows of two or more observations, as every scan reads
        # beside the raw sign paths, geometric paths growing and decaying by
        # 10% a step, whose exact-fit sse rounds to 0 or below: +inf and -inf
        geometric = np.stack([1.1 ** np.arange(T + 1), 0.9 ** np.arange(T + 1)])
        C = np.vstack([_raw_signs(Y), geometric])
        eta, om2, _ = robust._profiles(Y, None)
        pairs = (
            (robust._sign_window(np.ascontiguousarray(C.T)), _ref_sign_window(C)),
            (robust._tt_window(Y, eta, om2), _ref_tt_window(Y)),
        )
        for new, ref in pairs:
            got = new(e[None, :, None], s[:, None, None]).transpose(2, 0, 1)
            want = ref(e[None], s[:, None])
            np.testing.assert_array_equal(got[:, live], want[:, live])
        sign = _ref_sign_window(C)(e[None], s[:, None])[:, live]
        assert np.isneginf(sign[:-1]).any() and np.isposinf(sign[-2]).any() and np.isneginf(sign[-1]).any()
        assert np.isnan(sign[4]).all()  # b = 0: the lagged sign path of the constant row is 0

    def test_curves_starts_and_sups(self):
        Y = self._panel()
        T = Y.shape[1]
        m0 = frac_to_index(TestPanels.TAU0, T)
        sign, tt = _ref_sign_window(_raw_signs(Y)), _ref_tt_window(Y)
        for name, ref, double in (("sign_sadf", sign, False), ("sign_gsadf", sign, True),
                                  ("stadf", tt, False), ("gstadf", tt, True)):
            curve, starts, sups = _ref_sups(ref, len(Y), m0, T, double)
            got_curve, got_starts = bt._REGISTRY[name].curves(Y, m0)
            assert got_curve.tobytes() == curve.tobytes(), name
            np.testing.assert_array_equal(got_starts, starts)
            np.testing.assert_array_equal(bt._REGISTRY[name].curves(Y, m0, sups=True), sups)
            assert np.isnan(sups[-5]) and np.isfinite(sups[:-5]).all(), name
