"""Windowed ADF engine: dense reference, vectorized scans, GLS helpers."""

import math
import warnings
from contextlib import suppress
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from exuberance import DegenerateFitError, adf_stat, adf_tstat_pairs, fit_adf_window
from exuberance import inference, ols, recursive, robust
from exuberance.ols import (
    bsadf_backward,
    gls_adjust,
    sadf_prefix_stats,
    tstat_ar_noconst,
)
from exuberance.bootstrap import _REGISTRY
from exuberance.recursive import gsadf, sadf

DETS = ("none", "const", "trend")


def sadf_panel(panel, tau0=None, det="const", k=0):
    """The registry's panel form of sadf: one value per row, NaN if degenerate."""
    return _REGISTRY["sadf"].scores(panel, tau0, det, k)


def gsadf_panel(panel, tau0=None, det="const", k=0):
    """The registry's panel form of gsadf: one value per row, NaN if degenerate."""
    return _REGISTRY["gsadf"].scores(panel, tau0, det, k)


def _exact_tstat(v, start, end, det, k):
    """Level t-ratio of the window (start, end] of an integer series, from
    the normal equations solved in exact rational arithmetic (no
    anchoring: with an intercept it does not change the t-ratio)."""
    w = [Fraction(int(x)) for x in v[start:end]]
    d = [b - a for a, b in zip(w, w[1:])]
    X = [
        [Fraction(1)] * (det != "none") + [Fraction(r)] * (det == "trend") + [w[r]]
        + [d[r - j] for j in range(1, k + 1)]
        for r in range(k, len(w) - 1)
    ]
    y = d[k:]
    p, lvl = len(X[0]), (det != "none") + (det == "trend")
    # Gauss-Jordan on [X'X | X'y | I]: beta and the inverse Gram side by side
    M = [
        [sum(a[i] * a[j] for a in X) for j in range(p)]
        + [sum(a[i] * yi for a, yi in zip(X, y))]
        + [Fraction(int(i == j)) for j in range(p)]
        for i in range(p)
    ]
    for c in range(p):
        piv = next(r for r in range(c, p) if M[r][c] != 0)
        M[c], M[piv] = M[piv], [x / M[piv][c] for x in M[piv]]
        for r in range(p):
            if r != c:
                M[r] = [x - M[r][c] * xc for x, xc in zip(M[r], M[c])]
    beta = [row[p] for row in M]
    ssr = sum((yi - sum(b * x for b, x in zip(beta, a))) ** 2 for a, yi in zip(X, y))
    t2 = beta[lvl] ** 2 * (len(y) - p) / (ssr * M[lvl][p + 1 + lvl])
    return math.copysign(math.sqrt(t2), beta[lvl])


def _grid(T, m0):
    starts, ends = [], []
    for e in range(m0, T + 1):
        for s in range(0, e - m0 + 1):
            starts.append(s)
            ends.append(e)
    return np.array(starts), np.array(ends)


class TestDenseFit:
    def test_worked_example(self):
        # y = (0, 1, 0, 2, 1), intercept, no lags: delta = -15/11 and the
        # t-ratio is exactly -2.5 on 4 regression rows.
        y = np.array([0.0, 1.0, 0.0, 2.0, 1.0])
        fit = fit_adf_window(y, 0, 5, det="const", k=0)
        assert fit.nobs == 4
        assert fit.delta == pytest.approx(-15 / 11, abs=1e-12)
        assert fit.tstat == pytest.approx(-2.5, abs=1e-12)
        assert fit.columns == ("const", "level")

    def test_row_count(self):
        rng = np.random.default_rng(5)
        v = np.cumsum(rng.standard_normal(30))
        for k in (0, 1, 3):
            fit = fit_adf_window(v, 4, 26, det="const", k=k)
            assert fit.nobs == 26 - 4 - k - 1

    def test_window_slices_half_open(self):
        rng = np.random.default_rng(11)
        v = np.cumsum(rng.standard_normal(40))
        full = fit_adf_window(v, 7, 29, det="const", k=1)
        sliced = fit_adf_window(v[7:29], 0, 22, det="const", k=1)
        assert full.tstat == sliced.tstat
        assert full.delta == sliced.delta

    @pytest.mark.parametrize("det", DETS)
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_matches_oracle(self, det, k):
        rng = np.random.default_rng(17)
        v = np.cumsum(rng.standard_normal(35))
        for s, e in [(0, 35), (3, 20), (10, 35), (0, 12)]:
            got = fit_adf_window(v, s, e, det=det, k=k)
            want = oracles.adf_fit(v, s, e, det, k)
            assert got.tstat == pytest.approx(want.tstat, abs=1e-9)
            assert got.delta == pytest.approx(want.delta, abs=1e-9)
            assert got.sigma2 == pytest.approx(want.sigma2, rel=1e-9)
            assert got.nobs == want.nobs

    def test_matches_statsmodels(self):
        sm = pytest.importorskip("statsmodels.tsa.stattools")
        rng = np.random.default_rng(23)
        for trial in range(5):
            v = np.cumsum(rng.standard_normal(80)) + 10.0
            for det, reg in (("const", "c"), ("trend", "ct"), ("none", "n")):
                for k in (0, 2):
                    ref = sm.adfuller(v, maxlag=k, regression=reg, autolag=None)[0]
                    assert adf_stat(v, det=det, k=k) == pytest.approx(ref, abs=1e-8)

    def test_intercept_mapped_back_to_raw_scale(self):
        rng = np.random.default_rng(29)
        v = np.cumsum(rng.standard_normal(25)) + 100.0
        fit = fit_adf_window(v, 0, 25, det="const", k=0)
        want = oracles.adf_fit(v, 0, 25, "const", 0)
        np.testing.assert_allclose(fit.coeffs, want.beta, atol=1e-8)

    def test_too_short_raises(self):
        v = np.arange(10.0)
        with pytest.raises(DegenerateFitError):
            fit_adf_window(v, 0, 3, det="const", k=0)
        with pytest.raises(DegenerateFitError):
            fit_adf_window(v, 0, 5, det="trend", k=1)

    def test_constant_window_raises(self):
        v = np.full(12, 3.0)
        with pytest.raises(DegenerateFitError):
            fit_adf_window(v, 0, 12, det="const", k=0)

    def test_rank_does_not_depend_on_the_data_scale(self):
        # a tiny-valued window is full rank: the ADF t-ratio has no units,
        # so it equals the t-ratio of the data scaled up and the scan's one
        v = np.array([0.0] * 14 + [2.2e-21, 0.0])
        for det in DETS:
            fit = fit_adf_window(v, 0, 16, det=det, k=0)
            big = fit_adf_window(v * 1e21, 0, 16, det=det, k=0)
            assert fit.tstat == pytest.approx(big.tstat, rel=1e-12)
            assert fit.delta == pytest.approx(big.delta, rel=1e-12)
            assert fit.se == pytest.approx(big.se, rel=1e-12)
            np.testing.assert_allclose(fit.coeffs[:-1], big.coeffs[:-1] * 1e-21, rtol=1e-12, atol=0)
            assert fit.tstat == pytest.approx(adf_tstat_pairs(v, [0], [16], det=det)[0], rel=1e-9)
        assert fit_adf_window(v, 0, 16).tstat == pytest.approx(-3.872983346207417, rel=1e-12)
        # a truly deficient design still raises, and so does one whose
        # unit-norm Gram matrix is singular to working precision
        with pytest.raises(DegenerateFitError, match="rank-deficient"):
            fit_adf_window(np.full(16, 2.2e-21), 0, 16, det="const", k=0)
        near = 1e9 + np.array([-1.0, 0.0, 1.0, 2.0, 2.0])
        with pytest.raises(DegenerateFitError, match="rank-deficient"):
            fit_adf_window(near, 0, 5, det="none", k=1)

    def test_exact_explosive_fit_diverges(self):
        # doubling sequence: delta = 1 with a residual at rounding level,
        # so the t-ratio is +inf or astronomically large
        v = 2.0 ** np.arange(8)
        t = fit_adf_window(v, 0, 8, det="none", k=0).tstat
        assert t == np.inf or t > 1e6

    def test_singular_gram_is_degenerate(self):
        # lstsq finds this doubling window full rank, but its Gram matrix
        # is singular in floating point: the fit once raised LinAlgError
        v = np.concatenate([[-19.0, -20.0, -23.0, -22.0], -23.0 + 2.0 ** np.arange(1, 32)])
        with suppress(DegenerateFitError):
            fit_adf_window(v, 0, v.size, det="trend", k=2)
        assert np.isfinite(bsadf_backward(v, 18, det="trend", k=2)[0][18:]).any()

    def test_ill_conditioned_window_matches_exact_arithmetic(self):
        # windows reaching into the exact doubling of an integer walk have
        # a nearly singular design: a standard error from the inverse Gram
        # matrix squared its condition number and read NaN
        v = _block_panel(60)[-1]
        cases = (
            (24, "const", 1, 5.47276440),
            (25, "const", 1, 4.93976866),
            (21, "const", 2, 5.37621223),
            (24, "trend", 1, 4.92970933),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for start, det, k, value in cases:
                exact = _exact_tstat(v, start, 60, det, k)
                assert exact == pytest.approx(value, abs=1e-8)
                assert fit_adf_window(v, start, 60, det=det, k=k).tstat == pytest.approx(exact, rel=1e-6)

    def test_bad_bounds(self):
        v = np.arange(10.0)
        with pytest.raises(ValueError):
            fit_adf_window(v, -1, 5)
        with pytest.raises(ValueError):
            fit_adf_window(v, 5, 5)
        with pytest.raises(ValueError):
            fit_adf_window(v, 0, 11)


class TestVectorizedPairs:
    @pytest.mark.parametrize("det", DETS)
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_agrees_with_dense(self, det, k):
        rng = np.random.default_rng(101)
        v = np.cumsum(rng.standard_normal(50)) + 50.0
        starts, ends = _grid(50, 12)
        fast = adf_tstat_pairs(v, starts, ends, det=det, k=k)
        dense = np.array(
            [fit_adf_window(v, s, e, det=det, k=k).tstat for s, e in zip(starts, ends)]
        )
        np.testing.assert_allclose(fast, dense, atol=1e-8)

    def test_short_windows_yield_nan(self):
        v = np.cumsum(np.random.default_rng(3).standard_normal(20))
        out = adf_tstat_pairs(v, [0, 0], [3, 20], det="const", k=0)
        assert np.isnan(out[0]) and np.isfinite(out[1])

    def test_collinear_window_yields_nan(self):
        # alternating series makes the lagged difference an exact linear
        # combination of intercept and level, for every window
        v = np.array([1.0, -1.0] * 10)
        out = adf_tstat_pairs(v, [0], [20], det="const", k=1)
        assert np.isnan(out[0])
        with pytest.raises(DegenerateFitError):
            fit_adf_window(v, 0, 20, det="const", k=1)

    def test_bounds_validation(self):
        v = np.arange(10.0)
        with pytest.raises(ValueError):
            adf_tstat_pairs(v, [0], [11])
        with pytest.raises(ValueError):
            adf_tstat_pairs(v, [5], [5])

    def test_integer_shift_is_bit_exact(self):
        # anchored accumulation: adding an integer constant to integer data
        # changes nothing at all in the intercept models
        rng = np.random.default_rng(7)
        v = np.round(np.cumsum(rng.integers(-3, 4, size=40))).astype(float)
        starts, ends = _grid(40, 10)
        for det in ("const", "trend"):
            base = adf_tstat_pairs(v, starts, ends, det=det, k=1)
            shifted = adf_tstat_pairs(v + 1000.0, starts, ends, det=det, k=1)
            np.testing.assert_array_equal(base, shifted)

    def test_power_of_two_scale_is_bit_exact(self):
        rng = np.random.default_rng(13)
        v = np.cumsum(rng.standard_normal(40))
        starts, ends = _grid(40, 10)
        for det in DETS:
            base = adf_tstat_pairs(v, starts, ends, det=det, k=0)
            scaled = adf_tstat_pairs(v * 64.0, starts, ends, det=det, k=0)
            np.testing.assert_array_equal(base, scaled)


class TestScans:
    def test_prefix_stats_match_oracle(self):
        rng = np.random.default_rng(41)
        v = np.cumsum(rng.standard_normal(45))
        for det, k in (("const", 0), ("trend", 1), ("none", 0)):
            got = sadf_prefix_stats(v, 9, det=det, k=k)
            for e in range(9, 46):
                want = oracles.adf_fit(v, 0, e, det, k).tstat
                assert got[e] == pytest.approx(want, abs=1e-8)
            assert np.isnan(got[:9]).all()

    def test_backward_scan_matches_oracle(self):
        rng = np.random.default_rng(43)
        v = np.cumsum(rng.standard_normal(40))
        for det, k in (("const", 0), ("trend", 0), ("const", 1)):
            maxvals, argmax_s = bsadf_backward(v, 8, det=det, k=k)
            stats, starts = oracles.bsadf_curve(v, 8, det, k)
            for e in range(8, 41):
                assert maxvals[e] == pytest.approx(stats[e], abs=1e-8)
                assert argmax_s[e] == starts[e]

    def test_backward_scan_matrix(self):
        rng = np.random.default_rng(47)
        v = np.cumsum(rng.standard_normal(25))
        maxvals, argmax_s = bsadf_backward(v, 6)
        for e in range(6, 26):
            row = adf_tstat_pairs(v, np.arange(e - 6 + 1), np.full(e - 6 + 1, e))
            for s in range(0, e - 6 + 1):
                want = oracles.adf_fit(v, s, e, "const", 0).tstat
                assert row[s] == pytest.approx(want, abs=1e-8)
            assert maxvals[e] == pytest.approx(np.nanmax(row), abs=0)

    def test_panel_rows_match_single_series(self):
        # one scan over a panel gives each row exactly its own scan, and
        # the sup over the pair-enumerated windows of that row
        rng = np.random.default_rng(53)
        panel = np.cumsum(rng.standard_normal((4, 60)), axis=1)
        panel[1] += 40.0
        starts, ends = _grid(60, 12)
        for det, k in (("const", 0), ("none", 1), ("trend", 2)):
            maxvals, argmax_s = bsadf_backward(panel, 12, det=det, k=k)
            assert maxvals.shape == argmax_s.shape == (4, 61)
            prefix = sadf_prefix_stats(panel, 12, det=det, k=k)
            for r, v in enumerate(panel):
                one, one_arg = bsadf_backward(v, 12, det=det, k=k)
                np.testing.assert_array_equal(maxvals[r], one)
                np.testing.assert_array_equal(argmax_s[r], one_arg)
                np.testing.assert_array_equal(prefix[r], sadf_prefix_stats(v, 12, det=det, k=k))
                vals = adf_tstat_pairs(v, starts, ends, det=det, k=k)
                for e in range(12, 61):
                    row = vals[ends == e]
                    assert one[e] == pytest.approx(np.nanmax(row), rel=1e-12, abs=1e-12)
                    assert one_arg[e] == int(np.nanargmax(row))

    def test_panel_gsadf_dominates_sadf_exactly(self):
        rng = np.random.default_rng(57)
        panel = np.cumsum(rng.standard_normal((30, 80)), axis=1) + 7.0
        for det, k in (("const", 0), ("trend", 1), ("none", 2)):
            assert (gsadf_panel(panel, det=det, k=k) >= sadf_panel(panel, det=det, k=k)).all()

    def test_exact_tie_takes_smallest_start(self, monkeypatch):
        # window statistics are served from a fixed matrix per series so
        # the sup and its tie-break are checked on exact ties
        tm = np.full((2, 8, 8), np.nan)
        tm[0, 6, :3] = (1.0, 2.0, 2.0)
        tm[0, 7, 0] = -1.0
        tm[0, 5, 1] = -np.inf
        tm[1, 5, :2] = (3.0, 3.0)
        tm[1, 6, 2] = np.inf
        tm[1, 7, :4] = (-np.inf, -np.inf, np.nan, -np.inf)

        def served(Y, C, slots, nobs, starts, ends, det, k):
            return tm[:, ends, starts].T

        monkeypatch.setattr(ols, "_window_tstats", served)
        maxvals, argmax_s = bsadf_backward(np.zeros((2, 7)), 4)
        assert np.isnan(maxvals[:, 4]).all() and (argmax_s[:, 4] == -1).all()
        assert maxvals[0, 6] == 2.0 and argmax_s[0, 6] == 1
        assert maxvals[0, 7] == -1.0 and argmax_s[0, 7] == 0
        assert maxvals[0, 5] == -np.inf and argmax_s[0, 5] == 1
        assert maxvals[1, 5] == 3.0 and argmax_s[1, 5] == 0
        assert maxvals[1, 6] == np.inf and argmax_s[1, 6] == 2
        assert maxvals[1, 7] == -np.inf and argmax_s[1, 7] == 0

    def test_tie_across_blocks_takes_smallest_start(self, monkeypatch):
        # window statistics served from a fixed matrix per series, read in
        # two blocks of two lengths (4, 5 then 6, 7): an exact tie between
        # lengths in different blocks goes to the longer window
        tm = np.full((2, 8, 8), np.nan)
        tm[0, 7, :4] = (np.nan, 5.0, 4.0, 5.0)
        tm[1, 7, :4] = (np.nan, 1.0, 1.5, 2.0)
        tm[1, 6, :3] = (-np.inf, np.nan, -np.inf)
        seen = []

        def served(Y, C, slots, nobs, starts, ends, det, k):
            seen.append(sorted(set(ends - starts)))
            return tm[:, ends, starts].T

        monkeypatch.setattr(ols, "_window_tstats", served)
        monkeypatch.setattr(ols, "CHUNK_CELLS", 64)  # 16 cells: 2 lengths x 4 endpoints x 2 rows
        maxvals, argmax_s = bsadf_backward(np.zeros((2, 7)), 4)
        assert seen == [[4, 5], [6, 7]]
        assert maxvals[0, 7] == 5.0 and argmax_s[0, 7] == 1
        assert maxvals[1, 7] == 2.0 and argmax_s[1, 7] == 3
        assert maxvals[1, 6] == -np.inf and argmax_s[1, 6] == 0

    def test_integer_data_argmax_attains_oracle_sup(self):
        # on integer-valued data exact ties can occur; the reported start
        # must attain the oracle's sup (to tolerance) for every endpoint
        rng = np.random.default_rng(59)
        for _ in range(5):
            v = np.cumsum(rng.integers(-2, 3, size=24)).astype(float)
            if np.ptp(v) == 0:
                continue
            maxvals, argmax_s = bsadf_backward(v, 5)
            stats, _starts = oracles.bsadf_curve(v, 5, "const", 0)
            for e in range(5, 25):
                if np.isnan(stats[e]):
                    assert np.isnan(maxvals[e])
                    continue
                assert maxvals[e] == pytest.approx(stats[e], abs=1e-9)
                attained = oracles.adf_fit(v, int(argmax_s[e]), e, "const", 0).tstat
                assert attained == pytest.approx(stats[e], abs=1e-9)


def _guard_panel(T=60):
    """Rows that exercise the scan's numeric guards.

    0: an ordinary walk; 1: the walk offset by 1e9; 2: integer-valued
    steps on a large integer offset; 3: a walk with a flat stretch;
    4: a constant row, where every window is degenerate.
    """
    rng = np.random.default_rng(71)
    walk = np.cumsum(rng.standard_normal(T))
    ints = np.cumsum(rng.integers(-3, 4, size=T)).astype(float)
    flat = walk.copy()
    flat[20:35] = flat[20]
    return np.stack([walk, walk + 1e9, ints + 2.0**40, flat, np.full(T, 5.0)]), ints


#: Offsets of the guard panel's rows.  Subtracting them is exact, and the
#: dense oracle (which fits unanchored levels) is run on the difference.
_OFFSETS = (0.0, 1e9, 2.0**40, 0.0)


class TestPanelGuards:
    M0 = 12

    # exact fits on the flat stretch divide by a zero standard error in
    # the oracle
    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    def test_rows_match_dense_oracles(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[1:3])
            return dense_or_nan(*args)

        dense_or_nan = ols._dense_or_nan
        monkeypatch.setattr(ols, "_dense_or_nan", counted)
        panel, _ = _guard_panel()
        for det, k in (("const", 0), ("const", 2), ("trend", 1)):
            maxvals, argmax_s = bsadf_backward(panel, self.M0, det=det, k=k)
            prefix = sadf_prefix_stats(panel, self.M0, det=det, k=k)
            for r, offset in enumerate(_OFFSETS):
                frame = panel[r] - offset
                stats, starts = oracles.bsadf_curve(frame, self.M0, det, k)
                np.testing.assert_allclose(maxvals[r], stats, rtol=1e-12, atol=1e-12)
                np.testing.assert_array_equal(argmax_s[r], starts)
                for e in range(self.M0, 61):
                    want = oracles.adf_fit(frame, 0, e, det, k).tstat
                    assert prefix[r, e] == pytest.approx(want, rel=1e-12, abs=1e-12)
            assert np.isnan(maxvals[4]).all() and (argmax_s[4] == -1).all()
            assert np.isnan(prefix[4]).all()
        # the flat stretch sends windows to the dense refit
        assert len(calls) > 0

    def test_integer_offset_is_bit_exact(self):
        panel, ints = _guard_panel()
        for det, k in (("const", 0), ("trend", 1)):
            got = bsadf_backward(panel, self.M0, det=det, k=k)
            base = bsadf_backward(ints, self.M0, det=det, k=k)
            np.testing.assert_array_equal(got[0][2], base[0])
            np.testing.assert_array_equal(got[1][2], base[1])

    def test_degenerate_row_is_nan_in_panel_and_raises_alone(self):
        panel, _ = _guard_panel()
        for name, panel_fn, fn in (("sadf", sadf_panel, sadf), ("gsadf", gsadf_panel, gsadf)):
            vals = panel_fn(panel, tau0=0.2)
            assert np.isnan(vals[4]) and np.isfinite(vals[:4]).all()
            for r in range(4):
                assert vals[r] == fn(panel[r], tau0=0.2).value
            with pytest.raises(DegenerateFitError):
                fn(panel[4], tau0=0.2)

    def test_panel_input_validation(self):
        bad = np.zeros((2, 20))
        bad[1, 3] = np.nan
        with pytest.raises(ValueError):
            bsadf_backward(bad, 5)


def _unit_diagonal_gram(rng, p, smallest):
    """A seeded SPD matrix with eigenvalues spread from 1 down to
    ``smallest``, scaled to unit diagonal as the scan scales a Gram."""
    Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
    M = (Q * np.geomspace(1.0, smallest, p)) @ Q.T
    scale = 1.0 / np.sqrt(np.diag(M))
    A = M * scale[:, None] * scale
    A = (A + A.T) / 2
    np.fill_diagonal(A, 1.0)
    return A


def test_pivot_bound_dominates_condition_number():
    # the scan sends a window to the exact eigenvalue check only where
    # p^p / prod(pivots) passes COND_LIMIT: on a unit-diagonal Gram that
    # bound must dominate the condition number (for p = 2 it is
    # 4 / (1 - r^2) = 2 trace(A^-1), within rounding of the condition number
    # as |r| -> 1, hence the slack)
    rng = np.random.default_rng(14)
    for p in range(2, 6):
        for spread in np.geomspace(1.0, 1e-14, 15):
            for _ in range(8):
                A = _unit_diagonal_gram(rng, p, spread)
                lam = np.linalg.eigvalsh(A)
                if not lam[0] > 0:
                    continue
                bound = p**p / np.prod(np.diag(np.linalg.cholesky(A)) ** 2)
                assert bound >= lam[-1] / lam[0] * (1 - 1e-9)
                if p == 2:
                    assert bound == pytest.approx(2 * np.trace(np.linalg.inv(A)), rel=1e-12)


def test_scan_guard_flags_every_gram_past_the_condition_limit():
    # unit-diagonal Gram matrices around COND_LIMIT, served to the scan's
    # t-ratio step as window moments (Z'dy = 0, so only conditioning can
    # ask for a refit): the pivot filter must let the eigenvalue check see
    # every window past the limit
    rng = np.random.default_rng(15)
    for p in range(2, 6):
        # for p = 2 the condition number is exactly (1 + r) / (1 - r)
        conds = np.geomspace(1e10, 1e14, 40)
        A = np.stack([
            np.array([[1.0, r], [r, 1.0]]) if p == 2 else _unit_diagonal_gram(rng, p, 1 / cond)
            for cond, r in zip(conds, (conds - 1) / (conds + 1))
        ])
        slots = {(i, j): i * (p + 1) + j for i in range(p + 1) for j in range(i, p + 1)}
        C = np.zeros(((p + 1) ** 2, len(A), 1))
        for (i, j), n in slots.items():
            C[n, :, 0] = A[:, i, j] if j < p else 1.0 if i == p else 0.0
        _, refit = ols._tstats(C, slots, np.full(len(A), 100), p)
        lam = np.linalg.eigvalsh(A)
        past = ~(lam[:, 0] > 0) | (lam[:, -1] > ols.COND_LIMIT * lam[:, 0])
        assert past.any() and not past.all()
        np.testing.assert_array_equal(refit[:, 0], past)


def length_blocks(monkeypatch, nl):
    """Make every block of the length sweep nl window lengths long, fewer
    where fewer lengths or endpoints are left; returns the block sizes taken."""
    sizes = []

    def lengths(ne, rows, left):
        sizes.append(min(nl, left, ne))
        return sizes[-1]

    monkeypatch.setattr(ols, "_lengths", lengths)
    return sizes


def _block_panel(T=60):
    """The guard panel's walk, integer walk + 1e6 (dense refits), flat
    stretch (NaN windows) and constant row, and an integer walk whose
    steps double exactly from index 29 on: windows inside the doubling fit
    exactly, so the last endpoints read +inf."""
    panel, ints = _guard_panel(T)
    grow = ints.copy()
    grow[29:] = grow[28] + 2.0 ** np.arange(1, T - 28) - 1.0
    return np.vstack([panel[[0, 3, 4]], ints + 1e6, grow])


class TestLengthBlocks:
    """Blocks of window lengths share one sweep; every block size gives
    the curves, starts and dense refits of one length at a time, bit for bit."""

    T, M0 = 60, 18  # 43 lengths: a partial last block for nl = 2, 3 and 7

    def _scans(self, Y, det, k):
        return bsadf_backward(Y, self.M0, det=det, k=k), gsadf_panel(Y, tau0=self.M0 / self.T, det=det, k=k)

    def test_block_sizes_match_single_lengths(self, monkeypatch):
        Y = _block_panel(self.T)
        refits = []

        def counted(*args):
            refits.append(args[1:3])
            return dense_or_nan(*args)

        dense_or_nan = ols._dense_or_nan
        monkeypatch.setattr(ols, "_dense_or_nan", counted)
        refit_any = False
        for det, k in (("const", 0), ("none", 1), ("trend", 2)):
            assert set(length_blocks(monkeypatch, 1)) <= {1}
            (want, want_s), want_g = self._scans(Y, det, k)
            want_refits, refits[:] = sorted(refits), []
            refit_any |= bool(want_refits)
            for nl in (2, 3, 7):
                sizes = length_blocks(monkeypatch, nl)
                (got, got_s), got_g = self._scans(Y, det, k)
                assert nl in sizes and 0 < sizes[-1] < nl
                assert sorted(refits) == want_refits
                np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(got_s, want_s)
                np.testing.assert_array_equal(got_g, want_g)
                for r, v in enumerate(Y):
                    one, one_s = bsadf_backward(v, self.M0, det=det, k=k)
                    np.testing.assert_array_equal(one, want[r])
                    np.testing.assert_array_equal(one_s, want_s[r])
                    if r != 2:  # the constant row raises alone
                        assert gsadf(v, tau0=self.M0 / self.T, det=det, k=k).value == want_g[r]
                refits.clear()
            assert np.isnan(want[2]).all() and np.isnan(want_g[2])
        # the exact fits of the doubling row read +inf, also from windows
        # in a block's later lengths
        inf_ends = np.flatnonzero(want[4] == np.inf)
        assert inf_ends.size and ((inf_ends - want_s[4, inf_ends] - self.M0) % 7 != 0).any()
        assert refit_any

    def test_pairs_match_the_dense_fit_across_blocks(self, monkeypatch):
        # every window of the grid, read from blocks of 3 lengths and
        # blocks of 1, equals the dense fit (NaN where it is degenerate)
        starts, ends = _grid(self.T, self.M0)
        for v in _block_panel(self.T)[[1, 3, 4]]:
            length_blocks(monkeypatch, 1)
            one = adf_tstat_pairs(v, starts, ends, det="const", k=1)
            sizes = length_blocks(monkeypatch, 3)
            block = adf_tstat_pairs(v, starts, ends, det="const", k=1)
            assert 3 in sizes and set(sizes) <= {1, 2, 3}
            np.testing.assert_array_equal(block, one)
            dense = [ols._dense_or_nan(v, s, e, "const", 1) for s, e in zip(starts, ends)]
            np.testing.assert_allclose(block, dense, rtol=1e-9, atol=1e-9)

    def test_budget_sets_the_block_sizes(self):
        # a quarter of CHUNK_CELLS per block: one length for a bootstrap
        # chunk of rows, many for one series, never more than are left
        budget = ols.CHUNK_CELLS // 4
        rows = ols.CHUNK_CELLS // 200
        assert ols._lengths(175, rows, 175) == 1
        assert ols._lengths(300, 1, 270) == budget // 300 > 1
        assert ols._lengths(30, 1, 30) == 30
        assert ols._lengths(60, 1, 4) == 4


class TestLiveCells:
    """The sweep evaluates only windows that start at or after y_1."""

    @pytest.mark.parametrize("nl", [None, 1, 7])
    def test_cells_reaching_the_kernel_are_the_windows(self, monkeypatch, nl):
        # one series at T = 300, k = 2 (many-length blocks), and a panel;
        # the kernel sees every window (s, e], s = 0..e-m0, once and no other
        seen = []

        def counted(C, slots, nobs, p, coefs=0):
            seen.append(C.shape[1])
            return tstats(C, slots, nobs, p, coefs)

        tstats = ols._tstats
        monkeypatch.setattr(ols, "_tstats", counted)
        if nl is not None:
            length_blocks(monkeypatch, nl)
        y = 100 + np.cumsum(np.random.default_rng(31).standard_normal(300))
        panel = 100 + np.cumsum(np.random.default_rng(32).standard_normal((40, 120)), axis=1)
        for values, m0, k, sups in ((y, 34, 2, False), (y, 60, 0, True), (panel, 25, 1, False), (panel, 25, 0, True)):
            seen.clear()
            ols._backward(values, m0, "const", k, sups)
            T = values.shape[-1]
            assert sum(seen) == sum(e - m0 + 1 for e in range(m0, T + 1))


def _reference_rule(C, slots, nobs, p):
    """The scan's guards on every window in one pass, as the parent
    engine applied them (no fast mask): ``(t, refit)`` of ``ols._tstats``."""
    nobs = nobs[:, None]

    def gram(i, j):
        return C[slots[i, j]] if (i, j) in slots else nobs

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        usable = nobs >= p + 1
        for i in range(p):
            usable = usable & (gram(i, i) > 0)
        D = [1.0 / np.sqrt(gram(i, i)) for i in range(p)]
        L, pd, pivots = {}, usable, 1.0
        for j in range(p):
            if j:
                piv = 1.0 - sum((L[j, m] ** 2 for m in range(1, j)), L[j, 0] ** 2)
                pd = pd & (piv > 0)
                L[j, j] = np.sqrt(piv)
                pivots = pivots * piv if j > 1 else piv
            for i in range(j + 1, p):
                gh = gram(j, i) * D[i] * D[j]
                L[i, j] = (gh - sum((L[i, m] * L[j, m] for m in range(1, j)), L[i, 0] * L[j, 0])) / L[j, j] if j else gh
        z = [D[0] * C[slots[0, p]]]
        for i in range(1, p):
            z.append((D[i] * C[slots[i, p]] - sum((L[i, m] * z[m] for m in range(1, i)), L[i, 0] * z[0])) / L[i, i])
        illcond = usable & ~pd
        suspect = np.flatnonzero(pd & (pivots * ols.COND_LIMIT < p**p))
        if suspect.size:
            G = np.empty((suspect.size, p, p))
            for i in range(p):
                G[:, i, i] = 1.0
                for j in range(i + 1, p):
                    G[:, i, j] = G[:, j, i] = (gram(i, j) * D[i] * D[j]).ravel()[suspect]
            lam = np.linalg.eigvalsh(G)
            np.put(illcond, suspect[~(lam[:, 0] > 0) | (lam[:, -1] > ols.COND_LIMIT * lam[:, 0])], True)
        sdd = C[slots[p, p]]
        ssr = sdd - sum((zi * zi for zi in z[1:]), z[0] * z[0])
        t = z[-1] / np.sqrt(ssr / (nobs - p))
        refit = illcond | (pd & ~((ssr > 1e-5 * np.maximum(sdd, 1e-300)) & np.isfinite(t)))
        t[~pd | refit] = np.nan
    return t, refit


class TestWorkspaces:
    """Each scan makes its own workspaces: scans of every shape, run
    inside one another, give what each gives alone, bit for bit."""

    @staticmethod
    def _calls():
        rng = np.random.default_rng(41)
        panel = 100 + np.cumsum(rng.standard_normal((30, 80)), axis=1)
        walk = 100 + np.cumsum(rng.standard_normal(90))
        stress = _block_panel(60)
        return [
            lambda: bsadf_backward(panel, 12, det="const", k=0),
            lambda: gsadf_panel(panel, tau0=0.2, det="trend", k=1),
            lambda: bsadf_backward(walk, 15, det="trend", k=2),
            lambda: bsadf_backward(stress, 18, det="none", k=1),
            lambda: bsadf_backward(stress, 18, det="trend", k=2),
            lambda: gsadf_panel(stress, tau0=0.3, det="const", k=0),
            lambda: sadf_prefix_stats(stress, 18, det="const", k=2),
            lambda: recursive._hb_curves(stress, 0.2, k=1),
            lambda: recursive._gls_curves(stress, 18, det="trend")[0],
            lambda: inference.rolling_ar_coefficients(walk, 25).values,
            lambda: inference.recursive_ar_coefficients(walk).values,
            lambda: robust.sign_path(walk, filter_lags=2),
        ]

    @staticmethod
    def _same(got, want):
        for g, w in zip(got if isinstance(got, tuple) else (got,), want if isinstance(want, tuple) else (want,)):
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()

    def test_nested_scans_match_each_alone(self, monkeypatch):
        calls = self._calls()
        alone = [f() for f in calls]
        nested, depth = iter(range(10**6)), [0]

        def interleaved(*args, **kwargs):  # every kernel call first runs another whole scan
            if not depth[0]:
                depth[0] = 1
                j = next(nested) % len(calls)
                self._same(calls[j](), alone[j])
                depth[0] = 0
            return tstats(*args, **kwargs)

        tstats = ols._tstats
        monkeypatch.setattr(ols, "_tstats", interleaved)
        for f, want in zip(calls, alone):
            self._same(f(), want)
        assert next(nested) > len(calls)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stress_rows_refit_the_reference_set(self, monkeypatch):
        # the fast mask passes a window only where the one-pass rule does
        # not flag it; the windows it rejects are classified as that rule does
        checked = {"refit": 0, "nan": 0}

        def compared(C, slots, nobs, p, coefs=0):
            want_t, want_refit = _reference_rule(C, slots, nobs, p)
            t, refit = tstats(C, slots, nobs, p, coefs)
            np.testing.assert_array_equal(refit, want_refit)
            np.testing.assert_array_equal(t if not coefs else t[0], want_t)
            checked["refit"] += int(refit.sum())
            checked["nan"] += int((np.isnan(want_t) & ~want_refit).sum())
            return t, refit

        tstats = ols._tstats
        monkeypatch.setattr(ols, "_tstats", compared)
        stress = _block_panel(60)
        for det, k in (("none", 1), ("const", 0), ("const", 2), ("trend", 2)):
            bsadf_backward(stress, 18, det=det, k=k)
            ols._backward(stress, 18, det, k, sups=True)
            sadf_prefix_stats(stress, 18, det=det, k=k)
        recursive._hb_curves(stress, 0.2, k=2)
        recursive._gls_curves(stress, 18, det="const")
        assert checked["refit"] > 0 and checked["nan"] > 0


class TestGls:
    def test_hand_computed_constant_case(self):
        # n = 3, y = (1, 2, 4), intercept only: rho = 1 + 1.6/3,
        # theta = sum(za*ya)/sum(za^2) with ya = (1, 2-rho, 4-2rho),
        # za = (1, 1-rho, 1-rho)
        y = np.array([1.0, 2.0, 4.0])
        rho = 1.0 + 1.6 / 3.0
        ya = np.array([1.0, 2.0 - rho, 4.0 - 2.0 * rho])
        za = np.array([1.0, 1.0 - rho, 1.0 - rho])
        theta = (za @ ya) / (za @ za)
        np.testing.assert_allclose(gls_adjust(y, det="const"), y - theta, atol=1e-12)

    @pytest.mark.parametrize("det", ["const", "trend"])
    def test_matches_oracle(self, det):
        rng = np.random.default_rng(61)
        v = np.cumsum(rng.standard_normal(30)) + 5.0
        np.testing.assert_allclose(
            gls_adjust(v, det=det), oracles.gls_residuals(v, det), atol=1e-9
        )

    def test_custom_cbar(self):
        v = np.cumsum(np.random.default_rng(67).standard_normal(20))
        np.testing.assert_allclose(
            gls_adjust(v, det="const", c_bar=-7.0),
            oracles.gls_residuals(v, "const", c_bar=-7.0),
            atol=1e-9,
        )

    def test_needs_deterministics(self):
        with pytest.raises(ValueError):
            gls_adjust(np.arange(5.0), det="none")

    def test_constant_series_residuals_vanish(self):
        u = gls_adjust(np.full(15, 2.5), det="const")
        np.testing.assert_allclose(u, 0.0, atol=1e-12)


class TestNoConstTstat:
    def test_hand_computed(self):
        # u = (1, 2, 3): delta = 3/5, ssr = 1/5, sigma2 = 1/5, t = 3
        assert tstat_ar_noconst(np.array([1.0, 2.0, 3.0])) == pytest.approx(3.0, abs=1e-12)

    def test_exact_fit_is_inf(self):
        assert tstat_ar_noconst(np.array([1.0, 2.0, 4.0])) == np.inf
        # an exact fit up to rounding, judged by the dense fits' relative rule
        u = 3 * 1.07 ** np.arange(40)
        assert tstat_ar_noconst(u) == np.inf
        assert fit_adf_window(u, 0, 40, "none").tstat == np.inf

    def test_degenerate(self):
        with pytest.raises(DegenerateFitError):
            tstat_ar_noconst(np.zeros(10))
        with pytest.raises(DegenerateFitError):
            tstat_ar_noconst(np.array([1.0, 2.0]))


@settings(max_examples=25, deadline=None)
@given(
    data=st.lists(st.integers(min_value=-5, max_value=5), min_size=14, max_size=28),
    shift=st.integers(min_value=-1000, max_value=1000),
)
def test_property_integer_shift_invariance(data, shift):
    v = np.cumsum(np.asarray(data, dtype=float))
    if np.ptp(v) == 0:
        return
    try:
        base = fit_adf_window(v, 0, v.size, det="const", k=0).tstat
    except DegenerateFitError:
        return
    moved = fit_adf_window(v + float(shift), 0, v.size, det="const", k=0).tstat
    assert base == moved


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=16, max_size=40))
# the window (5, 15] fits exactly (slope -1, zero residual); both routes
# once read its rounding noise as a finite t-ratio of order -1e8 or -1e15
@example(data=[0.0] * 6 + [1.5] + [0.0] * 9)
# the window (2, 16] nearly fits (ssr = 3.6e-7 dy'dy, t about -5278): the
# moment route's cancellation in ssr once cost it 7e-6 against the dense fit
@example(
    data=[36.26398162974816, 36.48633330171816, 0.3617060016995967, -13.158347297820372,
          -0.3339915542113628] + [0.0] * 11
)
def test_property_vectorized_matches_dense(data):
    v = np.cumsum(np.asarray(data))
    starts = np.array([0, 2, 5])
    ends = np.array([v.size, v.size, v.size - 1])
    fast = adf_tstat_pairs(v, starts, ends, det="const", k=0)
    for i, (s, e) in enumerate(zip(starts, ends)):
        try:
            dense = fit_adf_window(v, s, e, det="const", k=0).tstat
        except DegenerateFitError:
            assert np.isnan(fast[i])
            continue
        if np.isinf(dense) or np.isinf(fast[i]):
            assert fast[i] == dense
        else:
            assert fast[i] == pytest.approx(dense, abs=1e-7)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.floats(-50, 50, allow_nan=False), min_size=16, max_size=60),
    st.sampled_from(DETS),
    st.integers(0, 2),
    st.sampled_from((2, 3, 7)),
)
# the window (0, 16] has lagged level and lagged difference nearly
# collinear (coefficients +-5e4): the moment route reads t = 3.4641051
# against the dense 3.4641018
@example(data=[0.0] * 11 + [1e-5, 0.0, 0.0, 1.0, 0.0], det="none", k=1, nb=2)
def test_property_backward_scan_matches_dense(data, det, k, nb):
    # each endpoint's sup and start, scanned in blocks of nb endpoints:
    # bit for bit the scan of one endpoint at a time, and the dense fit of
    # every window to within the moment route's error, which grows with
    # the equilibrated Gram's condition number up to COND_LIMIT
    v = np.cumsum(np.asarray(data))
    T = v.size
    m0 = 2 * k + 7
    tol = ols.COND_LIMIT * np.finfo(float).eps
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ols, "CHUNK_CELLS", 8 * nb * T)
        maxvals, argmax_s = bsadf_backward(v, m0, det=det, k=k)
        mp.setattr(ols, "CHUNK_CELLS", 1)
        one = bsadf_backward(v, m0, det=det, k=k)
    np.testing.assert_array_equal(maxvals, one[0])
    np.testing.assert_array_equal(argmax_s, one[1])
    for e in range(m0, T + 1):
        dense = np.array([ols._dense_or_nan(v, s, e, det, k) for s in range(e - m0 + 1)])
        if np.isnan(dense).all():
            assert np.isnan(maxvals[e]) and argmax_s[e] == -1
            continue
        sup = np.nanmax(dense)
        if np.isinf(sup) or np.isinf(maxvals[e]):
            assert maxvals[e] == sup
        else:
            assert abs(maxvals[e] - sup) <= tol * max(1.0, abs(sup))
        assert abs(dense[argmax_s[e]] - sup) <= tol * max(1.0, abs(sup)) or dense[argmax_s[e]] == sup


class TestOneLength:
    """A block of one window length reads its windows with one nobs, and
    only the sup loop says when a block holds one length."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_scalar_nobs_gives_the_array_bits(self):
        # every one-length block of the stress rows, t-ratios, refit flags
        # and coefficients, from an int nobs and from nobs per window
        Y = np.ascontiguousarray(_block_panel(60).T)
        refits = nans = 0
        for det, k in (("none", 1), ("const", 0), ("const", 2), ("trend", 2)):
            p, block = ols._nparams(det, k), ols._sweep(Y, det, k, 18)
            for i0 in range(60 - k - 2):
                C, slots, ends, nobs = block(i0, 1)
                assert (nobs == i0 + 1).all()
                for coefs in (0, k + 1):
                    t, refit = ols._tstats(C.copy(), slots, nobs, p, coefs)
                    t1, refit1 = ols._tstats(C.copy(), slots, i0 + 1, p, coefs)
                    assert t1.tobytes() == t.tobytes() and refit1.tobytes() == refit.tobytes()
                refits += int(refit.sum())
                nans += int(np.isnan(t[0]).sum())
        assert refits > 0 and nans > 0

    def test_sup_loop_passes_the_length_of_one_length_blocks(self, monkeypatch):
        # 22 lengths in blocks of 3 leave a last block of one; the prefix
        # call's one row of starts holds many lengths, one per endpoint
        calls = []

        def stat(e, s, n):
            calls.append((len(s), n))
            assert np.all(n == e - s)
            return np.zeros((len(s), e.size, 2))

        for nl, double in ((1, True), (3, True), (1, False)):
            calls.clear()
            length_blocks(monkeypatch, nl)
            ols._sup_curve(stat, 2, 10, 31, double)
            ones = [isinstance(n, int) for _, n in calls]
            assert ones == [double and size == 1 for size, _ in calls]
            assert any(ones) == double

    def test_scans_read_one_length_blocks_with_an_int_nobs(self, monkeypatch):
        seen = []

        def counted(C, slots, nobs, p, coefs=0):
            seen.append(np.ndim(nobs))
            return tstats(C, slots, nobs, p, coefs)

        tstats = ols._tstats
        monkeypatch.setattr(ols, "_tstats", counted)
        # a bootstrap-sized panel takes one length per block until few
        # endpoints are left, then many
        panel = 100 + np.cumsum(np.random.default_rng(33).standard_normal((100, 120)), axis=1)
        ols._backward(panel, 25, "const", 0, sups=True)
        assert seen[0] == 0 and set(seen) == {0, 1}
        seen.clear()
        length_blocks(monkeypatch, 1)
        bsadf_backward(panel[:3], 25, det="trend", k=1)
        assert set(seen) == {0}
        seen.clear()
        inference.rolling_ar_coefficients(panel[0], 30)
        assert seen == [0]
        seen.clear()
        starts = np.array([5, 0, 40, 3])
        adf_tstat_pairs(panel[0], starts, starts + np.array([30, 50, 30, 31]))
        assert set(seen) == {1}
