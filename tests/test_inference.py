"""Post-detection inference: root CIs, drift exponent, cross-series tests."""

import contextlib
import inspect
import json
import math

import numpy as np
import pytest

import oracles
from exuberance import bootstrap as bt
from exuberance import ols
from exuberance.exceptions import DataError, DegenerateFitError
from exuberance.inference import (
    CAUCHY_PERCENTILES,
    MildlyExplosiveCI,
    cauchy_ci,
    cauchy_critical_value,
    cobubble_test,
    contagion_delay,
    drift_exponent,
    migration_test,
    recursive_ar_coefficients,
    rolling_ar_coefficients,
    t_ci,
)
from exuberance.ols import fit_adf_window
from exuberance.recursive import StatSequence


#: Changes of units and level that leave every answer unchanged.
UNITS = (
    lambda v: v * 1e-12,
    lambda v: v * 1e-9,
    lambda v: v * 1e9,
    lambda v: v * 1e12,
    lambda v: v + 1e8,
)


def _on_grid(v):
    """``v`` rounded to multiples of 2^-20, so adding 1e8 is exact: off the
    grid the shift itself rounds each observation by up to 7.5e-9."""
    return np.round(v * 2.0**20) / 2.0**20


def _explosive_segment(seed, n, rho=1.04, sigma=0.5, y0=10.0):
    rng = np.random.default_rng(seed)
    y = np.empty(n)
    y[0] = y0
    for t in range(1, n):
        y[t] = rho * y[t - 1] + sigma * rng.standard_normal()
    return y


def _bubble_path(rng, T, lo, hi, rho=1.05, y0=20.0):
    y = np.zeros(T)
    y[0] = y0
    for t in range(1, T):
        r = rho if lo <= t < hi else 1.0
        y[t] = r * y[t - 1] + rng.standard_normal()
    return y


def _rolling_like(template, values):
    return StatSequence(
        kind=template.kind,
        tau0=template.tau0,
        tau2=template.tau2,
        values=values,
        nobs=template.nobs,
    )


def _shift_labels(seq, c, new_nobs):
    """Relabel a sequence's time axis by +c, keeping the values."""
    ends = np.rint(seq.tau2 * seq.nobs).astype(int) + c
    return StatSequence(
        kind=seq.kind,
        tau0=seq.tau0,
        tau2=ends / new_nobs,
        values=seq.values,
        nobs=new_nobs,
    )


class TestCauchyCriticalValue:
    def test_published_percentiles(self):
        assert CAUCHY_PERCENTILES == {0.90: 6.315, 0.95: 12.7, 0.99: 63.65674}
        assert cauchy_critical_value(0.90) == 6.315
        assert cauchy_critical_value(0.95) == 12.7
        assert cauchy_critical_value(0.99) == 63.65674

    def test_other_levels_use_exact_quantile(self):
        for level in (0.80, 0.85, 0.925, 0.999):
            assert cauchy_critical_value(level) == pytest.approx(
                oracles.cauchy_two_sided(level), rel=1e-12
            )

    def test_published_values_close_to_exact(self):
        # the table keeps the source rounding; it must still agree with
        # the quantile function to its printed precision
        assert cauchy_critical_value(0.90) == pytest.approx(
            oracles.cauchy_two_sided(0.90), abs=2e-3
        )
        assert cauchy_critical_value(0.95) == pytest.approx(
            oracles.cauchy_two_sided(0.95), abs=7e-3
        )
        assert cauchy_critical_value(0.99) == pytest.approx(
            oracles.cauchy_two_sided(0.99), abs=1e-5
        )

    def test_level_validation(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                cauchy_critical_value(bad)


def test_quantiles_match_scipy_over_levels():
    stats = pytest.importorskip("scipy.stats")
    y = _explosive_segment(21, 90)
    _, se = oracles.ar1_slope(y, 0, y.size)
    for level in np.linspace(0.02, 0.995, 40):
        q = 0.5 + level / 2.0
        assert cauchy_critical_value(level) == pytest.approx(stats.cauchy.ppf(q), rel=1e-12)
        assert t_ci(y, level=level).half_width == pytest.approx(stats.norm.ppf(q) * se, rel=1e-10)


class TestCauchyCI:
    def test_frozen_half_width_example(self):
        # rho_hat = 1.05, n = 100, 95%: hw = (0.1025 / 1.05^100) * 12.7
        y = 1.05 ** np.arange(100)
        ci = cauchy_ci(y, level=0.95)
        assert ci.rho_hat == pytest.approx(1.05, abs=1e-12)
        expected = (1.05**2 - 1.0) / 1.05**100 * 12.7
        assert expected == pytest.approx(0.0098991448, abs=1e-9)
        assert ci.half_width == pytest.approx(expected, rel=1e-10)
        assert ci.lower == pytest.approx(1.0401, abs=5e-4)
        assert ci.upper == pytest.approx(1.0599, abs=5e-4)
        assert ci.method == "cauchy"
        assert ci.nobs == 100

    def test_oracle_parity_on_noisy_segments(self):
        for seed, n in ((1, 40), (2, 80), (3, 150)):
            y = _explosive_segment(seed, n)
            ci = cauchy_ci(y, level=0.95)
            rho_o, hw_o = oracles.cauchy_interval(y, 0.95, percentile=12.7)
            assert ci.rho_hat == pytest.approx(rho_o, rel=1e-12)
            assert ci.half_width == pytest.approx(hw_o, rel=1e-9)
            assert ci.lower <= ci.rho_hat <= ci.upper

    def test_half_width_strictly_decreasing_in_n(self):
        widths = []
        for n in range(20, 70, 10):
            y = 1.03 ** np.arange(n)
            widths.append(cauchy_ci(y, level=0.95).half_width)
        assert all(a > b for a, b in zip(widths, widths[1:]))

    def test_scale_invariance(self):
        y = _explosive_segment(7, 60)
        a = cauchy_ci(y, level=0.95)
        b = cauchy_ci(y * 1000.0, level=0.95)
        assert a.rho_hat == pytest.approx(b.rho_hat, rel=1e-12)
        assert a.half_width == pytest.approx(b.half_width, rel=1e-12)

    def test_rejects_non_explosive_segment(self):
        decaying = 50.0 * 0.9 ** np.arange(60)
        with pytest.raises(DataError, match="explosive"):
            cauchy_ci(decaying)

    def test_rejects_constant_segment(self):
        with pytest.raises(DataError, match="explosive"):
            cauchy_ci(np.full(30, 5.0))

    def test_short_segment_raises(self):
        with pytest.raises(DataError):
            cauchy_ci([1.0, 1.1])

    def test_zero_segment_raises(self):
        with pytest.raises(DegenerateFitError):
            cauchy_ci(np.zeros(20))

    def test_json_round_trip(self):
        ci = cauchy_ci(1.04 ** np.arange(50), level=0.9)
        loaded = json.loads(ci.to_json())
        assert loaded["method"] == "cauchy"
        assert loaded["level"] == 0.9
        assert loaded["lower"] <= loaded["rho_hat"] <= loaded["upper"]

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            MildlyExplosiveCI(
                rho_hat=1.05, lower=1.06, upper=1.07, level=0.95,
                method="cauchy", nobs=50,
            )
        with pytest.raises(ValueError):
            MildlyExplosiveCI(
                rho_hat=1.05, lower=1.0, upper=1.1, level=0.95,
                method="bayes", nobs=50,
            )


class TestTCI:
    def test_contains_rho_hat(self):
        for seed in range(4):
            y = _explosive_segment(seed, 60)
            ci = t_ci(y)
            assert ci.lower <= ci.rho_hat <= ci.upper
            assert ci.method == "t-normal"

    def test_oracle_parity(self):
        from scipy.stats import norm

        y = _explosive_segment(21, 90)
        ci = t_ci(y, det="const", level=0.95)
        slope, se = oracles.ar1_slope(y, 0, y.size)
        assert ci.rho_hat == pytest.approx(slope, rel=1e-10)
        assert ci.half_width == pytest.approx(norm.ppf(0.975) * se, rel=1e-10)

    def test_level_changes_width(self):
        y = _explosive_segment(5, 70)
        narrow = t_ci(y, level=0.90)
        wide = t_ci(y, level=0.99)
        assert wide.half_width > narrow.half_width
        assert narrow.rho_hat == wide.rho_hat

    def test_trend_det_accepted(self):
        y = _explosive_segment(6, 80)
        ci = t_ci(y, det="trend")
        assert ci.lower <= ci.rho_hat <= ci.upper

    def test_min_length(self):
        with pytest.raises(DataError):
            t_ci(1.05 ** np.arange(9))

    def test_level_validation(self):
        with pytest.raises(ValueError):
            t_ci(_explosive_segment(1, 30), level=1.5)


class TestCoverage:
    def test_both_intervals_cover_mildly_explosive_root(self):
        # scaled-down version of the full coverage study; the acceptance
        # gate runs 2000 replications
        T, c = 1000, 2.0
        rho = 1.0 + c / T**0.7
        R = 300
        cov_cauchy = cov_t = 0
        for r in range(R):
            rng = np.random.default_rng(30_000 + r)
            e = rng.standard_normal(T)
            y = np.empty(T)
            y[0] = e[0]
            for t in range(1, T):
                y[t] = rho * y[t - 1] + e[t]
            ci = cauchy_ci(y, level=0.95)
            cov_cauchy += ci.lower <= rho <= ci.upper
            e2 = rng.standard_normal(T)
            y2 = np.empty(T)
            y2[0] = e2[0]
            for t in range(1, T):
                y2[t] = 1.0 + rho * y2[t - 1] + e2[t]
            ti = t_ci(y2, det="const", level=0.95)
            cov_t += ti.lower <= rho <= ti.upper
        assert 0.90 <= cov_cauchy / R <= 0.995
        assert 0.90 <= cov_t / R <= 0.995


class TestDriftExponent:
    def test_pure_linear_trend_gives_zero(self):
        d = drift_exponent(np.arange(1, 101, dtype=float))
        assert d.mu_hat == 1.0
        assert d.eta_hat == 0.0
        assert d.eta_tilde == 0.0

    def test_recovers_shrinking_drift_exponent(self):
        T = 5000
        rng = np.random.default_rng(77)
        y = T**-0.3 * np.arange(1, T + 1) + 0.5 * rng.standard_normal(T)
        d = drift_exponent(y)
        assert abs(d.eta_hat - 0.3) < 0.15
        assert abs(d.eta_tilde - 0.3) < 0.15

    def test_oracle_parity(self):
        rng = np.random.default_rng(8)
        y = np.cumsum(0.2 + rng.standard_normal(60))
        d = drift_exponent(y)
        mu_o, mu_to = oracles.drift_moments(y)
        assert d.mu_hat == pytest.approx(mu_o, rel=1e-12)
        assert d.mu_tilde == pytest.approx(mu_to, rel=1e-12)
        assert d.eta_hat == pytest.approx(-math.log(abs(mu_o)) / math.log(60), rel=1e-12)

    def test_deterministic(self):
        y = np.cumsum(np.random.default_rng(3).standard_normal(50))
        a, b = drift_exponent(y), drift_exponent(y)
        assert a.eta_hat == b.eta_hat and a.eta_tilde == b.eta_tilde

    def test_demeaned_variant_ignores_level_shift(self):
        rng = np.random.default_rng(13)
        y = np.cumsum(0.3 + rng.standard_normal(80))
        a = drift_exponent(y)
        b = drift_exponent(y + 500.0)
        assert a.mu_tilde == pytest.approx(b.mu_tilde, rel=1e-9)
        assert a.mu_hat != pytest.approx(b.mu_hat, rel=1e-3)

    def test_zero_moment_raises(self):
        with pytest.raises(DegenerateFitError):
            drift_exponent(np.zeros(20))

    def test_min_length(self):
        with pytest.raises(DataError):
            drift_exponent(np.arange(1, 9, dtype=float))

    def test_json_round_trip(self):
        d = drift_exponent(np.arange(1, 51, dtype=float))
        loaded = json.loads(d.to_json())
        assert loaded["eta_hat"] == 0.0
        assert loaded["nobs"] == 50


class TestCoefficientSequences:
    def test_recursive_matches_windowed_oracle(self):
        rng = np.random.default_rng(40)
        y = _bubble_path(rng, 120, 40, 80)
        seq = recursive_ar_coefficients(y, tau0=0.1)
        ends = np.rint(seq.tau2 * seq.nobs).astype(int)
        assert ends[0] == 12 and ends[-1] == 120
        for j in (0, 5, 40, len(ends) - 1):
            slope, _ = oracles.ar1_slope(y, 0, ends[j])
            assert seq.values[j] == pytest.approx(slope, rel=1e-9)
        assert seq.kind == "ar1_recursive"

    def test_rolling_matches_windowed_oracle(self):
        rng = np.random.default_rng(41)
        y = _bubble_path(rng, 150, 50, 100)
        seq = rolling_ar_coefficients(y, window=30)
        ends = np.rint(seq.tau2 * seq.nobs).astype(int)
        assert ends[0] == 30 and ends[-1] == 150
        for j in (0, 17, 60, len(ends) - 1):
            slope, _ = oracles.ar1_slope(y, ends[j] - 30, ends[j])
            assert seq.values[j] == pytest.approx(slope, rel=1e-9)
        assert seq.kind == "ar1_rolling"
        assert seq.tau0 == pytest.approx(30 / 150)

    def test_degenerate_windows_become_nan(self):
        seq = rolling_ar_coefficients(np.full(40, 3.0), window=10)
        assert np.isnan(seq.values).all()

    def test_window_validation(self):
        y = np.arange(30, dtype=float)
        with pytest.raises(ValueError):
            rolling_ar_coefficients(y, window=3)
        with pytest.raises(DataError):
            rolling_ar_coefficients(y, window=31)


def _dense_ar1(y, starts, ends):
    """1 + delta_hat of the dense fit on each window (s, e]; NaN where it raises."""
    out = np.full(len(ends), np.nan)
    for i, (s, e) in enumerate(zip(starts, ends)):
        with contextlib.suppress(DegenerateFitError):
            out[i] = 1.0 + fit_adf_window(y, int(s), int(e), "const", 0).delta
    return out


def _reader_inputs(T=120):
    """Walks, bubbles, integer walks at 1e6, walks x 1e-9 and walks with a
    flat stretch, four seeds each."""
    out = {}
    for seed in range(4):
        rng = np.random.default_rng(700 + seed)
        w = 100 + np.cumsum(rng.standard_normal(T))
        f = w.copy()
        f[30:60] = f[30]
        out.update({
            f"walk{seed}": w, f"bubble{seed}": _bubble_path(rng, T, 40, 90, rho=1.04, y0=100.0),
            f"int{seed}": np.cumsum(rng.integers(-3, 4, T)) + 1e6, f"tiny{seed}": w * 1e-9, f"flat{seed}": f,
        })
    return out


class TestCoefficientReaders:
    """The AR coefficient sequences read the moment engine (one forward
    prefix pass, one sweep block) and match the dense fit per window."""

    #: Largest error relative to max(1, |value|), measured 1.2e-14 on these
    #: inputs (5.5e-14 on a wider seeded set), with room to spare.
    BOUND = 1e-13

    @pytest.mark.parametrize("name, y", _reader_inputs().items())
    def test_sequences_match_the_dense_fit(self, name, y):
        reads = [(recursive_ar_coefficients(y, tau0=0.05), None)]
        reads += [(rolling_ar_coefficients(y, w), w) for w in (4, 10, 30)]
        for seq, window in reads:
            ends = np.rint(seq.tau2 * seq.nobs).astype(int)
            want = _dense_ar1(y, np.zeros_like(ends) if window is None else ends - window, ends)
            np.testing.assert_array_equal(np.isnan(seq.values), np.isnan(want), err_msg=f"{name} {window}")
            ok = ~np.isnan(want)
            err = np.abs(seq.values[ok] - want[ok]) / np.maximum(1.0, np.abs(want[ok]))
            assert err.max(initial=0.0) <= self.BOUND, (name, window, err.max())

    def test_flat_stretch_refits_coefficients_densely(self, monkeypatch):
        calls = []
        dense_or_nan = ols._dense_or_nan

        def counted(v, s, e, det, k, coefs=False):
            calls.append((int(s), int(e), coefs))
            return dense_or_nan(v, s, e, det, k, coefs)

        monkeypatch.setattr(ols, "_dense_or_nan", counted)
        y = 100 + np.cumsum(np.random.default_rng(5).standard_normal(60))
        y[20:40] = y[20]
        # the window (19, 27] fits exactly: one level before the flat stretch
        seq = rolling_ar_coefficients(y, 8)
        assert calls == [(19, 27, True)]
        assert seq.values[27 - 8] == _dense_ar1(y, [19], [27])[0]
        # windows inside the stretch cannot support the fit and are NaN unrefit
        assert np.isnan(seq.values[28 - 8 : 40 - 8]).all()
        # every prefix of one step onto a flat stretch is an exact fit
        calls.clear()
        z = np.concatenate([[3.0], np.full(15, 5.0), y[40:]])
        seq = recursive_ar_coefficients(z, tau0=0.1)
        assert calls == [(0, e, True) for e in range(4, 17)]
        np.testing.assert_array_equal(seq.values[1:14], _dense_ar1(z, [0] * 13, range(4, 17)))


def _synthetic_theta_pair(rng, T, origin_x, origin_y, beta1, sigma, grid_start=10):
    """Coefficient pair following the simplified migration regression."""
    ts = np.arange(1, T + 1)
    m = origin_y - origin_x
    post = ts > origin_x
    theta_x = np.ones(T)
    theta_x[post] = 1.0 - 5.0 * ((ts[post] - origin_x) / m) / np.sqrt(T)
    u = (ts - origin_x) / m
    theta_y = np.ones(T)
    theta_y[post] = (
        1.0
        + 0.001
        + beta1 * (theta_x[post] - 1.0) * u[post]
        + sigma / T * rng.standard_normal(post.sum())
    )
    grid = np.arange(grid_start, T + 1)
    sx = StatSequence(
        kind="ar1_recursive", tau0=grid_start / T, tau2=grid / T,
        values=theta_x[grid - 1], nobs=T,
    )
    sy = StatSequence(
        kind="ar1_recursive", tau0=grid_start / T, tau2=grid / T,
        values=theta_y[grid - 1], nobs=T,
    )
    return sx, sy


class TestMigration:
    def test_constant_target_gives_zero_slope(self):
        rng = np.random.default_rng(50)
        sx, _ = _synthetic_theta_pair(rng, 200, 100, 150, beta1=-30.0, sigma=0.0)
        flat = StatSequence(
            kind="ar1_recursive", tau0=sx.tau0, tau2=sx.tau2,
            values=np.full(sx.values.size, 1.002), nobs=sx.nobs,
        )
        res = migration_test(sx, flat, 100, 150)
        assert res.beta1_hat == pytest.approx(0.0, abs=1e-12)
        assert res.z_beta == pytest.approx(0.0, abs=1e-12)
        assert res.p_value == pytest.approx(0.5, abs=1e-12)

    def test_oracle_parity(self):
        rng = np.random.default_rng(51)
        sx, sy = _synthetic_theta_pair(rng, 200, 100, 150, beta1=-10.0, sigma=2.0)
        res = migration_test(sx, sy, 100, 150)
        ends = np.rint(sx.tau2 * sx.nobs).astype(int)
        b0, b1, n = oracles.migration_fit(
            ends, sx.values, ends, sy.values, 100, 150
        )
        assert res.beta0_hat == pytest.approx(b0, rel=1e-10, abs=1e-14)
        assert res.beta1_hat == pytest.approx(b1, rel=1e-10)
        assert res.nobs == n == 50
        assert res.m == 50

    def test_default_scale_is_log_m(self):
        rng = np.random.default_rng(52)
        sx, sy = _synthetic_theta_pair(rng, 200, 100, 150, beta1=-10.0, sigma=2.0)
        res = migration_test(sx, sy, 100, 150)
        assert res.scale == pytest.approx(math.log(50), rel=1e-12)
        assert res.z_beta == pytest.approx(-res.beta1_hat / math.log(50), rel=1e-12)
        res2 = migration_test(sx, sy, 100, 150, scale=2.0)
        assert res2.z_beta == pytest.approx(-res.beta1_hat / 2.0, rel=1e-12)

    def test_one_sided_normal_p_value(self):
        rng = np.random.default_rng(53)
        sx, sy = _synthetic_theta_pair(rng, 200, 100, 150, beta1=-30.0, sigma=0.01)
        res = migration_test(sx, sy, 100, 150)
        from scipy.stats import norm

        assert res.p_value == pytest.approx(norm.sf(res.z_beta), rel=1e-12)
        assert res.z_beta > 1.645 and res.p_value < 0.05

    def test_migration_rejects_more_often_than_size(self):
        crit = 1.6448536269514722
        R = 300
        rej_h1 = rej_h0 = 0
        for r in range(R):
            rng = np.random.default_rng(54_000 + r)
            sx, sy = _synthetic_theta_pair(rng, 200, 100, 150, beta1=-30.0, sigma=0.01)
            rej_h1 += migration_test(sx, sy, 100, 150).z_beta > crit
            sx0, sy0 = _synthetic_theta_pair(rng, 200, 100, 150, beta1=0.0, sigma=1.0)
            rej_h0 += migration_test(sx0, sy0, 100, 150).z_beta > crit
        assert rej_h1 / R > 0.9
        assert rej_h0 / R <= 0.05

    def test_relabelling_invariance(self):
        rng = np.random.default_rng(55)
        sx, sy = _synthetic_theta_pair(rng, 200, 100, 150, beta1=-10.0, sigma=2.0)
        base = migration_test(sx, sy, 100, 150)
        shift = 37
        sx2 = _shift_labels(sx, shift, 400)
        sy2 = _shift_labels(sy, shift, 400)
        moved = migration_test(sx2, sy2, 100 + shift, 150 + shift)
        assert moved.beta1_hat == pytest.approx(base.beta1_hat, rel=1e-9)
        assert moved.z_beta == pytest.approx(base.z_beta, rel=1e-9)
        assert moved.p_value == pytest.approx(base.p_value, rel=1e-9)
        # nor do the units or the level of the series behind the coefficients
        x = _on_grid(_bubble_path(rng, 200, 60, 100, y0=50.0))
        y = _on_grid(_bubble_path(rng, 200, 75, 115, y0=50.0))

        def migration(f):
            return migration_test(
                recursive_ar_coefficients(f(x), 0.1), recursive_ar_coefficients(f(y), 0.1), 60, 75
            )

        base = migration(lambda v: v)
        for f in UNITS:
            moved = migration(f)
            assert moved.z_beta == pytest.approx(base.z_beta, rel=1e-9)
            assert moved.p_value == pytest.approx(base.p_value, rel=1e-9)

    def test_origin_order_enforced(self):
        rng = np.random.default_rng(56)
        sx, sy = _synthetic_theta_pair(rng, 200, 100, 150, beta1=-10.0, sigma=2.0)
        with pytest.raises(DataError, match="postdate"):
            migration_test(sx, sy, 150, 100)

    def test_short_window_raises(self):
        rng = np.random.default_rng(57)
        sx, sy = _synthetic_theta_pair(rng, 200, 100, 150, beta1=-10.0, sigma=2.0)
        with pytest.raises(DataError, match=">= 5"):
            migration_test(sx, sy, 100, 104)

    def test_no_variation_in_source_raises(self):
        rng = np.random.default_rng(58)
        sx, sy = _synthetic_theta_pair(rng, 200, 100, 150, beta1=-10.0, sigma=2.0)
        unit = StatSequence(
            kind="ar1_recursive", tau0=sx.tau0, tau2=sx.tau2,
            values=np.ones(sx.values.size), nobs=sx.nobs,
        )
        with pytest.raises(DegenerateFitError):
            migration_test(unit, sy, 100, 150)

    def test_nan_rows_dropped(self):
        rng = np.random.default_rng(59)
        sx, sy = _synthetic_theta_pair(rng, 200, 100, 150, beta1=-10.0, sigma=2.0)
        vals = sx.values.copy()
        ends = np.rint(sx.tau2 * sx.nobs).astype(int)
        vals[(ends > 100) & (ends <= 110)] = np.nan
        holed = StatSequence(
            kind="ar1_recursive", tau0=sx.tau0, tau2=sx.tau2, values=vals, nobs=sx.nobs
        )
        res = migration_test(holed, sy, 100, 150)
        assert res.nobs == 40

    def test_json_round_trip(self):
        rng = np.random.default_rng(60)
        sx, sy = _synthetic_theta_pair(rng, 200, 100, 150, beta1=-10.0, sigma=2.0)
        res = migration_test(sx, sy, 100, 150)
        loaded = json.loads(res.to_json())
        assert loaded["m"] == 50
        assert loaded["z_beta"] == pytest.approx(res.z_beta)


class TestContagion:
    def _core(self, seed=42, T=200, window=30):
        rng = np.random.default_rng(seed)
        y = _bubble_path(rng, T, 60, 100, y0=50.0)
        return rolling_ar_coefficients(y, window)

    def test_exact_shifted_copy(self):
        core = self._core()
        n = core.values.size
        shifted = np.full(n, np.nan)
        shifted[3:] = core.values[: n - 3]
        fit = contagion_delay(core, _rolling_like(core, shifted))
        assert fit.delay == 3
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert fit.theta1_hat == pytest.approx(0.0, abs=1e-10)
        assert fit.theta2_hat == pytest.approx(1.0, abs=1e-10)

    def test_default_delay_range(self):
        sig = inspect.signature(contagion_delay)
        assert list(sig.parameters["d_range"].default) == list(range(13))
        fit = contagion_delay(self._core(), self._core(seed=43))
        assert set(fit.r2_by_delay) <= set(range(13))

    def test_noisy_transmission_recovered(self):
        core = self._core()
        n = core.values.size
        rng = np.random.default_rng(44)
        target = np.full(n, np.nan)
        target[5:] = 0.3 + 0.7 * core.values[: n - 5] + 0.003 * rng.standard_normal(n - 5)
        fit = contagion_delay(core, _rolling_like(core, target))
        assert fit.delay == 5
        assert fit.r2 > 0.99
        assert fit.theta2_hat == pytest.approx(0.7, abs=0.05)

    def test_oracle_parity(self):
        core = self._core()
        n = core.values.size
        rng = np.random.default_rng(45)
        target = np.full(n, np.nan)
        target[7:] = 0.1 + 1.2 * core.values[: n - 7] + 0.01 * rng.standard_normal(n - 7)
        fit = contagion_delay(core, _rolling_like(core, target))
        ref = oracles.contagion_scan(core.values, target, range(13))
        assert fit.delay == max(ref, key=lambda d: (ref[d][0], -d))
        r2_o, th1_o, th2_o = ref[fit.delay]
        assert fit.r2 == pytest.approx(r2_o, rel=1e-10)
        assert fit.theta1_hat == pytest.approx(th1_o, rel=1e-8, abs=1e-12)
        assert fit.theta2_hat == pytest.approx(th2_o, rel=1e-8)
        for d, (r2_ref, _, _) in ref.items():
            assert fit.r2_by_delay[d] == pytest.approx(r2_ref, rel=1e-10)

    def test_ties_break_to_smallest_delay(self):
        core = self._core()
        n = core.values.size
        periodic = np.resize([1.0, 1.05, 0.95, 1.02], n)
        base = _rolling_like(core, periodic)
        shifted = np.full(n, np.nan)
        shifted[1:] = periodic[: n - 1]
        fit = contagion_delay(base, _rolling_like(core, shifted))
        # period 4 makes lags 1 and 5 (and 9) fit perfectly; the
        # smallest must win
        assert fit.r2_by_delay[1] == pytest.approx(1.0, abs=1e-12)
        assert fit.r2_by_delay[5] == pytest.approx(1.0, abs=1e-12)
        assert fit.delay == 1

    def test_relabelling_invariance(self):
        core = self._core()
        n = core.values.size
        rng = np.random.default_rng(46)
        target = np.full(n, np.nan)
        target[4:] = 0.2 + 0.9 * core.values[: n - 4] + 0.01 * rng.standard_normal(n - 4)
        tseq = _rolling_like(core, target)
        base = contagion_delay(core, tseq)
        moved = contagion_delay(_shift_labels(core, 25, 400), _shift_labels(tseq, 25, 400))
        assert moved.delay == base.delay
        assert moved.r2 == pytest.approx(base.r2, rel=1e-12)
        assert moved.theta2_hat == pytest.approx(base.theta2_hat, rel=1e-12)
        # nor do the units or the level of the series behind the coefficients
        x = _on_grid(_bubble_path(rng, 200, 60, 100, y0=50.0))
        y = _on_grid(_bubble_path(rng, 200, 75, 115, y0=50.0))
        base = contagion_delay(rolling_ar_coefficients(x, 30), rolling_ar_coefficients(y, 30))
        for f in UNITS:
            moved = contagion_delay(
                rolling_ar_coefficients(f(x), 30), rolling_ar_coefficients(f(y), 30)
            )
            assert moved.delay == base.delay
            assert moved.r2 == pytest.approx(base.r2, rel=1e-9)
            assert moved.theta1_hat == pytest.approx(base.theta1_hat, rel=1e-9)
            assert moved.theta2_hat == pytest.approx(base.theta2_hat, rel=1e-9)

    def test_recursive_coefficients_rejected(self):
        # expanding-window coefficients share the grid and the window
        # fraction of rolling ones, so only their kind tells them apart
        rng = np.random.default_rng(48)
        x = _bubble_path(rng, 200, 60, 100, y0=50.0)
        y = _bubble_path(rng, 200, 65, 105, y0=50.0)
        tau0 = 30 / 200
        rx, ry = recursive_ar_coefficients(x, tau0), recursive_ar_coefficients(y, tau0)
        with pytest.raises(DataError, match="ar1_rolling"):
            contagion_delay(rx, ry)
        with pytest.raises(DataError, match="ar1_rolling"):
            contagion_delay(rolling_ar_coefficients(x, 30), ry)
        contagion_delay(rolling_ar_coefficients(x, 30), rolling_ar_coefficients(y, 30))

    def test_grid_mismatch_raises(self):
        core = self._core()
        other = StatSequence(
            kind=core.kind, tau0=core.tau0, tau2=core.tau2[1:],
            values=core.values[1:], nobs=core.nobs,
        )
        with pytest.raises(DataError, match="grid"):
            contagion_delay(core, other)

    def test_empty_overlap_raises(self):
        core = self._core()
        hollow = _rolling_like(core, np.full(core.values.size, np.nan))
        with pytest.raises(DataError, match="overlap"):
            contagion_delay(core, hollow)

    def test_negative_delay_rejected(self):
        core = self._core()
        with pytest.raises(ValueError):
            contagion_delay(core, self._core(seed=47), d_range=[-1, 0, 1])

    def test_json_round_trip(self):
        core = self._core()
        n = core.values.size
        shifted = np.full(n, np.nan)
        shifted[2:] = core.values[: n - 2]
        fit = contagion_delay(core, _rolling_like(core, shifted))
        loaded = json.loads(fit.to_json())
        assert loaded["delay"] == 2
        assert loaded["r2_by_delay"]["2"] == pytest.approx(1.0)


class TestCobubble:
    def test_exact_linear_relation_gives_zero(self):
        rng = np.random.default_rng(70)
        x = _bubble_path(rng, 120, 40, 80)
        res = cobubble_test(2.0 + 3.0 * x, x, B=99, seed=1)
        assert res.stat == 0.0
        assert res.p_value == 1.0
        assert res.slope == pytest.approx(3.0, rel=1e-9)
        assert res.intercept == pytest.approx(2.0, rel=1e-6)

    def test_stat_nonnegative(self):
        for seed in range(3):
            rng = np.random.default_rng(71 + seed)
            x = _bubble_path(rng, 80, 20, 50)
            y = _bubble_path(rng, 80, 30, 60)
            assert cobubble_test(y, x, B=99, seed=2).stat >= 0.0

    def test_oracle_parity_statistic(self):
        rng = np.random.default_rng(72)
        T = 100
        x = _bubble_path(rng, T, 30, 70)
        y = 5.0 + 1.3 * x + rng.standard_normal(T)
        res = cobubble_test(y, x, B=99, seed=3)
        X = np.column_stack([np.ones(T), x])
        beta, *_ = oracles.ols(X, y)
        resid = y - X @ beta
        assert res.stat == pytest.approx(oracles.cusum_stat(resid, T), rel=1e-10)

    def test_delay_slices_overlap(self):
        rng = np.random.default_rng(73)
        T = 90
        x = _bubble_path(rng, T, 30, 60)
        noise = rng.standard_normal(T)
        y = np.empty(T)
        y[3:] = 1.0 + 2.0 * x[: T - 3] + noise[3:]
        y[:3] = x[:3]
        res = cobubble_test(y, x, delay=3, B=99, seed=4)
        X = np.column_stack([np.ones(T - 3), x[: T - 3]])
        beta, *_ = oracles.ols(X, y[3:])
        resid = y[3:] - X @ beta
        assert res.n_overlap == T - 3
        assert res.stat == pytest.approx(oracles.cusum_stat(resid, T), rel=1e-10)
        neg = cobubble_test(x, y, delay=-3, B=99, seed=4)
        assert neg.n_overlap == T - 3

    def test_joint_rescale_invariance(self):
        rng = np.random.default_rng(74)
        T = 100
        x = _bubble_path(rng, T, 30, 70)
        y = _bubble_path(rng, T, 40, 80)
        a = cobubble_test(y, x, B=149, seed=5)
        for f in (lambda v: 250.0 * v, *UNITS):
            b = cobubble_test(f(y), f(x), B=149, seed=5)
            assert b.stat == pytest.approx(a.stat, rel=1e-9)
            assert b.p_value == a.p_value
        # x alone in tiny units: the slope absorbs them, and the bootstrap's
        # projection keeps x beside the intercept
        c = cobubble_test(y, 1e-18 * x, B=149, seed=5)
        assert c.stat == pytest.approx(a.stat, rel=1e-9)
        np.testing.assert_allclose(c.replicates, a.replicates, rtol=1e-9)

    def test_bootstrap_deterministic(self):
        rng = np.random.default_rng(75)
        x = _bubble_path(rng, 80, 20, 50)
        y = _bubble_path(rng, 80, 30, 60)
        a = cobubble_test(y, x, B=99, seed=42)
        b = cobubble_test(y, x, B=99, seed=42)
        assert a.stat == b.stat and a.p_value == b.p_value
        assert np.array_equal(a.replicates, b.replicates)
        assert a.p_value == (1 + np.sum(a.replicates >= a.stat)) / (a.B + 1)

    def test_rejects_independent_bubbles_not_shared(self):
        R, T, B = 120, 150, 99
        rej_shared = rej_indep = 0
        for r in range(R):
            rng = np.random.default_rng(9_000 + r)
            x = _bubble_path(rng, T, 50, 90)
            y_shared = 10.0 + 1.4 * x + rng.standard_normal(T)
            y_indep = _bubble_path(rng, T, 80, 120)
            rej_shared += cobubble_test(y_shared, x, B=B, seed=100 + r).p_value <= 0.05
            rej_indep += cobubble_test(y_indep, x, B=B, seed=200 + r).p_value <= 0.05
        assert rej_indep / R > rej_shared / R
        assert rej_indep / R >= 0.8
        assert rej_shared / R <= 0.15

    def test_validation(self):
        rng = np.random.default_rng(76)
        x = _bubble_path(rng, 40, 10, 30)
        with pytest.raises(DataError, match="equal length"):
            cobubble_test(x[:-1], x)
        with pytest.raises(DataError, match="overlap"):
            cobubble_test(x, x, delay=35)
        with pytest.raises(DegenerateFitError, match="constant"):
            cobubble_test(x, np.full(40, 2.0))
        with pytest.raises(ValueError, match="B must be"):
            cobubble_test(x + np.arange(40), x, B=10)

    def test_multiplier_choices(self):
        rng = np.random.default_rng(77)
        x = _bubble_path(rng, 60, 20, 40)
        y = 1.0 + 0.8 * x + rng.standard_normal(60)
        for kind in ("gaussian", "rademacher", "skewed"):
            res = cobubble_test(y, x, B=99, seed=6, multiplier=kind)
            assert 0.0 < res.p_value <= 1.0
        with pytest.raises(ValueError):
            cobubble_test(y, x, B=99, seed=6, multiplier="uniform")

    def test_replicates_come_from_streams_keyed_by_replicate(self):
        # the published rule: replicate r scales the residuals by multipliers
        # from SeedSequence(seed, spawn_key=(r,)), adds them to the fit and
        # takes the statistic of the residuals of that series on [1, x]
        rng = np.random.default_rng(78)
        T, d = 90, 2
        x = _bubble_path(rng, T, 30, 60)
        y = _bubble_path(rng, T, 40, 70)
        X = np.column_stack([np.ones(T - d), x[: T - d]])
        fitted = X @ oracles.ols(X, y[d:])[0]
        for kind in ("gaussian", "rademacher", "skewed"):
            res = cobubble_test(y, x, delay=d, B=99, seed=8, multiplier=kind)
            for r in range(res.B):
                w = bt.multiplier_draws(bt.replicate_rng(8, r), T - d, kind)
                ystar = fitted + w * (y[d:] - fitted)
                want = oracles.cusum_stat(ystar - X @ oracles.ols(X, ystar)[0], T)
                assert res.replicates[r] == pytest.approx(want, rel=1e-12, abs=1e-12), (kind, r)

    def test_unknown_multiplier_rejected_on_every_path(self):
        # the exact-fit return skips the bootstrap, and with it the check
        # inside the multiplier draws
        rng = np.random.default_rng(79)
        x = _bubble_path(rng, 60, 20, 40)
        noisy = 1.0 + 0.8 * x + rng.standard_normal(60)
        for y in (2.0 * x + 1.0, noisy):
            with pytest.raises(ValueError, match="unknown multiplier kind 'bogus'"):
                cobubble_test(y, x, B=99, seed=1, multiplier="bogus")

    def test_json_round_trip(self):
        rng = np.random.default_rng(78)
        x = _bubble_path(rng, 60, 20, 40)
        y = 1.0 + 0.8 * x + rng.standard_normal(60)
        res = cobubble_test(y, x, B=99, seed=7)
        loaded = json.loads(res.to_json())
        assert loaded["B"] == 99 and loaded["seed"] == 7
        assert loaded["stat"] == pytest.approx(res.stat)
        assert "replicates" not in loaded
