"""Wild bootstrap, composite monitoring, subsampling, and union calibration."""

import numpy as np
import pytest

import oracles
from exuberance import DegenerateFitError
from exuberance import bootstrap as bt
from exuberance import recursive, robust
from exuberance.series import default_min_window, frac_to_index


def _walk(seed, T, scale=None):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(T)
    if scale is not None:
        e = e * np.asarray(scale)
    return np.cumsum(e)


def _replicate_path(values, seed, r, kind="gaussian"):
    """Rebuild replicate r's resampled series from the documented stream."""
    w = bt.multiplier_draws(bt.replicate_rng(seed, r), len(values) - 1, kind)
    out = np.zeros(len(values))
    for t in range(1, len(values)):
        out[t] = out[t - 1] + w[t - 1] * (values[t] - values[t - 1])
    return out


class TestMultipliers:
    def test_rademacher_values(self):
        d = bt.multiplier_draws(np.random.default_rng(0), 5000, "rademacher")
        assert set(np.unique(d)) == {-1.0, 1.0}
        assert abs(d.mean()) < 0.05

    def test_gaussian_moments(self):
        d = bt.multiplier_draws(np.random.default_rng(1), 10**6, "gaussian")
        assert abs(d.mean()) < 0.01
        assert abs(d.var() - 1.0) < 0.01

    def test_skewed_first_three_moments(self):
        # target (mean, variance, third central moment) = (0, 1, 1)
        d = bt.multiplier_draws(np.random.default_rng(2), 10**6, "skewed")
        assert abs(d.mean()) < 0.02
        assert abs(d.var() - 1.0) < 0.02
        assert abs(((d - d.mean()) ** 3).mean() - 1.0) < 0.02

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="multiplier"):
            bt.multiplier_draws(np.random.default_rng(0), 4, "uniform")

    def test_replicate_stream_pure_in_seed_and_index(self):
        a = bt.replicate_rng(99, 7).standard_normal(16)
        b = bt.replicate_rng(99, 7).standard_normal(16)
        c = bt.replicate_rng(99, 8).standard_normal(16)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestNullResample:
    def test_cumulated_scaled_differences(self):
        v = _walk(5, 12)
        w = np.random.default_rng(6).standard_normal(11)
        got = bt._null_resample(v, w)
        assert got[0] == 0.0
        want = np.zeros(12)
        for t in range(1, 12):
            want[t] = want[t - 1] + w[t - 1] * (v[t] - v[t - 1])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestWildBootstrapPvalue:
    def test_deterministic_given_seed(self):
        v = _walk(0, 60)
        a = bt.wild_bootstrap_pvalue(v, "sadf", B=99, seed=42)
        b = bt.wild_bootstrap_pvalue(v, "sadf", B=99, seed=42)
        assert a.p_value == b.p_value
        assert np.array_equal(a.replicates, b.replicates)

    def test_replicates_match_oracle_statistic(self):
        # rebuild two replicate paths from the (seed, r) streams and score
        # them with the brute-force prefix-sup oracle
        v = _walk(1, 25)
        rep = bt.wild_bootstrap_pvalue(v, "sadf", tau0=0.3, B=99, seed=11)
        for r in (0, 3, 98):
            ystar = _replicate_path(v, 11, r)
            assert rep.replicates[r] == pytest.approx(
                oracles.sadf(ystar, 7)[0], abs=1e-9
            )

    def test_replicates_fix_lag_zero(self):
        # observed side honors k, replicate side always refits with k=0
        v = _walk(2, 40)
        rep = bt.wild_bootstrap_pvalue(v, "sadf", tau0=0.3, B=99, seed=5, k=2)
        assert rep.observed == recursive.sadf(v, tau0=0.3, k=2).value
        ystar = _replicate_path(v, 5, 0)
        assert rep.replicates[0] == pytest.approx(oracles.sadf(ystar, 12)[0], abs=1e-9)

    def test_sign_statistics_read_no_lag_order(self):
        # k is an ADF lag order; a sign statistic takes none, so its observed
        # value and its replicates are both unfiltered whatever k is
        v = _walk(65, 80)
        at0 = bt.wild_bootstrap_pvalue(v, "sign_gsadf", B=99, seed=3)
        at2 = bt.wild_bootstrap_pvalue(v, "sign_gsadf", B=99, seed=3, k=2)
        assert at2.observed == at0.observed == robust.sign_statistics(v).sgsadf.value
        assert at2.p_value == at0.p_value
        np.testing.assert_array_equal(at2.replicates, at0.replicates)

    def test_observed_result_reported(self):
        v = _walk(66, 40)
        rep = bt.wild_bootstrap_pvalue(v, "gsadf", tau0=0.3, B=99, seed=2, k=1)
        want = recursive.gsadf(v, tau0=0.3, k=1)
        assert (rep.result.value, rep.result.window) == (want.value, want.window)
        assert rep.observed == want.value
        assert bt.wild_bootstrap_pvalue(v, lambda x: float(x[-1]), B=99, seed=2).result is None

    def test_serial_order_irrelevant(self):
        v = _walk(3, 30)
        rep = bt.wild_bootstrap_pvalue(v, "sadf", tau0=0.4, B=99, seed=8)
        rebuilt = np.array(
            [
                recursive.sadf(_replicate_path(v, 8, r), tau0=0.4).value
                for r in reversed(range(99))
            ]
        )[::-1]
        np.testing.assert_array_equal(rep.replicates, rebuilt)

    def test_pvalue_counting_convention(self):
        v = _walk(4, 20)
        last = lambda vals: float(vals[-1])
        rep = bt.wild_bootstrap_pvalue(v, last, B=99, seed=13)
        count = sum(
            _replicate_path(v, 13, r)[-1] >= v[-1] for r in range(99)
        )
        assert rep.p_value == (1 + count) / 100

    def test_pvalue_bounds_attained(self):
        # replicate paths always start at 0; the observed series does not,
        # so a statistic keying on the first value separates the two sides
        v = _walk(7, 20) + 100.0
        hi = bt.wild_bootstrap_pvalue(v, lambda x: 1.0 if x[0] != 0 else 0.0, B=99, seed=1)
        lo = bt.wild_bootstrap_pvalue(v, lambda x: 0.0 if x[0] != 0 else 1.0, B=99, seed=1)
        assert hi.p_value == 1 / 100
        assert lo.p_value == 1.0

    def test_pvalue_monotone_in_observed(self):
        rep = bt.wild_bootstrap_pvalue(_walk(9, 40), "sadf", B=99, seed=3)
        grid = np.linspace(rep.replicates.min() - 1, rep.replicates.max() + 1, 25)
        pvals = [(1 + np.sum(rep.replicates >= o)) / 100 for o in grid]
        assert all(a >= b for a, b in zip(pvals, pvals[1:]))
        assert min(pvals) == 1 / 100

    def test_rademacher_sign_flip_bitwise(self):
        v = _walk(10, 50)
        a = bt.wild_bootstrap_pvalue(v, "sadf", B=99, seed=21, multiplier="rademacher")
        b = bt.wild_bootstrap_pvalue(-v, "sadf", B=99, seed=21, multiplier="rademacher")
        np.testing.assert_array_equal(a.replicates, b.replicates)

    def test_fresh_seed_recorded_and_reusable(self):
        v = _walk(11, 30)
        a = bt.wild_bootstrap_pvalue(v, "sadf", B=99)
        b = bt.wild_bootstrap_pvalue(v, "sadf", B=99, seed=a.seed)
        assert np.array_equal(a.replicates, b.replicates)

    def test_multiplier_changes_replicates(self):
        v = _walk(12, 30)
        g = bt.wild_bootstrap_pvalue(v, "sadf", B=99, seed=2, multiplier="gaussian")
        s = bt.wild_bootstrap_pvalue(v, "sadf", B=99, seed=2, multiplier="skewed")
        assert not np.array_equal(g.replicates, s.replicates)

    def test_degenerate_share_guard(self):
        v = _walk(13, 20)
        lasts = np.array([_replicate_path(v, 4, r)[-1] for r in range(99)])

        def fussy(threshold):
            def stat(x):
                if x[0] == 0 and x[-1] < threshold:
                    raise DegenerateFitError("window too flat")
                return float(x[-1])

            return stat

        # a fifth of replicates degenerate: over the 10% limit
        with pytest.raises(DegenerateFitError, match="replicates"):
            bt.wild_bootstrap_pvalue(v, fussy(np.quantile(lasts, 0.2)), B=99, seed=4)
        # a twentieth: allowed, counted, and treated as non-exceeding
        thr = np.quantile(lasts, 0.05)
        rep = bt.wild_bootstrap_pvalue(v, fussy(thr), B=99, seed=4)
        assert rep.n_degenerate == int(np.sum(lasts < thr))
        count = int(np.sum(lasts[lasts >= thr] >= v[-1]))
        assert rep.p_value == (1 + count) / 100

    def test_observed_nan_rejected(self):
        with pytest.raises(DegenerateFitError, match="observed"):
            bt.wild_bootstrap_pvalue(_walk(14, 20), lambda x: np.nan, B=99, seed=0)

    def test_validation(self):
        v = _walk(15, 30)
        with pytest.raises(ValueError, match="B must be"):
            bt.wild_bootstrap_pvalue(v, "sadf", B=50, seed=0)
        with pytest.raises(ValueError, match="statistic"):
            bt.wild_bootstrap_pvalue(v, "cusum", B=99, seed=0)
        with pytest.raises(ValueError, match="multiplier"):
            bt.wild_bootstrap_pvalue(v, "sadf", B=99, seed=0, multiplier="bad")
        with pytest.raises(ValueError, match="seed"):
            bt.wild_bootstrap_pvalue(v, "sadf", B=99, seed=-1)

    def test_explosive_series_small_pvalue(self):
        rng = np.random.default_rng(16)
        v = np.cumsum(rng.standard_normal(90)).tolist()
        for _ in range(30):
            v.append(1.06 * v[-1] + rng.standard_normal())
        rep = bt.wild_bootstrap_pvalue(np.abs(np.array(v)), "gsadf", B=99, seed=6)
        assert rep.p_value <= 0.05

    def test_replicate_csv_dump(self, tmp_path):
        report = bt.BootstrapReport(
            statistic="sadf",
            observed=1.0,
            p_value=0.5,
            B=3,
            seed=0,
            multiplier="gaussian",
            n_degenerate=1,
            replicates=np.array([0.25, np.nan, -1.5]),
        )
        path = tmp_path / "reps.csv"
        report.dump_replicates(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "replicate,value"
        assert lines[1] == "0,0.25"
        assert lines[2] == "1,"
        assert lines[3] == "2,-1.5"


class TestReplicateBatching:
    T = 170  # replicate chunks hold fewer than 199 rows at this length

    def test_chunk_boundary_inside_the_run(self):
        rows = bt.CHUNK_CELLS // self.T
        assert 99 < rows < 199

    def test_replicates_equal_per_replicate_gsadf(self):
        v = _walk(61, self.T, scale=np.where(np.arange(self.T) < 85, 1.0, 3.0))
        rep = bt.wild_bootstrap_pvalue(v, "gsadf", B=199, seed=17)
        want = [
            recursive.gsadf(bt._null_resample(v, bt.multiplier_draws(
                bt.replicate_rng(17, r), self.T - 1, "gaussian"))).value
            for r in range(199)
        ]
        np.testing.assert_allclose(rep.replicates, want, rtol=1e-12, atol=0)
        assert rep.observed == recursive.gsadf(v).value

    def test_chunking_keeps_replicates_bit_for_bit(self):
        v = _walk(62, self.T)
        for stat in ("gsadf", "sadf", "sign_sadf", "sign_gsadf", "stadf", "gstadf", "sbz", "sadf_gls"):
            long = bt.wild_bootstrap_pvalue(v, stat, B=199, seed=23)
            short = bt.wild_bootstrap_pvalue(v, stat, B=99, seed=23)
            np.testing.assert_array_equal(long.replicates[:99], short.replicates)

    def test_robust_panel_replicates_match_oracles(self):
        v = _walk(64, 40)
        m0 = frac_to_index(default_min_window(40), 40)
        for stat, oracle in (("sign_gsadf", oracles.sign_sups),
                             ("gstadf", oracles.time_transformed)):
            rep = bt.wild_bootstrap_pvalue(v, stat, B=99, seed=11)
            want = [oracle(_replicate_path(v, 11, r), m0)[1] for r in range(99)]
            np.testing.assert_allclose(rep.replicates, want, rtol=0, atol=1e-9)

    def test_row_loop_statistics_match_their_scalar_form(self):
        v = _walk(63, 40)
        rep = bt.wild_bootstrap_pvalue(v, "sbz", B=99, seed=5, tau0=0.3)
        want = []
        for r in range(99):
            y = _replicate_path(v, 5, r)
            want.append(robust.sbz(y, tau0=0.3).value)
        np.testing.assert_allclose(rep.replicates, want, rtol=1e-12, atol=1e-12)


class TestCompositeMonitorCv:
    def test_default_span_is_two_years_monthly(self):
        assert bt.DEFAULT_MONITOR_SPAN == 24
        rep = bt.composite_monitor_cv(_walk(0, 200), B=99, seed=1)
        assert rep.span == 24
        assert rep.window[1] - rep.window[0] == 23

    def test_reproducible_quantile(self):
        v = _walk(1, 120)
        a = bt.composite_monitor_cv(v, B=199, seed=9)
        b = bt.composite_monitor_cv(v, B=199, seed=9)
        assert a.critical_value == b.critical_value
        assert np.array_equal(a.replicate_max, b.replicate_max)

    def test_replicate_pipeline_matches_oracle_k0(self):
        # independent rebuild: demeaned differences scaled by the replicate
        # draws, cumulated from the first observation, scored by the
        # brute-force backward-sup oracle over the control window
        v = _walk(2, 30)
        rep = bt.composite_monitor_cv(v, tau0=0.3, span=5, B=99, seed=17)
        m0, end = rep.window
        assert (m0, end) == (9, 13)
        dy = np.diff(v)
        resid = dy - dy.mean()
        for r in (0, 7):
            w = bt.multiplier_draws(bt.replicate_rng(17, r), end - 1, "gaussian")
            ystar = np.concatenate([[v[0]], v[0] + np.cumsum(w * resid[: end - 1])])
            curve, _ = oracles.bsadf_curve(ystar, m0)
            assert rep.replicate_max[r] == pytest.approx(
                np.nanmax(curve[m0:]), abs=1e-9
            )

    def test_replicate_pipeline_matches_oracle_k1(self):
        # lag-1 null model: refit independently, run the recursion by hand
        v = _walk(3, 40)
        rep = bt.composite_monitor_cv(v, tau0=0.25, span=6, B=99, seed=23, k=1)
        m0, end = rep.window
        assert (m0, end) == (10, 15)
        dy = np.diff(v)
        X = np.column_stack([np.ones(dy.size - 1), dy[:-1]])
        beta, *_ = np.linalg.lstsq(X, dy[1:], rcond=None)
        resid = dy[1:] - X @ beta
        assert rep.lag_coeffs == pytest.approx([beta[1]], abs=1e-12)
        w = bt.multiplier_draws(bt.replicate_rng(23, 0), end - 2, "gaussian")
        dystar = np.empty(end - 1)
        dystar[0] = dy[0]
        for t in range(1, end - 1):
            dystar[t] = beta[1] * dystar[t - 1] + w[t - 1] * resid[t - 1]
        ystar = np.concatenate([[v[0]], v[0] + np.cumsum(dystar)])
        curve, _ = oracles.bsadf_curve(ystar, m0)
        assert rep.replicate_max[0] == pytest.approx(np.nanmax(curve[m0:]), abs=1e-9)

    def test_window_max_matches_oracle(self):
        v = _walk(4, 30)
        got = bt.bsadf_window_max(v, tau0=0.3, span=5)
        curve, _ = oracles.bsadf_curve(v[:13], 9)
        assert got == pytest.approx(np.nanmax(curve[9:]), abs=1e-9)

    def test_quantile_level_behavior(self):
        v = _walk(5, 80)
        cvs = [
            bt.composite_monitor_cv(v, B=99, seed=3, level=q).critical_value
            for q in (0.8, 0.9, 0.95)
        ]
        assert cvs[0] <= cvs[1] <= cvs[2]
        top = bt.composite_monitor_cv(v, B=99, seed=3, level=1.0)
        assert top.critical_value == np.nanmax(top.replicate_max)

    def test_monitoring_decision_power_smoke(self):
        # bubble inside the control window: observed max blows past the cv
        rng = np.random.default_rng(6)
        v = np.cumsum(rng.standard_normal(40)).tolist()
        for _ in range(15):
            v.append(1.25 * abs(v[-1]) + rng.standard_normal())
        v = np.array(v)
        rep = bt.composite_monitor_cv(v, tau0=0.72, span=16, B=99, seed=31)
        assert bt.bsadf_window_max(v, tau0=0.72, span=16) > rep.critical_value

    def test_null_family_wise_rejection_is_rare(self):
        hits = 0
        for i in range(40):
            v = _walk(1000 + i, 60)
            rep = bt.composite_monitor_cv(v, tau0=0.4, span=10, B=99, seed=i)
            hits += bt.bsadf_window_max(v, tau0=0.4, span=10) > rep.critical_value
        assert hits <= 8

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateFitError):
            bt.composite_monitor_cv(np.full(60, 5.0), B=99, seed=0)

    def test_validation(self):
        v = _walk(7, 60)
        with pytest.raises(ValueError, match="span"):
            bt.composite_monitor_cv(v, span=0, B=99, seed=0)
        with pytest.raises(ValueError, match="too short"):
            bt.composite_monitor_cv(v, tau0=0.5, span=40, B=99, seed=0)
        with pytest.raises(ValueError, match="B must be"):
            bt.composite_monitor_cv(v, B=0, seed=0)
        with pytest.raises(ValueError, match="level"):
            bt.composite_monitor_cv(v, B=99, seed=0, level=1.5)
        with pytest.raises(ValueError, match="lag order"):
            bt.composite_monitor_cv(v, B=99, seed=0, k=-1)
        with pytest.raises(ValueError, match="multiplier"):
            bt.composite_monitor_cv(v, B=99, seed=0, multiplier="bad")
        with pytest.raises(ValueError, match="too short"):
            bt.bsadf_window_max(v, tau0=0.5, span=40)

    def test_both_entry_points_state_one_control_window_rule(self):
        # the critical value and the observed statistic read the same window
        v = _walk(7, 40)
        for span in (0, 40):
            with pytest.raises(ValueError) as cv:
                bt.composite_monitor_cv(v, span=span, B=99, seed=0)
            with pytest.raises(ValueError) as obs:
                bt.bsadf_window_max(v, span=span)
            assert str(cv.value) == str(obs.value)


class TestSubsamplingCv:
    def test_quantiles_match_oracle_subsamples(self):
        v = _walk(0, 80)
        out = bt.subsampling_cv(v, m=10, quantile=0.9)
        want = np.array([oracles.end_of_sample(v, 10, j) for j in range(1, 71)])
        assert out.n_subsamples == 70
        np.testing.assert_allclose(out.subsample_s, want[:, 0], atol=1e-9)
        np.testing.assert_allclose(out.subsample_r, want[:, 1], atol=1e-9)
        np.testing.assert_allclose(out.subsample_sw, want[:, 2], atol=1e-9)
        assert out.cv_s == pytest.approx(np.quantile(want[:, 0], 0.9))
        assert out.cv_r == pytest.approx(np.quantile(want[:, 1], 0.9))
        assert out.cv_sw == pytest.approx(np.quantile(want[:, 2], 0.9))

    def test_quantile_one_is_max(self):
        v = _walk(1, 50)
        out = bt.subsampling_cv(v, m=8, quantile=1.0)
        assert out.cv_s == out.subsample_s.max()
        assert out.cv_r == out.subsample_r.max()

    def test_constant_training_gives_zero_cv(self):
        out = bt.subsampling_cv(np.full(40, 3.25), m=10)
        assert out.cv_s == 0.0
        assert out.cv_r == 0.0
        assert np.isnan(out.cv_sw)

    def test_few_subsamples_warns_in_result(self):
        out = bt.subsampling_cv(_walk(2, 20), m=10)
        assert out.n_subsamples == 10
        assert "10 subsamples" in out.warning
        assert bt.subsampling_cv(_walk(2, 60), m=10).warning is None

    def test_validation(self):
        with pytest.raises(ValueError, match="training"):
            bt.subsampling_cv(_walk(3, 19), m=10)
        with pytest.raises(ValueError, match="m must be"):
            bt.subsampling_cv(_walk(3, 40), m=1)
        with pytest.raises(ValueError, match="quantile"):
            bt.subsampling_cv(_walk(3, 40), m=10, quantile=0.0)

    def test_power_on_terminal_explosive_window(self):
        # calibrate on the first 110 observations, test the final window of
        # a path whose last 10 steps are explosive
        hits = 0
        for i in range(100):
            rng = np.random.default_rng(4000 + i)
            base = np.cumsum(rng.standard_normal(110))
            if base[-1] < 0:
                base = -base
            path = base.tolist()
            for _ in range(10):
                path.append(1.08 * path[-1] + rng.standard_normal())
            cv = bt.subsampling_cv(base, m=10, quantile=0.95).cv_s
            obs = recursive.end_of_sample_stats(np.array(path), m=10)
            hits += obs.s > cv
        assert hits >= 60


class TestBootstrapUnion:
    def test_members_share_replicate_set(self):
        v = _walk(0, 60)
        un = bt.bootstrap_union(v, tests=("sadf", "sbz"), B=99, seed=7)
        for i, name in enumerate(("sadf", "sbz")):
            solo = bt.wild_bootstrap_pvalue(v, name, B=99, seed=7)
            np.testing.assert_array_equal(un.replicates[:, i], solo.replicates)
            assert un.observed[i] == solo.observed

    def test_custom_member_shares_replicate_set(self):
        def range_to_date(x):
            return float(x[-1] - x.min())

        v = _walk(9, 60)
        un = bt.bootstrap_union(v, tests=("sadf", range_to_date), B=99, seed=4, multiplier="skewed")
        solo = bt.wild_bootstrap_pvalue(v, range_to_date, B=99, seed=4, multiplier="skewed")
        np.testing.assert_array_equal(un.replicates[:, 1], solo.replicates)
        assert un.observed[1] == solo.observed
        assert un.members == ("sadf", "range_to_date") and solo.result is None

    def test_single_member_equals_member_bootstrap(self):
        v = _walk(1, 60)
        un = bt.bootstrap_union(v, tests="sadf", B=99, seed=3)
        solo = bt.wild_bootstrap_pvalue(v, "sadf", B=99, seed=3)
        cv = np.nanquantile(solo.replicates, 0.95, method="higher")
        assert un.member_cvs[0] == cv
        assert un.reject == (solo.observed > cv)
        assert un.psi * un.member_cvs[0] == pytest.approx(cv, rel=1e-12)

    def test_order_invariance(self):
        v = _walk(2, 60)
        a = bt.bootstrap_union(v, tests=("sadf", "sign_sadf"), B=99, seed=5)
        b = bt.bootstrap_union(v, tests=("sign_sadf", "sadf"), B=99, seed=5)
        assert a.reject == b.reject
        assert a.union_stat == b.union_stat
        assert a.psi == b.psi

    def test_union_stat_is_normalized_max(self):
        v = _walk(3, 60)
        un = bt.bootstrap_union(v, tests=("sadf", "sbz"), B=99, seed=11)
        assert un.union_stat == np.max(un.observed / un.member_cvs)
        assert un.reject == (un.union_stat > un.psi)

    def test_union_threshold_dominates_members(self):
        # the normalized-max quantile is at least each member's own quantile,
        # so the union corrects every member threshold upward; with a single
        # member the correction vanishes identically
        v = _walk(4, 60)
        un = bt.bootstrap_union(v, tests=("sadf", "sbz"), B=99, seed=2)
        assert un.psi >= 1.0
        solo = bt.bootstrap_union(v, tests="sadf", B=99, seed=2)
        assert solo.psi == 1.0

    def test_explosive_series_rejected(self):
        rng = np.random.default_rng(5)
        v = np.cumsum(rng.standard_normal(45)).tolist()
        for _ in range(25):
            v.append(1.15 * max(v[-1], 5.0) + 0.5 * rng.standard_normal())
        un = bt.bootstrap_union(np.array(v), tests=("sadf", "sbz"), B=99, seed=13)
        assert un.reject

    def test_nonpositive_member_cv_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            bt.bootstrap_union(_walk(6, 40), tests=(lambda x: -1.0,), B=99, seed=0)

    def test_degenerate_member_guard(self):
        def broken(x):
            if x[0] == 0:
                raise DegenerateFitError("nope")
            return 1.0

        with pytest.raises(DegenerateFitError, match="replicates"):
            bt.bootstrap_union(_walk(7, 40), tests=(broken,), B=99, seed=0)

    def test_validation(self):
        v = _walk(8, 40)
        with pytest.raises(ValueError, match="B must be"):
            bt.bootstrap_union(v, tests=("sadf",), B=10, seed=0)
        with pytest.raises(ValueError, match="at least one"):
            bt.bootstrap_union(v, tests=(), B=99, seed=0)
        with pytest.raises(ValueError, match="level"):
            bt.bootstrap_union(v, tests=("sadf",), B=99, seed=0, level=0.0)
        with pytest.raises(ValueError, match="multiplier"):
            bt.bootstrap_union(v, tests=("sadf",), B=99, seed=0, multiplier="bad")

    def test_union_size_under_volatility_break(self):
        # scaled-down null study: single upward break, sadf + sbz members
        rejections = 0
        reps = 150
        for i in range(reps):
            rng = np.random.default_rng(9000 + i)
            scale = np.ones(100)
            scale[50:] = 3.0
            v = np.cumsum(rng.standard_normal(100) * scale)
            un = bt.bootstrap_union(v, tests=("sadf", "sbz"), B=99, seed=i)
            rejections += un.reject
        assert 0.005 <= rejections / reps <= 0.125


class TestOneRowChunks:
    """Wild and composite replicates built one row per chunk give the
    bytes of the default chunks, so building a chunk as one panel changes
    no draw: the multipliers, the resampled paths, the lag recursion."""

    @staticmethod
    def _runs():
        v = _walk(71, 90, scale=np.where(np.arange(90) < 45, 1.0, 3.0))
        wild = [
            bt.wild_bootstrap_pvalue(v, stat, B=99, seed=13, multiplier=kind).replicates.tobytes()
            for stat, kind in (("gsadf", "gaussian"), ("sadf", "rademacher"), ("sign_gsadf", "skewed"),
                               ("gstadf", "gaussian"), ("hb_chow", "gaussian"))
        ]
        composite = [
            bt.composite_monitor_cv(v, span=30, B=60, k=k, seed=14, multiplier=kind).replicate_max.tobytes()
            for k, kind in ((0, "gaussian"), (1, "rademacher"), (3, "skewed"))
        ]
        return wild, composite

    def test_wild_and_composite_replicates(self, monkeypatch):
        want = self._runs()
        monkeypatch.setattr(bt, "CHUNK_CELLS", 1)
        assert self._runs() == want

    def test_panel_resample_rows_equal_the_series_rule(self):
        v = _walk(72, 40)
        W = np.stack([bt.multiplier_draws(bt.replicate_rng(3, r), 39, "gaussian") for r in range(5)])
        panel = bt._null_resample(v, W)
        for r in range(5):
            assert panel[r].tobytes() == bt._null_resample(v, W[r]).tobytes()
            np.testing.assert_allclose(panel[r], _replicate_path(v, 3, r), rtol=1e-12, atol=1e-12)


class TestBatchedStreams:
    """The chunk builders' streams, seeded for a whole chunk at once, give
    the draws of ``replicate_rng`` (NumPy's own SeedSequence and PCG64)."""

    @pytest.mark.parametrize("seed", [0, 5, 2**32 - 1, 2**32, 2**64 + 3, 2**127 + 99, 2**160 + 5, np.int64(9)])
    def test_draws_equal_replicate_rng(self, seed):
        def draws(g):
            return np.r_[g.standard_normal(6), g.integers(0, 2, size=5), g.standard_t(5.0, 3)].tobytes()

        for key in [(), (0,), (2,), (200,), (3, 4), (2**32,)]:
            for r0, r1 in [(0, 4), (163, 170), (2**32 - 2, 2**32 + 1)]:
                got = [draws(g) for g in bt._replicate_rngs(seed, key, r0, r1)]
                assert got == [draws(bt.replicate_rng(int(seed), *key, r)) for r in range(r0, r1)], (key, r0)

    def test_a_negative_seed_raises_as_replicate_rng_does(self):
        with pytest.raises(ValueError):
            next(bt._replicate_rngs(-1, (), 0, 3))
