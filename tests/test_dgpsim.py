"""Data generators, volatility paths, cv tabulation, size/power engine."""

import json
import math
import warnings

import numpy as np
import pytest

from exuberance import bootstrap as bt
from exuberance import dgpsim
from exuberance.dgpsim import (
    DGP_KINDS,
    CvTable,
    DgpSpec,
    SizePowerStudy,
    VolPath,
    simulate,
    size_power_study,
    tabulate_critical_values,
)
from exuberance.exceptions import DataError, DegenerateFitError
from exuberance.recursive import sadf
from exuberance.series import Series, frac_to_index


def _keyed_rng(seed, *key):
    """The stream SeedSequence(seed, spawn_key=key), spelled out apart from the package."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _replay(spec, vol=None, seed=None):
    """Independent reconstruction of the simulated path.

    Draws the same innovation block as the package (one call for z,
    scaled by the volatility path), then applies the regime recursions
    written out step by step.
    """
    T = spec.T
    sigma = np.ones(T) if vol is None else vol.path(T)
    rng = np.random.default_rng(spec.seed if seed is None else seed)
    if spec.innovations == "gaussian":
        z = rng.standard_normal(T)
    else:
        z = rng.standard_t(spec.df, T) / math.sqrt(spec.df / (spec.df - 2.0))
    eps = sigma * z
    y = np.empty(T)
    if spec.kind == "rw_drift":
        drift = spec.mu * T**-spec.eta
        prev = spec.y0
        for t in range(1, T + 1):
            prev = drift + prev + eps[t - 1]
            y[t - 1] = prev
        return y
    if spec.kind == "pwy_bubble":
        T_e, T_c = spec.dates()
        rho = 1.0 + spec.c / T**spec.alpha
        skip_reinit = spec.c == 0.0 and spec.y_star == 0.0
        prev = spec.y0
        for t in range(1, T + 1):
            if t < T_e:
                prev = prev + eps[t - 1]
            elif t <= T_c:
                prev = rho * prev + eps[t - 1]
            elif t == T_c + 1 and not skip_reinit:
                base = spec.y0 if T_e < 1 else y[T_e - 1]
                prev = base + spec.y_star + eps[t - 1]
            else:
                prev = prev + eps[t - 1]
            y[t - 1] = prev
        return y
    T_e, T_c, T_r = spec.dates()
    d1 = spec.delta1 if spec.delta1 is not None else spec.c1 / T**spec.alpha
    d2 = spec.delta2 if spec.delta2 is not None else spec.c2 / T**spec.beta
    drift = spec.mu * T**-spec.eta
    prev = spec.y0
    for t in range(1, T + 1):
        if T_e <= t <= T_c:
            prev = (1.0 + d1) * prev + eps[t - 1]
        elif T_c < t <= T_r:
            prev = (1.0 - d2) * prev + eps[t - 1]
        else:
            prev = drift + prev + eps[t - 1]
        y[t - 1] = prev
    return y


class TestVolPath:
    def test_constant(self):
        assert np.array_equal(VolPath.constant(2.0).path(4), np.full(4, 2.0))

    def test_single_break_switch_point(self):
        sig = VolPath.single_break(0.5, 1.0, 3.0).path(6)
        assert np.array_equal(sig, [1.0, 1.0, 1.0, 3.0, 3.0, 3.0])

    def test_double_break_window(self):
        sig = VolPath.double_break(0.3, 0.6, 1.0, 2.0).path(10)
        assert np.array_equal(sig, [1, 1, 1, 2, 2, 2, 1, 1, 1, 1])

    def test_trend_is_linear(self):
        sig = VolPath.trend(1.0, 3.0).path(5)
        assert np.array_equal(sig, [1.0, 1.5, 2.0, 2.5, 3.0])
        assert np.array_equal(VolPath.trend(1.0, 3.0).path(200), np.linspace(1, 3, 200))

    def test_strictly_positive_and_bounded(self):
        for vp in (
            VolPath.constant(0.5),
            VolPath.single_break(0.4, 2.0, 0.1),
            VolPath.double_break(0.2, 0.7, 1.0, 4.0),
            VolPath.trend(3.0, 0.5),
        ):
            sig = vp.path(137)
            assert np.all(sig > 0)
            lo = min(vp.level, vp.level2 or vp.level)
            hi = max(vp.level, vp.level2 or vp.level)
            assert np.all((sig >= lo) & (sig <= hi))

    def test_validation(self):
        with pytest.raises(ValueError):
            VolPath.constant(0.0)
        with pytest.raises(ValueError):
            VolPath.single_break(0.5, 1.0, -1.0)
        with pytest.raises(ValueError):
            VolPath.single_break(1.2, 1.0, 2.0)
        with pytest.raises(ValueError):
            VolPath.double_break(0.6, 0.4, 1.0, 2.0)
        with pytest.raises(ValueError):
            VolPath(kind="wiggle")
        with pytest.raises(ValueError):
            VolPath(kind="constant", level=1.0, tau1=0.5)


class TestDgpSpec:
    def test_kinds(self):
        assert DGP_KINDS == ("rw_drift", "pwy_bubble", "collapse_bubble")

    def test_dates_floor_rule(self):
        spec = DgpSpec(
            kind="collapse_bubble", T=100, tau_e=0.3, tau_c=0.5, tau_r=0.6,
            delta1=0.05, delta2=0.1,
        )
        assert spec.dates() == (30, 50, 60)
        assert frac_to_index(0.3, 100) == 30

    def test_rates(self):
        pwy = DgpSpec(kind="pwy_bubble", T=200, tau_e=0.4, tau_c=0.6, c=1.0, alpha=0.6)
        assert pwy.explosive_rate() == pytest.approx(1.0 / 200**0.6, rel=1e-15)
        col = DgpSpec(
            kind="collapse_bubble", T=200, tau_e=0.3, tau_c=0.5, tau_r=0.6,
            c1=2.0, alpha=0.5, c2=1.0, beta=0.4,
        )
        assert col.explosive_rate() == pytest.approx(2.0 / 200**0.5, rel=1e-15)
        assert col.collapse_rate() == pytest.approx(1.0 / 200**0.4, rel=1e-15)

    def test_collapse_rate_must_stay_below_one(self):
        spec = DgpSpec(
            kind="collapse_bubble", T=20, tau_e=0.3, tau_c=0.5, tau_r=0.6,
            delta1=0.05, c2=5.0, beta=0.1,
        )
        with pytest.raises(ValueError, match="negative"):
            spec.collapse_rate()

    def test_validation_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            DgpSpec(kind="garch", T=100)
        with pytest.raises(ValueError):
            DgpSpec(kind="rw_drift", T=19)
        with pytest.raises(ValueError):
            DgpSpec(kind="rw_drift", T=100, eta=-0.5)
        with pytest.raises(ValueError):
            DgpSpec(kind="rw_drift", T=100, tau_e=0.5)
        with pytest.raises(ValueError, match="tau_e"):
            DgpSpec(kind="pwy_bubble", T=100, c=1.0, alpha=0.5)
        with pytest.raises(ValueError):
            DgpSpec(kind="pwy_bubble", T=100, tau_e=0.6, tau_c=0.4, c=1.0, alpha=0.5)
        with pytest.raises(ValueError, match="alpha"):
            DgpSpec(kind="pwy_bubble", T=100, tau_e=0.4, tau_c=0.6, c=1.0)
        with pytest.raises(ValueError):
            DgpSpec(kind="pwy_bubble", T=100, tau_e=0.4, tau_c=0.6, c=1.0, alpha=1.0)
        with pytest.raises(ValueError, match="mu"):
            DgpSpec(kind="pwy_bubble", T=100, tau_e=0.4, tau_c=0.6, c=1.0, alpha=0.5, mu=1.0)
        with pytest.raises(ValueError, match="instantaneous"):
            DgpSpec(kind="pwy_bubble", T=100, tau_e=0.4, tau_c=0.6, tau_r=0.8, c=1.0, alpha=0.5)
        with pytest.raises(ValueError, match="exactly one"):
            DgpSpec(
                kind="collapse_bubble", T=100, tau_e=0.3, tau_c=0.5, tau_r=0.6,
                delta1=0.05, c1=1.0, alpha=0.5, delta2=0.1,
            )
        with pytest.raises(ValueError, match="exactly one"):
            DgpSpec(kind="collapse_bubble", T=100, tau_e=0.3, tau_c=0.5, tau_r=0.6, delta1=0.05)
        with pytest.raises(ValueError):
            DgpSpec(
                kind="collapse_bubble", T=100, tau_e=0.3, tau_c=0.5, tau_r=0.6,
                delta1=0.05, delta2=1.0,
            )
        with pytest.raises(ValueError, match="tau_r"):
            DgpSpec(
                kind="collapse_bubble", T=100, tau_e=0.3, tau_c=0.7, tau_r=0.6,
                delta1=0.05, delta2=0.1,
            )
        with pytest.raises(ValueError, match="df"):
            DgpSpec(kind="rw_drift", T=100, innovations="student-t", df=2.0)
        with pytest.raises(ValueError):
            DgpSpec(kind="rw_drift", T=100, innovations="laplace")

    def test_pwy_tau_r_equal_to_tau_c_allowed(self):
        spec = DgpSpec(kind="pwy_bubble", T=100, tau_e=0.4, tau_c=0.6, tau_r=0.6, c=1.0, alpha=0.5)
        assert spec.dates() == (40, 60)


class TestSimulate:
    def test_deterministic_given_seed(self):
        spec = DgpSpec(kind="pwy_bubble", T=80, tau_e=0.3, tau_c=0.6, c=2.0, alpha=0.6, seed=9)
        a = simulate(spec)
        b = simulate(spec)
        assert isinstance(a, Series)
        assert np.array_equal(a.values, b.values)
        assert a.name == "pwy_bubble"
        assert len(a) == 80

    def test_seed_override(self):
        spec = DgpSpec(kind="rw_drift", T=50, seed=1)
        assert not np.array_equal(simulate(spec, seed=2).values, simulate(spec).values)
        assert np.array_equal(simulate(spec, seed=1).values, simulate(spec).values)

    def test_generator_seed_accepted(self):
        spec = DgpSpec(kind="rw_drift", T=50)
        g1 = np.random.default_rng(33)
        g2 = np.random.default_rng(33)
        assert np.array_equal(simulate(spec, seed=g1).values, simulate(spec, seed=g2).values)

    def test_replay_parity_all_kinds(self):
        vol = VolPath.single_break(0.4, 1.0, 2.5)
        specs = [
            DgpSpec(kind="rw_drift", T=120, mu=2.0, eta=0.5, y0=3.0, seed=101),
            DgpSpec(
                kind="pwy_bubble", T=120, tau_e=0.3, tau_c=0.55, c=1.5, alpha=0.6,
                y_star=4.0, y0=20.0, seed=102,
            ),
            DgpSpec(
                kind="collapse_bubble", T=120, tau_e=0.3, tau_c=0.5, tau_r=0.65,
                c1=2.0, alpha=0.55, c2=1.5, beta=0.45, mu=0.5, eta=0.8, y0=10.0,
                seed=103,
            ),
            DgpSpec(kind="rw_drift", T=120, innovations="student-t", df=6.0, seed=104),
        ]
        for spec in specs:
            got = simulate(spec, vol=vol).values
            want = _replay(spec, vol=vol)
            # the library may accumulate in vectorized order; only
            # ulp-level float reassociation noise is tolerated
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12), spec.kind

    def test_degenerate_pwy_is_pure_random_walk(self):
        rw = DgpSpec(kind="rw_drift", T=60, seed=7)
        degenerate = DgpSpec(
            kind="pwy_bubble", T=60, tau_e=0.4, tau_c=0.6, c=0.0, alpha=0.6, seed=7
        )
        assert np.array_equal(simulate(rw).values, simulate(degenerate).values)

    def test_zero_c_with_offset_still_jumps(self):
        spec = DgpSpec(
            kind="pwy_bubble", T=60, tau_e=0.4, tau_c=0.6, c=0.0, alpha=0.6,
            y_star=50.0, seed=7,
        )
        rw = DgpSpec(kind="rw_drift", T=60, seed=7)
        assert not np.array_equal(simulate(spec).values, simulate(rw).values)

    def test_noiseless_explosive_segment_grows_geometrically(self):
        spec = DgpSpec(
            kind="collapse_bubble", T=100, tau_e=0.3, tau_c=0.5, tau_r=0.6,
            delta1=0.05, delta2=0.1, y0=10.0, seed=3,
        )
        y = simulate(spec, vol=VolPath.constant(1e-30)).values
        T_e, T_c, T_r = spec.dates()
        seg = y[T_e - 1: T_c]
        assert np.allclose(seg[1:] / seg[:-1], 1.05, rtol=1e-12)
        col = y[T_c - 1: T_r]
        assert np.allclose(col[1:] / col[:-1], 0.9, rtol=1e-12)
        # normal regimes are flat without noise
        assert np.allclose(np.diff(y[: T_e - 1]), 0.0, atol=1e-25)
        assert np.allclose(np.diff(y[T_r:]), 0.0, atol=1e-25)

    def test_noiseless_reinit_level(self):
        spec = DgpSpec(
            kind="pwy_bubble", T=100, tau_e=0.3, tau_c=0.5, c=1.0, alpha=0.6,
            y_star=2.5, y0=10.0, seed=3,
        )
        y = simulate(spec, vol=VolPath.constant(1e-30)).values
        T_e, T_c = spec.dates()
        assert y[T_c] == pytest.approx(y[T_e - 1] + 2.5, rel=1e-12)
        assert np.allclose(np.diff(y[T_c:]), 0.0, atol=1e-25)

    def test_drift_moves_the_walk(self):
        base = DgpSpec(kind="rw_drift", T=100, seed=5)
        drifted = DgpSpec(kind="rw_drift", T=100, mu=3.0, eta=0.5, seed=5)
        gap = simulate(drifted).values - simulate(base).values
        assert np.allclose(gap, 3.0 / 10.0 * np.arange(1, 101), rtol=1e-12)

    def test_volatility_break_scales_increments(self):
        spec = DgpSpec(kind="rw_drift", T=4000, seed=6)
        y = simulate(spec, vol=VolPath.single_break(0.5, 1.0, 3.0)).values
        d = np.diff(y)
        assert np.std(d[2000:]) > 2.0 * np.std(d[:1999])


class TestCvTable:
    def _table(self):
        return CvTable(
            statistic="sadf",
            tau0=None,
            det="const",
            k=0,
            sample_sizes=(50, 100),
            levels=(0.9, 0.95),
            values={(50, 0.9): 1.0, (50, 0.95): 1.3, (100, 0.9): 1.1, (100, 0.95): 1.4},
            replications=2000,
            seed=0,
        )

    def test_lookup(self):
        tab = self._table()
        assert tab.lookup(100, 0.95) == 1.4
        with pytest.raises(KeyError):
            tab.lookup(200, 0.95)
        with pytest.raises(KeyError):
            tab.lookup(100, 0.5)

    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError, match="monotone"):
            CvTable(
                statistic="sadf", tau0=None, det="const", k=0,
                sample_sizes=(50,), levels=(0.9, 0.95),
                values={(50, 0.9): 2.0, (50, 0.95): 1.0},
                replications=2000, seed=0,
            )

    def test_missing_entry_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            CvTable(
                statistic="sadf", tau0=None, det="const", k=0,
                sample_sizes=(50,), levels=(0.9, 0.95),
                values={(50, 0.9): 1.0},
                replications=2000, seed=0,
            )

    def test_frozen(self):
        tab = self._table()
        with pytest.raises(AttributeError):
            tab.statistic = "gsadf"

    def test_json_round_trip(self, tmp_path):
        tab = self._table()
        path = tmp_path / "table.json"
        tab.to_json(path)
        loaded = CvTable.from_json(path)
        assert loaded.statistic == tab.statistic
        assert loaded.sample_sizes == tab.sample_sizes
        assert loaded.levels == tab.levels
        assert loaded.values == tab.values
        assert loaded.replications == tab.replications
        assert loaded.tau0 is None

    def test_written_tables_are_immutable(self, tmp_path):
        tab = self._table()
        path = tmp_path / "table.json"
        tab.to_json(path)
        with pytest.raises(FileExistsError, match="immutable"):
            tab.to_json(path)
        tab.to_json(path, overwrite=True)

    def test_csv_export(self, tmp_path):
        tab = self._table()
        path = tmp_path / "table.csv"
        tab.to_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "statistic,T,tau0,det,k,level,value"
        assert len(rows) == 1 + 4
        assert rows[1].startswith("sadf,50,,const,0,")

    def test_rejects_non_table_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"kind": "something-else"}')
        with pytest.raises(DataError):
            CvTable.from_json(path)


class TestTabulate:
    def test_quantiles_monotone_for_every_key(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            tab = tabulate_critical_values(
                "sadf", [40, 60], levels=(0.5, 0.9, 0.95, 0.99),
                replications=300, seed=4,
            )
        for T in (40, 60):
            qs = [tab.lookup(T, p) for p in (0.5, 0.9, 0.95, 0.99)]
            assert qs == sorted(qs)

    def test_gsadf_dominates_sadf_quantile(self):
        sadf_tab = tabulate_critical_values("sadf", [100], replications=2000, seed=11)
        gsadf_tab = tabulate_critical_values("gsadf", [100], replications=2000, seed=11)
        assert gsadf_tab.lookup(100, 0.95) > sadf_tab.lookup(100, 0.95)

    def test_quantile_stable_under_replication_doubling(self):
        tab_a = tabulate_critical_values("sadf", [100], replications=2000, seed=11)
        tab_b = tabulate_critical_values("sadf", [100], replications=4000, seed=12)
        qa, qb = tab_a.lookup(100, 0.95), tab_b.lookup(100, 0.95)

        def quantile_se(tab, R):
            density = (0.99 - 0.90) / (tab.lookup(100, 0.99) - tab.lookup(100, 0.90))
            return math.sqrt(0.95 * 0.05 / R) / density

        spread = math.hypot(quantile_se(tab_a, 2000), quantile_se(tab_b, 4000))
        assert abs(qa - qb) < 2.0 * spread

    def test_draws_come_from_streams_keyed_by_size_and_replicate(self):
        # the published rule: draw r at size T is a unit Gaussian walk from
        # SeedSequence(seed, spawn_key=(T, r)), whatever the other sizes
        seed, T, R = 9, 40, 120
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            tab = tabulate_critical_values("sadf", [60, T], levels=(0.9,), replications=R, seed=seed)
        stats = [sadf(np.cumsum(_keyed_rng(seed, T, r).standard_normal(T))).value for r in range(R)]
        assert tab.lookup(T, 0.9) == float(np.quantile(stats, 0.9))

    def test_below_table_grade_warns(self):
        with pytest.warns(UserWarning, match="table grade"):
            tabulate_critical_values("sadf", [40], replications=150, seed=1)

    def test_table_grade_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            tabulate_critical_values("sadf", [40], replications=1000, seed=1)

    def test_deterministic_and_order_invariant(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            a = tabulate_critical_values("sadf", [40, 60], replications=200, seed=3)
            b = tabulate_critical_values("sadf", [60, 40], replications=200, seed=3)
        assert a.values == b.values

    def test_callable_statistic(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            tab = tabulate_critical_values(
                lambda v: float(np.max(v) - np.min(v)), [40],
                levels=(0.5, 0.9), replications=200, seed=5,
            )
        assert tab.lookup(40, 0.9) > tab.lookup(40, 0.5) > 0.0

    def test_statistic_receives_only_its_options(self):
        # sign statistics read neither det nor k; sadf_gls reads det only
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            for stat, kwargs in (("sign_sadf", {"k": 1, "det": "trend"}), ("sadf_gls", {"k": 2})):
                plain = tabulate_critical_values(stat, [40], replications=100, seed=6)
                given = tabulate_critical_values(stat, [40], replications=100, seed=6, **kwargs)
                assert given.values == plain.values

    def test_table_records_the_options_the_statistic_reads(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            sign = tabulate_critical_values("sign_sadf", [40], k=1, det="trend", replications=100, seed=6)
            gls = tabulate_critical_values("sadf_gls", [40], k=2, det="trend", replications=100, seed=6)
            custom = tabulate_critical_values(
                lambda v: float(v[-1] - v[0]), [40], k=1, det="trend", replications=100, seed=6
            )
        assert (sign.det, sign.k) == ("const", 0)
        assert (gls.det, gls.k) == ("trend", 0)
        assert (custom.det, custom.k) == ("trend", 1)
        # the table is right for a study at the defaults and at ignored options
        null = DgpSpec(kind="rw_drift", T=40, seed=0)
        for k in (0, 1):
            study = size_power_study("sign_sadf", null, null, replications=20, seed=1, k=k, cv=sign)
            assert study.critical_value == sign.lookup(40, 0.95)
        study = size_power_study("sadf_gls", null, null, replications=20, seed=1, det="trend", k=2, cv=gls)
        assert study.critical_value == gls.lookup(40, 0.95)
        with pytest.raises(DataError, match="det='trend'"):
            size_power_study("sadf_gls", null, null, replications=20, seed=1, cv=gls)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            tabulate_critical_values("sadf", [], replications=2000)
        with pytest.raises(ValueError):
            tabulate_critical_values("sadf", [10], replications=2000)
        with pytest.raises(ValueError):
            tabulate_critical_values("sadf", [40], replications=50)
        with pytest.raises(ValueError):
            tabulate_critical_values("sadf", [40], levels=(0.0, 0.95), replications=2000)
        with pytest.raises(ValueError):
            tabulate_critical_values("arma", [40], replications=2000)

    def test_metadata_recorded(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            tab = tabulate_critical_values("gsadf", [40], replications=200, seed=77)
        assert tab.statistic == "gsadf"
        assert tab.replications == 200
        assert tab.seed == 77
        assert tab.generator == "rw-null-gaussian"


class TestSizePower:
    def test_alternative_equal_to_null_gives_power_near_size(self):
        null = DgpSpec(kind="rw_drift", T=200, seed=0)
        study = size_power_study(
            "sadf", null, null, replications=400, level=0.05, seed=8,
            cv_replications=1000,
        )
        assert abs(study.power - study.size) < 0.05
        assert 0.02 <= study.size <= 0.10

    def test_sadf_oversized_under_volatility_break(self):
        null = DgpSpec(kind="rw_drift", T=200, seed=0)
        study = size_power_study(
            "sadf", null, null, replications=400, level=0.05, seed=5,
            null_vol=VolPath.single_break(0.5, 1.0, 3.0),
            cv_replications=1000,
        )
        # the break arm is badly oversized while the homoskedastic arm
        # stays near nominal
        assert study.size > 0.15
        assert 0.02 <= study.power <= 0.08

    def test_sign_gsadf_size_immune_to_volatility(self):
        null = DgpSpec(kind="rw_drift", T=200, seed=0)
        study = size_power_study(
            "sign_gsadf", null, null, replications=400, level=0.05, seed=6,
            null_vol=VolPath.single_break(0.5, 1.0, 3.0),
            alt_vol=VolPath.trend(1.0, 3.0),
            cv_replications=1000,
        )
        assert 0.02 <= study.size <= 0.09
        assert 0.02 <= study.power <= 0.09

    def test_arm_paths_come_from_streams_keyed_by_arm_and_replicate(self):
        # the published rule: path r of arm 1 (null) and arm 2 (alternative)
        # is simulated from SeedSequence(seed, spawn_key=(arm, r))
        seed, R = 3, 30
        null = DgpSpec(kind="rw_drift", T=60, seed=0)
        alt = DgpSpec(kind="pwy_bubble", T=60, tau_e=0.4, tau_c=0.7, c=1.0, alpha=0.6)
        arms = {
            arm: np.array([sadf(simulate(spec, seed=_keyed_rng(seed, arm, r))).value for r in range(R)])
            for arm, spec in ((1, null), (2, alt))
        }
        cv = float(np.median(arms[1]))
        study = size_power_study("sadf", null, alt, replications=R, seed=seed, cv=cv)
        assert study.size == np.sum(arms[1] > cv) / R
        assert study.power == np.sum(arms[2] > cv) / R

    def test_power_against_genuine_bubble(self):
        null = DgpSpec(kind="rw_drift", T=200, seed=0)
        alt = DgpSpec(kind="pwy_bubble", T=200, tau_e=0.4, tau_c=0.6, c=3.0, alpha=0.6)
        study = size_power_study(
            "gsadf", null, alt, replications=400, level=0.05, seed=7,
            cv_replications=1000,
        )
        assert study.power > 0.9
        assert 0.02 <= study.size <= 0.09
        assert study.power_se == pytest.approx(
            math.sqrt(study.power * (1 - study.power) / 400), rel=1e-12
        )

    def test_explicit_critical_value_short_circuits(self):
        null = DgpSpec(kind="rw_drift", T=100, seed=0)
        study = size_power_study(
            "sadf", null, null, replications=50, level=0.05, seed=1, cv=1e9
        )
        assert study.size == 0.0 and study.power == 0.0
        assert study.critical_value == 1e9

    def test_cv_table_must_match_configuration(self):
        null = DgpSpec(kind="rw_drift", T=100, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            tab = tabulate_critical_values("gsadf", [100], levels=(0.95,), replications=200, seed=2)
        study = size_power_study(
            "gsadf", null, null, replications=50, level=0.05, seed=1, cv=tab
        )
        assert study.critical_value == tab.lookup(100, 0.95)
        with pytest.raises(DataError, match="table tabulates"):
            size_power_study("sadf", null, null, replications=50, level=0.05, seed=1, cv=tab)
        with pytest.raises(DataError, match="no entry for T=60"):
            size_power_study(
                "gsadf", DgpSpec(kind="rw_drift", T=60, seed=0),
                DgpSpec(kind="rw_drift", T=60, seed=0),
                replications=50, level=0.05, seed=1, cv=tab,
            )

    def test_degenerate_replications_counted(self):
        def always_degenerate(v):
            raise DegenerateFitError("no fit")

        null = DgpSpec(kind="rw_drift", T=50, seed=0)
        study = size_power_study(
            always_degenerate, null, null, replications=30, level=0.05, seed=1, cv=0.0
        )
        assert study.n_degenerate_null == 30
        assert study.n_degenerate_alt == 30
        assert study.size == 0.0

    def test_validation(self):
        null = DgpSpec(kind="rw_drift", T=50, seed=0)
        with pytest.raises(ValueError):
            size_power_study("sadf", null, null, replications=10, cv=1.0)
        with pytest.raises(ValueError):
            size_power_study("sadf", null, null, replications=50, level=1.5, cv=1.0)

    def test_json_round_trip(self):
        null = DgpSpec(kind="rw_drift", T=100, seed=0)
        study = size_power_study(
            "sadf", null, null, replications=50, level=0.05, seed=1, cv=2.0
        )
        loaded = json.loads(study.to_json())
        assert loaded["critical_value"] == 2.0
        assert loaded["replications"] == 50
        assert isinstance(study, SizePowerStudy)


class TestSimulateBits:
    """Paths equal the per-t recursion of :func:`_replay` bit for bit: the
    unit-root stretches are summed in order, as the recursion adds."""

    VOL = VolPath.single_break(0.5, 1.0, 3.0)
    SPECS = {
        "bubble, reinit": dict(kind="pwy_bubble", T=120, tau_e=0.3, tau_c=0.6, c=1.5, alpha=0.6, y_star=4.0, y0=20.0),
        "bubble, no reinit": dict(kind="pwy_bubble", T=120, tau_e=0.3, tau_c=0.6, c=0.0, alpha=0.6, y0=20.0),
        "bubble to the end": dict(kind="pwy_bubble", T=200, tau_e=0.8, tau_c=1.0, c=1.0, alpha=0.6, y0=100.0),
        "bubble from t = 1": dict(kind="pwy_bubble", T=60, tau_e=0.0, tau_c=0.5, c=1.0, alpha=0.6, y_star=2.0),
        "bubble of one step": dict(kind="pwy_bubble", T=100, tau_e=0.5, tau_c=0.505, c=2.0, alpha=0.6, y0=-3.0),
        "collapse, drift": dict(kind="collapse_bubble", T=150, tau_e=0.3, tau_c=0.5, tau_r=0.7, c1=2.0, alpha=0.55,
                                c2=1.5, beta=0.45, mu=0.5, eta=0.8, y0=10.0),
        "collapse, no drift": dict(kind="collapse_bubble", T=150, tau_e=0.0, tau_c=0.4, tau_r=0.6, delta1=0.05,
                                   delta2=0.1, y0=10.0, innovations="student-t"),
        "collapse to the end": dict(kind="collapse_bubble", T=90, tau_e=0.4, tau_c=0.8, tau_r=1.0, delta1=0.03,
                                    delta2=0.2, mu=-0.7, y0=5.0),
    }

    @pytest.mark.parametrize("name", SPECS)
    def test_equals_the_per_t_recursion(self, name):
        for seed in (1, 2, 3):
            for vol in (None, self.VOL):
                spec = DgpSpec(**self.SPECS[name], seed=seed)
                assert simulate(spec, vol).values.tobytes() == _replay(spec, vol).tobytes(), (name, seed)


class TestPathPanels:
    """The study arms' path builder: row r of one panel equals
    :func:`simulate` from row r's generator byte for byte, whatever the
    chunk of rows it is built in."""

    SPECS = {
        **TestSimulateBits.SPECS,
        "walk": dict(kind="rw_drift", T=80, y0=5.0),
        "walk, drift": dict(kind="rw_drift", T=80, mu=1.5, eta=0.6, y0=-2.0),
    }

    @pytest.mark.parametrize("name", SPECS)
    def test_rows_equal_simulate(self, name):
        seeds = (4, 5, 6, 7, 8)
        for innovations in ("gaussian", "student-t"):
            spec = DgpSpec(**{**self.SPECS[name], "innovations": innovations, "df": 5.0})
            for vol in (None, TestSimulateBits.VOL):
                panel = dgpsim._paths(spec, vol, [np.random.default_rng(s) for s in seeds])
                assert panel.shape == (len(seeds), spec.T)
                for row, s in zip(panel, seeds):
                    want = simulate(spec, vol, seed=np.random.default_rng(s)).values
                    assert row.tobytes() == want.tobytes(), (name, innovations, vol, s)


class TestOneRowChunks:
    """Replicate panels built one row per chunk give the bytes of the
    default chunks, so building a chunk as one panel changes no draw."""

    @staticmethod
    def _runs():
        null = DgpSpec(kind="rw_drift", T=60)
        alt = DgpSpec(kind="collapse_bubble", T=60, tau_e=0.4, tau_c=0.6, tau_r=0.7, delta1=0.04, delta2=0.1,
                      mu=0.3, eta=0.5, y0=10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            tables = [tabulate_critical_values(stat, [40, 60], replications=120, seed=3).values
                      for stat in ("gsadf", "sign_gsadf", "gstadf")]
        studies = [
            size_power_study(stat, null, alt, replications=40, seed=2, cv_replications=100,
                             null_vol=VolPath.single_break(0.5, 1.0, 3.0), alt_vol=VolPath.trend(1.0, 2.0)).to_json()
            for stat in ("sadf", "sign_gsadf", "gstadf")
        ]
        return tables, studies

    def test_tabulation_and_studies(self, monkeypatch):
        want = self._runs()
        monkeypatch.setattr(bt, "CHUNK_CELLS", 1)
        assert bt._replicate_values(3, 60, lambda r0, r1: np.full((r1 - r0, 60), float(r0)), lambda Y: Y[:, 0]).tolist() == [0, 1, 2]
        assert self._runs() == want
