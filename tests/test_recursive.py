"""Sup-type statistics: oracle equality, nesting, frozen examples."""

import json

import numpy as np
import pytest

import oracles
from exuberance import DegenerateFitError, adf_stat
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
