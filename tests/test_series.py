"""Series container, window arithmetic, CSV round-trips and JSON reports."""

import json
import re
from dataclasses import fields

import numpy as np
import pytest

from exuberance import (
    DataError,
    Series,
    WindowSpec,
    default_min_window,
    frac_to_index,
    load_series,
    save_series,
)
from exuberance.cli import RunConfig
from exuberance.dgpsim import SizePowerStudy
from exuberance.inference import (
    CobubbleTest,
    ContagionFit,
    DriftExponent,
    MigrationTest,
    MildlyExplosiveCI,
)
from exuberance.recursive import StatSequence
from exuberance.series import _JsonFields, normalize_det


class TestFracToIndex:
    def test_floor_mapping(self):
        assert frac_to_index(0.19, 100) == 19
        assert frac_to_index(0.10, 400) == 40
        assert frac_to_index(0.91, 4) == 3
        assert frac_to_index(1.0, 50) == 50
        assert frac_to_index(0.0, 50) == 0

    def test_snap_guard_absorbs_representation_error(self):
        # 0.29 * 100 is 28.999999999999996 in binary; the mapping must
        # still land on 29.
        assert frac_to_index(0.29, 100) == 29
        assert frac_to_index(0.07, 100) == 7
        for T in (50, 100, 173, 400, 1000):
            for i in range(T + 1):
                assert frac_to_index(i / T, T) == i

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            frac_to_index(-0.01, 100)
        with pytest.raises(ValueError):
            frac_to_index(1.01, 100)


class TestDefaultMinWindow:
    def test_reference_values(self):
        assert default_min_window(100) == pytest.approx(0.19, abs=1e-12)
        assert default_min_window(400) == pytest.approx(0.10, abs=1e-12)
        assert default_min_window(4) == pytest.approx(0.91, abs=1e-12)

    def test_capped_at_one(self):
        assert default_min_window(4) <= 1.0

    def test_too_short(self):
        with pytest.raises(ValueError):
            default_min_window(3)


class TestNormalizeDet:
    @pytest.mark.parametrize(
        "alias,canon",
        [
            ("none", "none"),
            ("n", "none"),
            ("const", "const"),
            ("c", "const"),
            ("constant", "const"),
            ("trend", "trend"),
            ("ct", "trend"),
            ("constant+trend", "trend"),
            ("CONST", "const"),
        ],
    )
    def test_aliases(self, alias, canon):
        assert normalize_det(alias) == canon

    def test_unknown(self):
        with pytest.raises(ValueError):
            normalize_det("quadratic")


class TestSeries:
    def test_basic(self):
        s = Series(np.array([1.0, 2.0, 3.0]))
        assert s.values.shape == (3,)
        assert len(s) == 3

    def test_rejects_short_and_nonfinite(self):
        with pytest.raises(ValueError):
            Series(np.array([1.0]))
        with pytest.raises(ValueError):
            Series(np.array([1.0, np.nan, 2.0]))
        with pytest.raises(ValueError):
            Series(np.array([1.0, np.inf]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            Series(np.ones((3, 2)))

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError):
            Series(np.array([1.0, 2.0]), labels=["a"])


class TestWindowSpec:
    def test_indices(self):
        w = WindowSpec(0.25, 0.75)
        assert w.indices(100) == (25, 75)
        assert w.length(100) == 50

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowSpec(0.5, 0.5)
        with pytest.raises(ValueError):
            WindowSpec(-0.1, 0.5)
        with pytest.raises(ValueError):
            WindowSpec(0.2, 1.1)


class TestCsvIo:
    def test_roundtrip_with_header(self, tmp_path):
        path = tmp_path / "s.csv"
        vals = np.array([1.0, -2.5, 3.125, 1e-8])
        save_series(path, Series(vals, name="price"))
        s = load_series(path)
        np.testing.assert_array_equal(s.values, vals)

    def test_roundtrip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(31)
        vals = np.cumsum(rng.standard_normal(200))
        path = tmp_path / "s.csv"
        save_series(path, Series(vals))
        back = load_series(path)
        np.testing.assert_array_equal(back.values, vals)

    @pytest.mark.parametrize("name", ["2020", "nan", "inf", " 1e3"])
    @pytest.mark.parametrize("labels", [None, ["a", "b", "c"]])
    def test_numeric_name_refused(self, tmp_path, name, labels):
        # load_series would read such a header back as a data row
        path = tmp_path / "s.csv"
        with pytest.raises(DataError, match=repr(name)):
            save_series(path, Series([1.5, 2.5, 3.25], labels=labels, name=name))
        assert not path.exists()

    def test_name_that_reads_as_text_round_trips(self, tmp_path):
        path = tmp_path / "s.csv"
        save_series(path, Series([1.5, 2.5, 3.25], labels=["a", "b", "c"], name="2020-price"))
        back = load_series(path, label_column=0)
        assert back.name == "2020-price" and back.labels == ["a", "b", "c"]
        np.testing.assert_array_equal(back.values, [1.5, 2.5, 3.25])

    @pytest.mark.parametrize("name, labels, offending", [
        ("", None, "''"),
        ("", ["a", "b", "c"], "''"),
        (" price ", [" a", "b ", "c"], "' price '"),
        ("price", [" a", "b", "c"], "' a'"),
        ("price", ["a", "b ", "c"], "'b '"),
        ("price", ["a", " ", "c"], "' '"),
    ])
    def test_name_or_label_that_would_not_load_back_refused(self, tmp_path, name, labels, offending):
        # load_series strips every field and calls an empty header "y"
        path = tmp_path / "s.csv"
        with pytest.raises(DataError, match=re.escape(offending)):
            save_series(path, Series([1.5, 2.5, 3.25], labels=labels, name=name))
        assert not path.exists()

    def test_headerless_single_column(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("1.5\n2.5\n3.5\n")
        s = load_series(path)
        np.testing.assert_array_equal(s.values, [1.5, 2.5, 3.5])

    def test_named_column_and_labels(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("date,price\n2001-01,10\n2001-02,11\n2001-03,13\n")
        s = load_series(path, column="price", label_column="date")
        np.testing.assert_array_equal(s.values, [10.0, 11.0, 13.0])
        assert s.labels == ["2001-01", "2001-02", "2001-03"]

    def test_missing_column(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("date,price\n2001-01,10\n2001-02,11\n")
        with pytest.raises(DataError, match="volume"):
            load_series(path, column="volume")

    def test_non_numeric_cell_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("price\n1.0\noops\n3.0\n")
        with pytest.raises(DataError, match="row 3"):
            load_series(path)

    def test_short_header_names_trailing_fields(self, tmp_path):
        # a header one field shorter than its rows leaves the leading
        # label column unnamed; the default value column is the last one
        path = tmp_path / "short.csv"
        path.write_text("v\nd000,1.5\nd001,2.5\nd002,-0.25\n")
        s = load_series(path)
        np.testing.assert_array_equal(s.values, [1.5, 2.5, -0.25])
        assert s.name == "v"
        named = load_series(path, column="v", label_column=0)
        np.testing.assert_array_equal(named.values, [1.5, 2.5, -0.25])
        assert named.labels == ["d000", "d001", "d002"]

    def test_ragged_rows_report_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("v\nd000,1.5\nd001,2.5,9\nd002,3.5\n")
        with pytest.raises(DataError, match="row 3"):
            load_series(path)
        path.write_text("date,price\n2001-01,10\n2001-02\n2001-03,13\n")
        with pytest.raises(DataError, match="row 3"):
            load_series(path)

    def test_header_too_short_or_too_long(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("v\na,b,1.5\nc,d,2.5\n")
        with pytest.raises(DataError, match="row 1"):
            load_series(path)
        path.write_text("date,price,volume\n2001-01,10\n2001-02,11\n")
        with pytest.raises(DataError, match="row 1"):
            load_series(path, column="price")

    def test_column_out_of_range(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("date,price\n2001-01,10\n2001-02,11\n")
        for col in (2, -3):
            with pytest.raises(DataError, match="missing column"):
                load_series(path, column=col)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("price\n1.0\n")
        with pytest.raises(DataError):
            load_series(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_series(tmp_path / "absent.csv")


def _strict_loads(text):
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


# one hand-built instance per class on the shared serializer, with the
# key path of a field set to a non-finite value
_REPORTS = [
    (MildlyExplosiveCI(rho_hat=1.02, lower=1.0, upper=np.inf, level=0.9, method="cauchy", nobs=12),
     ("upper",)),
    (DriftExponent(eta_hat=np.nan, eta_tilde=0.4, mu_hat=1.5, mu_tilde=1.4, nobs=np.int64(80)),
     ("eta_hat",)),
    (MigrationTest(beta0_hat=0.2, beta1_hat=0.1, z_beta=-np.inf, p_value=1.0, origin_x=60,
                   origin_y=72, m=12, scale=1e-320, nobs=12),
     ("z_beta",)),
    (ContagionFit(delay=2, theta1_hat=0.3, theta2_hat=0.9, r2=0.5, nobs=40,
                  r2_by_delay={0: np.float64(np.nan), 1: 0.2, 2: 0.5}),
     ("r2_by_delay", "0")),
    (CobubbleTest(stat=np.float64(np.inf), p_value=0.0, delay=0, intercept=0.1, slope=2.0,
                  n_overlap=90, B=99, seed=5, multiplier="gaussian", replicates=np.arange(3.0)),
     ("stat",)),
    (SizePowerStudy(statistic="sadf", level=0.05, critical_value=np.nan, size=0.05, power=0.5,
                    size_se=0.01, power_se=0.02, replications=100, seed=1,
                    n_degenerate_null=0, n_degenerate_alt=0),
     ("critical_value",)),
    (RunConfig(subcommand="relate", method="migration", scale=-np.inf, sizes=(40, 60)),
     ("scale",)),
]


class TestJsonReports:
    def test_every_class_on_the_shared_serializer_is_covered(self):
        assert {type(obj) for obj, _ in _REPORTS} == set(_JsonFields.__subclasses__())

    @pytest.mark.parametrize("obj, path", _REPORTS, ids=[type(obj).__name__ for obj, _ in _REPORTS])
    def test_contract(self, obj, path):
        d = obj.to_dict()
        omitted = type(obj)._omit
        assert list(d) == [f.name for f in fields(obj) if f.name not in omitted]
        assert _strict_loads(obj.to_json()) == d
        value = d
        for key in path:
            value = value[key]
        assert value is None

    def test_omitted_fields_are_left_out(self):
        obj = next(obj for obj, _ in _REPORTS if isinstance(obj, CobubbleTest))
        assert "replicates" not in obj.to_dict()

    def test_sequence_writes_non_finite_values_as_null(self):
        seq = StatSequence(kind="bsadf", tau0=0.2, tau2=[0.5, 0.75, 1.0],
                           values=[np.nan, np.inf, 1.5], nobs=4)
        data = _strict_loads(seq.to_json())
        assert data["entries"] == [[0.5, None], [0.75, None], [1.0, 1.5]]
