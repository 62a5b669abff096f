"""Exact bytes of every CSV writer.

The writers share one format: UTF-8, the csv module's default dialect
(CRLF line ends, minimal quoting), each with its own number format.
``StatSequence.to_csv`` writes its two plain columns with LF line ends.
Any change to these bytes changes files users have already written.
"""

import numpy as np
import pytest

from exuberance import BootstrapReport, CvTable, Episode, Series, episodes_to_csv, save_series
from exuberance.cli import emit_plot_data
from exuberance.recursive import StatSequence

VALUES = [1.5, 2.0 / 3.0, -1e-300, 12345678.901234567]
EPISODES = [
    Episode(0.25, 0.5, 3, 6),
    Episode(2.0 / 3.0, 0.75, 8, 9, recovery=1.0, recovery_index=12, model=2),
]
EPISODE_HEAD = b"origin,collapse,recovery,model,origin_index,collapse_index,recovery_index"


def _written(tmp_path, write) -> bytes:
    path = tmp_path / "out.csv"
    write(str(path))
    return path.read_bytes()


class TestSaveSeries:
    def test_without_labels(self, tmp_path):
        got = _written(tmp_path, lambda p: save_series(p, Series(VALUES, name="price")))
        assert got == b"price\r\n1.5\r\n0.66666666666666663\r\n-1e-300\r\n12345678.901234567\r\n"

    def test_with_labels_quoting_and_non_ascii(self, tmp_path):
        s = Series(VALUES, labels=["2020-01", "Zürich, Q2", 'say "hi"', "d4"], name="prïce")
        got = _written(tmp_path, lambda p: save_series(p, s))
        assert got == (
            b"label,pr\xc3\xafce\r\n2020-01,1.5\r\n"
            b'"Z\xc3\xbcrich, Q2",0.66666666666666663\r\n'
            b'"say ""hi""",-1e-300\r\nd4,12345678.901234567\r\n'
        )


def test_stat_sequence_writes_lf(tmp_path):
    seq = StatSequence("sadf", 0.25, [0.25, 0.5, 2.0 / 3.0, 1.0], [0.1, np.nan, -1.0 / 3.0, 2.5], 12)
    got = _written(tmp_path, seq.to_csv)
    assert got == b"tau2,value\n0.25,0.10000000000000001\n0.5,\n0.66666666666666663,-0.33333333333333331\n1,2.5\n"
    assert b"\r" not in got


class TestEpisodesToCsv:
    def test_without_labels(self, tmp_path):
        got = _written(tmp_path, lambda p: episodes_to_csv(p, EPISODES))
        assert got == (
            EPISODE_HEAD + b"\r\n0.25,0.5,,,3,6,\r\n0.66666666666666663,0.75,1,2,8,9,12\r\n"
        )

    def test_with_labels_and_recovery(self, tmp_path):
        s = Series(np.arange(12.0), labels=[f"t{i:02d}" for i in range(1, 13)])
        got = _written(tmp_path, lambda p: episodes_to_csv(p, EPISODES, series=s))
        assert got == (
            EPISODE_HEAD + b",origin_label,collapse_label,recovery_label\r\n"
            b"0.25,0.5,,,3,6,,t03,t06,\r\n"
            b"0.66666666666666663,0.75,1,2,8,9,12,t08,t09,t12\r\n"
        )


def test_dump_replicates_blank_for_nan(tmp_path):
    rep = BootstrapReport(
        statistic="gsadf", observed=1.25, p_value=0.2, B=4, seed=7, multiplier="gaussian",
        n_degenerate=1, replicates=np.array([0.5, np.nan, -1.0 / 3.0, 1e20]),
    )
    got = _written(tmp_path, rep.dump_replicates)
    assert got == b"replicate,value\r\n0,0.5\r\n1,\r\n2,-0.33333333333333331\r\n3,1e+20\r\n"


def test_cv_table_default_tau0(tmp_path):
    values = {(40, 0.9): 1.0 / 3.0, (40, 0.95): 1.5, (100, 0.9): -0.25, (100, 0.95): 2.0 / 7.0}
    tab = CvTable(statistic="gsadf", tau0=None, det="const", k=0, sample_sizes=(40, 100),
                  levels=(0.9, 0.95), values=values, replications=100, seed=3)
    got = _written(tmp_path, tab.to_csv)
    assert got == (
        b"statistic,T,tau0,det,k,level,value\r\n"
        b"gsadf,40,,const,0,0.90000000000000002,0.33333333333333331\r\n"
        b"gsadf,40,,const,0,0.94999999999999996,1.5\r\n"
        b"gsadf,100,,const,0,0.90000000000000002,-0.25\r\n"
        b"gsadf,100,,const,0,0.94999999999999996,0.2857142857142857\r\n"
    )


class TestEmitPlotData:
    HEAD = b"index,label,statistic,cv,in_episode\r\n"

    @pytest.mark.parametrize("cv, expected", [
        ([1.0, 1.1, None, 1.3], b"4,a,0.5,1.0,0\r\n5,b,,1.1,1\r\n6,\xc3\x84,0.3333333333333333,,1\r\n7,d,2.0,1.3,0\r\n"),
        (0.75, b"4,a,0.5,0.75,0\r\n5,b,,0.75,1\r\n6,\xc3\x84,0.3333333333333333,0.75,1\r\n7,d,2.0,0.75,0\r\n"),
    ])
    def test_sequence_report(self, tmp_path, cv, expected):
        report = {"result": {
            "sequence": {"index": [4, 5, 6, 7], "values": [0.5, None, 1.0 / 3.0, 2.0],
                         "labels": ["a", "b", "Ä", "d"], "cv": cv},
            "episodes": [{"origin_index": 5, "collapse_index": 6, "recovery_index": None}],
        }}
        assert _written(tmp_path, lambda p: emit_plot_data(report, p)) == self.HEAD + expected

    def test_episodes_only_report(self, tmp_path):
        report = {"result": {"episodes": [
            {"origin_index": 3, "collapse_index": 5, "recovery_index": 6},
            {"origin_index": 9, "collapse_index": 10},
        ]}}
        got = _written(tmp_path, lambda p: emit_plot_data(report, p))
        assert got == self.HEAD + b"3,3,,,1\r\n4,4,,,1\r\n5,5,,,1\r\n6,6,,,1\r\n9,9,,,1\r\n10,10,,,1\r\n"
