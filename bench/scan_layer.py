#!/usr/bin/env python3
"""In-process timings of the window-scan layer.

    PYTHONPATH=src python3 bench/scan_layer.py [--runs 7]

Times each case ``--runs`` times in one process (after one warm-up call)
and prints one JSON object: per case the wall times in seconds, their
median and interquartile range (a single run stands for both quartiles),
with the numpy version and the core count.  Inputs are fixed seeded
random walks and one seeded collapsing bubble, so two checkouts time the
same work.
"""

import argparse
import json
import os
import statistics
import time

import numpy as np

from exuberance import ols
from exuberance.bootstrap import _REGISTRY, wild_bootstrap_pvalue
from exuberance.datestamp import select_model_bic, two_step_stamp
from exuberance.dgpsim import DgpSpec, VolPath, size_power_study
from exuberance.inference import cobubble_test, recursive_ar_coefficients, rolling_ar_coefficients
from exuberance.robust import _tt_rows, sign_path


def _walk(seed: int, shape) -> np.ndarray:
    return 100.0 + np.cumsum(np.random.default_rng(seed).standard_normal(shape), axis=-1)


def _bubble(seed: int, T: int, a: int = 120) -> np.ndarray:
    """A walk from 100 that grows at 1.03 on a < t <= a+45 and collapses
    at 0.96 on a+45 < t <= a+60, with N(0, 1) innovations."""
    e = np.random.default_rng(seed).standard_normal(T)
    y = np.empty(T)
    y[0] = 100.0
    for t in range(1, T):
        rho = 1.03 if a < t <= a + 45 else 0.96 if a + 45 < t <= a + 60 else 1.0
        y[t] = rho * y[t - 1] + e[t]
    return y


def _m0(T: int) -> int:
    return int(np.floor(T * (0.01 + 1.8 / np.sqrt(T))))


def cases() -> dict:
    """name -> zero-argument call timed by this harness."""
    y300, y600, y200 = _walk(1, 300), _walk(2, 600), _walk(3, 200)
    panel, wide, robust = _walk(4, (163, 200)), _walk(6, (199, 200)), _walk(7, (100, 200))
    bubble = _bubble(5, 300)
    # every window of the T = 300 walk at least _m0(300) long
    starts, ends = np.array([(s, e) for e in range(_m0(300), 301) for s in range(e - _m0(300) + 1)]).T
    # a study's null walks under a volatility break against a late bubble,
    # the cv tabulated from 100 homoskedastic walks
    null, alt = DgpSpec(kind="rw_drift", T=200), DgpSpec(kind="pwy_bubble", T=200, tau_e=0.8, tau_c=1.0, c=1.0, alpha=0.6, y0=100.0)

    def study(stat):
        return lambda: size_power_study(
            stat, null, alt, replications=100, seed=1, cv_replications=100, null_vol=VolPath.single_break(0.5, 1.0, 3.0)
        )

    return {
        "bsadf_backward T=300 k=0": lambda: ols.bsadf_backward(y300, _m0(300), k=0),
        "bsadf_backward T=300 k=2": lambda: ols.bsadf_backward(y300, _m0(300), k=2),
        "adf_tstat_pairs T=300 k=2": lambda: ols.adf_tstat_pairs(y300, starts, ends, k=2),
        "bsadf_backward T=600 k=2": lambda: ols.bsadf_backward(y600, _m0(600), k=2),
        "bsadf_backward panel 163x200 k=0": lambda: ols.bsadf_backward(panel, _m0(200), k=0),
        "bsadf_backward panel 199x200 k=0": lambda: ols.bsadf_backward(wide, _m0(200), k=0),
        "sign_gsadf curves panel 100x200": lambda: _REGISTRY["sign_gsadf"].curves(robust, _m0(200)),
        "gstadf curves panel 100x200": lambda: _REGISTRY["gstadf"].curves(robust, _m0(200)),
        "sign_gsadf scores panel 100x200": lambda: _REGISTRY["sign_gsadf"].curves(robust, _m0(200), sups=True),
        "gstadf scores panel 100x200": lambda: _REGISTRY["gstadf"].curves(robust, _m0(200), sups=True),
        "tt rows panel 100x200": lambda: _tt_rows(robust),
        "size_power_study sign_gsadf T=200 R=100 break": study("sign_gsadf"),
        "size_power_study gstadf T=200 R=100 break": study("gstadf"),
        "wild_bootstrap_pvalue gsadf T=200 B=199": lambda: wild_bootstrap_pvalue(y200, "gsadf", B=199, seed=1),
        "wild_bootstrap_pvalue hb_chow T=200 B=199": lambda: wild_bootstrap_pvalue(y200, "hb_chow", B=199, seed=1),
        "wild_bootstrap_pvalue sadf_gls const T=200 B=199": lambda: wild_bootstrap_pvalue(y200, "sadf_gls", B=199, seed=1),
        "wild_bootstrap_pvalue sadf_gls trend T=200 B=199": lambda: wild_bootstrap_pvalue(
            y200, "sadf_gls", B=199, seed=1, det="trend"
        ),
        "cobubble_test T=300 B=199": lambda: cobubble_test(bubble, y300, B=199, seed=1),
        "two_step_stamp bubble T=300 k=2": lambda: two_step_stamp(bubble, k=2),
        "select_model_bic bubble T=300": lambda: select_model_bic(bubble),
        "select_model_bic walk T=600": lambda: select_model_bic(y600),
        "recursive_ar_coefficients T=600": lambda: recursive_ar_coefficients(y600),
        "rolling_ar_coefficients T=600 window=60": lambda: rolling_ar_coefficients(y600, 60),
        "sign_path T=600 k=2": lambda: sign_path(y600, filter_lags=2),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=7)
    args = ap.parse_args()
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    out = {"numpy": np.__version__, "cores": os.cpu_count(), "runs": args.runs, "cases": {}}
    for name, call in cases().items():
        call()
        times = []
        for _ in range(args.runs):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        q1, _, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
        out["cases"][name] = {"median_s": statistics.median(times), "iqr_s": [q1, q3], "times_s": times}
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
