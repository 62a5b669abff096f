#!/usr/bin/env python3
"""In-process timings of the window-scan layer.

    PYTHONPATH=src python3 bench/scan_layer.py [--runs 7]

Times each case ``--runs`` times in one process (after one warm-up call)
and prints one JSON object: per case the wall times in seconds, their
median and interquartile range, with the numpy version and the core count.
Inputs are fixed seeded random walks, so two checkouts time the same work.
"""

import argparse
import json
import os
import statistics
import time

import numpy as np

from exuberance import ols
from exuberance.bootstrap import wild_bootstrap_pvalue


def _walk(seed: int, shape) -> np.ndarray:
    return 100.0 + np.cumsum(np.random.default_rng(seed).standard_normal(shape), axis=-1)


def _m0(T: int) -> int:
    return int(np.floor(T * (0.01 + 1.8 / np.sqrt(T))))


def cases() -> dict:
    """name -> zero-argument call timed by this harness."""
    y300, y600, y200 = _walk(1, 300), _walk(2, 600), _walk(3, 200)
    panel = _walk(4, (163, 200))
    return {
        "bsadf_backward T=300 k=0": lambda: ols.bsadf_backward(y300, _m0(300), k=0),
        "bsadf_backward T=300 k=2": lambda: ols.bsadf_backward(y300, _m0(300), k=2),
        "bsadf_backward T=600 k=2": lambda: ols.bsadf_backward(y600, _m0(600), k=2),
        "bsadf_backward panel 163x200 k=0": lambda: ols.bsadf_backward(panel, _m0(200), k=0),
        "wild_bootstrap_pvalue gsadf T=200 B=199": lambda: wild_bootstrap_pvalue(y200, "gsadf", B=199, seed=1),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=7)
    args = ap.parse_args()
    out = {"numpy": np.__version__, "cores": os.cpu_count(), "runs": args.runs, "cases": {}}
    for name, call in cases().items():
        call()
        times = []
        for _ in range(args.runs):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        q1, _, q3 = statistics.quantiles(times, n=4)
        out["cases"][name] = {"median_s": statistics.median(times), "iqr_s": [q1, q3], "times_s": times}
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
