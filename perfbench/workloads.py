"""The benchmark's workloads: their inputs, commands and output checks.

Each workload is a closed loop of CLI commands.  Inputs come from the
benchmark's own generators, seeded by the workload seed; the program sees
only the CSV files and the command-line arguments built here.  Checks run
after the timed part of a run and compare every report with computations
made apart from the program (see ``reference.py``) or with properties the
method must have.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import numpy as np

import reference

#: Relative tolerance between a report and a reference computed in
#: another order of floating-point operations.
RTOL = 1e-8


def _close(a: float, b: float, rtol: float = RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def min_window(T: int) -> int:
    """Observations in the minimum window of the CLI's 'auto' rule.

    floor((0.01 + 1.8 / sqrt(T)) * T), the rule of Phillips, Shi and Yu.
    """
    return int(math.floor((0.01 + 1.8 / math.sqrt(T)) * T + 1e-9))


def random_walk(rng, T: int, sigma: np.ndarray, y0: float = 100.0) -> np.ndarray:
    return y0 + np.cumsum(sigma * rng.standard_normal(T))


def collapsing_bubble(
    rng, T: int, a: int, b: int, c: int, grow: float, decay: float, y0: float = 100.0
) -> np.ndarray:
    """Unit root, explosive on a < t <= b, collapsing on b < t <= c, unit root.

    The coefficient is ``grow`` in the explosive regime and ``decay`` in
    the collapse regime; innovations are standard normal throughout.
    """
    e = rng.standard_normal(T)
    y = np.empty(T)
    prev = y0
    for t in range(1, T + 1):
        coef = grow if a < t <= b else decay if b < t <= c else 1.0
        prev = coef * prev + e[t - 1]
        y[t - 1] = prev
    return y


def write_csv(path: Path, values: np.ndarray) -> None:
    # repr round-trips every float64 exactly, so the program reads the
    # very numbers the references use
    path.write_text("value\n" + "".join(f"{float(v)!r}\n" for v in values))


class Workload:
    name = ""

    def make_pool(self, seed: int) -> list[dict]:
        raise NotImplementedError

    def write_pool(self, pool: list[dict], workdir: Path) -> None:
        for i, item in enumerate(pool):
            if "values" in item:
                item["path"] = workdir / f"input-{i}.csv"
                write_csv(item["path"], item["values"])

    def argv(self, item: dict, seed: int, out: Path) -> list[str]:
        raise NotImplementedError

    def check(self, item: dict, seed: int, report: dict) -> list[str]:
        """Errors found in one report; empty when it is right."""
        raise NotImplementedError

    def corrupt(self, report: dict) -> dict | None:
        """A copy of the report with one number perturbed, or None when
        this report offers no number the self-test perturbs."""
        raise NotImplementedError


class BootstrapGsadf(Workload):
    """``test --stat gsadf --cv bootstrap --B 199`` at T = 200.

    The pool holds a null random walk whose volatility steps from 1 to 3 at
    mid-sample and a single collapsing bubble (explosive 0.4T..0.55T,
    collapse to 0.6T).
    """

    name = "test-bootstrap-gsadf"
    pool_size = 2
    T = 200
    B = 199
    LEVEL = 0.95

    def make_pool(self, seed):
        rng = np.random.default_rng(seed)
        T = self.T
        sigma = np.where(np.arange(1, T + 1) <= T // 2, 1.0, 3.0)
        pool = []
        for i in range(self.pool_size):
            if i % 2 == 0:
                pool.append({"kind": "null", "values": random_walk(rng, T, sigma)})
            else:
                a, b, c = int(0.4 * T), int(0.55 * T), int(0.6 * T)
                y = collapsing_bubble(rng, T, a, b, c, grow=1.03, decay=0.9)
                pool.append({"kind": "bubble", "values": y})
        return pool

    def argv(self, item, seed, out):
        return [
            "test", "--input", str(item["path"]), "--stat", "gsadf",
            "--cv", "bootstrap", "--B", str(self.B), "--seed", str(seed),
            "--out", str(out),
        ]

    def check(self, item, seed, report):
        res = report["result"]
        y = item["values"]
        m0 = min_window(self.T)
        errors = []
        if "dense_gsadf" not in item:
            item["dense_gsadf"] = reference.gsadf_dense(y, m0)
        p, B = res["p_value"], self.B
        if res["statistic"] != "gsadf" or res["T"] != self.T or res["cv_source"] != "bootstrap":
            errors.append(f"report describes another run: {res['statistic']}, T={res['T']}")
        if not _close(res["observed"], item["dense_gsadf"]):
            errors.append(
                f"observed {res['observed']!r} != dense least-squares GSADF "
                f"{item['dense_gsadf']!r}"
            )
        s, e = res["window"]
        if e - s < m0 or not _close(reference.adf_tstat(y, s, e), res["observed"]):
            errors.append(f"reported window ({s}, {e}] does not attain the observed value")
        if not _close(p * (B + 1), round(p * (B + 1)), 1e-12):
            errors.append(f"(B+1)*p = {p * (B + 1)!r} is not an integer")
        if res["reject"] != (p <= 1.0 - self.LEVEL + 1e-12):
            errors.append(f"reject={res['reject']} does not follow from p={p}")
        reps = reference.wild_bootstrap_replicates(y, m0, B, seed)
        obs = res["observed"]
        tol = RTOL * max(1.0, abs(obs))
        lo, hi = int(np.sum(reps >= obs + tol)), int(np.sum(reps >= obs - tol))
        if not lo <= round(p * (B + 1)) - 1 <= hi:
            errors.append(
                f"p={p} counts {round(p * (B + 1)) - 1} replicates at or above the "
                f"observed value; the reference replicates give {lo}..{hi}"
            )
        cv = float(np.quantile(reps, self.LEVEL, method="higher"))
        if not _close(res["critical_value"], cv):
            errors.append(f"critical value {res['critical_value']!r} != replicate quantile {cv!r}")
        if res["n_degenerate"] != 0:
            errors.append(f"{res['n_degenerate']} degenerate replicates on a Gaussian wild bootstrap")
        if item["kind"] == "bubble" and not res["reject"]:
            errors.append(f"bubble input not rejected (p={p})")
        return errors

    def corrupt(self, report):
        bad = copy.deepcopy(report)
        res = bad["result"]
        step = 1.0 / (self.B + 1)
        # p off by one replicate, with the decision kept consistent with it
        res["p_value"] = res["p_value"] + (step if res["p_value"] + step <= 1.0 else -step)
        res["reject"] = res["p_value"] <= 1.0 - self.LEVEL + 1e-12
        return bad


class DatestampTwoStep(Workload):
    """``datestamp --method two-step --k 2`` on collapsing bubbles, T = 300.

    Each bubble originates at a seeded date in [0.35T, 0.45T), grows by 3%
    an observation for 0.15T, and collapses by 4% an observation for 0.05T,
    to about twice its starting level.  The post-collapse walk then lies
    above the pre-bubble one, so the share of date pairs that pass the
    regime search's level test, which sets the search's cost, varies
    little between seeds.
    """

    name = "datestamp-two-step"
    pool_size = 6
    T = 300
    MIN_SEG = 3  # the CLI's two-step default regime length
    ORIGIN_TOL = 5  # observations between simulated and stamped origin

    def make_pool(self, seed):
        rng = np.random.default_rng(seed)
        T = self.T
        pool = []
        for _ in range(self.pool_size):
            a = int(rng.integers(int(0.35 * T), int(0.45 * T)))
            b, c = a + int(0.15 * T), a + int(0.2 * T)
            y = collapsing_bubble(rng, T, a, b, c, grow=1.03, decay=0.96)
            pool.append({"kind": "bubble", "values": y, "dates": (a, b, c)})
        return pool

    def argv(self, item, seed, out):
        return [
            "datestamp", "--input", str(item["path"]), "--method", "two-step",
            "--k", "2", "--out", str(out),
        ]

    def check(self, item, seed, report):
        res = report["result"]
        y = item["values"]
        a0, b0, c0 = item["dates"]
        errors = []
        episodes = res["episodes"]
        if res["n_episodes"] != len(episodes) or res["T"] != self.T:
            errors.append("episode count or T inconsistent")
        for ep in episodes:
            if not _close(ep["origin"], ep["origin_index"] / self.T, 1e-12):
                errors.append(f"origin fraction {ep['origin']} != index/T")
        if not any(abs(ep["origin_index"] - a0) <= self.ORIGIN_TOL for ep in episodes):
            errors.append(
                f"no episode originates within {self.ORIGIN_TOL} of the simulated "
                f"origin {a0}: {[ep['origin_index'] for ep in episodes]}"
            )
        if len(episodes) == 1 and episodes[0]["model"] == 4:
            ep = episodes[0]
            dates = (ep["origin_index"], ep["collapse_index"], ep["recovery_index"])
            errors += self._check_optimal(y, dates, (a0, b0, c0))
        return errors

    def _check_optimal(self, y, dates, simulated):
        """The reported dates minimise the regime SSR over the exact grid:
        no admissible neighbour, and not the simulated dates, fit better."""
        ms = self.MIN_SEG
        if not reference.regime_admissible(y, *dates, ms):
            return [f"reported dates {dates} are not admissible"]
        ssr = reference.regime_ssr(y, *dates)
        rivals = [simulated] + [
            (dates[0] + i, dates[1] + j, dates[2] + k)
            for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1)
        ]
        errors = []
        for cand in rivals:
            if cand == tuple(dates) or not reference.regime_admissible(y, *cand, ms):
                continue
            other = reference.regime_ssr(y, *cand)
            if other < ssr - RTOL * max(1.0, ssr):
                errors.append(f"dates {cand} fit better than reported {dates}: {other} < {ssr}")
        return errors

    def corrupt(self, report):
        episodes = report["result"]["episodes"]
        if len(episodes) != 1 or episodes[0]["model"] != 4:
            return None
        bad = copy.deepcopy(report)
        ep = bad["result"]["episodes"][0]
        ep["origin_index"] += 1
        ep["origin"] = ep["origin_index"] / self.T
        return bad


class StudyRobustVol(Workload):
    """``study`` of sign_gsadf and gstadf in turn, T = 200.

    100 replications per arm and 100 tabulation draws.  The null is a
    driftless random walk whose volatility steps from 1 to 3 at mid-sample;
    the alternative is a bubble from 0.8T that runs to the end of the
    sample (coefficient 1 + 1/T^0.6 from a level of 100, unit volatility).
    """

    name = "study-robust-vol"
    T = 200
    R = 100
    CV_DRAWS = 100
    STATS = ("sign_gsadf", "gstadf")
    NULL = {"kind": "rw_drift", "T": 200}
    NULL_VOL = {"kind": "single_break", "level": 1.0, "level2": 3.0, "tau1": 0.5}
    ALT = {"kind": "pwy_bubble", "T": 200, "tau_e": 0.8, "tau_c": 1.0,
           "c": 1.0, "alpha": 0.6, "y0": 100.0}
    POWER_FLOOR = 0.8
    # At a critical value tabulated from 100 null draws, a volatility-robust
    # test's null rejection count out of 100 is beta-binomial(100, 6, 95):
    # 31 or more has probability 1e-6.  The ceiling therefore catches gross
    # faults only; plain gsadf has size 0.285 under this break.
    SIZE_CEILING = 0.30

    def make_pool(self, seed):
        return [{"kind": "study", "stat": stat} for stat in self.STATS]

    def argv(self, item, seed, out):
        return [
            "study", "--stat", item["stat"], "--replications", str(self.R),
            "--cv-replications", str(self.CV_DRAWS), "--seed", str(seed),
            "--null-spec", json.dumps(self.NULL), "--null-vol", json.dumps(self.NULL_VOL),
            "--alt-spec", json.dumps(self.ALT), "--out", str(out),
        ]

    def check(self, item, seed, report):
        res = report["result"]
        R = self.R
        errors = []
        if res["statistic"] != item["stat"] or res["replications"] != R or res["seed"] != seed:
            errors.append("report describes another study")
        for arm in ("size", "power"):
            rate = res[arm]
            count = round(rate * R)
            if not _close(rate * R, count, 1e-12):
                errors.append(f"{arm}*R = {rate * R!r} is not a whole rejection count")
            se = math.sqrt(rate * (1.0 - rate) / R)
            if not _close(res[f"{arm}_se"], se, 1e-12):
                errors.append(f"{arm}_se {res[f'{arm}_se']!r} != binomial se {se!r} of {arm} {rate}")
        if not res["power"] >= self.POWER_FLOOR:
            errors.append(f"power {res['power']} below {self.POWER_FLOOR}")
        if not res["size"] <= self.SIZE_CEILING:
            errors.append(f"size {res['size']} under the volatility break above {self.SIZE_CEILING}")
        if not math.isfinite(res["critical_value"]):
            errors.append("critical value is not finite")
        return errors

    def corrupt(self, report):
        bad = copy.deepcopy(report)
        res = bad["result"]
        step = 1.0 / self.R
        # one more (or one fewer) rejection under the null
        res["size"] = res["size"] + (step if res["size"] + step <= 1.0 else -step)
        return bad


WORKLOADS = {w.name: w for w in (BootstrapGsadf(), DatestampTwoStep(), StudyRobustVol())}
