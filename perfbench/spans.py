"""Spans around calls into the package's layers, recorded from outside.

A traced run replaces the public functions of each module (and the names
``cli`` binds to them directly) with wrappers that record a span: name,
start, end, parent span and command id.  Spans stay in memory and are
written out when the run ends.  A span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, command]
        self.counts: dict[str, float] = defaultdict(float)
        self.command = -1
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, self.command]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, command in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "command": command,
                }) + "\n")

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: call count, total duration and total self time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, dur, self_time = defaultdict(int), defaultdict(float), defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            dur[name] += end - start
            self_time[name] += end - start - child[i]
        return calls, dur, self_time


# -- counters: work done by one call, from its arguments and result ---------

def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _backward_windows(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    n = len(a["values"]) - int(a["m0"]) + 1  # endpoints e = m0..T
    tracer.counts["ols.windows"] += n * (n + 1) // 2  # starts s = 0..e-m0


def _prefix_windows(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    tracer.counts["ols.windows"] += len(a["values"]) - int(a["m0"]) + 1


def _replicates(tracer, fn, args, kwargs, result):
    tracer.counts["bootstrap.replicates"] += result.B
    tracer.counts["bootstrap.degenerate"] += result.n_degenerate


def regime_candidates(n: int, ms: int) -> int:
    """Date tuples in the exact grids of regime models 1-4 on n observations.

    Model 1: origin a in [ms, n-ms].  Models 2 and 3: a >= ms, peak b in
    [a+ms, n-ms].  Model 4: a >= ms, b >= a+ms, recovery c in [b+ms, n-ms].
    """
    m1 = max(0, n - 2 * ms + 1)
    m23 = sum(max(0, n - 2 * ms - a + 1) for a in range(ms, n + 1))
    # model 4: for each peak b, (#origins a <= b-ms) * (#recoveries c)
    m4 = sum(
        max(0, b - 2 * ms + 1) * max(0, n - 2 * ms - b + 1) for b in range(2 * ms, n + 1)
    )
    return m1 + 2 * m23 + m4


def _candidates(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    tracer.counts["datestamp.candidates"] += regime_candidates(len(a["series"]), int(a["min_seg"]))


def _tabulated_draws(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    tracer.counts["dgpsim.draws"] += int(a["replications"]) * len(tuple(a["sample_sizes"]))


def _simulated_draw(tracer, fn, args, kwargs, result):
    tracer.counts["dgpsim.draws"] += 1


#: span name -> (module that defines the function, function name, counter).
#: ``cli`` binds several of these names at import; those bindings are
#: replaced too, so the CLI's own calls are traced.
HOOKS = {
    "cli.run_config": ("cli", "run_config", None),
    "series.load_series": ("series", "load_series", None),
    "ols.bsadf_backward": ("ols", "bsadf_backward", _backward_windows),
    "ols.sadf_prefix_stats": ("ols", "sadf_prefix_stats", _prefix_windows),
    "ols.fit_adf_window": ("ols", "fit_adf_window", None),
    "recursive.gsadf": ("recursive", "gsadf", None),
    "recursive.sadf": ("recursive", "sadf", None),
    "bootstrap.wild_bootstrap_pvalue": ("bootstrap", "wild_bootstrap_pvalue", _replicates),
    "datestamp.two_step_stamp": ("datestamp", "two_step_stamp", None),
    "datestamp.select_model_bic": ("datestamp", "select_model_bic", _candidates),
    "datestamp.psy_stamp": ("datestamp", "psy_stamp", None),
    "robust.sign_statistics": ("robust", "sign_statistics", None),
    "robust.time_transformed_tests": ("robust", "time_transformed_tests", None),
    "dgpsim.size_power_study": ("dgpsim", "size_power_study", None),
    "dgpsim.tabulate_critical_values": ("dgpsim", "tabulate_critical_values", _tabulated_draws),
    "dgpsim.simulate": ("dgpsim", "simulate", _simulated_draw),
}


def _wrap(tracer, name, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        if counter is not None:
            counter(tracer, fn, args, kwargs, result)
        return result

    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Replace every hooked function, in its module and in ``cli``."""
    cli = importlib.import_module("exuberance.cli")
    saved = []
    try:
        for name, (mod_name, attr, counter) in HOOKS.items():
            module = importlib.import_module(f"exuberance.{mod_name}")
            fn = getattr(module, attr)
            wrapper = _wrap(tracer, name, fn, counter)
            for target in (module, cli):
                if getattr(target, attr, None) is fn:
                    saved.append((target, attr, fn))
                    setattr(target, attr, wrapper)
        yield tracer
    finally:
        for target, attr, fn in reversed(saved):
            setattr(target, attr, fn)


def layer_metrics(tracer: Tracer, commands: int, rounds: list[list[float]]) -> dict:
    """Per-command layer figures from a traced run's spans and counts.

    ``rounds`` holds the command times of each round over the input pool.
    """
    calls, dur, self_time = tracer.totals()
    c = tracer.counts
    per = 1.0 / commands

    def rate(num, den):
        return num / den if den > 0 else 0.0

    scan_s = dur["ols.bsadf_backward"] + dur["ols.sadf_prefix_stats"]
    search_s = dur["datestamp.select_model_bic"]
    boot_s = dur["bootstrap.wild_bootstrap_pvalue"]
    return {
        "cli.self_s": (self_time["cli.main"] * per, "s"),
        "series.load_s": (dur["series.load_series"] * per, "s"),
        "ols.scan_calls": ((calls["ols.bsadf_backward"] + calls["ols.sadf_prefix_stats"]) * per, "count"),
        "ols.windows": (c["ols.windows"] * per, "count"),
        "ols.scan_s": (scan_s * per, "s"),
        "ols.windows_per_s": (rate(c["ols.windows"], scan_s), "1/s"),
        "ols.dense_fits": (calls["ols.fit_adf_window"] * per, "count"),
        "recursive.self_s": ((self_time["recursive.gsadf"] + self_time["recursive.sadf"]) * per, "s"),
        "bootstrap.replicates": (c["bootstrap.replicates"] * per, "count"),
        "bootstrap.degenerate": (c["bootstrap.degenerate"] * per, "count"),
        "bootstrap.self_s": (self_time["bootstrap.wild_bootstrap_pvalue"] * per, "s"),
        "bootstrap.replicates_per_s": (rate(c["bootstrap.replicates"], boot_s), "1/s"),
        "datestamp.search_calls": (calls["datestamp.select_model_bic"] * per, "count"),
        "datestamp.candidates": (c["datestamp.candidates"] * per, "count"),
        "datestamp.search_s": (search_s * per, "s"),
        "datestamp.candidates_per_s": (rate(c["datestamp.candidates"], search_s), "1/s"),
        "datestamp.stamp_s": (dur["datestamp.psy_stamp"] * per, "s"),
        "robust.calls": ((calls["robust.sign_statistics"] + calls["robust.time_transformed_tests"]) * per, "count"),
        "robust.sign_s": (dur["robust.sign_statistics"] * per, "s"),
        "robust.tt_s": (dur["robust.time_transformed_tests"] * per, "s"),
        "dgpsim.draws": (c["dgpsim.draws"] * per, "count"),
        "dgpsim.simulate_s": (dur["dgpsim.simulate"] * per, "s"),
        "dgpsim.self_s": ((self_time["dgpsim.size_power_study"] + self_time["dgpsim.tabulate_critical_values"]) * per, "s"),
        "trace.op_s": (statistics.median(statistics.median(r) for r in rounds), "s"),
    }
