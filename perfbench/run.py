#!/usr/bin/env python3
"""Benchmark of the exuberance CLI, end to end and by layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout: the package is imported from
``src/``.  One process runs the workload as a closed loop of
``exuberance.cli.main`` calls for about ``--seconds`` seconds, then checks
every report (see ``workloads.py``), checks that the same input and seed
give the same report again, and checks that a report with one number
perturbed fails its check.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer ones with
``--trace 1``.  See README.md for the workloads and metrics.
"""

import os

# numpy reads these once, at import: no more BLAS threads than two cores
_THREADS = str(min(2, os.cpu_count() or 1))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = _THREADS

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: Fresh interpreters that repeat a run's set-up; set-up time is their median.
SETUP_PROBES = 3


def _setup(workload_name: str, seed: int, workdir: Path):
    """Everything before the first command: import the CLI, write the inputs."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import exuberance.cli as cli
    from workloads import WORKLOADS

    if Path(cli.__file__).resolve().parent != SRC / "exuberance":
        raise RuntimeError(f"imported exuberance from {cli.__file__}, not from {SRC}")
    workload = WORKLOADS[workload_name]
    pool = workload.make_pool(seed)
    workload.write_pool(pool, workdir)
    return cli, workload, pool


def _probe_setup(workload: str, seed: int, workdir: Path) -> float:
    """Wall time for a fresh interpreter to reach its first command."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe", str(workdir)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        rc = proc.wait()
    if rc != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed with exit code {rc}")
    return elapsed


def _run_command(cli, argv, tracer) -> int:
    """One CLI command; its exit code, or -1 when it raised."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        try:
            if tracer is None:
                return cli.main(argv)
            return tracer.call("cli.main", cli.main, argv)
        except Exception:  # a crash is a failed command, not a failed run
            traceback.print_exc()
            return -1


def _strip_created(raw: bytes) -> bytes:
    # the report's creation time is its one clock-dependent field
    return b"\n".join(l for l in raw.split(b"\n") if not l.lstrip().startswith(b'"created"'))


def run(args) -> dict:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setup_times = []
        for i in range(SETUP_PROBES):
            probe_dir = workdir / f"probe-{i}"
            probe_dir.mkdir()
            setup_times.append(_probe_setup(args.workload, args.seed, probe_dir))
            shutil.rmtree(probe_dir)
        cli, workload, pool = _setup(args.workload, args.seed, workdir)
        return _measure(args, cli, workload, pool, workdir, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, cli, workload, pool, workdir, setup_times) -> dict:
    import spans

    tracer = spans.Tracer() if args.trace else None
    commands = []  # (item, seed, argv, exit code, seconds, report bytes)
    rounds = []  # per round over the pool: its commands' times
    with spans.installed(tracer) if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        while True:
            for item in pool:
                i = len(commands)
                seed = args.seed * 100_000 + i
                out = workdir / f"report-{i}.json"
                argv = workload.argv(item, seed, out)
                if tracer:
                    tracer.command = i
                t0 = time.perf_counter()
                rc = _run_command(cli, argv, tracer)
                t1 = time.perf_counter()
                raw = out.read_bytes() if rc == 0 else b""
                commands.append((item, seed, argv, rc, t1 - t0, raw))
            rounds.append([c[4] for c in commands[-len(pool):]])
            round_s = statistics.median(sum(r) for r in rounds)
            if time.perf_counter() - start + round_s > args.seconds:
                break
        elapsed = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = []
    ok = [c for c in commands if c[3] == 0]
    for i, (item, seed, argv, rc, _, raw) in enumerate(commands):
        if rc != 0:
            errors.append(f"command {i} exited {rc}: {' '.join(argv)}")
            continue
        errors += [f"command {i}: {e}" for e in workload.check(item, seed, json.loads(raw))]
    if ok:
        # the same input and seed again, into the same report path
        item, seed, argv, _, _, raw = ok[0]
        again = _run_command(cli, argv, None) == 0 and Path(argv[-1]).read_bytes()
        if not again or _strip_created(again) != _strip_created(raw):
            errors.append("the same input and seed gave a different report")
    # self-test: a report with one number perturbed must fail its check
    corrupted = next(
        ((item, seed, bad) for item, seed, _, _, _, raw in ok
         if (bad := workload.corrupt(json.loads(raw))) is not None),
        None,
    )
    if corrupted is None:
        print(f"{args.workload}: self-test skipped, no report offers a number to perturb", file=sys.stderr)
    elif not workload.check(*corrupted):
        errors.append("self-test: a perturbed report passed the check")
    for e in errors:
        print(f"{args.workload}: {e}", file=sys.stderr)

    if tracer:
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = spans.layer_metrics(tracer, len(commands), rounds)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "op_s": (statistics.median(statistics.median(r) for r in rounds), "s"),
            "ops_per_s": (len(commands) / elapsed, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return {
        "correct": not errors,
        "attempted": len(commands),
        "failed": len(commands) - len(ok),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "exuberance" / "cli.py").is_file():
        print(f"no package source at {SRC}: run from a source checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        _setup(args.workload, args.seed, Path(args.setup_probe))
        print("ready", flush=True)
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
