"""Benchmark entry point: one run of one workload.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the repository root.  The run imports leavitt from ``src/`` of
the checkout, builds the workload's seeded inputs, and repeats whole
rounds of the workload's ops until ``--seconds`` have passed (at least
one round).  Every op is checked; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the library is wrapped by ``tracing.Tracer`` and the
metrics are the per-layer ones, per round.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

WORKLOADS = ("sweep", "scaling", "matrices")

# The latency percentile reported as op_tail_ms: the highest one with at
# least ten samples beyond it in a 25 s run at the speed measured when
# the benchmark was defined (see README.md).
TAIL_PERCENTILE = {"sweep": 98.0, "scaling": 93.0, "matrices": 92.0}

# Fresh interpreters started per run to time set-up; setup_s is their median.
SETUP_STARTS = 7

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def import_program():
    """Import leavitt from this checkout's src/, or exit with an error when it is not there."""
    sys.path.insert(0, SRC)
    try:
        import leavitt
        import leavitt.cli  # noqa: F401  (the scaling ops' entry point)
    except ImportError as exc:
        sys.exit(f"error: cannot import leavitt from {SRC}: {exc}")
    if os.path.dirname(os.path.dirname(os.path.abspath(leavitt.__file__))) != SRC:
        sys.exit(f"error: leavitt was imported from {leavitt.__file__}, not from {SRC}")


def setup_probe(workload: str, seed: int) -> None:
    """What a fresh process does before its first op: import leavitt, build inputs."""
    import_program()
    import inputs

    workdir = os.path.join(OUT, f"probe-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        inputs.build(workload, seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of SETUP_STARTS fresh interpreters running ``setup_probe``."""
    argv = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", workload, "--seed", str(seed),
    ]
    times = []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            sys.exit(f"error: set-up probe exited with {done.returncode}")
    return statistics.median(times)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def timing_metrics(workload: str, latencies: list[float]) -> dict:
    if not latencies:
        return {"ops_per_s": 0.0, "op_p50_ms": 0.0, "op_tail_ms": 0.0}
    ordered = sorted(latencies)
    return {
        "ops_per_s": len(ordered) / sum(ordered),
        "op_p50_ms": 1000 * statistics.median(ordered),
        "op_tail_ms": 1000 * percentile(ordered, TAIL_PERCENTILE[workload]),
    }


def sweep_makeup(ops) -> str:
    facts = [op.expected for op in ops]
    return (
        f"sweep sample: {len(facts)} graphs, "
        f"{sum(f['acyclic'] for f in facts)} acyclic, "
        f"{sum(f['positive'] for f in facts)} positive, "
        f"{sum(f['count'] is None for f in facts)} uncountable, "
        f"{sum(f['promotion'] for f in facts)} omega promotions"
    )


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_s = None if trace else measure_setup(workload, seed)
    import_program()
    import inputs
    import workloads

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ops = workloads.make_ops(workload, inputs.build(workload, seed, workdir))
        for op in ops:
            op.expected = op.oracle()
        if workload == "sweep":
            print(sweep_makeup(ops), file=sys.stderr)
        # The inputs, oracle answers and imported modules stay alive for the
        # whole run; frozen, they are not rescanned by every full collection
        # the library's own garbage triggers.
        gc.collect()
        gc.freeze()
        tracer = scaler = None
        if trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        else:
            from reference import Scaler

            scaler = Scaler()
        latencies: list[float] = []
        raw: list[float] = []
        attempted = failed = rounds = 0
        clock = time.perf_counter
        start = clock()
        deadline = start + seconds
        # Stop at the round boundary nearest the deadline, so that a run
        # lasts --seconds give or take half a round.
        while rounds == 0 or clock() + (clock() - start) / rounds / 2 < deadline:
            round_raw: list[float] = []
            for op in ops:
                attempted += 1
                t0 = clock()
                try:
                    result = op.run()
                except Exception:
                    reason = traceback.format_exc()
                else:
                    elapsed = clock() - t0
                    reason = op.check(op.expected, result)
                if tracer is not None:
                    tracer.reduce()
                if reason is not None:
                    failed += 1
                    print(f"FAIL {op.label}: {reason}", file=sys.stderr)
                    continue
                round_raw.append(elapsed)
                if scaler is not None:
                    scaler.after_op(elapsed)
                if tracer is not None and workload == "scaling":
                    tracer.count("cli.stdout_bytes", len(result[1].encode("utf-8")))
            raw += round_raw
            factor = 1.0 if scaler is None else scaler.end_round()
            latencies += [t * factor for t in round_raw]
            rounds += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    op_seconds = sum(raw)
    print(
        f"{workload} seed {seed}: {rounds} rounds, {attempted} ops, "
        f"{op_seconds / rounds:.3f} s of op time per round"
        + (" (traced)" if trace else ""),
        file=sys.stderr,
    )
    if tracer is not None:
        tracer.uninstall()
        write_trace(workload, seed, tracer, rounds, op_seconds)
        metrics = tracer.layer_metrics(rounds)
        units = {name: tracer.unit(name) for name in metrics}
    else:
        metrics = timing_metrics(workload, latencies)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["setup_s"] = setup_s
        unscaled = timing_metrics(workload, raw)
        print("unscaled: " + json.dumps(unscaled), file=sys.stderr)
        print(f"scale factors: {[round(f, 4) for f in scaler.factors]}", file=sys.stderr)
        units = END_TO_END_UNITS
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def write_trace(workload, seed, tracer, rounds, op_seconds):
    """Per-function totals and caller counts of a traced run, for reading where time went."""
    doc = {
        "workload": workload,
        "seed": seed,
        "rounds": rounds,
        "spans": tracer.spans_seen,
        "op_seconds_per_round": op_seconds / rounds,
        "functions": [
            {
                "name": n,
                "calls": tracer.calls[n],
                "self_s": tracer.self_s[n],
                "total_s": tracer.total_s[n],
            }
            for n in sorted(tracer.calls, key=lambda n: -tracer.self_s[n])
        ],
        "counters": tracer.counters,
        "calls_by_caller": [
            {"caller": caller, "callee": callee, "calls": n}
            for (caller, callee), n in sorted(tracer.edges.items(), key=lambda kv: -kv[1])
        ],
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"trace-{workload}-{seed}.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the leavitt benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
