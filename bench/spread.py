"""Run workloads repeatedly and report each end-to-end metric's spread.

    python3 bench/spread.py                       # 10 seeds on every workload
    python3 bench/spread.py --workloads sweep --runs 5
    python3 bench/spread.py --against bench/out/spread-1.json

Run from the repository root.  Each workload runs ``--runs`` times in
sequence, one seed per run, for ``run_seconds`` from BENCHMARK.json.
For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median; for the op
times it also prints the median and spread before scaling by the
reference speed (see ``reference.py``).  A metric is
flagged ``WIDE`` when its spread exceeds its bound, and ``wide`` when
it exceeds a third of it.  ``--against`` compares the medians with an
earlier set and flags ``WORSE`` where a median is worse by more than
the bound.  Results are saved to ``bench/out/spread-<first seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run_once(command, workload, seed, seconds):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"error: {' '.join(argv)} exited with {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    for line in done.stderr.splitlines():
        if line.startswith("unscaled: "):
            result["unscaled"] = json.loads(line[len("unscaled: "):])
    return result


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Spread of the end-to-end metrics over seeds.")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--against", help="an earlier spread-*.json to compare medians with")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    earlier = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            earlier = json.load(fh)
    report = {}
    for workload in args.workloads.split(","):
        results = [
            run_once(spec["command"], workload, args.first_seed + i, spec["run_seconds"])
            for i in range(args.runs)
        ]
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: {args.runs} runs, failed share {shares}, "
              f"all correct: {all(r['correct'] for r in results)}")
        report[workload] = {"failed_shares": shares}
        for name, m in metrics.items():
            values = [r["metrics"][name]["value"] for r in results]
            s = summarise(values)
            s["values"] = values
            report[workload][name] = s
            flag = ""
            if s["spread"] > m["bound"]:
                flag = "WIDE"
            elif s["spread"] > m["bound"] / 3:
                flag = "wide"
            if earlier is not None and workload in earlier:
                before = earlier[workload][name]["median"]
                change = (s["median"] - before) / before
                worse = change > m["bound"] if m["better"] == "lower" else -change > m["bound"]
                flag += f"  vs earlier {change:+.1%}" + (" WORSE" if worse else "")
            print(
                f"  {name:12s} median {s['median']:11.4f} {m['unit']:3s} "
                f"q1 {s['q1']:11.4f} q3 {s['q3']:11.4f} "
                f"spread {s['spread']:6.1%} of bound {m['bound']:.0%} {flag}"
            )
            if name in results[0].get("unscaled", {}):
                u = summarise([r["unscaled"][name] for r in results])
                report[workload][name]["unscaled"] = u
                print(f"  {'':12s} unscaled {u['median']:9.4f}     spread {u['spread']:6.1%}")
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    path = os.path.join(BENCH, "out", f"spread-{args.first_seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"saved {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
