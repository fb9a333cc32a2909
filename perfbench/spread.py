"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads long_horizon,certify --seeds 1-10 \\
        [--traced-seeds 1-2] [--record perfbench/trajectory/BENCH_001.json] \\
        [--against perfbench/trajectory/BENCH_000.json]

Runs are sequential, so they never compete for the CPUs.  For every
end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median, next to the metric's bound from
``BENCHMARK.json``.  ``--record`` writes a trajectory entry: the environment,
the settings, and per workload the end-to-end quartiles and the median of
every per-layer metric over the traced seeds.  The exact counts of the traced
runs must agree across seeds; any that differ are printed as drift.  Every
run measures ``run_seconds`` from ``BENCHMARK.json``.  ``--against`` prints,
for every end-to-end median, how much worse it is than in an earlier entry,
next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str) -> "list[int]":
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> "tuple[dict, dict]":
    """The result of one run and its ``# env`` and ``# exact counts`` lines."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    notes = {}
    for line in lines:
        for key in ("env", "exact counts"):
            if line.startswith(f"# {key} "):
                notes[key] = json.loads(line[len(key) + 3:])
    return json.loads(lines[-1]), notes


def quartiles(values: "list[float]") -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--traced-seeds", default="")
    p.add_argument("--record")
    p.add_argument("--against")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    earlier = {}
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            earlier = json.load(fh)["workloads"]
    entry = {"settings": {"seconds": seconds, "seeds": args.seeds,
                          "traced_seeds": args.traced_seeds}, "workloads": {}}
    all_steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_range(args.seeds):
            result, notes = run_once(workload, seed, seconds, 0)
            entry["env"] = notes["env"]
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary = {"correct": all(r["correct"] for r in runs), "end_to_end": {}}
        for name, bound in bounds.items():
            q = quartiles([r["metrics"][name]["value"] for r in runs])
            q["unit"] = runs[0]["metrics"][name]["unit"]
            summary["end_to_end"][name] = q
            steady = q["spread"] < bound / 3.0
            all_steady &= steady
            print(f"  {name:14s} median {q['median']:.5g} q1 {q['q1']:.5g} q3 {q['q3']:.5g} "
                  f"spread {q['spread']:.4f} bound {bound} {'ok' if steady else 'WIDE'}")
            if workload in earlier:
                before = earlier[workload]["end_to_end"][name]["median"]
                worse = (q["median"] - before) / before * (1 if lower[name] else -1)
                print(f"  {'':14s} worse than --against by {worse:+.4f} "
                      f"{'ok' if worse <= bound else 'BEYOND BOUND'}")
        traced, counts = [], []
        for seed in seed_range(args.traced_seeds) if args.traced_seeds else []:
            result, notes = run_once(workload, seed, seconds, 1)
            traced.append(result)
            counts.append(notes.get("exact counts", {}))
        for key in sorted(set().union(*counts)):
            seen = sorted({c.get(key) for c in counts}, key=str)
            if len(seen) > 1:
                print(f"  count drift between seeds: {key} {seen}")
        if traced:
            summary["exact_counts"] = counts[0]
            summary["per_layer"] = {
                name: {"median": statistics.median(t["metrics"][name]["value"] for t in traced),
                       "unit": m["unit"]}
                for name, m in traced[0]["metrics"].items()
            }
            summary["correct"] &= all(t["correct"] for t in traced)
        entry["workloads"][workload] = summary
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print("all spreads below a third of their bound" if all_steady else "some spreads are wide")
    return 0


if __name__ == "__main__":
    sys.exit(main())
