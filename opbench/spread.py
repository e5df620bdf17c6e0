"""Spread report: rerun workloads interleaved and summarise each metric.

    python3 opbench/spread.py [--seeds 1-10] [--trace 0] [--against EARLIER.json]

For every seed it runs each workload once, in turn, as its own process
(``run.py``, for the ``run_seconds`` of ``BENCHMARK.json``), so slow drift of
the host's speed spreads over all workloads alike.  It then prints, per
workload and metric, the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the distance between the
quartiles as a share of the median, and writes the raw results to
``.opbench_results/spread-<time>.json``.  With ``--against`` it also prints,
per workload and metric, how much worse each median is than in that earlier
spread file, as a share of the earlier median, beside the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from opbench import WORKLOAD_NAMES  # noqa: E402

RUN_TIMEOUT_S = 900
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    return {"workload": workload, "seed": seed, "exit": done.returncode, "wall_s": wall,
            "result": result, "stderr": done.stderr[-2000:]}


def summarise(runs):
    rows = []
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        good = [run["result"] for run in mine if run["result"] is not None]
        shares = sorted({(r["failed"], r["attempted"]) for r in good})
        print(f"\n{workload}: {len(good)}/{len(mine)} runs ok, all correct: "
              f"{all(r['correct'] for r in good)}, failed/attempted: {shares}, "
              f"run wall s: {max(run['wall_s'] for run in mine):.1f} max")
        if not good:
            continue
        for name in good[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in good if name in r["metrics"]]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            share = (q3 - q1) / med if med else float("nan")
            rows.append({"workload": workload, "metric": name, "median": med, "q1": q1, "q3": q3,
                         "iqr_share": share, "n": len(values)})
            print(f"  {name:34s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  iqr/median {share:7.4f}")
    return rows


def compare(rows, earlier_rows):
    """Print how much worse each median is than the earlier one, against the metric's bound."""
    metrics = {metric["name"]: metric for metric in SPEC["end_to_end"] + SPEC["per_layer"]}
    earlier = {(row["workload"], row["metric"]): row["median"] for row in earlier_rows}
    print("\nmedian against the earlier set (worse by, as a share of the earlier median):")
    for row in rows:
        key = (row["workload"], row["metric"])
        metric = metrics.get(row["metric"])
        if key not in earlier or metric is None or not earlier[key]:
            continue
        change = (row["median"] - earlier[key]) / earlier[key]
        worse = change if metric["better"] == "lower" else -change
        bound = metric.get("bound")
        verdict = "" if bound is None else f"  bound {bound:.2f}{'  OVER' if worse > bound else ''}"
        print(f"  {row['workload']:16s} {row['metric']:34s} worse by {worse:+8.4f}{verdict}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--against", type=Path, help="an earlier spread-<time>.json to compare medians with")
    args = parser.parse_args(argv)
    earlier = json.loads(args.against.read_text(encoding="utf-8"))["summary"] if args.against else None
    runs = []
    for seed in parse_seeds(args.seeds):
        for workload in WORKLOAD_NAMES:
            run = run_once(workload, seed, SPEC["run_seconds"], args.trace)
            runs.append(run)
            print(f"{workload} seed {seed}: exit {run['exit']} in {run['wall_s']:.1f} s", flush=True)
    rows = summarise(runs)
    if earlier is not None:
        compare(rows, earlier)
    out = ROOT / ".opbench_results" / f"spread-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"runs": runs, "summary": rows}, indent=2) + "\n", encoding="utf-8")
    print(f"\nraw results: {out}")
    return 0 if all(run["exit"] == 0 for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
