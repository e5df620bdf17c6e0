"""Run one workload of the opmeans benchmark and print its metrics.

    python3 opbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: suite-default, suite-large-dim, pair-files, explore-scan (see
README.md).  The program is imported from ``src/`` of the checkout this file
sits in and driven through ``opmeans.cli.main`` in this one process.  With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run and the tracing overhead.  ``correct`` is false when any command
exited non-zero or failed a check of its report; the exit code is 0 whenever
that line is printed, and 2 when no run could be made (no ``src/opmeans``,
thread variables not 1).  A full record, with the machine and
thread environment, goes to ``.opbench_results/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from opbench import WORKLOAD_NAMES, pinning  # noqa: E402  (must run before numpy loads)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    try:
        pinning.pin_threads()
    except pinning.PinningError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    from opbench import measure, program

    try:
        doc = measure.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (program.ProgramMissing, measure.SetupFailed) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    path = measure.write_result(doc)
    for problem in doc["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"result file: {path}", file=sys.stderr)
    summary = {key: doc[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
