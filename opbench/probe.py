"""Set-up probe: a fresh interpreter that imports opmeans and writes a workload's inputs.

    python3 opbench/probe.py --workload NAME --seed N --dir DIR

``run.py`` times whole runs of this script for the ``setup_s`` metric.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from opbench import pinning  # noqa: E402  (must run before numpy loads)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args(argv)
    pinning.pin_threads()
    from opbench import program

    program.load_cli()
    from opbench.workloads import WORKLOADS

    WORKLOADS[args.workload].write_inputs(args.dir, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
