"""The benchmark's workloads: their inputs, command rounds and output checks.

A round is the list of ``opmeans`` commands a workload repeats.  Every
command writes its report to a file and names the check that report must
pass; the number of results it stands for (margin results, or grid points
evaluated) is worked out from its flags, not read back from the program.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import checks
from . import reference as ref

NU_GRID = tuple(i / 20 for i in range(21))
REL_TOL = 1e-8
SPECTRUM = (1.0, 10.0)

# Default grid of `opmeans explore` and its default extremizer samples.
DEFAULT_GRID = {
    "a_range": (1e-2, 1e2, 200),
    "b_range": (1e-2, 1e2, 200),
    "nu_points": tuple(round(0.05 * i, 2) for i in range(1, 20)),
}
DEFAULT_B_SAMPLES = (0.1, 0.5, 2.0, 4.0, 10.0, 100.0)

# Pair-file mix: (dimension, shares eigenvectors).  Four of the six pairs
# are n = 4, one is smaller and one larger, so the median command time sits
# in the middle of the n = 4 cluster.
PAIR_MIX = ((4, False), (4, True), (2, False), (4, False), (5, True), (4, True))

LARGE_DIM = 12
LARGE_TRIALS = 64


@dataclass
class Command:
    """One ``opmeans`` command line, where it writes its report, and how to check it.

    ``results`` is the number of margin results or grid points the command
    evaluates; ``suite`` marks a command whose per-check result counts are
    captured from ``run_suite``.
    """

    argv: list
    out: Path
    results: int
    check: Callable = field(repr=False)
    suite: bool = False


def _suite_cfg(seed, trials=1000, dims=(2, 3, 4, 8)):
    return {
        "seed": seed,
        "trials": trials,
        "dims": tuple(dims),
        "m": SPECTRUM[0],
        "M": SPECTRUM[1],
        "nu_grid": NU_GRID,
        "rel_tol": REL_TOL,
        "checks": tuple(ref.CHECK_IDS),
    }


def _suite_command(workdir, cfg, extra_argv, name="suite.json"):
    out = Path(workdir) / name
    argv = ["verify", "--seed", str(cfg["seed"]), *extra_argv, "--out", str(out)]

    def check(doc, results=None):
        return checks.check_suite_report(doc, cfg, results)

    per_check = checks.suite_results_per_check(cfg)
    return Command(argv, out, per_check * len(cfg["checks"]), check, suite=True)


class Workload:
    """Inputs written before timing, the timed round, and the warm-up before it."""

    name = ""

    def write_inputs(self, workdir, seed):
        return None

    def round(self, workdir, seed, inputs):
        raise NotImplementedError

    def warmup(self, workdir, seed, inputs):
        """Commands run once, untimed, first: the first call in a process is slower."""
        return self.round(workdir, seed, inputs)


class SuiteDefault(Workload):
    name = "suite-default"

    def round(self, workdir, seed, inputs):
        return [_suite_command(workdir, _suite_cfg(seed), [])]

    def warmup(self, workdir, seed, inputs):
        """One full 64-instance chunk per dimension instead of a 7 s default run."""
        cfg = _suite_cfg(seed, trials=256)
        return [_suite_command(workdir, cfg, ["--trials", "256"], name="warmup.json")]


class SuiteLargeDim(Workload):
    name = "suite-large-dim"

    def round(self, workdir, seed, inputs):
        cfg = _suite_cfg(seed, trials=LARGE_TRIALS, dims=(LARGE_DIM,))
        flags = ["--trials", str(LARGE_TRIALS), "--dims", str(LARGE_DIM)]
        return [_suite_command(workdir, cfg, flags)]

    def warmup(self, workdir, seed, inputs):
        """One check on the same chunk shapes, instead of the whole 5 s command."""
        cfg = dict(_suite_cfg(seed, trials=LARGE_TRIALS, dims=(LARGE_DIM,)), checks=("reverse_ratio",))
        flags = ["--trials", str(LARGE_TRIALS), "--dims", str(LARGE_DIM), "--checks", "reverse_ratio"]
        return [_suite_command(workdir, cfg, flags, name="warmup.json")]


def _write_matrix(path, mat):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"n": int(mat.shape[0]), "entries": [float(x) for x in mat.ravel()]}, handle)


class PairFiles(Workload):
    name = "pair-files"

    def write_inputs(self, workdir, seed):
        """Write the pair files; spectra in [1, 10] with both endpoints attained."""
        rng = np.random.default_rng([seed, 0x9A1])
        pairs = []
        for i, (n, commuting) in enumerate(PAIR_MIX):
            lam_a = np.concatenate((SPECTRUM, rng.uniform(*SPECTRUM, size=n - 2)))
            lam_b = rng.uniform(*SPECTRUM, size=n)
            q_a = ref.haar(rng, n)
            q_b = q_a if commuting else ref.haar(rng, n)
            a = ref.sym((q_a * lam_a) @ q_a.T)
            b = ref.sym((q_b * lam_b) @ q_b.T)
            paths = []
            for tag, mat in (("A", a), ("B", b)):
                path = Path(workdir) / f"pair{i}_{tag}.json"
                _write_matrix(path, mat)
                paths.append(path)
            pairs.append(
                {"paths": paths, "a": a, "b": b, "spectra": (lam_a, lam_b) if commuting else None}
            )
        return pairs

    def round(self, workdir, seed, inputs):
        commands = []
        results = len(ref.PAIR_CHECKS) * (len(NU_GRID) + 2)
        for i, pair in enumerate(inputs):
            out = Path(workdir) / f"pair{i}_report.json"

            def check(doc, results=None, pair=pair):
                return checks.check_pair_report(
                    doc, pair["a"], pair["b"], NU_GRID, REL_TOL, pair["spectra"]
                )

            argv = ["verify", "--pair", str(pair["paths"][0]), str(pair["paths"][1]), "--out", str(out)]
            commands.append(Command(argv, out, results, check))
        return commands

    def warmup(self, workdir, seed, inputs):
        return self.round(workdir, seed, inputs)[:2]


def seeded_grid(seed):
    """A default-sized grid whose ranges are widened by seeded amounts."""
    rng = np.random.default_rng([seed, 0xE5])
    lo_a, hi_a, lo_b, hi_b = rng.uniform(0.0, 0.5, size=4)
    count = DEFAULT_GRID["a_range"][2]
    return {
        "a_range": (float(10.0 ** (-2.0 - lo_a)), float(10.0 ** (2.0 + hi_a)), count),
        "b_range": (float(10.0 ** (-2.0 - lo_b)), float(10.0 ** (2.0 + hi_b)), count),
        "nu_points": DEFAULT_GRID["nu_points"],
    }


def _range_flag(rng):
    return f"{rng[0]!r},{rng[1]!r},{rng[2]}"


class ExploreScan(Workload):
    name = "explore-scan"

    def round(self, workdir, seed, inputs):
        seeded = seeded_grid(seed)
        seeded_flags = ["--a-range", _range_flag(seeded["a_range"]), "--b-range", _range_flag(seeded["b_range"])]
        commands = []
        for tag, grid, flags in (("default", DEFAULT_GRID, []), ("seeded", seeded, seeded_flags)):
            out = Path(workdir) / f"explore_{tag}.json"
            per_scan, conjecture = checks.grid_points(grid)

            def check(doc, results=None, grid=grid):
                return checks.check_explore_report(doc, grid, DEFAULT_B_SAMPLES)

            argv = ["explore", "--scan", "all", *flags, "--out", str(out)]
            commands.append(Command(argv, out, 2 * per_scan + conjecture + 2, check))
        return commands

    def warmup(self, workdir, seed, inputs):
        """The scans, then ``repro``: checked in every run, but not timed.

        ``repro`` takes about 2 ms.  As a third of the timed commands it would
        pull the median command time down to the scans' lower quartile.
        """
        out = Path(workdir) / "repro.json"
        repro = Command(["repro", "--out", str(out)], out, 2, lambda doc, results=None: checks.check_repro_report(doc))
        return self.round(workdir, seed, inputs) + [repro]


WORKLOADS = {w.name: w for w in (SuiteDefault(), SuiteLargeDim(), PairFiles(), ExploreScan())}
