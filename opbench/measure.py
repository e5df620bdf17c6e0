"""One benchmark run: set-up probes, a warm-up round, timed rounds, checks.

Imported only after ``pinning.pin_threads`` has run, since it loads numpy.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from . import pinning, program
from .trace import Tracer, snapshot_metrics
from .workloads import WORKLOADS

ROOT = program.ROOT
WORK_DIR = ROOT / ".opbench_work"
RESULTS_DIR = ROOT / ".opbench_results"
PROBE = Path(__file__).resolve().parent / "probe.py"
# Set-up probes run half before and half after the timed rounds, so that
# their median does not hang on the host's speed at one moment.
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 60


class SetupFailed(RuntimeError):
    """A set-up probe could not import the program or write the inputs."""


def setup_times(workload, seed, workdir, probes):
    """Wall times of fresh interpreters that import opmeans and write the inputs."""
    times = []
    for _ in range(probes):
        probe_dir = Path(tempfile.mkdtemp(dir=workdir))
        argv = [sys.executable, str(PROBE), "--workload", workload, "--seed", str(seed), "--dir", str(probe_dir)]
        start = time.perf_counter()
        done = subprocess.run(argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise SetupFailed(f"set-up probe failed: {done.stderr.strip()}")
        shutil.rmtree(probe_dir)
    return times


class SuiteCapture:
    """Keeps the per-check result counts of the last ``run_suite`` the CLI made.

    The report body does not carry them, so the capture sits on the name
    ``cli`` calls and forwards to ``verify.run_suite`` looked up at call time,
    which lets the tracer's wrapper of ``run_suite`` see the call too.
    """

    def __init__(self, cli):
        self.results = None
        self._cli = cli
        verify = sys.modules.get("opmeans.verify")
        self.active = hasattr(cli, "run_suite") and hasattr(verify, "run_suite")
        if self.active:
            self._original = cli.run_suite

            def capture(cfg):
                report = verify.run_suite(cfg)
                self.results = {check.name: check.results for check in report.checks}
                return report

            cli.run_suite = capture

    def take(self):
        results, self.results = self.results, None
        return results

    def remove(self):
        if self.active:
            self._cli.run_suite = self._original


def _body(text):
    """Report body without its one wall-clock field, as canonical JSON."""
    doc = json.loads(text)
    doc.pop("runtime_seconds", None)
    return doc, json.dumps(doc, sort_keys=True)


class Ledger:
    """Every command run, its exit code and report; checks each distinct report once.

    A repeat of a command must produce the byte-identical body of its first
    run; the first run's body goes through the workload's check.
    """

    def __init__(self, commands, capture):
        self.commands = commands
        self.capture = capture
        self.first = {}
        self.ops = []

    def run(self, cli, index):
        command = self.commands[index]
        if command.out.exists():
            command.out.unlink()
        code, seconds = program.run_command(cli, command.argv)
        results = self.capture.take() if command.suite else None
        try:
            doc, body = _body(command.out.read_text(encoding="utf-8"))
        except (OSError, ValueError) as err:
            doc, body = None, f"unreadable report: {err}"
        body = json.dumps([body, results], sort_keys=True)
        self.first.setdefault(index, (doc, body, results))
        self.ops.append((index, code, body))
        return seconds

    def run_round(self, cli, indices):
        return [self.run(cli, i) for i in indices]

    def verify(self):
        """(failed operations, problems) over every command run so far."""
        problems = {}
        for index, (doc, body, results) in self.first.items():
            command = self.commands[index]
            if doc is None:
                problems[index] = [f"{command.argv[0]}: no report"]
                continue
            found = command.check(doc, results)
            if command.suite and results is None:
                print("note: run_suite seam absent; result counts not checked", file=sys.stderr)
            problems[index] = [f"{' '.join(command.argv[:3])}: {p}" for p in found]
        failed = 0
        messages = []
        for index, code, body in self.ops:
            bad = list(problems[index])
            if code != 0:
                bad.append(f"exit code {code}")
            if body != self.first[index][1]:
                bad.append("report body differs from the first run of the same command")
            if bad:
                failed += 1
                messages += [m for m in bad if m not in messages]
        return failed, messages


def _plain_metrics(commands, rounds, setup):
    times = [t for one in rounds for t in one]
    results = sum(c.results for c in commands) * len(rounds)
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "results_per_s": {"value": results / sum(times), "unit": "1/s"},
        "command_p50_s": {"value": statistics.median(times), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }


def _traced_metrics(names, snaps, plain_rounds, traced_rounds):
    """Median per-round value of each per-layer metric, and the tracing overhead."""
    metrics = {}
    values = [snapshot_metrics(snap, names) for snap in snaps]
    for name, unit in names.items():
        series = [v[name] for v in values]
        if unit == "count" and len(set(series)) == 1:
            value = series[0]
        else:
            if unit == "count":
                print(f"note: count {name} differs between traced rounds: {series}", file=sys.stderr)
            value = statistics.median(series)
        metrics[name] = {"value": value, "unit": unit}
    traced_s = statistics.median([sum(r) for r in traced_rounds])
    overhead = traced_s - statistics.median([sum(r) for r in plain_rounds])
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def _timed_rounds(cli, ledger, indices, seconds, tracer):
    """Whole rounds until ``seconds`` have passed; with a tracer, plain and traced rounds alternate."""
    plain, traced, snaps = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(ledger.run_round(cli, indices))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(ledger.run_round(cli, indices))
            finally:
                tracer.remove()
            snaps.append(tracer.snapshot())
        if time.perf_counter() - start >= seconds:
            return plain, traced, snaps


def _floor_round(cli, ledger, indices, tracer):
    """LAPACK seconds on the stacks ``_eigh_stack`` gets in one round; None without that seam."""
    if ("matrices", "_eigh_stack") not in tracer.present:
        return None
    tracer.install_floor()
    try:
        ledger.run_round(cli, indices)
    finally:
        tracer.remove()
    return tracer.floor[0]


def run(name, seed, seconds, trace):
    """One run of a workload; returns the result document."""
    workload = WORKLOADS[name]
    cli = program.load_cli()
    workdir = WORK_DIR / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    capture = SuiteCapture(cli)
    tracer = Tracer() if trace else None
    phases = {}
    clock = time.perf_counter()
    try:
        setup = [] if trace else setup_times(name, seed, workdir, SETUP_PROBES // 2)
        inputs = workload.write_inputs(workdir, seed)
        commands = workload.round(workdir, seed, inputs)
        warm = workload.warmup(workdir, seed, inputs)
        ledger = Ledger(commands + warm, capture)
        timed = range(len(commands))
        ledger.run_round(cli, range(len(commands), len(ledger.commands)))
        phases["setup_warmup_s"] = time.perf_counter() - clock
        plain, traced, snaps = _timed_rounds(cli, ledger, timed, seconds, tracer)
        phases["timed_s"] = time.perf_counter() - clock - phases["setup_warmup_s"]
        if trace:
            floor = _floor_round(cli, ledger, timed, tracer)
        else:
            setup += setup_times(name, seed, workdir, SETUP_PROBES - len(setup))
        failed, problems = ledger.verify()
    finally:
        capture.remove()
        shutil.rmtree(workdir, ignore_errors=True)
    phases["total_s"] = time.perf_counter() - clock
    if trace:
        metrics = _traced_metrics(tracer.metric_names(), snaps, plain, traced)
        if floor is not None:
            metrics["matrices.eigh_lapack_floor_s"] = {"value": floor, "unit": "s"}
    else:
        metrics = _plain_metrics(commands, plain, setup)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": pinning.environment_record(),
        "round": [c.argv for c in commands],
        "round_times_s": plain,
        "traced_round_times_s": traced,
        "setup_times_s": setup,
        "phases_s": phases,
        "problems": problems,
        "correct": failed == 0,
        "attempted": len(ledger.ops),
        "failed": failed,
        "metrics": metrics,
    }


def write_result(doc):
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{doc['workload']}-seed{doc['seed']}-trace{doc['trace']}-{os.getpid()}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path
