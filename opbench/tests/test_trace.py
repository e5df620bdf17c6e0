"""The tracer counts every call once and leaves the program's reports unchanged."""

import json

import numpy as np
import pytest

from opbench import program, trace
from opbench.pinning import THREAD_VARS, PinningError, pin_threads
from opbench.workloads import PairFiles

CLI = program.load_cli()


def _body(path):
    doc = json.loads(path.read_text())
    doc.pop("runtime_seconds", None)
    return doc


@pytest.fixture
def tracer():
    tracer = trace.Tracer()
    yield tracer
    tracer.remove()


@pytest.fixture(scope="module")
def pair_paths(tmp_path_factory):
    pair = PairFiles().write_inputs(tmp_path_factory.mktemp("pair"), 2)[2]
    return [str(p) for p in pair["paths"]]


def _commands(pair_paths):
    return [
        ["verify", "--seed", "4", "--trials", "6", "--dims", "2,5"],
        ["verify", "--pair", *pair_paths],
        ["explore", "--scan", "all", "--a-range", "0.1,10,12", "--b-range", "0.1,10,12"],
        ["repro"],
    ]


def test_traced_and_untraced_bodies_are_byte_identical(tmp_path, tracer, pair_paths):
    for i, argv in enumerate(_commands(pair_paths)):
        plain, traced = tmp_path / f"plain{i}.json", tmp_path / f"traced{i}.json"
        assert program.run_command(CLI, [*argv, "--out", str(plain)])[0] == 0
        tracer.install()
        try:
            assert program.run_command(CLI, [*argv, "--out", str(traced)])[0] == 0
        finally:
            tracer.remove()
        assert json.dumps(_body(plain)) == json.dumps(_body(traced))


def test_self_times_sum_to_command_time_measured_outside(tmp_path, tracer, pair_paths):
    """The buckets' self times add up to the command's wall time, timed apart from the tracer.

    Wrapping one call twice would also leave this sum intact; single counting is
    covered by ``test_names_imported_twice_are_counted_once``.
    """
    tracer.install()
    for argv in _commands(pair_paths):
        tracer.reset()
        code, elapsed = program.run_command(CLI, [*argv, "--out", str(tmp_path / "out.json")])
        assert code == 0
        total = sum(tracer.times.values())
        assert 0.0 <= elapsed - total < 1e-3


def test_names_imported_twice_are_counted_once(tracer):
    import opmeans.matrices as matrices
    import opmeans.verify as verify

    stack = np.stack([np.diag([1.0, 2.0, 3.0])] * 4)
    tracer.install()
    assert verify._eigh_stack is matrices._eigh_stack
    verify._eigh_stack(stack)
    matrices._eigh_stack(stack)
    verify._eigvals_min_stack(stack)
    assert tracer.counts["matrices.eigh_calls"] == 3
    assert tracer.counts["matrices.eigh_matrices"] == 12
    assert tracer.counts["matrices.eigh_work_n3"] == 12 * 27


def test_pair_checks_table_is_traced(tmp_path, tracer, pair_paths):
    tracer.install()
    code, _ = program.run_command(CLI, ["verify", "--pair", *pair_paths, "--out", str(tmp_path / "o.json")])
    assert code == 0
    assert tracer.counts["verify.check_calls"] == 4 * 23
    assert tracer.counts["verify.results"] == 4 * 23
    assert tracer.cache[1] > tracer.cache[0] > 0


def test_remove_restores_every_original(tracer):
    import opmeans.cli as cli
    import opmeans.matrices as matrices
    import opmeans.verify as verify

    before = (cli.main, cli._PAIR_CHECKS, verify._eigh_stack, matrices._eigh_stack,
              verify._Accumulator.__dict__["update"])
    tracer.install()
    assert cli.main is not before[0]
    tracer.remove()
    after = (cli.main, cli._PAIR_CHECKS, verify._eigh_stack, matrices._eigh_stack,
             verify._Accumulator.__dict__["update"])
    assert all(a is b for a, b in zip(before, after))


def test_missing_seam_reports_metric_absent(monkeypatch, tracer):
    import opmeans.verify as verify

    monkeypatch.delattr(verify, "_inverse4")
    tracer.install()
    names = tracer.metric_names()
    assert "verify.inverse_s" not in names
    assert "verify.recon_s" in names


def test_count_stays_while_any_seam_feeding_it_exists(monkeypatch, tracer):
    import opmeans.means as means

    monkeypatch.delattr(means, "weighted_arithmetic")
    tracer.install()
    names = tracer.metric_names()
    assert names["means.calls"] == "count"
    assert names["means.self_s"] == "s"


def test_pinning_sets_and_refuses():
    env = {}
    pin_threads(env)
    assert all(env[var] == "1" for var in THREAD_VARS)
    with pytest.raises(PinningError):
        pin_threads({"OPENBLAS_NUM_THREADS": "2"})
