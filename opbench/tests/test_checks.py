"""Each checker accepts the program's real output and rejects a corrupted one."""

import copy
import json

import numpy as np
import pytest

from opbench import checks, program
from opbench import reference as ref
from opbench.workloads import NU_GRID, REL_TOL, PairFiles

CLI = program.load_cli()


def _run(argv, out):
    code, _ = program.run_command(CLI, [*argv, "--out", str(out)])
    return code, json.loads(out.read_text())


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite") / "report.json"
    cfg = {"seed": 5, "trials": 8, "dims": (2, 3), "m": 1.0, "M": 10.0,
           "nu_grid": NU_GRID, "rel_tol": REL_TOL, "checks": tuple(ref.CHECK_IDS)}
    code, doc = _run(["verify", "--seed", "5", "--trials", "8", "--dims", "2,3"], out)
    assert code == 0
    results = {name: checks.suite_results_per_check(cfg) for name in cfg["checks"]}
    return doc, cfg, results


def _largest(doc):
    return max(range(len(doc["checks"])), key=lambda i: abs(doc["checks"][i]["worst_margin"]))


def test_suite_checker_accepts_real_report(suite):
    doc, cfg, results = suite
    assert checks.check_suite_report(doc, cfg, results) == []


def test_suite_checker_rejects_sign_flip(suite):
    doc, cfg, results = suite
    bad = copy.deepcopy(doc)
    entry = bad["checks"][_largest(bad)]
    entry["worst_margin"] = -entry["worst_margin"]
    assert checks.check_suite_report(bad, cfg, results)


def test_suite_checker_rejects_dropped_check(suite):
    doc, cfg, results = suite
    bad = copy.deepcopy(doc)
    del bad["checks"][1]
    assert checks.check_suite_report(bad, cfg, results)


def test_suite_checker_rejects_changed_results_count(suite):
    doc, cfg, results = suite
    bad = dict(results, reverse_ratio=results["reverse_ratio"] - 1)
    assert checks.check_suite_report(doc, cfg, bad)


def test_suite_checker_rejects_wrong_worst_instance(suite):
    doc, cfg, results = suite
    bad = copy.deepcopy(doc)
    entry = bad["checks"][_largest(bad)]
    entry["worst_instance"]["index"] = (entry["worst_instance"]["index"] + 2) % cfg["trials"]
    assert checks.check_suite_report(bad, cfg, results)


@pytest.fixture(scope="module")
def pairs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("pairs")
    inputs = PairFiles().write_inputs(workdir, 3)
    reports = []
    for i, pair in enumerate(inputs):
        code, doc = _run(["verify", "--pair", str(pair["paths"][0]), str(pair["paths"][1])],
                         workdir / f"report{i}.json")
        assert code == 0
        reports.append((pair, doc))
    return reports


def test_pair_files_include_commuting_pairs(pairs):
    commuting = [pair for pair, _ in pairs if pair["spectra"] is not None]
    assert commuting
    for pair in commuting:
        assert np.abs(pair["a"] @ pair["b"] - pair["b"] @ pair["a"]).max() < 1e-12


def test_pair_checker_accepts_real_reports(pairs):
    for pair, doc in pairs:
        assert checks.check_pair_report(doc, pair["a"], pair["b"], NU_GRID, REL_TOL, pair["spectra"]) == []


def test_pair_checker_rejects_sign_flip(pairs):
    pair, doc = pairs[0]
    bad = copy.deepcopy(doc)
    entry = bad["checks"][_largest(bad)]
    entry["worst_margin"] = -entry["worst_margin"]
    assert checks.check_pair_report(bad, pair["a"], pair["b"], NU_GRID, REL_TOL, pair["spectra"])


def test_pair_checker_rejects_dropped_check(pairs):
    pair, doc = pairs[0]
    bad = copy.deepcopy(doc)
    del bad["checks"][-1]
    assert checks.check_pair_report(bad, pair["a"], pair["b"], NU_GRID, REL_TOL, pair["spectra"])


def test_closed_form_rejects_shifted_margin_on_commuting_pair(pairs):
    pair, doc = next((p, d) for p, d in pairs if p["spectra"] is not None)
    bad = copy.deepcopy(doc)
    bad["checks"][0]["worst_margin"] += 1e-6
    found = checks.check_pair_report(bad, pair["a"], pair["b"], NU_GRID, REL_TOL, pair["spectra"])
    assert any("closed form" in problem for problem in found)


def test_closed_form_matches_lapack_on_commuting_pair(pairs):
    pair = next(p for p, _ in pairs if p["spectra"] is not None)
    for check in ref.PAIR_CHECKS:
        for nu in (0.0, 0.3, 0.5, 0.85, 1.0):
            closed = ref.commuting_margins(check, *pair["spectra"], nu)
            dense = ref.pair_margins(check, pair["a"], pair["b"], nu)
            for name, value in closed.items():
                assert abs(value - dense[name]) < 1e-10, (check, nu, name)


@pytest.fixture(scope="module")
def repro(tmp_path_factory):
    code, doc = _run(["repro"], tmp_path_factory.mktemp("repro") / "repro.json")
    assert code == 0
    return doc


def test_repro_checker_accepts_real_report(repro):
    assert checks.check_repro_report(repro) == []


def test_repro_checker_rejects_large_deviation(repro):
    bad = copy.deepcopy(repro)
    bad["rows"][0]["computed"] += 2e-4
    bad["rows"][0]["deviation"] += 2e-4
    assert checks.check_repro_report(bad)


def test_repro_checker_rejects_wrong_value_within_published_tolerance(repro):
    bad = copy.deepcopy(repro)
    bad["rows"][1]["computed"] += 5e-6
    assert checks.check_repro_report(bad)


SMALL_GRID = {"a_range": (0.01, 100.0, 24), "b_range": (0.02, 50.0, 20),
              "nu_points": tuple(round(0.05 * i, 2) for i in range(1, 20))}


@pytest.fixture(scope="module")
def explore(tmp_path_factory):
    argv = ["explore", "--scan", "all", "--a-range", "0.01,100.0,24", "--b-range", "0.02,50.0,20"]
    code, doc = _run(argv, tmp_path_factory.mktemp("explore") / "scan.json")
    assert code == 0
    return doc


def _scan(doc, name):
    return next(scan for scan in doc["scans"] if scan["name"] == name)


def test_explore_checker_accepts_real_report(explore):
    assert checks.check_explore_report(explore, SMALL_GRID, (0.1, 0.5, 2.0, 4.0, 10.0, 100.0)) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda doc: _scan(doc, "no-ordering-ratio")["negative_witness"].update(
            value=-_scan(doc, "no-ordering-ratio")["negative_witness"]["value"]),
        lambda doc: _scan(doc, "no-ordering-difference").update(points=1),
        lambda doc: _scan(doc, "conjecture").update(negatives=1),
        lambda doc: _scan(doc, "extremizers").update(max_argmax_deviation=2e-6),
        lambda doc: _scan(doc, "reference")["rows"][0].update(computed=0.0),
        lambda doc: doc["scans"].pop(),
    ],
    ids=["witness-sign", "points", "conjecture", "extremizer", "reference", "dropped-scan"],
)
def test_explore_checker_rejects_corruption(explore, corrupt):
    bad = copy.deepcopy(explore)
    corrupt(bad)
    assert checks.check_explore_report(bad, SMALL_GRID, (0.1, 0.5, 2.0, 4.0, 10.0, 100.0))
