import csv
import json
import warnings

import numpy as np
import pytest

from lapack_reference import pair_bounds, worst_and_violations
from opmeans import cli, matrices, verify
from opmeans.cli import main
from opmeans.matrices import SingularMatrixError, SymMatrix, save_matrix
from opmeans.verify import DEFAULT_NU_GRID

FAST_VERIFY = ["verify", "--trials", "8", "--dims", "2,3"]
SMALL_EXPLORE = ["--a-range", "0.1,10,40", "--b-range", "0.1,10,40", "--nu-points", "0.1,0.5,0.9"]


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_documented_invocation(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["verify", "--seed", "42", "--trials", "100", "--dims", "2,4",
         "--m", "1", "--M", "10", "--out", str(out)]
    )
    assert code == 0
    doc = read_json(out)
    assert doc["config"] == {
        "seed": 42,
        "trials": 100,
        "dims": [2, 4],
        "m": 1.0,
        "M": 10.0,
        "nu_grid": [i / 20 for i in range(21)],
        "rel_tol": 1e-8,
        "checks": [
            "refined_chain", "reverse_ratio", "reverse_difference",
            "baseline_reverses", "holder_mccarthy",
        ],
    }


def test_verify_small_run_exit_zero(tmp_path):
    out = tmp_path / "report.json"
    code = main(FAST_VERIFY + ["--seed", "42", "--out", str(out)])
    assert code == 0
    doc = read_json(out)
    assert set(doc) == {"tool_version", "config", "checks", "runtime_seconds"}
    assert doc["config"]["seed"] == 42
    assert doc["config"]["trials"] == 8
    assert len(doc["checks"]) == 5
    for check in doc["checks"]:
        assert check["violations"] == 0


def test_verify_deterministic_bodies(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(FAST_VERIFY + ["--out", str(out1)]) == 0
    assert main(FAST_VERIFY + ["--out", str(out2)]) == 0
    doc1 = read_json(out1)
    doc2 = read_json(out2)
    doc1.pop("runtime_seconds")
    doc2.pop("runtime_seconds")
    body1 = json.dumps(doc1, indent=2).encode()
    body2 = json.dumps(doc2, indent=2).encode()
    assert body1 == body2


def test_verify_zero_trials_usage_error(tmp_path, capsys):
    code = main(["verify", "--trials", "0"])
    assert code == 2
    assert "trials" in capsys.readouterr().err


def test_verify_bad_flag_usage_error():
    assert main(["verify", "--no-such-flag"]) == 2


def test_verify_bad_dims_value():
    assert main(["verify", "--dims", "2,x"]) == 2


def test_verify_csv_output(tmp_path):
    out = tmp_path / "report.csv"
    code = main(FAST_VERIFY + ["--format", "csv", "--out", str(out)])
    assert code == 0
    with open(out) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 5
    assert set(rows[0]) == {
        "name", "worst_margin", "worst_seed", "worst_index", "worst_dim", "worst_nu", "violations",
    }
    assert all(row["violations"] == "0" for row in rows)


def test_verify_checks_subset(tmp_path):
    out = tmp_path / "r.json"
    code = main(FAST_VERIFY + ["--checks", "reverse_ratio", "--out", str(out)])
    assert code == 0
    doc = read_json(out)
    assert [c["name"] for c in doc["checks"]] == ["reverse_ratio"]


def test_verify_unknown_check_rejected(capsys):
    assert main(["verify", "--checks", "bogus"]) == 2
    assert "check" in capsys.readouterr().err


def test_verify_pair_mode(tmp_path):
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    a = SymMatrix.from_array(q @ np.diag([1.0, 2.0, 3.0]) @ q.T, tol=1e-12)
    b = SymMatrix.diagonal([2.0, 5.0, 1.0])
    fa = tmp_path / "a.json"
    fb = tmp_path / "b.json"
    save_matrix(a, fa)
    save_matrix(b, fb)
    out = tmp_path / "pair.json"
    code = main(["verify", "--pair", str(fa), str(fb), "--out", str(out)])
    assert code == 0
    doc = read_json(out)
    assert doc["config"]["pair"] == [str(fa), str(fb)]
    assert len(doc["checks"]) == 4
    for check in doc["checks"]:
        assert check["violations"] == 0


def test_verify_pair_mode_rejects_indefinite(tmp_path, capsys):
    a = SymMatrix.diagonal([-1.0, 2.0])
    b = SymMatrix.diagonal([1.0, 2.0])
    fa = tmp_path / "a.json"
    fb = tmp_path / "b.json"
    save_matrix(a, fa)
    save_matrix(b, fb)
    assert main(["verify", "--pair", str(fa), str(fb)]) == 2
    assert "positive definite" in capsys.readouterr().err


def write_random_pair(tmp_path, dim, seed, big_m=10.0):
    # A and B with independent random eigenvectors and spectra in [1, big_m]
    rng = np.random.default_rng(seed)
    paths = []
    for tag in ("a", "b"):
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        lam = np.concatenate(([1.0, big_m], rng.uniform(1.0, big_m, dim - 2)))
        mat = q @ np.diag(lam) @ q.T
        paths.append(tmp_path / f"{tag}.json")
        save_matrix(SymMatrix.from_array(0.5 * (mat + mat.T)), paths[-1])
    return [str(p) for p in paths]


def test_verify_pair_mode_matches_lapack_reference(tmp_path):
    fa, fb = write_random_pair(tmp_path, 4, 17)
    out = tmp_path / "pair.json"
    code = main(["verify", "--pair", fa, fb, "--out", str(out)])
    doc = read_json(out)
    a, b = (np.array(read_json(path)["entries"]).reshape(4, 4) for path in (fa, fb))
    m, big_m = pair_bounds(a, b)
    nus = verify._nu_table(DEFAULT_NU_GRID, [big_m / m])[0].tolist()
    total = 0
    for check in doc["checks"]:
        worst, violations = worst_and_violations(check["name"], a, b, nus, 1e-8)
        total += violations
        assert check["violations"] == violations
        assert check["worst_margin"] == pytest.approx(worst, abs=1e-10 * big_m)
        assert min(abs(check["worst_instance"]["nu"] - nu) for nu in nus) <= 1e-12
    assert code == (1 if total else 0)


def test_verify_pair_mode_at_large_h(tmp_path):
    # spectra in [1, 1e8]: t spans about 1e16, and the refined harmonic
    # route, read off the frame without dividing by t, is not refused, so
    # the report holds every pair check
    out = tmp_path / "pair.json"
    assert main(["verify", "--pair", *write_random_pair(tmp_path, 4, 11, big_m=1e8), "--out", str(out)]) == 0
    doc = read_json(out)
    assert [c["name"] for c in doc["checks"]] == list(verify.PAIR_CHECK_NAMES)
    assert [c["violations"] for c in doc["checks"]] == [0] * 4
    assert "errors" not in doc


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--rel-tol", "-1"], "rel_tol must be positive"),
        (["--rel-tol", "0"], "rel_tol must be positive"),
        (["--rel-tol", "nan"], "rel_tol must be positive"),
        (["--rel-tol", "inf"], "rel_tol must be finite"),
        (["--nu-grid", ""], "nu_grid must be nonempty"),
    ],
    ids=["negative-tol", "zero-tol", "nan-tol", "inf-tol", "empty-grid"],
)
def test_verify_pair_mode_validates_like_suite(tmp_path, capsys, flags, message):
    pair = write_random_pair(tmp_path, 2, 3)
    for argv in (["verify", *flags], ["verify", "--pair", *pair, *flags]):
        assert main(argv) == 2
        assert message in capsys.readouterr().err


def test_verify_numerical_error_exit(monkeypatch, tmp_path):
    def boom(cfg):
        raise SingularMatrixError("synthetic")

    monkeypatch.setattr(cli, "run_suite", boom)
    assert main(FAST_VERIFY) == 3


def test_verify_pair_mode_frame_svd_failure_exits_3(monkeypatch, tmp_path, capsys):
    pair = write_random_pair(tmp_path, 4, 17)

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    assert main(["verify", "--pair", *pair]) == 3
    err = capsys.readouterr().err
    assert "numerical error: frame SVD failed (SVD did not converge) in pair checks" in err
    assert "Traceback" not in err


def test_verify_pair_mode_runs_no_jacobi_solve(monkeypatch, tmp_path):
    # the pair's bounds, its frame and its margins all come from LAPACK
    def no_jacobi(*args, **kwargs):
        raise AssertionError("Jacobi solve in pair mode")

    monkeypatch.setattr(matrices, "_eigh_stack", no_jacobi)
    monkeypatch.setattr(verify, "_eigh_stack", no_jacobi)
    out = tmp_path / "pair.json"
    assert main(["verify", "--pair", *write_random_pair(tmp_path, 4, 17), "--out", str(out)]) == 0
    assert [c["violations"] for c in read_json(out)["checks"]] == [0] * 4


@pytest.mark.parametrize(
    "doc",
    [
        '{"n": true, "entries": [1.0]}',
        '{"n": 2, "entries": ["2", 0.0, 0.0, 1.0]}',
        '{"n": 2, "entries": [true, false, false, true]}',
    ],
    ids=["bool-n", "string-entry", "bool-entries"],
)
def test_verify_pair_mode_rejects_non_numeric_file_fields(tmp_path, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(doc)
    _, good = write_random_pair(tmp_path, 2, 3)
    assert main(["verify", "--pair", str(bad), good]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: field ")
    assert "Traceback" not in err


@pytest.mark.parametrize("n", [-2, 1, 65])
def test_verify_pair_mode_rejects_a_dimension_out_of_range(tmp_path, capsys, n):
    # n = -2 has n*n = 4 entries: without the range check it reaches numpy's
    # reshape, whose message names no field
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": n, "entries": [1.0, 0.0, 0.0, 1.0]}))
    _, good = write_random_pair(tmp_path, 2, 3)
    assert main(["verify", "--pair", str(bad), good]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: field 'n' must be in [2, 64]")
    assert "Traceback" not in err


def test_verify_pair_mode_margin_eigensolve_failure_exits_3(monkeypatch, tmp_path, capsys):
    pair = write_random_pair(tmp_path, 4, 17)

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    assert main(["verify", "--pair", *pair]) == 3
    err = capsys.readouterr().err
    assert (
        "numerical error: eigenvalues failed (Eigenvalues did not converge) "
        "in a stack of 2" in err
    )
    assert "Traceback" not in err


def test_verify_non_finite_matrix_entry_exits_3(monkeypatch, capsys):
    # the eigensolver rejects the stack on entry: no sweeps, no warnings
    real = verify._spd_from_draws

    def poisoned(interior, gauss, m, big_m):
        mats = real(interior, gauss, m, big_m)
        mats[1, 0, 2] = mats[1, 2, 0] = np.nan
        return mats

    monkeypatch.setattr(verify, "_spd_from_draws", poisoned)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--trials", "8", "--dims", "3", "--checks", "holder_mccarthy"]) == 3
    err = capsys.readouterr().err
    assert "numerical error in holder_mccarthy: non-finite entry in matrix 1 " in err
    assert "Jacobi" not in err


def test_verify_spectra_next_to_one_exit_zero(tmp_path, capsys):
    # the critical weights of h = 1 + 2^-52 are finite, so no chunk records
    # a nu = nan error; the pair A = I, B = diag(1, 1 + 2^-52) likewise
    assert main(["verify", "--trials", "4", "--M", "1.0000000000000002", "--out", str(tmp_path / "r.json")]) == 0
    paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    save_matrix(SymMatrix.identity(2), paths[0])
    save_matrix(SymMatrix.diagonal([1.0, 1.0 + 2.0**-52]), paths[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--pair", *paths, "--out", str(tmp_path / "p.json")]) == 0
    assert capsys.readouterr().err == ""


def test_verify_infinite_upper_bound_rejected(capsys):
    assert main(["verify", "--trials", "8", "--dims", "2", "--M", "inf"]) == 2
    assert "spectrum bounds must be finite, got M=inf" in capsys.readouterr().err


def test_unexpected_error_exits_3_with_traceback(monkeypatch, capsys):
    def boom(cfg):
        raise OverflowError("synthetic overflow")

    monkeypatch.setattr(cli, "run_suite", boom)
    assert main(FAST_VERIFY) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err
    assert "OverflowError: synthetic overflow" in err


# ---------------------------------------------------------------------------
# explore
# ---------------------------------------------------------------------------

def test_explore_conjecture_exit_zero(tmp_path):
    out = tmp_path / "scan.json"
    code = main(["explore", "--scan", "conjecture", *SMALL_EXPLORE, "--out", str(out)])
    assert code == 0
    doc = read_json(out)
    scan = doc["scans"][0]
    assert scan["name"] == "conjecture"
    assert scan["negatives"] == 0
    assert scan["min_value"] > 0.0


def test_explore_no_ordering_ratio_witnesses(tmp_path):
    out = tmp_path / "scan.json"
    code = main(["explore", "--scan", "no-ordering-ratio", *SMALL_EXPLORE, "--out", str(out)])
    assert code == 0
    scan = read_json(out)["scans"][0]
    assert scan["negative_witness"] is not None
    assert scan["positive_witness"] is not None


def test_explore_extremizers_table(tmp_path):
    out = tmp_path / "scan.json"
    code = main(["explore", "--scan", "extremizers", "--b", "4", "--out", str(out)])
    assert code == 0
    scan = read_json(out)["scans"][0]
    assert scan["name"] == "extremizers"
    assert len(scan["rows"]) == 3
    ratio_row = [r for r in scan["rows"] if r["family"] == "ratio"][0]
    assert ratio_row["argmax_numeric"] == pytest.approx(0.221348, abs=1e-5)
    assert ratio_row["max_numeric"] == pytest.approx(1.0614757, rel=1e-6)


def test_explore_extremizers_at_large_b(tmp_path):
    out = tmp_path / "scan.json"
    code = main(["explore", "--scan", "extremizers", "--b", "1e12,1e16,1e100", "--out", str(out)])
    assert code == 0
    scan = read_json(out)["scans"][0]
    assert len(scan["rows"]) == 9
    assert scan["max_argmax_deviation"] <= 1e-6
    assert scan["max_value_rel_deviation"] <= 1e-9


def test_explore_all_scans(tmp_path):
    out = tmp_path / "scan.json"
    code = main(["explore", *SMALL_EXPLORE, "--out", str(out)])
    assert code == 0
    names = [s["name"] for s in read_json(out)["scans"]]
    assert names == [
        "reference",
        "no-ordering-ratio",
        "no-ordering-difference",
        "conjecture",
        "extremizers",
    ]


def test_explore_csv(tmp_path):
    out = tmp_path / "scan.csv"
    code = main(["explore", "--scan", "conjecture", *SMALL_EXPLORE, "--format", "csv", "--out", str(out)])
    assert code == 0
    with open(out) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 1
    assert rows[0]["name"] == "conjecture"
    assert rows[0]["violations"] == "0"


def test_explore_conjecture_witness_exit(monkeypatch, tmp_path):
    real = cli.conjecture_scan

    def fake(grid):
        rep = real(grid)
        doc = rep.to_json_dict()

        class Fake:
            def to_json_dict(self):
                doc["negatives"] = 3
                doc["negative_witness"] = {"a": 2.0, "b": 3.0, "value": -1e-9}
                return doc

        return Fake()

    monkeypatch.setattr(cli, "conjecture_scan", fake)
    code = main(["explore", "--scan", "conjecture", *SMALL_EXPLORE, "--out", str(tmp_path / "s.json")])
    assert code == 10


def test_explore_bad_range():
    assert main(["explore", "--a-range", "1,2"]) == 2
    assert main(["explore", "--a-range", "-1,2,10"]) == 2


@pytest.mark.parametrize("flag", ["--a-range", "--b-range"])
def test_explore_non_finite_range_rejected(capsys, flag):
    name = flag[2:]
    for text in ("1e-2,inf,20", "nan,1,20"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["explore", flag, text]) == 2
        assert f"{name} endpoints must be finite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# repro
# ---------------------------------------------------------------------------

def test_repro_exit_zero_and_fields(tmp_path):
    out = tmp_path / "repro.json"
    code = main(["repro", "--out", str(out)])
    assert code == 0
    doc = read_json(out)
    assert doc["a"] == 1.0
    assert doc["b"] == 10.0
    assert doc["within_tolerance"] is True
    nus = sorted(row["nu"] for row in doc["rows"])
    assert nus == [0.6, 0.9]
    assert doc["max_deviation"] <= 1e-4


def test_repro_stdout_json(capsys):
    code = main(["repro"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["within_tolerance"] is True


def test_repro_csv_two_rows(tmp_path):
    out = tmp_path / "repro.csv"
    code = main(["repro", "--format", "csv", "--out", str(out)])
    assert code == 0
    with open(out) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2
    assert set(rows[0]) == {"nu", "computed", "reference", "deviation"}


def test_missing_command_usage():
    assert main([]) == 2


def test_version_flag(capsys):
    code = main(["--version"])
    assert code == 0
    assert "opmeans" in capsys.readouterr().out
