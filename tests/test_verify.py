import json
import math
import re

import numpy as np
import pytest

from lapack_reference import pair_bounds, pair_margins
from opmeans.matrices import SingularMatrixError, SymMatrix, spectral_bounds
from opmeans.means import SpdPair, weighted_geometric
from opmeans.scalar import (
    refined_young_margin,
    reverse_ratio_margin,
    specht_ratio,
    young_gap,
)
from opmeans import matrices, means, verify
from opmeans.verify import (
    CHECK_NAMES,
    DEFAULT_NU_GRID,
    SuiteConfig,
    UnitVector,
    check_baseline_reverses,
    check_hm_refined,
    check_refined_chain,
    check_reverse_difference,
    check_reverse_ratio,
    gen_spd_pair,
    gen_unit_vector,
    run_suite,
)


def rng_for(seed, check, index):
    return np.random.default_rng(np.random.SeedSequence([seed, verify.CHECK_IDS[check], index]))


def diag_pair(d1, d2):
    return SpdPair.from_matrices(SymMatrix.diagonal(d1), SymMatrix.diagonal(d2))


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_config_rejects_zero_trials():
    with pytest.raises(ValueError, match="trials"):
        SuiteConfig(trials=0).validate()


def test_config_rejects_bad_fields():
    with pytest.raises(ValueError, match="dims"):
        SuiteConfig(dims=(1,)).validate()
    with pytest.raises(ValueError, match="dims"):
        SuiteConfig(dims=()).validate()
    with pytest.raises(ValueError, match="m"):
        SuiteConfig(m=2.0, big_m=1.0).validate()
    with pytest.raises(ValueError, match="nu_grid"):
        SuiteConfig(nu_grid=(0.5, 1.5)).validate()
    with pytest.raises(ValueError, match="rel_tol"):
        SuiteConfig(rel_tol=0.0).validate()
    with pytest.raises(ValueError, match="check"):
        SuiteConfig(checks=("nope",)).validate()
    with pytest.raises(ValueError, match="seed"):
        SuiteConfig(seed=-1).validate()


def test_default_config_is_valid():
    cfg = SuiteConfig().validate()
    assert cfg.trials == 1000
    assert cfg.dims == (2, 3, 4, 8)
    assert len(cfg.nu_grid) == 21
    assert cfg.checks == CHECK_NAMES


# ---------------------------------------------------------------------------
# Instance generation
# ---------------------------------------------------------------------------

def test_gen_pair_rejects_bad_bounds():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        gen_spd_pair(2, 1.0, 1.0, rng)


def test_gen_pair_deterministic():
    pair1 = gen_spd_pair(3, 1.0, 10.0, rng_for(42, "refined_chain", 7))
    pair2 = gen_spd_pair(3, 1.0, 10.0, rng_for(42, "refined_chain", 7))
    assert np.array_equal(pair1.a.entries, pair2.a.entries)
    assert np.array_equal(pair1.b.entries, pair2.b.entries)
    pair3 = gen_spd_pair(3, 1.0, 10.0, rng_for(42, "refined_chain", 8))
    assert not np.array_equal(pair1.a.entries, pair3.a.entries)


def test_gen_pair_golden_values():
    # frozen output of the fixed (seed, check, index) stream; any change here
    # breaks report reproducibility across versions
    pair = gen_spd_pair(2, 1.0, 2.0, rng_for(0, "refined_chain", 0))
    golden_a = [
        [1.984382438675226, 0.12399053634467816],
        [0.12399053634467816, 1.015617561324774],
    ]
    golden_b = [
        [1.3192059596864874, 0.466168976860447],
        [0.466168976860447, 1.6807940403135122],
    ]
    assert pair.a.entries.tolist() == golden_a
    assert pair.b.entries.tolist() == golden_b
    assert pair.m == pytest.approx(1.0, abs=1e-12)
    assert pair.big_m == pytest.approx(2.0, abs=1e-12)


def test_gen_pair_spectral_containment_and_pinning():
    rng = np.random.default_rng(99)
    for dim in (2, 3, 8):
        pair = gen_spd_pair(dim, 1.0, 2.0, rng)
        for mat in (pair.a, pair.b):
            lo, hi = spectral_bounds(mat)
            assert lo >= 1.0 - 1e-12
            assert hi <= 2.0 + 1e-12
            # endpoints pinned
            assert lo == pytest.approx(1.0, abs=1e-12)
            assert hi == pytest.approx(2.0, abs=1e-12)


def test_gen_pair_whitened_spectrum_within_h():
    rng = np.random.default_rng(100)
    pair = gen_spd_pair(4, 1.0, 10.0, rng)
    inv_root = np.linalg.inv(
        np.linalg.cholesky(pair.a.entries)
    )  # independent whitening route
    t = inv_root @ pair.b.entries @ inv_root.T
    lam = np.linalg.eigvalsh(0.5 * (t + t.T))
    h = pair.h
    assert lam.min() >= 1.0 / h - 1e-10
    assert lam.max() <= h + 1e-10


def _spd_array_oracle(dim, m, big_m, rng):
    # the per-instance generation formula, one matrix at a time
    interior = rng.uniform(m, big_m, size=dim - 2)
    eigvals = np.concatenate(([m, big_m], interior))
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    signs = np.sign(np.diagonal(r))
    q = q * np.where(signs == 0.0, 1.0, signs)
    mat = (q * eigvals) @ q.T
    return 0.5 * (mat + mat.T)


@pytest.mark.parametrize("dim", [2, 3, 4, 8, 12])
def test_stacked_generation_bitwise_equals_per_instance(dim):
    # a chunk's QR and reconstruction run once on the stacked draws; every
    # instance must still be exactly the matrix of its own stream
    cfg = SuiteConfig(seed=11, m=1.0, big_m=10.0)
    indices = list(range(dim, dim + 4 * 64, 4))
    a, b = verify._gen_chunk_pairs(cfg, "reverse_ratio", dim, indices)
    for p, k in enumerate(indices):
        rng = rng_for(cfg.seed, "reverse_ratio", k)
        assert np.array_equal(a[p], _spd_array_oracle(dim, cfg.m, cfg.big_m, rng)), k
        assert np.array_equal(b[p], _spd_array_oracle(dim, cfg.m, cfg.big_m, rng)), k
        rng = rng_for(cfg.seed, "reverse_ratio", k)
        assert np.array_equal(a[p], verify._random_spd_array(dim, cfg.m, cfg.big_m, rng)), k
        assert np.array_equal(b[p], verify._random_spd_array(dim, cfg.m, cfg.big_m, rng)), k


def test_unit_vector_validation():
    with pytest.raises(ValueError):
        UnitVector(np.array([1.0, 1.0]))
    v = gen_unit_vector(5, np.random.default_rng(1))
    assert abs(np.linalg.norm(v.coords) - 1.0) <= 1e-12
    assert v.n == 5


def test_nu_table_matches_per_instance_grids_bit_for_bit():
    # one elementwise pass over a chunk's condition ratios gives the table
    # that the scalar critical weights give instance by instance
    def per_instance(base, h):
        extra = (0.5, 0.5) if h == 1.0 else (
            min(max(verify.critical_nu_ratio(h), 0.0), 1.0),
            min(max(verify.critical_nu_diff(h), 0.0), 1.0),
        )
        return tuple(base) + extra

    frame_h = []
    for dim in (2, 3, 4, 8):
        a, b = verify._gen_chunk_pairs(SuiteConfig(), "reverse_ratio", dim, list(range(64)))
        frame = verify._diagonalize_pairs(a, b, "test", str)
        frame_h.extend(frame["scale"] / frame["m_hat"])
    hs = np.array(frame_h + [1.0, 1.0 + 1e-15, 1.5, 1e4, 1e8, 1e10, 0.5, 1e-3])
    want = np.array([per_instance(DEFAULT_NU_GRID, float(h)) for h in hs])
    got = verify._nu_table(DEFAULT_NU_GRID, hs)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert tuple(verify._nu_table((0.1,), [4.0])[0].tolist()) == per_instance((0.1,), 4.0)


def test_augmented_grid_has_two_extra_points():
    grid = verify._nu_table((0.0, 0.5, 1.0), [10.0])[0].tolist()
    assert len(grid) == 5
    assert all(0.0 <= nu <= 1.0 for nu in grid)
    assert verify._nu_table((0.5,), [1.0])[0].tolist() == [0.5, 0.5, 0.5]


# ---------------------------------------------------------------------------
# Refined chain check
# ---------------------------------------------------------------------------

def test_chain_equal_matrices_all_zero():
    rng = np.random.default_rng(2)
    a = gen_spd_pair(3, 1.0, 10.0, rng).a
    pair = SpdPair.from_matrices(a, a)
    res = check_refined_chain(pair, 0.3)
    for name, margin in res.margins.items():
        assert margin == pytest.approx(0.0, abs=1e-10), name
    assert res.passed


def test_chain_midpoint_diagonal_example():
    pair = diag_pair([1.0, 4.0], [4.0, 1.0])
    res = check_refined_chain(pair, 0.5)
    assert res.margins["am_vs_refined_gm"] == pytest.approx(0.0, abs=1e-12)
    assert res.margins["refined_gm_vs_gm"] == pytest.approx(0.5, abs=1e-12)
    assert res.passed


def test_chain_seeded_instance_nonnegative():
    pair = gen_spd_pair(4, 1.0, 10.0, rng_for(0, "refined_chain", 3))
    res = check_refined_chain(pair, 0.3)
    assert res.passed
    assert min(res.margins.values()) >= -1e-8 * res.scale


def test_chain_diagonal_reduction_matches_scalars():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        d1 = rng.uniform(1.0, 10.0, n)
        d2 = rng.uniform(1.0, 10.0, n)
        nu = rng.uniform(0.0, 1.0)
        r = min(nu, 1.0 - nu)
        pair = diag_pair(d1, d2)
        res = check_refined_chain(pair, nu)
        gm = d1 ** (1 - nu) * d2**nu
        bridge = 0.5 * (d1 + d2) - np.sqrt(d1 * d2)
        t3 = 1.0 / (
            d1 ** -(1 - nu) * d2**-nu
            + 2 * r * (0.5 * (1 / d1 + 1 / d2) - 1.0 / np.sqrt(d1 * d2))
        )
        hm = 1.0 / ((1 - nu) / d1 + nu / d2)
        want = {
            "am_vs_refined_gm": (refined_young_margin(d1, d2, nu)).min(),
            "refined_gm_vs_gm": (2 * r * bridge).min(),
            "gm_vs_refined_hm": (gm - t3).min(),
            "refined_hm_vs_hm": (t3 - hm).min(),
            "am_vs_gm": (young_gap(d1, d2, nu)).min(),
        }
        for name, value in want.items():
            assert res.margins[name] == pytest.approx(value, abs=1e-10), name


def test_chain_endpoint_weights_degenerate():
    pair = gen_spd_pair(3, 1.0, 10.0, rng_for(0, "refined_chain", 11))
    for nu, ref in ((0.0, pair.a), (1.0, pair.b)):
        res = check_refined_chain(pair, nu)
        gm = weighted_geometric(pair, nu)
        scale = res.scale
        assert np.linalg.norm(gm.entries - ref.entries) <= 1e-10 * scale * math.sqrt(pair.n)
        assert res.margins["refined_gm_vs_gm"] == 0.0
        assert res.margins["am_vs_refined_gm"] == pytest.approx(
            res.margins["am_vs_gm"], abs=1e-10 * scale
        )


# ---------------------------------------------------------------------------
# Reverse checks
# ---------------------------------------------------------------------------

def test_reverse_ratio_scaled_identity_zero():
    eye = 2.0 * SymMatrix.identity(3)
    pair = SpdPair.from_matrices(eye, eye)
    res = check_reverse_ratio(pair, 0.4)
    assert res.margins["reverse_ratio"] == pytest.approx(0.0, abs=1e-12)


def test_reverse_ratio_diagonal_dominates_scalar():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        d1 = rng.uniform(1.0, 10.0, n)
        d2 = rng.uniform(1.0, 10.0, n)
        nu = rng.uniform(0.0, 1.0)
        pair = diag_pair(d1, d2)
        res = check_reverse_ratio(pair, nu)
        r = min(nu, 1.0 - nu)
        s_h = specht_ratio(math.sqrt(pair.h))
        per_entry = s_h * d1 ** (1 - nu) * d2**nu - (
            (1 - nu) * d1 + nu * d2 - r * (np.sqrt(d1) - np.sqrt(d2)) ** 2
        )
        assert res.margins["reverse_ratio"] == pytest.approx(per_entry.min(), abs=1e-10)
        scalar_margins = reverse_ratio_margin(d1, d2, nu)
        assert res.margins["reverse_ratio"] >= scalar_margins.min() - 1e-10


def test_pair_checks_use_supplied_bounds_and_spectral_scale():
    # looser bounds than the spectra set h, so the constant grows; the
    # tolerance scale stays the larger operator norm of A and B
    d1, d2 = np.array([1.0, 3.0]), np.array([2.0, 5.0])
    pair = SpdPair.from_matrices(SymMatrix.diagonal(d1), SymMatrix.diagonal(d2), m=0.5, big_m=20.0)
    nu = 0.3
    res = check_reverse_ratio(pair, nu)
    per_entry = specht_ratio(math.sqrt(40.0)) * d1 ** (1 - nu) * d2**nu - (
        (1 - nu) * d1 + nu * d2 - nu * (np.sqrt(d1) - np.sqrt(d2)) ** 2
    )
    assert res.margins["reverse_ratio"] == pytest.approx(per_entry.min(), abs=1e-12)
    assert res.scale == pytest.approx(5.0, abs=1e-12)
    assert res.tol == pytest.approx(5e-8, rel=1e-12)


def test_reverse_difference_equal_matrices():
    rng = np.random.default_rng(8)
    a = gen_spd_pair(3, 1.0, 10.0, rng).a
    pair = SpdPair.from_matrices(a, a)
    res = check_reverse_difference(pair, 0.25)
    # right side vanishes so both margins equal their scalar constants
    assert res.margins["reverse_difference"] >= 0.0
    assert res.margins["reverse_difference_tight"] >= 0.0
    assert res.margins["reverse_difference_tight"] <= res.margins["reverse_difference"] + 1e-12


def test_reverse_difference_seeded_nonnegative():
    for k in range(5):
        pair = gen_spd_pair(4, 1.0, 10.0, rng_for(0, "reverse_difference", k))
        for nu in (0.0, 0.2, 0.5, 0.9):
            res = check_reverse_difference(pair, nu)
            assert res.passed


def test_baseline_reverses_scaled_identity():
    eye = 1.5 * SymMatrix.identity(2)
    pair = SpdPair.from_matrices(eye, eye)
    res = check_baseline_reverses(pair, 0.6)
    assert res.margins["baseline_ratio"] == pytest.approx(0.0, abs=1e-12)
    assert res.margins["baseline_difference"] == pytest.approx(0.0, abs=1e-12)


def test_baseline_reverses_seeded_nonnegative():
    for k in range(5):
        pair = gen_spd_pair(3, 1.0, 10.0, rng_for(0, "baseline_reverses", k))
        for nu in (0.0, 0.35, 0.5, 1.0):
            res = check_baseline_reverses(pair, nu)
            assert res.passed


# ---------------------------------------------------------------------------
# State-vector check
# ---------------------------------------------------------------------------

def test_hm_eigenvector_gives_zero_margins():
    a = SymMatrix.diagonal([2.0, 5.0])
    x = UnitVector(np.array([0.0, 1.0]))
    res = check_hm_refined(a, x, 0.7)
    assert res.margins["hm_refined"] == pytest.approx(0.0, abs=1e-13)
    assert res.margins["hm_baseline"] == pytest.approx(0.0, abs=1e-13)


def test_hm_weight_zero_trivial():
    rng = np.random.default_rng(9)
    a = gen_spd_pair(4, 1.0, 10.0, rng).a
    x = gen_unit_vector(4, rng)
    res = check_hm_refined(a, x, 0.0)
    assert res.margins["hm_refined"] == pytest.approx(0.0, abs=1e-13)
    assert res.margins["hm_baseline"] == pytest.approx(0.0, abs=1e-13)


def test_hm_seeded_property():
    for k in range(50):
        rng = rng_for(0, "holder_mccarthy", k)
        a = SymMatrix._wrap(verify._random_spd_array(3, 1.0, 10.0, rng))
        x = gen_unit_vector(3, rng)
        for nu in (0.1, 0.5, 0.9, 1.0):
            res = check_hm_refined(a, x, nu)
            assert min(res.margins.values()) >= -1e-10
            assert res.tol == 1e-10


def test_hm_dimension_mismatch():
    with pytest.raises(ValueError):
        check_hm_refined(SymMatrix.identity(2), UnitVector(np.array([1.0, 0.0, 0.0])), 0.5)


# ---------------------------------------------------------------------------
# Suite
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_report():
    return run_suite(SuiteConfig(trials=24, dims=(2, 3), seed=7))


def test_suite_small_run_passes(small_report):
    assert small_report.passed
    assert not small_report.errors
    for agg in small_report.checks:
        assert agg.violations == 0
        assert agg.results == 24 * 23


def test_suite_deterministic(small_report):
    again = run_suite(SuiteConfig(trials=24, dims=(2, 3), seed=7))
    doc1 = small_report.to_json_dict()
    doc2 = again.to_json_dict()
    doc1.pop("runtime_seconds")
    doc2.pop("runtime_seconds")
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)


def test_suite_json_schema(small_report):
    doc = small_report.to_json_dict()
    assert set(doc) == {"tool_version", "config", "checks", "runtime_seconds"}
    assert set(doc["config"]) == {
        "seed", "trials", "dims", "m", "M", "nu_grid", "rel_tol", "checks",
    }
    for check in doc["checks"]:
        assert set(check) == {"name", "worst_margin", "worst_instance", "violations"}
        assert set(check["worst_instance"]) == {"seed", "index", "dim", "nu"}
    assert [c["name"] for c in doc["checks"]] == list(CHECK_NAMES)


@pytest.mark.parametrize(
    "check_name,check_fn",
    [
        ("refined_chain", check_refined_chain),
        ("reverse_ratio", check_reverse_ratio),
        ("reverse_difference", check_reverse_difference),
        ("baseline_reverses", check_baseline_reverses),
    ],
)
def test_suite_batched_matches_reference_path(check_name, check_fn):
    # the suite aggregate and every per-instance margin against the LAPACK
    # reference, which shares no means code with the library and takes its
    # eigenvalues without the frame; n = 8 and 12 give the margin stacks
    # their largest matrices
    cfg = SuiteConfig(trials=8, dims=(2, 4, 8, 12), seed=3, checks=(check_name,))
    report = run_suite(cfg)
    worst = math.inf
    violations = 0
    for k in range(cfg.trials):
        dim = cfg.dims[k % len(cfg.dims)]
        pair = gen_spd_pair(dim, cfg.m, cfg.big_m, rng_for(cfg.seed, check_name, k))
        a, b = pair.a.entries, pair.b.entries
        m, big_m = pair_bounds(a, b)
        for nu in verify._nu_table(cfg.nu_grid, [big_m / m])[0].tolist():
            want = pair_margins(check_name, a, b, nu)
            got = check_fn(pair, nu, rel_tol=cfg.rel_tol)
            for name, value in want.items():
                assert got.margins[name] == pytest.approx(value, abs=1e-10 * big_m), (k, nu, name)
            low = min(want.values())
            worst = min(worst, low)
            violations += low < -cfg.rel_tol * big_m
    agg = report.checks[0]
    assert agg.violations == violations == 0
    assert agg.worst_margin == pytest.approx(worst, abs=1e-10 * cfg.big_m)


def test_suite_subset_of_checks():
    report = run_suite(SuiteConfig(trials=4, dims=(2,), checks=("reverse_ratio",)))
    assert [c.name for c in report.checks] == ["reverse_ratio"]
    assert report.passed


def test_suite_fewer_trials_than_dims():
    report = run_suite(SuiteConfig(trials=2, dims=(2, 3, 4, 8), checks=("reverse_ratio",)))
    assert report.passed
    assert report.checks[0].results == 2 * 23


@pytest.mark.parametrize("m,big_m", [(1e-6, 1e-4), (1e4, 1e6), (1e6, 1e9)])
def test_hm_check_robust_across_operand_scales(m, big_m):
    # the state-vector margins are scale-invariant quantities; the check must
    # not lose that to roundoff amplification at extreme operand norms
    report = run_suite(
        SuiteConfig(trials=20, dims=(3,), m=m, big_m=big_m, checks=("holder_mccarthy",))
    )
    agg = report.checks[0]
    assert agg.violations == 0
    assert agg.worst_margin >= -1e-12


def test_suite_records_errors_and_continues(monkeypatch):
    real = verify._eval_pair_chunk

    def boom(cfg, check, dim, indices):
        if check == "reverse_ratio":
            raise SingularMatrixError("synthetic failure")
        return real(cfg, check, dim, indices)

    monkeypatch.setattr(verify, "_eval_pair_chunk", boom)
    report = run_suite(
        SuiteConfig(trials=4, dims=(2,), checks=("reverse_ratio", "baseline_reverses"))
    )
    assert not report.passed
    assert report.errors
    assert report.errors[0]["check"] == "reverse_ratio"
    by_name = {c.name: c for c in report.checks}
    assert by_name["baseline_reverses"].violations == 0
    assert by_name["baseline_reverses"].results == 4 * 23
    doc = report.to_json_dict()
    assert "errors" in doc


@pytest.mark.parametrize("h", [1e2, 1e4, 1e6, 1e8, 1e10])
def test_conditioning_sweep_has_no_false_violations(h):
    # every checked inequality is a theorem, so at the default tolerance a
    # violation could only be roundoff; the harmonic links are read off the
    # congruence frame instead of inverting matrices of condition up to h^2
    report = run_suite(SuiteConfig(trials=200, big_m=h))
    assert not report.errors
    assert [(c.name, c.violations) for c in report.checks] == [(name, 0) for name in CHECK_NAMES]


@pytest.mark.parametrize("h", [10.0, 1e3])
def test_frame_harmonic_margins_match_explicit_inverse(h):
    # the frame route against the explicit-inverse reference at moderate h,
    # where inverting (1-nu) A^-1 + nu B^-1 and its refined form is accurate
    for k in range(8):
        dim = (2, 3, 4, 8)[k % 4]
        pair = gen_spd_pair(dim, 1.0, h, rng_for(1, "refined_chain", k))
        a, b = pair.a.entries, pair.b.entries
        for nu in verify._nu_table((0.0, 0.1, 0.35, 0.5, 0.8, 1.0), [pair.h])[0].tolist():
            got = check_refined_chain(pair, nu)
            want = pair_margins("refined_chain", a, b, nu)
            for name in ("gm_vs_refined_hm", "refined_hm_vs_hm"):
                assert got.margins[name] == pytest.approx(want[name], abs=got.tol), (k, nu, name)


def test_harmonic_route_resolves_widely_spread_frame_spectrum():
    # T = A^-1/2 B A^-1/2 has spectrum {1e-13, 1}, which spans more than a
    # 1e-12 relative inversion floor: the routes' diagonals divide by nothing
    # small, so the chain stays defined, and with A = I and B diagonal every
    # link is an equality at t = 1, so every margin is exactly 0
    pair = diag_pair([1.0, 1.0], [1e-13, 1.0])
    for nu in (0.0, 0.3, 0.5, 1.0):
        got = check_refined_chain(pair, nu)
        for name, margin in got.margins.items():
            assert math.isfinite(margin) and abs(margin) <= got.tol, (nu, name, margin)
    # and so do the checks without a harmonic route
    assert check_reverse_ratio(pair, 0.5).margins["reverse_ratio"] >= 0.0


def test_frame_refuses_pairs_it_cannot_certify_positive_definite():
    # at h = 1e20 roundoff swamps the smallest eigenvalue m = 1: every pair
    # chunk is refused by the frame, by name, and the run goes on
    report = run_suite(SuiteConfig(trials=16, big_m=1e20))
    assert [c.results for c in report.checks] == [0] * len(CHECK_NAMES)
    assert len(report.errors) == 4 * len(CHECK_NAMES)
    for error in report.errors:
        if error["check"] == "holder_mccarthy":
            continue
        pattern = (
            rf"pair matrix ([AB] is not positive definite|A has no Cholesky factor .*) in check "
            rf"{error['check']} instance \(seed=0, index=\d+, dim={error['dim']}\)"
        )
        assert re.fullmatch(pattern, error["message"]), error["message"]


def _singular_second_pair_matrix(monkeypatch, which):
    # matrix `which` of instance 1 is the singular all-ones matrix: the
    # positive-definiteness screen refuses it by name before any Cholesky
    # factor is taken
    real = verify._gen_chunk_pairs

    def singular_second(cfg, check, dim, indices):
        pair = dict(zip("AB", real(cfg, check, dim, indices)))
        pair[which][1] = np.ones((dim, dim))
        return pair["A"], pair["B"]

    monkeypatch.setattr(verify, "_gen_chunk_pairs", singular_second)
    return run_suite(SuiteConfig(trials=8, dims=(2,), checks=("reverse_ratio", "holder_mccarthy")))


def _assert_only_reverse_ratio_refused(report, message):
    assert [e["check"] for e in report.errors] == ["reverse_ratio"]
    assert report.errors[0]["message"] == message
    by_name = {c.name: c for c in report.checks}
    assert by_name["reverse_ratio"].results == 0
    assert by_name["holder_mccarthy"].results == 8 * 23


def test_cholesky_failure_is_a_chunk_error(monkeypatch):
    _assert_only_reverse_ratio_refused(
        _singular_second_pair_matrix(monkeypatch, "A"),
        "pair matrix A is not positive definite "
        "in check reverse_ratio instance (seed=0, index=1, dim=2)",
    )


def test_cholesky_failure_of_b_is_a_chunk_error(monkeypatch):
    _assert_only_reverse_ratio_refused(
        _singular_second_pair_matrix(monkeypatch, "B"),
        "pair matrix B is not positive definite "
        "in check reverse_ratio instance (seed=0, index=1, dim=2)",
    )


def test_frame_svd_failure_is_a_chunk_error(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    _assert_only_reverse_ratio_refused(
        run_suite(SuiteConfig(trials=8, dims=(2,), checks=("reverse_ratio", "holder_mccarthy"))),
        "frame SVD failed (SVD did not converge) in check reverse_ratio",
    )


def test_cholesky_names_the_first_zero_pivot():
    # the all-ones matrix at instance 1 has the pivots 1, 0, ...; instance 2
    # fails only at its last pivot.  LAPACK's message names no pivot
    stack = np.stack([np.eye(3), np.ones((3, 3)), np.diag([1.0, 1.0, -1.0])])
    with pytest.raises(
        SingularMatrixError,
        match=r"^pair matrix B has no Cholesky factor \(.+\) in instance 1$",
    ):
        means._cholesky(stack, "B", lambda p: f"instance {p}")


def test_margin_eigensolve_failure_is_a_chunk_error(monkeypatch):
    # LAPACK fails on the margin stack alone, after the frame is built, and
    # the state-vector check needs no margin eigensolve, so it still runs
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    def failing(stack):
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", no_convergence)
            return matrices._eigvals_stack(stack)

    monkeypatch.setattr(verify, "_eigvals_stack", failing)
    _assert_only_reverse_ratio_refused(
        run_suite(SuiteConfig(trials=8, dims=(2,), checks=("reverse_ratio", "holder_mccarthy"))),
        "eigenvalues failed (Eigenvalues did not converge) in a stack of 1",
    )


def test_margin_stacks_are_exactly_symmetric(monkeypatch):
    # LAPACK reads only the lower triangle of each margin matrix, so every
    # stack that reaches it must equal its transpose bit for bit: the margin
    # stacks, and the [A; B] stacks of the frame and of SpdPair
    real = matrices._eigvals_stack
    sizes = []

    def symmetric_only(module):
        def solve(stack):
            assert np.array_equal(stack, stack.transpose(0, 2, 1))
            sizes.append((module.__name__, len(stack)))
            return real(stack)

        return solve

    for module in (matrices, means, verify):
        monkeypatch.setattr(module, "_eigvals_stack", symmetric_only(module))
    # the margin matrices that the screen keeps reach LAPACK through verify,
    # in every pair check: each of the 16 chunks sends its anchors, and a
    # second stack where the Weyl bounds leave margins to solve
    for check in verify.PAIR_CHECK_NAMES:
        sizes.clear()
        run_suite(SuiteConfig(checks=(check,)))
        margin_sizes = [size for name, size in sizes if name == verify.__name__]
        assert 16 <= len(margin_sizes) <= 32 and min(margin_sizes) > 0, check
    run_suite(SuiteConfig(trials=64, dims=(12,), big_m=1e8))
    verify.run_pair(gen_spd_pair(4, 1.0, 10.0, rng_for(0, "refined_chain", 0)))
    assert sizes[-1][0] == verify.__name__ and sizes[-1][1] > 0


def _lapack_counts(monkeypatch, cfg):
    """The number of matrices that run_suite(cfg) sends to LAPACK's
    eigvalsh, per module that sends them."""
    real = matrices._eigvals_stack
    solved = {}

    def counting(module):
        def solve(stack):
            solved[module.__name__] = solved.get(module.__name__, 0) + len(stack)
            return real(stack)

        return solve

    for module in (matrices, means, verify):
        monkeypatch.setattr(module, "_eigvals_stack", counting(module))
    run_suite(cfg)
    return solved


def test_screen_sends_few_margin_matrices_to_lapack(monkeypatch):
    # a deterministic guard on the screen: solving every margin of the
    # default suite sends 193,000 matrices to LAPACK (frames and bridges
    # included); the screen with Weyl bounds from one anchor weight per
    # matrix and instance, on the frame form with its zero rows exact, sends
    # 13,879 (8,000 frames, 1,000 bridges, 4,879 margins), about 4% under
    # the bound.  Matrices formed from operands sent 23,331, the Ostrowski
    # bounds alone 30,671, and against each name's own worst 45,947
    assert sum(_lapack_counts(monkeypatch, SuiteConfig()).values()) <= 14_500


def test_screen_sends_few_large_margin_matrices_to_lapack(monkeypatch):
    # at n = 12 the screen sends 1,478 (512 frames, 64 bridges, 902
    # margins), about 5% under the bound (2,021 with matrices formed from
    # operands, 2,941 from the Ostrowski bounds alone, 4,166 against each
    # name's worst)
    assert sum(_lapack_counts(monkeypatch, SuiteConfig(trials=64, dims=(12,))).values()) <= 1_550


def test_refined_chain_solves_few_margins(monkeypatch):
    # refined_chain's four screened links have frame diagonals exactly 0 at
    # nu in {0, 1}, so 8,000 of their rows are exact and none is solved: the
    # default suite sends 548 of its margin matrices to LAPACK, about 9%
    # under the bound (10,000 when every endpoint row was solved)
    solved = _lapack_counts(monkeypatch, SuiteConfig(checks=("refined_chain",)))
    assert solved[verify.__name__] <= 600


@pytest.mark.parametrize("cfg,bound", [(SuiteConfig(), 4_400), (SuiteConfig(trials=64, dims=(12,)), 410)],
                         ids=["default", "n-12"])
def test_reverse_difference_solves_few_margins(monkeypatch, cfg, bound):
    # reverse_difference's margins c - lambda_max vary smoothly in nu, and
    # the Ostrowski bounds bracket them only within a factor of about h:
    # they left 11,319 margin matrices to solve at default and 1,001 at
    # n = 12.  Bounded by Weyl's theorem from the anchor weight, 4,154 and
    # 383 are solved, about 6% and 7% under the bounds
    cfg = SuiteConfig(**{**cfg.__dict__, "checks": ("reverse_difference",)})
    assert _lapack_counts(monkeypatch, cfg)[verify.__name__] <= bound


def test_baseline_reverses_solves_few_margins(monkeypatch):
    # baseline_difference's constant-dominated margins are far above
    # baseline_ratio's: screened against their check's worst, 290 of the
    # default suite's margin matrices are solved (15,566 against each name's)
    solved = _lapack_counts(monkeypatch, SuiteConfig(checks=("baseline_reverses",)))
    assert solved[verify.__name__] <= 1_000


def _exhaustive(monkeypatch, seen=None):
    """Make the screen keep every margin; seen collects its (lo, hi) bounds."""
    def every_margin(lo, hi, tols, *_):
        if seen is not None:
            seen.append((lo.copy(), hi.copy()))
        return np.ones(lo.shape, dtype=bool)

    monkeypatch.setattr(verify, "_candidates", every_margin)


@pytest.mark.parametrize("h", [10.0, 1e4, 1e6, 1e8, 1e10])
def test_screen_bounds_hold_every_margin(monkeypatch, h):
    # every margin, solved, lies in the bounds of both rounds of the screen:
    # those read off the frame diagonals, and those after the anchors are
    # solved, which Weyl's theorem refines on every other weight
    seen = []
    _exhaustive(monkeypatch, seen)
    for dim in (2, 3, 4, 8, 12):
        cfg = SuiteConfig(big_m=h, dims=(dim,)).validate()
        for check in verify.PAIR_CHECK_NAMES:
            seen.clear()
            _, margins, _ = verify._eval_pair_chunk(cfg, check, dim, list(range(64)))
            screened = [name for name in margins if name != "refined_gm_vs_gm"]
            assert len(seen) == 2, (dim, check)
            for round_, (lo, hi) in enumerate(seen, start=1):
                assert len(lo) == len(screened)
                for name, name_lo, name_hi in zip(screened, lo, hi):
                    value = margins[name]
                    assert (name_lo <= value).all() and (value <= name_hi).all(), (dim, check, name, round_)


def _body(report):
    doc = report.to_json_dict()
    del doc["runtime_seconds"]
    return json.dumps(doc)


@pytest.mark.parametrize(
    "cfg",
    [
        SuiteConfig(checks=verify.PAIR_CHECK_NAMES),
        SuiteConfig(seed=7, checks=verify.PAIR_CHECK_NAMES),
        SuiteConfig(trials=64, dims=(12,), checks=verify.PAIR_CHECK_NAMES),
        *(SuiteConfig(trials=200, big_m=h) for h in (1e2, 1e4, 1e6, 1e8, 1e10)),
        SuiteConfig(trials=64, dims=(12, 16), big_m=1e8),
        SuiteConfig(trials=250, dims=(3, 12)),
    ],
    ids=["default", "seed-7", "n-12", "h-1e2", "h-1e4", "h-1e6", "h-1e8", "h-1e10", "n-12-16-h-1e8",
         "ragged-3-12"],
)
def test_screened_suite_matches_solving_every_margin(monkeypatch, cfg):
    # a margin the screen does not solve is reported as its lower bound, which
    # is above its check's worst and -tol: the report body is that of solving
    # every margin matrix, bit for bit
    screened = _body(run_suite(cfg))
    _exhaustive(monkeypatch)
    assert screened == _body(run_suite(cfg))


def test_screened_pair_calls_match_solving_every_margin(monkeypatch):
    # run_pair screens all four pair checks in one call, each against its own
    # worst, where refined_chain and reverse_difference share the
    # AM - GM - 2r bridge matrix; check_* screens one check at one weight.
    # At h = 1e8 and 1e10 refined_chain's worst is near zero, at roundoff,
    # and the other checks' margins are orders of magnitude larger, so one
    # threshold shared by the four checks of a run_pair call would fail here
    pairs = [
        gen_spd_pair(dim, 1.0, h, rng_for(seed, "refined_chain", 0))
        for seed, (dim, h) in enumerate([(2, 10.0), (3, 1e4), (4, 1e6), (8, 10.0), (12, 1e3),
                                         (4, 1e8), (12, 1e8), (4, 1e10), (12, 1e10)])
    ]

    def outcomes():
        found = []
        for pair in pairs:
            found.append([(agg.to_json_dict(), agg.results) for agg in verify.run_pair(pair)])
            for check_fn in (check_refined_chain, check_reverse_ratio, check_reverse_difference,
                             check_baseline_reverses):
                found.extend(check_fn(pair, nu) for nu in (0.0, 0.3, 0.5, 1.0))
        return repr(found)

    screened = outcomes()
    _exhaustive(monkeypatch)
    assert screened == outcomes()


def test_check_functions_solve_every_screened_margin(monkeypatch):
    # check_* report every name's margin at their one (instance, nu), so each
    # name is screened against its own worst: inside (0, 1) all four screened
    # matrices of refined_chain (refined_gm_vs_gm is exact) reach LAPACK in
    # one stack, and at nu in {0, 1} their frame diagonals are exactly 0, so
    # none does
    sizes = []

    def keep(stack):
        sizes.append(len(stack))
        return matrices._eigvals_stack(stack)

    monkeypatch.setattr(verify, "_eigvals_stack", keep)
    for h in (10.0, 1e8):
        pair = gen_spd_pair(4, 1.0, h, rng_for(0, "refined_chain", 0))
        for nu, want in ((0.0, []), (0.3, [4]), (0.5, [4]), (1.0, [])):
            sizes.clear()
            check_refined_chain(pair, nu)
            assert sizes == want, (h, nu)


def test_refined_chain_is_exactly_zero_at_the_endpoint_weights(monkeypatch):
    # at nu in {0, 1} every link of the chain vanishes identically, and its
    # frame diagonal is 0 in IEEE arithmetic (t - t, t / t - 1): each margin
    # is exactly its shift, 0, with no eigensolve
    def never(stack):
        raise AssertionError(f"a stack of {len(stack)} reached LAPACK")

    monkeypatch.setattr(verify, "_eigvals_stack", never)
    for dim, h in ((2, 10.0), (4, 1e4), (8, 1e8), (12, 1e10)):
        pair = gen_spd_pair(dim, 1.0, h, rng_for(0, "refined_chain", 0))
        for nu in (0.0, 1.0):
            margins = check_refined_chain(pair, nu).margins
            for name in ("am_vs_refined_gm", "gm_vs_refined_hm", "refined_hm_vs_hm", "am_vs_gm"):
                assert margins[name] == 0.0, (dim, h, nu, name)


@pytest.mark.parametrize("h", [10.0, 1e4, 1e6, 1e8, 1e10])
def test_each_margin_matrix_matches_its_frame_form(monkeypatch, h):
    # the one assumption the screen rests on: every margin matrix that
    # reaches LAPACK is W diag(d) W^T for the frame's W and its table row's
    # d, within the d part 8 n eps ||A|| max |d| of the screen's slack in the
    # 2-norm, measured against an extended-precision product, and its
    # reported eigenvalues are LAPACK's plus the row's shift; a row whose d
    # is exactly 0 never reaches LAPACK and reports exactly its shift.  Both
    # rounds of the screen are checked: the stack of each solve(need, lam)
    # call holds the matrices k where need[k] holds and d is not 0, k by k,
    # in table order
    seen = []
    real_screen = verify._screen

    def capture(d, shift, margins, frame, t, tols, solve):
        seen.append((d, shift, frame))

        def recorded(need, lam):
            calls.append((need.copy(), []))
            solve(need, lam)
            calls[-1] += (lam.copy(),)

        return real_screen(d, shift, margins, frame, t, tols, recorded)

    def keep(stack):
        calls[-1][1].append(stack)
        return matrices._eigvals_stack(stack)

    calls = []
    _exhaustive(monkeypatch)
    monkeypatch.setattr(verify, "_screen", capture)
    monkeypatch.setattr(verify, "_eigvals_stack", keep)
    for dim in (2, 3, 4, 8, 12):
        cfg = SuiteConfig(big_m=h, dims=(dim,)).validate()
        for check in verify.PAIR_CHECK_NAMES:
            seen.clear()
            calls.clear()
            verify._eval_pair_chunk(cfg, check, dim, list(range(64)))
            (d, shift, frame), = seen
            wide = frame["w"].astype(np.longdouble)
            zero = ~d.any(axis=1)
            slack = verify._SCREEN_SLACK * dim * frame["top_a"][:, None] * np.abs(d).max(axis=1)
            solved = np.zeros(zero.shape, dtype=bool)
            assert len(calls) == 2, (dim, check)  # both rounds
            for need, stacks, lam in calls:
                need = need.reshape(zero.shape)
                lam = lam.reshape((2,) + zero.shape)
                assert not (need & solved).any()
                solved |= need
                assert (lam[:, need & zero] == shift[need & zero]).all(), (dim, check)
                k, p, j = np.nonzero(need & ~zero)
                assert [len(stack) for stack in stacks] == ([len(k)] if len(k) else []), (dim, check)
                if not len(k):
                    continue
                scaled = wide[p] * d[k, :, p, j].astype(np.longdouble)[:, None, :]
                ideal = scaled @ wide[p].transpose(0, 2, 1)
                error = np.linalg.norm((stacks[0] - ideal).astype(float), 2, axis=(-2, -1))
                assert (error <= slack[k, p, j]).all(), (dim, check, (error / slack[k, p, j]).max())
                ends = matrices._eigvals_stack(stacks[0])[:, [0, -1]].T + shift[k, p, j]
                assert (lam[:, need & ~zero] == ends).all(), (dim, check)
            # every matrix on every row of the (P, J) table
            assert solved.all()
            assert len(d) == len({terms for _, terms, _ in verify._PAIR_MARGINS[check] if len(terms) > 1})
            if check in ("refined_chain", "reverse_difference"):
                # their matrices vanish at nu in {0, 1}: the grid's first and last weights
                assert zero[:, :, [0, 20]].all(), (dim, check)


def test_non_finite_screen_bound_names_the_instance(monkeypatch):
    # a NaN Specht ratio at instance 5 makes its bounds and its margin
    # matrices NaN: they are kept, and the margin check names the instance
    real = verify.specht_ratio

    def nan_at_fifth(h):
        s = np.array(real(h), dtype=float)
        s[5] = np.nan
        return s

    monkeypatch.setattr(verify, "specht_ratio", nan_at_fifth)
    report = run_suite(SuiteConfig(trials=32, dims=(3,), checks=("reverse_ratio",)))
    assert [e["message"] for e in report.errors] == [
        "non-finite margin reverse_ratio in check reverse_ratio instance "
        "(seed=0, index=5, dim=3, nu=0.0)"
    ]


@pytest.mark.parametrize("scalar", ["specht_ratio", "log_mean"])
def test_non_finite_constant_in_round_two_names_the_instance(monkeypatch, scalar):
    # a NaN Specht ratio or logarithmic mean at instance 5 makes its
    # constants c and the bounds of its margins c - lambda_max NaN; the
    # margins of every instance still go through both rounds of the screen,
    # and only instance 5 is named
    real = getattr(verify, scalar)
    sizes = []

    def nan_at_fifth(*args):
        value = np.array(real(*args), dtype=float)
        value[5] = np.nan
        return value

    def keep(stack):
        sizes.append(len(stack))
        return matrices._eigvals_stack(stack)

    monkeypatch.setattr(verify, scalar, nan_at_fifth)
    monkeypatch.setattr(verify, "_eigvals_stack", keep)
    report = run_suite(SuiteConfig(trials=64, dims=(4,), checks=("reverse_difference",)))
    assert [e["message"] for e in report.errors] == [
        "non-finite margin reverse_difference in check reverse_difference instance "
        "(seed=0, index=5, dim=4, nu=0.0)"
    ]
    assert len(sizes) == 2


def test_pair_frames_make_one_svd_and_no_vector_eigensolve(monkeypatch):
    # the frame's vectors come from the SVD of G = L_A^-1 L_B, with one
    # batched LAPACK call for each factor and for G, and A and B get only
    # their extreme eigenvalues: LAPACK's eigh serves the state vectors
    # alone, and the verifier makes no Jacobi solve
    cfg = SuiteConfig(trials=8, dims=(3,)).validate()
    pair = gen_spd_pair(3, 1.0, 10.0, rng_for(0, "refined_chain", 0))
    calls = []

    def counting(name, real):
        def wrapper(stack, *args, **kwargs):
            calls.append((name, len(stack)))
            return real(stack, *args, **kwargs)

        return wrapper

    for module in (matrices, verify):
        monkeypatch.setattr(module, "_eigh_stack", counting("jacobi", module._eigh_stack))
    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    for name in ("cholesky", "solve", "svd"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    frame = [("cholesky", 8), ("cholesky", 8), ("solve", 8), ("svd", 8)]
    for check in verify.PAIR_CHECK_NAMES:
        verify._eval_pair_chunk(cfg, check, 3, list(range(8)))
    assert calls == frame * 4
    calls.clear()
    verify.run_pair(pair)
    assert calls == [(name, 1) for name, _ in frame]
    calls.clear()
    verify._eval_hm_chunk(cfg, 3, list(range(8)))
    assert calls == [("eigh", 8)]


@pytest.mark.parametrize("h", [1e2, 1e6, 1e8, 1e10])
@pytest.mark.parametrize("dim", [2, 3, 4, 8, 12, 16])
def test_frame_reconstructs_the_pair(dim, h):
    # A = W W^T to c n eps and B = W diag(t) W^T to c n eps sqrt(h), relative
    # in the 2-norm; measured up to n = 16, c stays below 2.8.  A frame that
    # forms C = L^-1 B L^-T squares its condition and misses B by far more at
    # large h
    c = 8.0
    eps = np.finfo(float).eps
    cfg = SuiteConfig(big_m=h, dims=(dim,)).validate()
    for check in verify.PAIR_CHECK_NAMES:
        a, b = verify._gen_chunk_pairs(cfg, check, dim, list(range(64)))
        frame = verify._diagonalize_pairs(a, b, f"check {check}", str)
        w, t = frame["w"], frame["t"]
        assert (np.diff(t, axis=1) >= 0.0).all()
        for want, got, bound in (
            (a, w @ w.transpose(0, 2, 1), c * dim * eps),
            (b, (w * t[:, None]) @ w.transpose(0, 2, 1), c * dim * eps * math.sqrt(h)),
        ):
            residual = np.linalg.norm(got - want, 2, axis=(1, 2)) / np.linalg.norm(want, 2, axis=(1, 2))
            assert residual.max() <= bound, (check, residual.max() / (dim * eps))


def test_non_finite_pair_margin_is_a_numerical_error(monkeypatch):
    # a NaN constant reaches the difference margins without an eigensolve
    monkeypatch.setattr(verify, "log_mean", lambda x, y: np.full(np.shape(x), np.nan))
    report = run_suite(SuiteConfig(trials=4, dims=(2,), checks=("reverse_difference",)))
    assert not report.passed
    assert len(report.errors) == 1
    message = report.errors[0]["message"]
    assert "non-finite margin reverse_difference in check reverse_difference" in message
    assert "(seed=0, index=0, dim=2, nu=0.0)" in message


def test_non_finite_state_vector_margin_is_a_numerical_error(monkeypatch):
    # the chunk draws its state vectors through the helper that
    # gen_unit_vector wraps
    monkeypatch.setattr(verify, "_draw_unit", lambda dim, rng: np.full(dim, np.nan))
    report = run_suite(SuiteConfig(trials=4, dims=(3,), checks=("holder_mccarthy",)))
    assert not report.passed
    assert len(report.errors) == 1
    assert "non-finite margin hm_refined in check holder_mccarthy" in report.errors[0]["message"]


def test_check_result_invariant():
    pair = gen_spd_pair(2, 1.0, 10.0, rng_for(0, "refined_chain", 0))
    res = check_refined_chain(pair, 0.4)
    assert res.passed == (min(res.margins.values()) >= -res.tol)
    assert res.scale == pytest.approx(max(spectral_bounds(pair.a)[1], spectral_bounds(pair.b)[1]))
