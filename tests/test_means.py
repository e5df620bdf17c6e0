import numpy as np
import pytest

from opmeans import means, verify
from opmeans.matrices import (
    SymMatrix,
    frobenius_norm,
    jacobi_eigen,
    matrix_inverse,
    operator_norm,
)
from opmeans.means import (
    SpdPair,
    refinement_bridge,
    resolvent_identity_residual,
    weighted_arithmetic,
    weighted_geometric,
    weighted_harmonic,
)


def random_spd(rng, n, lam_lo=0.1, lam_hi=10.0):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = np.exp(rng.uniform(np.log(lam_lo), np.log(lam_hi), n))
    return SymMatrix.from_array(q @ np.diag(lam) @ q.T, tol=1e-12)


def random_pair(rng, n, lam_lo=0.1, lam_hi=10.0):
    return SpdPair.from_matrices(
        random_spd(rng, n, lam_lo, lam_hi), random_spd(rng, n, lam_lo, lam_hi)
    )


def geometric_mean_ah_oracle(a, b, iters=80):
    """Arithmetic-harmonic iteration; its common limit is the midpoint
    geometric mean.  Pure numpy route, independent of the library solver."""
    x = np.array(a, dtype=float)
    y = np.array(b, dtype=float)
    for _ in range(iters):
        x_next = 0.5 * (x + y)
        y_next = 2.0 * np.linalg.inv(np.linalg.inv(x) + np.linalg.inv(y))
        x, y = x_next, y_next
        if np.linalg.norm(x - y) <= 1e-15 * np.linalg.norm(x):
            break
    return 0.5 * (x + y)


# ---------------------------------------------------------------------------
# SpdPair certification
# ---------------------------------------------------------------------------

def test_pair_certifies_bounds_from_spectra():
    pair = SpdPair.from_matrices(SymMatrix.diagonal([1.0, 4.0]), SymMatrix.diagonal([2.0, 8.0]))
    assert pair.m == pytest.approx(1.0, abs=1e-14)
    assert pair.big_m == pytest.approx(8.0, abs=1e-14)
    assert pair.h == pytest.approx(8.0, rel=1e-13)


def test_pair_accepts_looser_supplied_bounds():
    pair = SpdPair.from_matrices(
        SymMatrix.diagonal([1.0, 4.0]), SymMatrix.diagonal([2.0, 8.0]), m=0.5, big_m=10.0
    )
    assert pair.m == 0.5
    assert pair.big_m == 10.0


def test_pair_rejects_noncontaining_bounds():
    a = SymMatrix.diagonal([1.0, 4.0])
    b = SymMatrix.diagonal([2.0, 8.0])
    with pytest.raises(ValueError):
        SpdPair.from_matrices(a, b, m=2.0)
    with pytest.raises(ValueError):
        SpdPair.from_matrices(a, b, big_m=4.0)


def test_pair_rejects_indefinite():
    with pytest.raises(ValueError):
        SpdPair.from_matrices(SymMatrix.diagonal([-1.0, 4.0]), SymMatrix.identity(2))


def test_pair_h_is_one_only_for_scaled_identity():
    pair = SpdPair.from_matrices(3.0 * SymMatrix.identity(2), 3.0 * SymMatrix.identity(2))
    assert pair.h == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# Arithmetic mean
# ---------------------------------------------------------------------------

def test_arithmetic_weight_zero_is_first():
    rng = np.random.default_rng(1)
    pair = random_pair(rng, 3)
    out = weighted_arithmetic(pair, 0.0)
    assert np.array_equal(out.entries, pair.a.entries)


def test_arithmetic_diagonal_midpoint():
    pair = SpdPair.from_matrices(SymMatrix.diagonal([1.0, 4.0]), SymMatrix.diagonal([4.0, 1.0]))
    out = weighted_arithmetic(pair, 0.5)
    assert np.allclose(out.entries, np.diag([2.5, 2.5]), atol=1e-15)


def test_arithmetic_same_matrix():
    rng = np.random.default_rng(2)
    a = random_spd(rng, 4)
    pair = SpdPair.from_matrices(a, a)
    out = weighted_arithmetic(pair, 0.5)
    assert np.allclose(out.entries, a.entries, atol=1e-15)


def test_weight_validation():
    rng = np.random.default_rng(3)
    pair = random_pair(rng, 2)
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            weighted_arithmetic(pair, bad)
        with pytest.raises(ValueError):
            weighted_geometric(pair, bad)
        with pytest.raises(ValueError):
            weighted_harmonic(pair, bad)


# ---------------------------------------------------------------------------
# Geometric mean
# ---------------------------------------------------------------------------

def test_geometric_idempotent():
    rng = np.random.default_rng(4)
    a = random_spd(rng, 3)
    pair = SpdPair.from_matrices(a, a)
    for nu in (0.0, 0.3, 0.8, 1.0):
        out = weighted_geometric(pair, nu)
        assert np.linalg.norm(out.entries - a.entries) <= 1e-12 * frobenius_norm(a)


def test_geometric_commuting_scalar_values():
    pair = SpdPair.from_matrices(SymMatrix.diagonal([1.0, 4.0]), SymMatrix.diagonal([4.0, 1.0]))
    out = weighted_geometric(pair, 0.5)
    assert np.allclose(out.entries, np.diag([2.0, 2.0]), rtol=1e-12, atol=1e-13)


def test_geometric_riccati_property_midpoint():
    # G solves G A^{-1} G = B at nu = 1/2
    a = SymMatrix([[2.0, 1.0], [1.0, 2.0]])
    b = SymMatrix.diagonal([3.0, 1.0])
    pair = SpdPair.from_matrices(a, b)
    g = weighted_geometric(pair, 0.5)
    lhs = g.entries @ matrix_inverse(a).entries @ g.entries
    assert np.allclose(lhs, b.entries, rtol=1e-10, atol=1e-12)


def test_geometric_matches_ah_iteration_oracle():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        pair = random_pair(rng, n)
        g = weighted_geometric(pair, 0.5)
        ref = geometric_mean_ah_oracle(pair.a.entries, pair.b.entries)
        assert np.linalg.norm(g.entries - ref) <= 1e-10 * np.linalg.norm(ref)


def test_geometric_weight_reversal():
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        pair = random_pair(rng, n)
        swapped = SpdPair.from_matrices(pair.b, pair.a)
        nu = rng.uniform(0.0, 1.0)
        lhs = weighted_geometric(pair, nu)
        rhs = weighted_geometric(swapped, 1.0 - nu)
        assert np.linalg.norm(lhs.entries - rhs.entries) <= 1e-10 * frobenius_norm(lhs)


def test_public_means_are_views_of_the_verifier_frame():
    # one implementation: for every pair of a suite chunk and every weight of
    # its augmented grid, the public means equal the verifier's stacks bit
    # for bit
    cfg = verify.SuiteConfig(trials=24, dims=(4,)).validate()
    for dim in (2, 3, 8):
        a, b = verify._gen_chunk_pairs(cfg, "refined_chain", dim, list(range(24)))
        frame = verify._diagonalize_pairs(a, b, "test", str)
        nus = verify._nu_table(cfg.nu_grid, frame["scale"] / frame["m_hat"])
        gm = verify._geometric_stacks(frame["w"], frame["t"], nus)
        hm = means._harmonic_stack(frame["w"], frame["t"], nus)
        gm_half = verify._geometric_stacks(frame["w"], frame["t"], np.full((len(a), 1), 0.5))
        bridge = means._bridge(frame, gm_half[:, 0])
        for p in range(len(a)):
            pair = SpdPair.from_matrices(SymMatrix._wrap(a[p]), SymMatrix._wrap(b[p]))
            assert np.array_equal(refinement_bridge(pair).entries, bridge[p])
            for j, nu in enumerate(nus[p]):
                assert np.array_equal(weighted_geometric(pair, nu).entries, gm[p, j])
                assert np.array_equal(weighted_harmonic(pair, nu).entries, hm[p, j])


def test_geometric_congruence_invariance():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        pair = random_pair(rng, n, lam_lo=0.5, lam_hi=5.0)
        c = rng.uniform(-1.0, 1.0, size=(n, n)) + 2.0 * np.eye(n)
        nu = rng.uniform(0.0, 1.0)
        ca = SymMatrix.from_array(c @ pair.a.entries @ c.T, tol=1e-11)
        cb = SymMatrix.from_array(c @ pair.b.entries @ c.T, tol=1e-11)
        lhs = weighted_geometric(SpdPair.from_matrices(ca, cb), nu)
        rhs = c @ weighted_geometric(pair, nu).entries @ c.T
        assert np.linalg.norm(lhs.entries - rhs) <= 1e-9 * np.linalg.norm(rhs)


# ---------------------------------------------------------------------------
# Harmonic mean
# ---------------------------------------------------------------------------

def test_harmonic_weight_zero_round_trip():
    rng = np.random.default_rng(8)
    a = random_spd(rng, 4)
    pair = SpdPair.from_matrices(a, random_spd(rng, 4))
    out = weighted_harmonic(pair, 0.0)
    assert np.linalg.norm(out.entries - a.entries) <= 1e-12 * frobenius_norm(a)


def test_harmonic_same_matrix():
    rng = np.random.default_rng(9)
    a = random_spd(rng, 3)
    pair = SpdPair.from_matrices(a, a)
    out = weighted_harmonic(pair, 0.7)
    assert np.linalg.norm(out.entries - a.entries) <= 1e-12 * frobenius_norm(a)


def test_harmonic_diagonal_scalar_values():
    pair = SpdPair.from_matrices(SymMatrix.diagonal([1.0, 4.0]), SymMatrix.diagonal([4.0, 1.0]))
    out = weighted_harmonic(pair, 0.5)
    assert np.allclose(out.entries, np.diag([1.6, 1.6]), rtol=1e-13)


# ---------------------------------------------------------------------------
# Commuting reduction of all three means
# ---------------------------------------------------------------------------

def test_all_means_reduce_to_scalars_on_diagonals():
    rng = np.random.default_rng(10)
    d1 = np.exp(rng.uniform(-1, 1, 5))
    d2 = np.exp(rng.uniform(-1, 1, 5))
    pair = SpdPair.from_matrices(SymMatrix.diagonal(d1), SymMatrix.diagonal(d2))
    for nu in (0.0, 0.25, 0.5, 0.9, 1.0):
        am = np.diag(weighted_arithmetic(pair, nu).entries)
        gm = np.diag(weighted_geometric(pair, nu).entries)
        hm = np.diag(weighted_harmonic(pair, nu).entries)
        assert np.allclose(am, (1 - nu) * d1 + nu * d2, rtol=1e-12)
        assert np.allclose(gm, d1 ** (1 - nu) * d2**nu, rtol=1e-12)
        assert np.allclose(hm, 1.0 / ((1 - nu) / d1 + nu / d2), rtol=1e-12)


# ---------------------------------------------------------------------------
# Refinement bridge
# ---------------------------------------------------------------------------

def test_bridge_zero_for_equal_matrices():
    rng = np.random.default_rng(11)
    a = random_spd(rng, 3)
    pair = SpdPair.from_matrices(a, a)
    out = refinement_bridge(pair)
    assert np.linalg.norm(out.entries) <= 1e-12 * frobenius_norm(a)


def test_bridge_diagonal_value():
    pair = SpdPair.from_matrices(SymMatrix.diagonal([1.0, 4.0]), SymMatrix.diagonal([4.0, 1.0]))
    out = refinement_bridge(pair)
    assert np.allclose(out.entries, np.diag([0.5, 0.5]), rtol=1e-12)


def test_bridge_positive_semidefinite_seeded():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        pair = random_pair(rng, n)
        lam_min = jacobi_eigen(refinement_bridge(pair)).lam[0]
        norms = operator_norm(pair.a) + operator_norm(pair.b)
        assert lam_min >= -1e-10 * norms


# ---------------------------------------------------------------------------
# Mean ordering (un-refined chain)
# ---------------------------------------------------------------------------

def test_mean_ordering_loewner():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        pair = random_pair(rng, n)
        nu = rng.uniform(0.0, 1.0)
        am = weighted_arithmetic(pair, nu)
        gm = weighted_geometric(pair, nu)
        hm = weighted_harmonic(pair, nu)
        tau = 1e-8 * max(operator_norm(pair.a), operator_norm(pair.b))
        assert jacobi_eigen(am - gm).lam[0] >= -tau
        assert jacobi_eigen(gm - hm).lam[0] >= -tau


# ---------------------------------------------------------------------------
# Resolvent identity residual
# ---------------------------------------------------------------------------

def test_resolvent_identity_identity_matrices():
    eye = SymMatrix.identity(3)
    assert resolvent_identity_residual(eye, eye) <= 1e-15


def test_resolvent_identity_diagonal():
    x = SymMatrix.diagonal([1.0, 2.0])
    y = SymMatrix.diagonal([3.0, 4.0])
    assert resolvent_identity_residual(x, y) <= 1e-12


def test_resolvent_identity_seeded_property():
    rng = np.random.default_rng(14)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        x = random_spd(rng, n, lam_lo=1e-2, lam_hi=1e2)
        y = random_spd(rng, n, lam_lo=1e-2, lam_hi=1e2)
        assert resolvent_identity_residual(x, y) <= 1e-10


def test_resolvent_identity_rejects_indefinite():
    with pytest.raises(ValueError):
        resolvent_identity_residual(SymMatrix.diagonal([-1.0, 1.0]), SymMatrix.identity(2))
