import math
import warnings

import numpy as np
import pytest

from opmeans import matrices
from opmeans.matrices import (
    ConvergenceError,
    NumericalError,
    SingularMatrixError,
    SymMatrix,
    frobenius_norm,
    jacobi_eigen,
    load_matrix,
    matrix_inverse,
    operator_norm,
    save_matrix,
    spectral_bounds,
)
from opmeans.means import SpdPair, weighted_geometric


def random_sym(rng, n, scale=10.0):
    m = rng.uniform(-scale, scale, size=(n, n))
    return SymMatrix.from_array(0.5 * (m + m.T))


# ---------------------------------------------------------------------------
# SymMatrix construction
# ---------------------------------------------------------------------------

def test_constructor_rejects_asymmetric():
    with pytest.raises(ValueError):
        SymMatrix([[1.0, 2.0], [3.0, 4.0]])


def test_constructor_rejects_bad_dims():
    with pytest.raises(ValueError):
        SymMatrix([[1.0]])
    with pytest.raises(ValueError):
        SymMatrix(np.eye(65))
    with pytest.raises(ValueError):
        SymMatrix(np.ones((2, 3)))


def test_constructor_rejects_nonfinite():
    with pytest.raises(ValueError):
        SymMatrix([[1.0, np.nan], [np.nan, 1.0]])


def test_from_array_tolerance():
    near = np.array([[1.0, 2.0], [2.0 + 1e-13, 1.0]])
    m = SymMatrix.from_array(near, tol=1e-12)
    assert np.array_equal(m.entries, m.entries.T)
    with pytest.raises(ValueError):
        SymMatrix.from_array(near, tol=1e-15)


def test_entries_read_only():
    m = SymMatrix.identity(3)
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5.0


def test_arithmetic_preserves_symmetry():
    a = SymMatrix.diagonal([1.0, 2.0])
    b = SymMatrix([[0.0, 1.0], [1.0, 0.0]])
    for m in (a + b, a - b, 2.5 * a, -b):
        assert np.array_equal(m.entries, m.entries.T)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        SymMatrix.identity(2) + SymMatrix.identity(3)


# ---------------------------------------------------------------------------
# Jacobi eigensolver
# ---------------------------------------------------------------------------

def test_identity_eigen():
    d = jacobi_eigen(SymMatrix.identity(4))
    assert np.allclose(d.lam, 1.0)
    assert np.allclose(d.q @ d.q.T, np.eye(4), atol=1e-14)


def test_diagonal_eigen_sorted():
    d = jacobi_eigen(SymMatrix.diagonal([3.0, 1.0]))
    assert np.allclose(d.lam, [1.0, 3.0])


def test_two_by_two_hand_eigenvalues():
    # characteristic polynomial x^2 - 4x + 3
    d = jacobi_eigen(SymMatrix([[2.0, 1.0], [1.0, 2.0]]))
    assert d.lam[0] == pytest.approx(1.0, abs=1e-14)
    assert d.lam[1] == pytest.approx(3.0, abs=1e-14)


def test_round_trip_invariants_seeded():
    rng = np.random.default_rng(20240201)
    for _ in range(1000):
        n = int(rng.integers(2, 17))
        a = random_sym(rng, n)
        d = jacobi_eigen(a)
        fro = frobenius_norm(a)
        recon = (d.q * d.lam) @ d.q.T
        assert np.linalg.norm(recon - a.entries) <= 1e-12 * max(fro, 1e-30)
        assert np.linalg.norm(d.q.T @ d.q - np.eye(n)) <= 1e-12 * math.sqrt(n)
        assert np.all(np.diff(d.lam) >= 0.0)


def test_matches_lapack_eigenvalues():
    rng = np.random.default_rng(5150)
    for n in (2, 3, 5, 8, 16, 32, 64):
        a = random_sym(rng, n)
        lam = jacobi_eigen(a).lam
        ref = np.linalg.eigvalsh(a.entries)
        assert np.allclose(lam, ref, atol=1e-11 * max(1.0, operator_norm(a)))


def test_eigen_deterministic_and_cached():
    rng = np.random.default_rng(3)
    a = random_sym(rng, 6)
    d1 = jacobi_eigen(a)
    d2 = jacobi_eigen(a)
    assert d1 is d2
    b = SymMatrix.from_array(a.entries.copy())
    d3 = jacobi_eigen(b)
    assert np.array_equal(d1.lam, d3.lam)
    assert np.array_equal(d1.q, d3.q)


def test_convergence_error_carries_residual():
    a = SymMatrix([[2.0, 1.0], [1.0, 2.0]])
    with pytest.raises(ConvergenceError) as err:
        jacobi_eigen(a, max_sweeps=0)
    assert err.value.residual > 0.0


# ---------------------------------------------------------------------------
# Operator powers (A^nu = I #_nu A)
# ---------------------------------------------------------------------------

def identity_power(a, nu):
    # A^nu = I #_nu A, taken through the congruence frame's geometric mean
    return weighted_geometric(SpdPair.from_matrices(SymMatrix.identity(a.n), a), nu)


def random_spd(rng, n, lam_lo, lam_hi):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = np.exp(rng.uniform(np.log(lam_lo), np.log(lam_hi), n))
    return SymMatrix.from_array(q @ np.diag(lam) @ q.T, tol=1e-12)


def test_power_one_reproduces_input():
    rng = np.random.default_rng(17)
    a = random_spd(rng, 5, 0.1, 10.0)
    b = identity_power(a, 1.0)
    assert np.linalg.norm(b.entries - a.entries) <= 1e-12 * frobenius_norm(a)


def test_sqrt_of_diagonal():
    s = identity_power(SymMatrix.diagonal([4.0, 9.0]), 0.5)
    assert np.allclose(s.entries, np.diag([2.0, 3.0]), atol=1e-14)


def test_half_power_hand_value():
    a = SymMatrix([[2.0, 1.0], [1.0, 2.0]])
    s = identity_power(a, 0.5)
    r3 = math.sqrt(3.0)
    want = np.array([[(r3 + 1) / 2, (r3 - 1) / 2], [(r3 - 1) / 2, (r3 + 1) / 2]])
    assert np.allclose(s.entries, want, atol=1e-13)
    assert np.allclose((s.entries @ s.entries), a.entries, atol=1e-13)


def test_sqrt_then_square_round_trip():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        a = random_spd(rng, n, math.exp(-2.0), math.exp(2.0))
        root = identity_power(a, 0.5).entries
        assert np.linalg.norm(root @ root - a.entries) <= 1e-10 * frobenius_norm(a)


def test_fractional_power_products():
    rng = np.random.default_rng(29)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    lam = np.array([0.5, 1.0, 2.0, 8.0])
    a = SymMatrix.from_array(q @ np.diag(lam) @ q.T, tol=1e-12)
    for nu in (0.25, 0.5, 0.75):
        la = jacobi_eigen(a).lam
        prod = np.power(la, nu) * np.power(la, 1.0 - nu)
        assert np.allclose(prod, la, rtol=1e-13)


# ---------------------------------------------------------------------------
# Matrix inverse
# ---------------------------------------------------------------------------

def test_diagonal_commuting_exactness():
    d = SymMatrix.diagonal([1.0, 4.0, 9.0])
    inv = matrix_inverse(d)
    assert np.allclose(np.diag(inv.entries), [1.0, 0.25, 1.0 / 9.0], rtol=1e-15)


def test_rejects_singular_inverse():
    with pytest.raises(SingularMatrixError):
        matrix_inverse(SymMatrix.diagonal([0.0, 1.0]))
    with pytest.raises(SingularMatrixError):
        matrix_inverse(SymMatrix.zeros(2))


# ---------------------------------------------------------------------------
# Loewner margins (smallest eigenvalues of a difference), bounds, norms
# ---------------------------------------------------------------------------

def _loewner_margin(a, b):
    """Smallest eigenvalue of a - b: nonnegative exactly when a >= b."""
    return matrices._eigvals_min_stack((a - b).entries[None])[0]


def test_loewner_margin_examples():
    assert _loewner_margin(SymMatrix.diagonal([2.0, 3.0]), SymMatrix.diagonal([1.0, 3.0])) == 0.0
    a = SymMatrix.diagonal([2.0, 1.0])
    assert _loewner_margin(a, a) == 0.0
    got = _loewner_margin(SymMatrix.diagonal([2.0, 1.0]), SymMatrix.diagonal([1.0, 2.0]))
    assert got == pytest.approx(-1.0, abs=1e-14)


def test_loewner_margin_shape_error():
    with pytest.raises(ValueError):
        matrices._eigvals_stack(np.ones((2, 2, 3)))


def test_loewner_margin_negated_max():
    # the verifier reads a largest eigenvalue as the last column of
    # _eigvals_stack; it equals the negated smallest eigenvalue of the
    # negated matrix bit for bit
    rng = np.random.default_rng(31)
    for _ in range(50):
        a = random_sym(rng, 4)
        b = random_sym(rng, 4)
        lam_max = matrices._eigvals_stack((b - a).entries[None])[0, -1]
        assert _loewner_margin(a, b) == -lam_max
        ref = jacobi_eigen(b - a).lam[-1]
        assert lam_max == pytest.approx(ref, abs=1e-12 * max(1.0, operator_norm(a) + operator_norm(b)))


def test_spectral_bounds_examples():
    assert spectral_bounds(SymMatrix.diagonal([1.0, 5.0, 3.0])) == (1.0, 5.0)
    assert spectral_bounds(SymMatrix.identity(3)) == (1.0, 1.0)
    lo, hi = spectral_bounds(SymMatrix([[2.0, 1.0], [1.0, 2.0]]))
    assert lo == pytest.approx(1.0, abs=1e-14)
    assert hi == pytest.approx(3.0, abs=1e-14)


def test_norms():
    assert operator_norm(SymMatrix.identity(3)) == 1.0
    assert frobenius_norm(SymMatrix.identity(3)) == pytest.approx(math.sqrt(3.0))
    assert operator_norm(SymMatrix.diagonal([-2.0, 1.0])) == 2.0
    assert operator_norm(SymMatrix.zeros(2)) == 0.0
    assert frobenius_norm(SymMatrix.zeros(2)) == 0.0


# ---------------------------------------------------------------------------
# Matrix files
# ---------------------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(37)
    a = random_sym(rng, 3)
    path = tmp_path / "mat.json"
    save_matrix(a, path)
    b = load_matrix(path)
    assert np.array_equal(a.entries, b.entries)


def test_load_rejects_asymmetric(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "entries": [1.0, 2.0, 3.0, 4.0]}')
    with pytest.raises(ValueError):
        load_matrix(path)


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "entries": [1.0, 2.0, 2.0]}')
    with pytest.raises(ValueError):
        load_matrix(path)
    path.write_text('{"entries": [1.0]}')
    with pytest.raises(ValueError):
        load_matrix(path)
    path.write_text('{"n": 2.5, "entries": [1.0, 0.0, 0.0, 1.0]}')
    with pytest.raises(ValueError):
        load_matrix(path)
    # booleans and strings are not numbers, though Python and numpy take them as such
    for doc in (
        '{"n": true, "entries": [1.0]}',
        '{"n": "2", "entries": [1.0, 0.0, 0.0, 1.0]}',
        '{"n": 2, "entries": ["2", 0.0, 0.0, 1.0]}',
        '{"n": 2, "entries": [true, false, false, true]}',
        '{"n": 2, "entries": [null, 0.0, 0.0, 1.0]}',
        '{"n": 2, "entries": [[1.0], 0.0, 0.0, 1.0]}',
        '{"n": 2, "entries": [1' + "0" * 400 + ', 0.0, 0.0, 1.0]}',
    ):
        path.write_text(doc)
        with pytest.raises(ValueError):
            load_matrix(path)


def test_load_accepts_roundoff_asymmetry(tmp_path):
    path = tmp_path / "near.json"
    path.write_text('{"n": 2, "entries": [1.0, 2.0, 2.0000000000000004, 1.0]}')
    m = load_matrix(path)
    assert np.array_equal(m.entries, m.entries.T)


# ---------------------------------------------------------------------------
# Batched kernel consistency
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("need_vectors", [True, False])
@pytest.mark.parametrize("batch", [1, 23, 300])
@pytest.mark.parametrize("n", [2, 3, 4, 8, 12])
def test_stack_solver_matches_single(n, batch, need_vectors):
    rng = np.random.default_rng([41, n, batch])
    mats = [random_sym(rng, n) for _ in range(batch)]
    stack = np.stack([m.entries for m in mats])
    before = stack.copy()
    lam, q = matrices._eigh_stack(stack, need_vectors=need_vectors)
    assert np.array_equal(stack, before)
    assert lam.shape == (batch, n)
    if not need_vectors:
        assert q is None
    else:
        assert q.shape == (batch, n, n)
        # deterministic sign: the largest-magnitude component of each eigenvector is positive
        lead = np.take_along_axis(q, np.argmax(np.abs(q), axis=1)[:, None, :], axis=1)
        assert np.all(lead > 0.0)
    for i, m in enumerate(mats):
        ref = np.linalg.eigvalsh(m.entries)
        assert np.allclose(lam[i], ref, atol=1e-11 * max(1.0, np.abs(ref).max()))
        if need_vectors:
            recon = (q[i] * lam[i]) @ q[i].T
            assert np.linalg.norm(recon - m.entries) <= 1e-12 * max(frobenius_norm(m), 1e-30)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_stack_solver_rejects_non_finite_entry(bad):
    rng = np.random.default_rng(7)
    stack = np.stack([random_sym(rng, 8).entries for _ in range(1472)])
    stack[917, 2, 5] = stack[917, 5, 2] = bad
    stack[1200, 0, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="non-finite entry in matrix 917 ") as err:
            matrices._eigh_stack(stack)
    assert not isinstance(err.value, ConvergenceError)


# ---------------------------------------------------------------------------
# Smallest eigenvalues of a stack (LAPACK), against the Jacobi solver
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps
# error bound c * n * eps * max|lambda| against the library's Jacobi solver;
# the largest c measured over the cases below is about 3.3
MIN_EIG_C = 4.0


def _with_spectrum(rng, lam):
    q, r = np.linalg.qr(rng.normal(size=(len(lam), len(lam))))
    q = q * np.sign(np.diag(r))
    m = (q * lam) @ q.T
    return 0.5 * (m + m.T)


def _mixed_stack(rng, n, batch):
    """Random symmetric, known-spectrum, diagonal and scalar matrices at
    scales from 1e-150 to 1e150."""
    mats = []
    for i in range(batch):
        scale = 10.0 ** float(rng.choice([-150, -8, 0, 3, 8, 150]))
        kind = i % 5
        if kind == 0:
            m = rng.normal(size=(n, n))
            m = m + m.T
        elif kind == 1:
            lam = rng.uniform(1.0, 10.0, n)
            lam[: max(1, n // 3)] = lam.min()  # repeated smallest eigenvalue
            m = _with_spectrum(rng, lam)
        elif kind == 2:
            m = -_with_spectrum(rng, rng.uniform(1.0, 10.0, n))  # negative definite
        elif kind == 3:
            m = np.diag(rng.normal(size=n))
        else:
            m = float(rng.normal()) * np.eye(n)
        mats.append(scale * m)
    return np.stack(mats)


def _assert_close_to_jacobi(stack, got):
    ref, _ = matrices._eigh_stack(stack, need_vectors=False)
    n = stack.shape[-1]
    bound = MIN_EIG_C * n * EPS * np.abs(ref).max(axis=1)
    assert np.all(np.abs(got - ref[:, 0]) <= bound)


@pytest.mark.parametrize("batch", [1, 23, 300])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 12, 16])
def test_min_eig_stack_matches_lapack(n, batch):
    rng = np.random.default_rng([43, n, batch])
    for scale in (1e-150, 1e-8, 1.0, 1e8, 1e150):
        m = rng.normal(size=(batch, n, n))
        stack = scale * (m + m.transpose(0, 2, 1))
        before = stack.copy()
        got = matrices._eigvals_min_stack(stack)
        assert np.array_equal(stack, before)
        assert got.shape == (batch,)
        _assert_close_to_jacobi(stack, got)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 12, 16])
def test_min_eig_stack_structured_inputs(n):
    # diagonal and block-diagonal input split the tridiagonal; repeated
    # smallest eigenvalues and negative definite input
    rng = np.random.default_rng([47, n])
    stack = _mixed_stack(rng, n, 60)
    blocks = np.zeros((20, n, n))
    for i in range(0, n - 1, 2):
        blocks[:, i:i + 2, i:i + 2] = rng.normal(size=(20, 2, 2))
    if n % 2:
        blocks[:, -1, -1] = rng.normal(size=20)
    blocks = blocks + blocks.transpose(0, 2, 1)
    perm = rng.permutation(n)
    stack = np.concatenate([stack, blocks, blocks[:, perm][:, :, perm]])
    _assert_close_to_jacobi(stack, matrices._eigvals_min_stack(stack))


@pytest.mark.parametrize("n", [2, 5, 12])
def test_min_eig_stack_exact_on_scalar_and_diagonal(n):
    rng = np.random.default_rng([53, n])
    values = [0.0, 1.0, -2.5, 3.7e-300, -1.1e300, 7.0 / 3.0]
    scalar = np.stack([c * np.eye(n) for c in values])
    assert np.array_equal(matrices._eigvals_min_stack(scalar), values)
    assert np.array_equal(matrices._eigvals_min_stack(np.zeros((3, n, n))), np.zeros(3))
    diag = rng.normal(size=(40, n)) * 10.0 ** rng.integers(-100, 100, size=(40, 1))
    stack = np.zeros((40, n, n))
    stack[:, np.arange(n), np.arange(n)] = diag
    assert np.array_equal(matrices._eigvals_min_stack(stack), diag.min(axis=1))


@pytest.mark.parametrize("n", [2, 3, 4, 8, 12, 16])
def test_min_eig_stack_is_independent_of_the_stack(n):
    rng = np.random.default_rng([59, n])
    stack = _mixed_stack(rng, n, 45)
    together = matrices._eigvals_min_stack(stack)
    alone = np.array([matrices._eigvals_min_stack(m[None])[0] for m in stack])
    assert np.array_equal(together, alone)
    order = rng.permutation(len(stack))
    assert np.array_equal(matrices._eigvals_min_stack(stack[order]), together[order])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_min_eig_stack_rejects_non_finite_entry(bad):
    rng = np.random.default_rng(7)
    stack = np.stack([random_sym(rng, 8).entries for _ in range(1472)])
    stack[917, 2, 5] = stack[917, 5, 2] = bad
    stack[1200, 0, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="non-finite entry in matrix 917 of a stack of 1472"):
            matrices._eigvals_min_stack(stack)


@pytest.mark.parametrize("n,multiplicity", [(8, 5), (64, 36), (64, 63)])
def test_min_eig_stack_multiple_smallest_eigenvalue(n, multiplicity):
    # a smallest eigenvalue of multiplicity up to n - 1 at n = 64: LAPACK and
    # the Jacobi reference must still agree within the bound
    rng = np.random.default_rng([71, n, multiplicity])
    stack = []
    for low in (-2.0, 0.0, 1.0):
        lam = rng.uniform(3.0, 10.0, n)
        lam[:multiplicity] = low
        stack.append(_with_spectrum(rng, lam))
    stack = np.stack(stack)
    _assert_close_to_jacobi(stack, matrices._eigvals_min_stack(stack))
