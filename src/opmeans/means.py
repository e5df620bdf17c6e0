"""Two-operator weighted means and related identities on SPD matrices.

Every mean of a pair is read off one congruence frame (Bhatia, Positive
Definite Matrices, ch. 4): A = W W^T and B = W diag(t) W^T, so that

  A #_nu B = W diag(t^nu) W^T,   A !_nu B = W diag(t / ((1 - nu) t + nu)) W^T.

The frame code works on a (P, n, n) pair stack and a (P, J) weight table.
The verifier builds one frame per chunk of instances; the public means are
its P = J = 1 views, so each formula exists once.  The arithmetic-harmonic
iteration that could compute the nu = 1/2 case lives in the test suite as an
independent oracle, not here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import (
    NumericalError,
    SingularMatrixError,
    SymMatrix,
    _INV_FLOOR_REL,
    _eigvals_stack,
    frobenius_norm,
    matrix_inverse,
    spectral_bounds,
)

__all__ = [
    "SpdPair",
    "weighted_arithmetic",
    "weighted_geometric",
    "weighted_harmonic",
    "refinement_bridge",
    "resolvent_identity_residual",
]

# Slack for validating caller-supplied spectral bounds against computed spectra.
_BOUND_SLACK_REL = 1e-12


def _require_nu(nu):
    nu = float(nu)
    if not 0.0 <= nu <= 1.0:
        raise ValueError(f"nu must lie in [0, 1], got {nu}")
    return nu


@dataclass(frozen=True)
class SpdPair:
    """Two SPD matrices with certified spectral bounds m <= spec(A), spec(B) <= big_m.

    Bounds are certified from the computed spectra unless the caller supplies
    looser a-priori bounds, which are validated for containment only.  The
    condition ratio h = big_m / m drives the reverse-inequality constants;
    looser bounds weaken those constants but never invalidate them.
    """

    a: SymMatrix
    b: SymMatrix
    m: float
    big_m: float

    @classmethod
    def from_matrices(cls, a: SymMatrix, b: SymMatrix, m=None, big_m=None) -> "SpdPair":
        a._check_same_dim(b)
        lam = _eigvals_stack(np.stack([a.entries, b.entries]))
        lo = float(lam[:, 0].min())
        hi = float(lam[:, -1].max())
        if lo <= 0.0:
            raise ValueError(f"matrices must be positive definite (smallest eigenvalue {lo:.3e})")
        slack = _BOUND_SLACK_REL * max(hi, 1.0)
        if m is None:
            m = lo
        elif not 0.0 < m <= lo + slack:
            raise ValueError(f"supplied lower bound {m} does not contain the spectra (min {lo:.6e})")
        if big_m is None:
            big_m = hi
        elif big_m < hi - slack:
            raise ValueError(f"supplied upper bound {big_m} does not contain the spectra (max {hi:.6e})")
        if not m <= big_m:
            raise ValueError(f"bounds must satisfy m <= big_m, got {m} > {big_m}")
        return cls(a=a, b=b, m=float(m), big_m=float(big_m))

    @property
    def n(self):
        return self.a.n

    @property
    def h(self):
        """Condition ratio big_m / m (>= 1; equals 1 only for A = B = mI)."""
        return self.big_m / self.m


def _recon(q, lam):
    """q diag(lam) q^T over a stack: q (..., n, n), lam (..., n); the leading
    axes broadcast, so one q can carry a whole row of weights."""
    return (q * lam[..., None, :]) @ np.swapaxes(q, -1, -2)


def _sym(stack):
    """(X + X^T) / 2 over a stack of square matrices: equal to its transpose
    bit for bit."""
    return 0.5 * (stack + np.swapaxes(stack, -1, -2))


def _inverse4(diag, context):
    """Batched SPD inverse in the congruence frame: 1/d for a (P, J, n) stack of
    diagonal factors, refused at or below the relative floor of matrix_inverse.
    context(p, j) names the failing entry.  Nothing in the library calls it:
    every frame diagonal is division-free; verify imports it for opbench."""
    low = diag.min(axis=-1)
    bad = ~(low > _INV_FLOOR_REL * np.abs(diag).max(axis=-1))
    if bad.any():
        p, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise SingularMatrixError(
            f"eigenvalue {low[p, j]:.3e} below inversion floor in {context(p, j)}"
        )
    return 1.0 / diag


def _diagonalize_pairs(a, b, where, label):
    """The weight-independent congruence frame of a (P, n, n) pair stack.

    The extreme eigenvalues of A and B (rows of low and top, each (2, P)) come
    from one _eigvals_stack call on [A; B].  With the Cholesky factors
    A = L_A L_A^T and B = L_B L_B^T and the SVD G = L_A^-1 L_B = U diag(s) V^T,
    the frame keeps t = s^2 (ascending) and W = L_A U; the means do not
    depend on the signs of U's columns.  Each step is one batched LAPACK call
    (numpy.linalg cholesky, solve for G, svd); numpy has no triangular solve,
    and LU with partial pivoting on L_A is as accurate here.  C = G G^T is
    never formed, so its condition is never squared, and no mean inverts a
    matrix.  A or B not positive definite, or without a Cholesky factor,
    raises SingularMatrixError naming the matrix and the first such instance
    as "<where> instance (<label(p)>)"; an SVD that does not converge raises
    NumericalError naming where.
    """
    p = len(a)

    def context(k):
        return f"{where} instance ({label(k)})"

    lam = _eigvals_stack(np.concatenate([a, b]))
    low = lam[:, 0].reshape(2, p)
    top = lam[:, -1].reshape(2, p)
    singular = ~(low > 0.0)
    if singular.any():
        k = int(np.argmax(singular.any(axis=0)))
        name = "A" if singular[0, k] else "B"
        raise SingularMatrixError(
            f"pair matrix {name} is not positive definite in {context(k)}"
        )
    chol_a = _cholesky(a, "A", context)
    chol_b = _cholesky(b, "B", context)
    try:
        u, s, _ = np.linalg.svd(np.linalg.solve(chol_a, chol_b))
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"frame SVD failed ({err}) in {where}") from err
    return {
        "a": a,
        "b": b,
        "low": low,
        "top": top,
        "top_a": top[0],
        "m_hat": np.minimum(low[0], low[1]),
        "scale": np.maximum(top[0], top[1]),
        "t": s[:, ::-1] ** 2,
        "w": chol_a @ u[:, :, ::-1],
    }


def _cholesky(a, name, context):
    """Lower Cholesky factors L of a (P, n, n) SPD stack, A = L L^T, by one
    LAPACK call; a matrix without a factor raises SingularMatrixError naming
    the matrix and the first such instance by context(p)."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        for k, mat in enumerate(a):
            try:
                np.linalg.cholesky(mat)
            except np.linalg.LinAlgError as err:
                raise SingularMatrixError(
                    f"pair matrix {name} has no Cholesky factor ({err}) in {context(k)}"
                ) from err
        raise


def _pair_frame(pair, where, label=None):
    """The frame of one SpdPair, as a stack of one; label defaults to its dimension."""
    label = label or (lambda p: f"dim={pair.n}")
    return _diagonalize_pairs(pair.a.entries[None], pair.b.entries[None], where, label)


def _arithmetic_stack(a, b, nus):
    """AM stack (P, J, n, n): (1 - nu) A + nu B for a (P, n, n) pair stack."""
    w = nus[:, :, None, None]
    am = (1.0 - w) * a[:, None]
    am += w * b[:, None]
    return am


def _geometric_stacks(w, t, nus):
    """GM stack (P, J, n, n) over the (P, J) weight table, from frame rows w
    (P, n, n) and t (P, n) of _diagonalize_pairs: A #_nu B = W diag(t^nu) W^T."""
    return _sym(_recon(w[:, None], np.power(t[:, None, :], nus[:, :, None])))


def _harmonic_diag(t, nu):
    """Frame diagonal t / ((1 - nu) t + nu) of the HM, elementwise over
    broadcast t and nu: no division by t, so it is defined for every t > 0."""
    return t / ((1.0 - nu) * t + nu)


def _harmonic_stack(w, t, nus):
    """HM stack (P, J, n, n) over the (P, J) weight table, from frame rows w
    and t: A !_nu B = W diag(t / ((1 - nu) t + nu)) W^T."""
    return _sym(_recon(w[:, None], _harmonic_diag(t[:, None, :], nus[:, :, None])))


def _bridge(frame, gm_half):
    """Midpoint arithmetic-geometric gap (A+B)/2 - A #_(1/2) B, (P, n, n)."""
    return 0.5 * (frame["a"] + frame["b"]) - gm_half


def weighted_arithmetic(pair: SpdPair, nu) -> SymMatrix:
    """(1-nu) A + nu B."""
    nus = np.array([[_require_nu(nu)]])
    return SymMatrix._wrap(_arithmetic_stack(pair.a.entries[None], pair.b.entries[None], nus)[0, 0])


def weighted_geometric(pair: SpdPair, nu) -> SymMatrix:
    """Weighted geometric mean A #_nu B = W diag(t^nu) W^T in the pair's frame."""
    nus = np.array([[_require_nu(nu)]])
    frame = _pair_frame(pair, "weighted_geometric")
    return SymMatrix._wrap(_geometric_stacks(frame["w"], frame["t"], nus)[0, 0])


def weighted_harmonic(pair: SpdPair, nu) -> SymMatrix:
    """((1-nu) A^(-1) + nu B^(-1))^(-1) = W diag(t / ((1 - nu) t + nu)) W^T in
    the pair's frame, which certifies t > 0: no inverse is formed."""
    nus = np.array([[_require_nu(nu)]])
    frame = _pair_frame(pair, "weighted_harmonic")
    return SymMatrix._wrap(_harmonic_stack(frame["w"], frame["t"], nus)[0, 0])


def refinement_bridge(pair: SpdPair) -> SymMatrix:
    """Midpoint arithmetic-geometric gap (A+B)/2 - A #_(1/2) B.

    Positive semidefinite; zero exactly when A = B.  Scaled by 2*min(nu, 1-nu)
    it is the refinement term of the mean-ordering chain.
    """
    frame = _pair_frame(pair, "refinement_bridge")
    gm_half = _geometric_stacks(frame["w"], frame["t"], np.array([[0.5]]))[:, 0]
    return SymMatrix._wrap(_bridge(frame, gm_half)[0])


def resolvent_identity_residual(x: SymMatrix, y: SymMatrix) -> float:
    """Relative Frobenius residual of (X+Y)^(-1) = X^(-1) - X^(-1)(X^(-1)+Y^(-1))^(-1)X^(-1).

    Mathematically zero for SPD X, Y; the returned value measures the
    floating-point defect of the two evaluation routes.
    """
    x._check_same_dim(y)
    if min(spectral_bounds(x)[0], spectral_bounds(y)[0]) <= 0.0:
        raise ValueError("both operands must be positive definite")
    lhs = matrix_inverse(x + y)
    inv_x = matrix_inverse(x)
    inner = matrix_inverse(inv_x + matrix_inverse(y))
    prod = inv_x.entries @ inner.entries @ inv_x.entries
    rhs = inv_x.entries - 0.5 * (prod + prod.T)
    defect = np.linalg.norm(lhs.entries - rhs)
    return float(defect / max(frobenius_norm(lhs), 1e-300))
