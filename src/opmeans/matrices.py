"""Dense real symmetric matrices, a cyclic Jacobi eigensolver, eigenvalues of
stacks by LAPACK, and matrix files.

The carrier type is :class:`SymMatrix`, which can only be built through
symmetrizing constructors so its symmetry invariant holds exactly.  Its
eigendecomposition (jacobi_eigen, behind spectral_bounds, operator_norm and
matrix_inverse) is cached on the instance, which is safe because instances
are immutable.  The operator means are not spectral functions of one
matrix; means.py reads them off a congruence frame of the pair.

_eigh_stack rotates a batch-last (n, n, B) copy of a (B, n, n) stack by cyclic
Jacobi: there a row or a column of every matrix at once is n contiguous rows
of length B, so each numpy operation is arithmetic on long rows rather than B
strided gathers of length n, and its rotations, their order and their
floating-point expressions are those of a matrix-by-matrix solve.  It serves
SymMatrix alone.  LAPACK serves the verifier: _eigvals_stack, without
eigenvectors, the Loewner margins, the spectral bounds of a pair and the
frame's positivity screen; _eigvecs_stack the state-vector check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericalError",
    "ConvergenceError",
    "SingularMatrixError",
    "SymMatrix",
    "EigenDecomp",
    "jacobi_eigen",
    "matrix_inverse",
    "spectral_bounds",
    "operator_norm",
    "frobenius_norm",
    "load_matrix",
    "save_matrix",
]

MIN_DIM = 2
MAX_DIM = 64

# Sweep until the off-diagonal Frobenius norm falls below this times the
# input Frobenius norm; 30 sweeps is far beyond what n <= 64 ever needs.
_OFF_TOL = 1e-14
_MAX_SWEEPS = 30

# Inversion requires eigenvalues above 1e-12*||A||.
_INV_FLOOR_REL = 1e-12

_FILE_SYMMETRY_TOL = 1e-12


class NumericalError(Exception):
    """Base class for numerical failures (distinct from usage errors)."""


class ConvergenceError(NumericalError):
    """Eigensolver failed to converge within the sweep budget."""

    def __init__(self, message, residual):
        super().__init__(f"{message} (off-diagonal residual {residual:.3e})")
        self.residual = residual


class SingularMatrixError(NumericalError):
    """Inverse or negative power requested on a (near-)singular matrix."""


class SymMatrix:
    """Immutable dense real symmetric matrix, 2 <= n <= 64."""

    __slots__ = ("_entries", "_eigen")

    def __init__(self, entries):
        # Public constructor validates; use from_array for tolerance control.
        arr = np.asarray(entries, dtype=float)
        self._init_from(arr, check=True, tol=0.0)

    def _init_from(self, arr, check, tol):
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        n = arr.shape[0]
        if not MIN_DIM <= n <= MAX_DIM:
            raise ValueError(f"dimension must be in [{MIN_DIM}, {MAX_DIM}], got {n}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("entries must be finite")
        if check:
            scale = float(np.abs(arr).max())
            if float(np.abs(arr - arr.T).max()) > tol * scale:
                raise ValueError("matrix is not symmetric within tolerance")
        sym = 0.5 * (arr + arr.T)
        sym.setflags(write=False)
        self._entries = sym
        self._eigen = None

    @classmethod
    def from_array(cls, entries, tol=0.0):
        """Build from a near-symmetric array; asymmetry beyond tol*max|entry| is rejected."""
        obj = cls.__new__(cls)
        obj._init_from(np.asarray(entries, dtype=float), check=True, tol=tol)
        return obj

    @classmethod
    def _wrap(cls, arr):
        # Internal: arr is symmetric up to roundoff by construction.
        obj = cls.__new__(cls)
        obj._init_from(np.asarray(arr, dtype=float), check=False, tol=0.0)
        return obj

    @classmethod
    def identity(cls, n):
        return cls._wrap(np.eye(n))

    @classmethod
    def zeros(cls, n):
        return cls._wrap(np.zeros((n, n)))

    @classmethod
    def diagonal(cls, values):
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1:
            raise ValueError("diagonal expects a 1-d sequence")
        return cls._wrap(np.diag(vals))

    @property
    def n(self):
        return self._entries.shape[0]

    @property
    def entries(self):
        """Read-only (n, n) float array view."""
        return self._entries

    def __add__(self, other):
        if isinstance(other, SymMatrix):
            self._check_same_dim(other)
            return SymMatrix._wrap(self._entries + other._entries)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, SymMatrix):
            self._check_same_dim(other)
            return SymMatrix._wrap(self._entries - other._entries)
        return NotImplemented

    def __mul__(self, scale):
        if isinstance(scale, (int, float)):
            return SymMatrix._wrap(self._entries * float(scale))
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return SymMatrix._wrap(-self._entries)

    def _check_same_dim(self, other):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __repr__(self):
        return f"SymMatrix(n={self.n})"


@dataclass(frozen=True)
class EigenDecomp:
    """Orthogonal eigenvectors (columns of q) and ascending eigenvalues lam."""

    q: np.ndarray
    lam: np.ndarray


def _jacobi_rotate_batch(a, v, p, q):
    """One vectorized (p, q) rotation across a batch-last (n, n, B) stack;
    annihilates a[p, q].  Every slice it touches is a row of length B."""
    apq = a[p, q]
    mask = apq != 0.0
    if not mask.any():
        return
    delta = a[q, q] - a[p, p]
    # stable small-angle tangent: t solves apq*t^2 + delta*t - apq = 0,
    # written without overflow via the hypotenuse form
    sgn = np.where(delta >= 0.0, 1.0, -1.0)
    denom = np.hypot(2.0 * apq, delta) + np.abs(delta)
    t = np.where(mask, 2.0 * apq * sgn / np.where(mask, denom, 1.0), 0.0)
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c

    _rotate_rows(a[:, p], a[:, q], c, s)
    _rotate_rows(a[p], a[q], c, s)
    # the rotation is chosen to zero this entry; write the exact zero
    a[p, q] = 0.0
    a[q, p] = 0.0

    if v is not None:
        _rotate_rows(v[:, p], v[:, q], c, s)


def _rotate_rows(x_p, x_q, c, s):
    """(x_p, x_q) <- (c x_p - s x_q, s x_p + c x_q) in place, on two (n, B) views."""
    new_p = c * x_p
    new_p -= s * x_q
    # c x_q + s x_p is s x_p + c x_q bit for bit: IEEE + and * commute
    x_q *= c
    x_q += s * x_p
    x_p[...] = new_p


def _checked_stack(stack):
    """The (B, n, n) float array of a stack; NumericalError names the first
    matrix with a non-finite entry."""
    a = np.asarray(stack, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a (B, n, n) stack, got shape {a.shape}")
    finite = np.isfinite(a).all(axis=(1, 2))
    if not finite.all():
        raise NumericalError(
            f"non-finite entry in matrix {int(np.argmin(finite))} of a stack of {len(a)}"
        )
    return a


def _eigh_stack(stack, need_vectors=True, max_sweeps=_MAX_SWEEPS):
    """Cyclic Jacobi on a (B, n, n) stack of symmetric matrices.

    Returns (lam, q) with lam (B, n) ascending and q (B, n, n) orthogonal
    (q is None when need_vectors is False).  Raises NumericalError naming the
    first matrix with a non-finite entry, and ConvergenceError if any matrix
    in the stack fails to reach the off-diagonal tolerance.

    The rotations run on one batch-last (n, n, B) copy of the stack, where
    each numpy operation of a rotation streams over rows of length B instead
    of gathering B strided pieces of length n; lam and q are transposed back
    once at the end.  Norms and sweep residuals are summed in the order of
    the (B, n, n) layout, so sweep counts and results are bitwise those of
    rotating that layout in place.
    """
    a = _checked_stack(stack)
    batch, n, _ = a.shape
    fro = np.sqrt((a * a).sum(axis=(1, 2)))
    tol = _OFF_TOL * fro
    # the one copy; a view here would alias the caller's array when B = 1
    a = np.array(a.transpose(1, 2, 0), order="C")
    diag = np.arange(n)
    v = None
    if need_vectors:
        v = np.zeros_like(a)
        v[diag, diag] = 1.0

    iu = np.triu_indices(n, k=1)
    for sweep in range(max_sweeps + 1):
        # (B, K) contiguous, so each sum runs in the order of the (B, n, n) layout
        upper = a[iu].T.copy()
        off = np.sqrt(2.0 * (upper**2).sum(axis=1))
        if np.all(off <= tol):
            break
        if sweep == max_sweeps:
            worst = float((off / np.maximum(fro, 1e-300)).max())
            raise ConvergenceError(
                f"Jacobi sweeps exhausted after {max_sweeps} sweeps", worst
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                _jacobi_rotate_batch(a, v, p, q)

    lam = a[diag, diag].T
    order = np.argsort(lam, axis=1, kind="stable")
    lam = np.take_along_axis(lam, order, axis=1)
    if not need_vectors:
        return lam, None
    v = np.take_along_axis(v.transpose(2, 0, 1), order[:, None, :], axis=2)
    # deterministic sign: largest-magnitude component of each column positive
    lead = np.argmax(np.abs(v), axis=1)
    signs = np.sign(np.take_along_axis(v, lead[:, None, :], axis=1))[:, 0, :]
    signs = np.where(signs == 0.0, 1.0, signs)
    v = v * signs[:, None, :]
    return lam, v


def _eigvals_stack(stack):
    """Ascending eigenvalues (B, n) of a (B, n, n) stack by LAPACK
    (numpy.linalg.eigvalsh), without eigenvectors.  LAPACK reads only the lower
    triangle, so every matrix must be exactly symmetric; it solves the matrices
    one at a time, so each result is the same alone as in any stack.  Raises
    NumericalError naming the first matrix with a non-finite entry, or naming
    the stack size if LAPACK fails.
    """
    a = _checked_stack(stack)
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"eigenvalues failed ({err}) in a stack of {len(a)}") from err


def _eigvecs_stack(stack):
    """Ascending eigenvalues (B, n) and orthonormal eigenvectors (B, n, n, in
    columns) of a (B, n, n) symmetric stack by LAPACK (numpy.linalg.eigh),
    which reads only the lower triangle.  The signs of the eigenvectors are
    LAPACK's.  Raises NumericalError as _eigvals_stack does."""
    a = _checked_stack(stack)
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"eigenvectors failed ({err}) in a stack of {len(a)}") from err


def _eigvals_min_stack(stack):
    """Smallest eigenvalue of each matrix of a (B, n, n) symmetric stack."""
    return _eigvals_stack(stack)[:, 0]


def jacobi_eigen(a: SymMatrix, max_sweeps=_MAX_SWEEPS) -> EigenDecomp:
    """Eigendecomposition by cyclic Jacobi rotations; eigenvalues ascending.

    Deterministic for a given input; the result is cached on the matrix.
    """
    if not isinstance(a, SymMatrix):
        raise TypeError("jacobi_eigen expects a SymMatrix")
    if a._eigen is not None and max_sweeps == _MAX_SWEEPS:
        return a._eigen
    lam, v = _eigh_stack(a.entries[None, :, :], need_vectors=True, max_sweeps=max_sweeps)
    lam = lam[0]
    v = v[0]
    lam.setflags(write=False)
    v.setflags(write=False)
    decomp = EigenDecomp(q=v, lam=lam)
    if max_sweeps == _MAX_SWEEPS:
        a._eigen = decomp
    return decomp


def matrix_inverse(a: SymMatrix) -> SymMatrix:
    """q diag(1/lam) q^T; refuses a smallest eigenvalue below 1e-12 ||A|| or not positive."""
    decomp = jacobi_eigen(a)
    low = float(decomp.lam[0])
    floor = _INV_FLOOR_REL * float(np.abs(decomp.lam).max())
    if low < floor or low <= 0.0:
        raise SingularMatrixError(f"eigenvalue {low:.3e} below inversion floor {floor:.3e}")
    return SymMatrix._wrap((decomp.q / decomp.lam) @ decomp.q.T)


def spectral_bounds(a: SymMatrix):
    """(smallest, largest) eigenvalue."""
    lam = jacobi_eigen(a).lam
    return float(lam[0]), float(lam[-1])


def operator_norm(a: SymMatrix) -> float:
    lam = jacobi_eigen(a).lam
    return float(max(abs(lam[0]), abs(lam[-1])))


def frobenius_norm(a: SymMatrix) -> float:
    return float(np.sqrt((a.entries**2).sum()))


def save_matrix(a: SymMatrix, path) -> None:
    """Write {"n": ..., "entries": [row-major n*n floats]} as JSON."""
    doc = {"n": a.n, "entries": [float(x) for x in a.entries.ravel()]}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
        handle.write("\n")


def load_matrix(path) -> SymMatrix:
    """Read the JSON matrix document; validates shape and symmetry.

    Symmetry is checked with absolute tolerance 1e-12 * max|entry| and then
    enforced exactly by symmetrization.
    """
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ValueError("matrix file must be a JSON object with 'n' and 'entries'")
    if "n" not in doc or "entries" not in doc:
        raise ValueError("matrix file must contain fields 'n' and 'entries'")
    n = doc["n"]
    if type(n) is not int:  # not bool, an int subclass
        raise ValueError(f"field 'n' must be an integer, got {n!r}")
    if not MIN_DIM <= n <= MAX_DIM:
        raise ValueError(f"field 'n' must be in [{MIN_DIM}, {MAX_DIM}], got {n}")
    entries = doc["entries"]
    if not isinstance(entries, list) or len(entries) != n * n:
        raise ValueError(f"field 'entries' must hold exactly n*n = {n * n} numbers")
    # numpy would read true as 1 and "2" as 2
    if not all(type(x) in (int, float) for x in entries):
        raise ValueError("field 'entries' must hold numbers, not strings, booleans or null")
    try:
        arr = np.asarray(entries, dtype=float).reshape(n, n)
    except OverflowError as err:
        raise ValueError(f"field 'entries' holds a number beyond float range ({err})") from err
    return SymMatrix.from_array(arr, tol=_FILE_SYMMETRY_TOL)
