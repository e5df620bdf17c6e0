"""Dense real symmetric matrices, a cyclic Jacobi eigensolver, a smallest-
eigenvalue solver for stacks, and spectral matrix functions.

The carrier type is :class:`SymMatrix`, which can only be built through
symmetrizing constructors so its symmetry invariant holds exactly.  All
spectral operations on a SymMatrix (fractional powers, square root, inverse,
extremal eigenvalues, Loewner margins) go through the in-house Jacobi solver;
the decomposition of a matrix is cached on the instance, which is safe because
instances are immutable.

Both stack solvers work on a batch-last (n, n, B) copy of a (B, n, n) stack:
there a row or a column of every matrix at once is n contiguous rows of length
B, so each numpy operation is arithmetic on long rows rather than B strided
gathers of length n.  _eigh_stack rotates that copy by cyclic Jacobi; its
rotations, their order and their floating-point expressions are those of a
matrix-by-matrix solve.  It serves SymMatrix and the verifier's state-vector
check; the verifier's pair frame is an SVD (verify._diagonalize_pairs).
_eigvals_min_stack, which serves the Loewner margins and the spectral bounds
of the verifier, computes no eigenvectors and no other eigenvalue: it reduces
each matrix to a tridiagonal by Householder reflections and finds the
smallest eigenvalue by Laguerre's iteration on the pivots of the LDL^T
factorization, inside a bracket kept by their signs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericalError",
    "ConvergenceError",
    "NotPositiveSemidefiniteError",
    "SingularMatrixError",
    "SymMatrix",
    "EigenDecomp",
    "jacobi_eigen",
    "matrix_function",
    "matrix_power",
    "matrix_sqrt",
    "matrix_inverse",
    "loewner_margin",
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

# Smallest eigenvalues by Laguerre's iteration.  It converges cubically to a
# simple eigenvalue, a few steps from Gershgorin width to roundoff, but only
# linearly to a multiple one: at n = 64 by as little as a factor 0.78 per
# step (multiplicity 36), about 150 steps.  A bracket still open after 200
# steps is an error.
_LAGUERRE_MAX_STEPS = 200
# A Householder column whose squared norm is below this (on a stack scaled to
# max|entry| in [0.5, 1)) is taken as zero rather than reflected.
_NULL_COLUMN = 1e-200

# Eigenvalues in [-1e-10*||A||, 0) are roundoff negatives on numerically PSD
# input and are clamped to 0 for sqrt / fractional powers; inversion requires
# eigenvalues above 1e-12*||A||.
_PSD_CLAMP_REL = 1e-10
_INV_FLOOR_REL = 1e-12

_FILE_SYMMETRY_TOL = 1e-12


class NumericalError(Exception):
    """Base class for numerical failures (distinct from usage errors)."""


class ConvergenceError(NumericalError):
    """Eigensolver failed to converge within the sweep budget."""

    def __init__(self, message, residual):
        super().__init__(f"{message} (off-diagonal residual {residual:.3e})")
        self.residual = residual


class NotPositiveSemidefiniteError(NumericalError):
    """Fractional power or square root requested on an indefinite matrix."""


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


def sandwich(outer, inner):
    """Symmetrized congruence product outer @ inner @ outer of SymMatrix operands."""
    outer._check_same_dim(inner)
    prod = outer.entries @ inner.entries @ outer.entries
    return SymMatrix._wrap(0.5 * (prod + prod.T))


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


def _eigvals_min_stack(stack):
    """Smallest eigenvalue of each matrix of a (B, n, n) symmetric stack.

    Each matrix is scaled by a power of two (exactly) to max|entry| in
    [0.5, 1), reduced to a tridiagonal by Householder reflections (Golub & Van
    Loan, Matrix Computations, section 8.3), and its smallest eigenvalue
    found by Laguerre's iteration inside a Sturm-sequence bracket
    (_lowest_eigenvalues).  Like _eigh_stack it works on a batch-last
    (n, n, B) copy.  Every operation is elementwise across the stack and
    every sum runs in a fixed order, and a bracket stops moving once it has
    closed, so each result is bitwise the same alone as in any stack.  Raises
    NumericalError naming the first matrix with a non-finite entry, or if a
    bracket does not close within the step cap.
    """
    a = _checked_stack(stack)
    _, exponent = np.frexp(np.abs(a).max(axis=(1, 2)))
    d, e = _tridiagonal(np.ldexp(a.transpose(1, 2, 0), -exponent, order="C"))
    return np.ldexp(_lowest_eigenvalues(d, e), exponent)


def _sum_rows(x):
    """x[0] + x[1] + ... in that order, whatever the length of the rows."""
    total = x[0].copy()
    for row in x[1:]:
        total += row
    return total


def _tridiagonal(a):
    """Householder reduction of a batch-last (n, n, B) stack, overwritten, to
    the diagonal d (n, B) and off-diagonal e (n - 1, B) of a similar
    tridiagonal.

    H = I - beta v v^T maps the column x below the diagonal to alpha e_1.  The
    products with v are sums of rows in index order, never a matmul or a numpy
    reduction, whose summation order could depend on the size of the stack.
    """
    n = len(a)
    e = np.zeros((n - 1, a.shape[-1]))
    for k in range(n - 2):
        x = a[k + 1:, k]
        norm2 = _sum_rows(x * x)
        norm = np.sqrt(norm2)
        alpha = np.where(x[0] > 0.0, -norm, norm)
        v = x.copy()
        v[0] -= alpha
        # beta = 2 / v.v = 1 / (|x|^2 + |x| |x_0|)
        gap = norm2 + norm * np.abs(x[0])
        beta = np.where(norm2 > _NULL_COLUMN, 1.0 / np.maximum(gap, _NULL_COLUMN), 0.0)
        sub = a[k + 1:, k + 1:]
        p = beta * _sum_rows(sub * v[:, None])
        w = p - (0.5 * beta * _sum_rows(p * v)) * v
        sub -= v[:, None] * w + w[:, None] * v
        e[k] = alpha
    if n > 1:
        e[-1] = a[-1, -2]
    diag = np.arange(n)
    return a[diag, diag], e


def _lowest_eigenvalues(d, e):
    """Smallest eigenvalue of each tridiagonal with diagonal d (n, B) and
    off-diagonal e (n - 1, B), by Laguerre's iteration on the characteristic
    polynomial p (Li & Zeng, SIAM J. Sci. Comput. 15, 1994).

    The bracket [lo, hi] starts at [Gershgorin lower bound, min d] and x at
    its lower end.  Each step evaluates _laguerre_sums at x: a negative pivot
    makes x the new hi, none makes it the new lo.  From a lower end the
    Laguerre point to the right is taken, from an upper end the one to the
    left; in exact arithmetic either lies between x and the smallest
    eigenvalue, and it is the current estimate.  The next x is the estimate
    moved at least tol inside the bracket (the midpoint once the bracket is
    narrower than 2 tol), so once the estimate has reached the eigenvalue the
    next step is the probe that closes the bracket.  An estimate that is not
    finite (x on an eigenvalue of a leading block: a pivot is 0 and the next
    -inf) is replaced by x, which makes it that probe as well.  The bracket
    closes at width tol = 2 eps (max|d| + 2 max|e|), and the result is the
    last estimate, held inside it.  A closed bracket is frozen, so the other
    matrices of the stack never move it.
    """
    n = len(d)
    size = np.abs(e)
    radius = np.zeros_like(d)
    radius[:-1] += size
    radius[1:] += size
    lo = (d - radius).min(axis=0)
    hi = d.min(axis=0)
    tol = 2.0 * np.finfo(float).eps * (
        np.abs(d).max(axis=0) + 2.0 * size.max(axis=0, initial=0.0)
    )
    # e^2 raised off zero: a zero pivot then gives an infinite one, never 0/0
    e2 = np.maximum(e * e, np.finfo(float).tiny)
    x = lo
    guess = 0.5 * (lo + hi)
    lam = np.empty(d.shape[-1])
    index = np.arange(d.shape[-1])
    for step in range(_LAGUERRE_MAX_STEPS + 1):
        open_ = hi - lo > tol
        if not open_.all():
            lam[index[~open_]] = np.minimum(np.maximum(guess, lo), hi)[~open_]
            index, lo, hi, tol, x, guess, d, e2 = (
                v[..., open_] for v in (index, lo, hi, tol, x, guess, d, e2)
            )
        if not index.size:
            return lam
        if step == _LAGUERRE_MAX_STEPS:
            raise NumericalError(
                f"Laguerre iteration left matrix {int(index[0])} of a stack of "
                f"{len(lam)} unresolved after {_LAGUERRE_MAX_STEPS} steps"
            )
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            below, g, h = _laguerre_sums(d, e2, x)
            lo = np.where(below, lo, x)
            hi = np.where(below, x, hi)
            root = np.sqrt(np.maximum((n - 1) * (n * h - g * g), 0.0))
            guess = x - n / np.where(below, g + root, g - root)
        guess = np.where(np.isfinite(guess), guess, x)
        x = np.where(
            hi - lo > 2.0 * tol,
            np.minimum(np.maximum(guess, lo + tol), hi - tol),
            0.5 * (lo + hi),
        )


def _laguerre_sums(d, e2, x):
    """Pivots of the LDL^T factorization of T - x I for the tridiagonals with
    diagonal d (n, A) and squared off-diagonal e2 (n - 1, A), at x (A,).

    Returns whether some pivot q_i is negative (an eigenvalue lies below x)
    and, with p(x) = det(T - x I) = prod q_i, the sums G = p'/p = sum q_i'/q_i
    and H = G^2 - p''/p = sum ((q_i'/q_i)^2 - q_i''/q_i).  The derivatives
    run as the ratios a_i = q_i'/q_i and b_i = q_i''/q_i: with r = e2 / q,
    q_i' = r a - 1 and q_i'' = r (b - 2 a^2).
    """
    q = d[0] - x
    a = -1.0 / q
    b = np.zeros_like(q)
    a2 = a * a
    g = a
    h = a2
    low = q
    for i in range(1, len(d)):
        r = e2[i - 1] / q
        q = (d[i] - x) - r
        low = np.minimum(low, q)
        b = r * (b - 2.0 * a2) / q
        a = (r * a - 1.0) / q
        a2 = a * a
        g = g + a
        h = h + (a2 - b)
    return low < 0.0, g, h


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


def _is_integer(p):
    return float(p).is_integer()


def _apply_spectral(lam, fn_tag, norm):
    """Map eigenvalues through the tagged scalar function, enforcing domains."""
    if fn_tag == "sqrt":
        fn_tag = ("power", 0.5)
    if fn_tag == "inverse":
        fn_tag = ("power", -1.0)
    kind, p = fn_tag
    if kind != "power":
        raise ValueError(f"unknown matrix function tag {fn_tag!r}")
    p = float(p)
    lam = lam.copy()
    if p < 0.0:
        floor = _INV_FLOOR_REL * norm
        if lam.min() < floor or lam.min() <= 0.0:
            raise SingularMatrixError(
                f"eigenvalue {lam.min():.3e} below inversion floor {floor:.3e}"
            )
    elif not _is_integer(p):
        clamp = _PSD_CLAMP_REL * norm
        if lam.min() < -clamp:
            raise NotPositiveSemidefiniteError(
                f"eigenvalue {lam.min():.3e} below -{clamp:.3e}; "
                "matrix is not positive semidefinite"
            )
        lam[lam < 0.0] = 0.0
    with np.errstate(divide="raise"):
        return np.power(lam, p)


def matrix_function(a: SymMatrix, fn) -> SymMatrix:
    """Spectral function q * fn(lam) * q^T of a symmetric matrix.

    ``fn`` is ``"sqrt"``, ``"inverse"``, or ``("power", p)``.  Tiny negative
    eigenvalues (roundoff on PSD input) are clamped to zero for non-integer
    powers; inversion refuses eigenvalues below a floor relative to the
    operator norm.
    """
    decomp = jacobi_eigen(a)
    norm = float(np.abs(decomp.lam).max())
    flam = _apply_spectral(decomp.lam, fn, norm)
    out = (decomp.q * flam) @ decomp.q.T
    return SymMatrix._wrap(0.5 * (out + out.T))


def matrix_power(a: SymMatrix, p) -> SymMatrix:
    return matrix_function(a, ("power", p))


def matrix_sqrt(a: SymMatrix) -> SymMatrix:
    return matrix_function(a, "sqrt")


def matrix_inverse(a: SymMatrix) -> SymMatrix:
    return matrix_function(a, "inverse")


def loewner_margin(a: SymMatrix, b: SymMatrix) -> float:
    """Smallest eigenvalue of a - b; nonnegative exactly when a >= b in Loewner order."""
    a._check_same_dim(b)
    diff = a - b
    return float(jacobi_eigen(diff).lam[0])


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
    if not isinstance(n, int):
        raise ValueError(f"field 'n' must be an integer, got {n!r}")
    entries = doc["entries"]
    if not isinstance(entries, list) or len(entries) != n * n:
        raise ValueError(f"field 'entries' must hold exactly n*n = {n * n} numbers")
    arr = np.asarray(entries, dtype=float).reshape(n, n)
    return SymMatrix.from_array(arr, tol=_FILE_SYMMETRY_TOL)
