"""Seeded random instance generation and Loewner-margin checks for the
operator-level inequalities.

Five checks are implemented:

* ``refined_chain``      -- the four-link ordering chain
  AM >= GM + 2r*bridge >= GM >= refined-harmonic route >= HM,
  plus the plain AM >= GM margin checked independently;
* ``reverse_ratio``      -- S(sqrt(h)) GM >= AM - 2r*bridge;
* ``reverse_difference`` -- h sqrt(M) L(sqrt(M), sqrt(m)) ln S(sqrt(h)) I
  bounds AM - GM - 2r*bridge, plus the tighter per-instance constant
  sqrt(h) L(sqrt(h), 1) ln S(sqrt(h)) ||A||;
* ``baseline_reverses``  -- S(h) GM >= AM and h L(m, M) ln S(h) I + GM >= AM;
* ``holder_mccarthy``    -- the vector-state margins
  1 - <x|A|x>^(-nu) <x|A^nu|x> >= r (1 - <x|A|x>^(-1/2) <x|A^(1/2)|x>)^2
  and <x|A|x>^nu >= <x|A^nu|x>.

Reproducibility: instance k of check c draws from a fresh generator seeded
with SeedSequence([seed, CHECK_IDS[c], k]), so results never depend on
evaluation order.  A chunk draws instance by instance and then runs the QR
and the reconstruction once on the stacked draws.

Every margin is computed by one batched kernel per kind of check: the pair
kernel _pair_margins over a (P, n, n) pair stack and a (P, J) weight table,
and the state-vector kernel _hm_margins.  run_suite feeds them generated
chunks, run_pair one user-supplied pair over its whole augmented grid, and
the per-instance check_* functions one instance at one weight.  Independent
references live in the tests.

The pair kernel reads its means off the congruence frame of means.py, one
per chunk, through the stack functions that the public means view at one
pair and one weight; only the refined harmonic route
W diag(t / (t^(1-nu) + r (sqrt(t) - 1)^2)) W^T is the verifier's own.  A pair
the frame cannot certify positive definite or factor, or a margin that is not
finite, raises NumericalError naming the check and the instance; a failed SVD
names the check, a failed margin eigensolve its stack size.

Each pair margin is a row of _PAIR_MARGINS: the smallest eigenvalue of a
margin matrix, or a constant minus its largest, and the matrix is one list
of signed terms whose frame diagonal d and coefficient of I (the shift) give
it in its frame form W diag(d) W^T + shift I.  The kernel brackets every
margin from d and solves, by matrices._eigvals_stack (LAPACK, no
eigenvectors, lower triangle only; each frame form is symmetrized, so it is
exactly symmetric), only those that can be their check's worst or a
violation: a report entry is the worst over all of a check's names, so a
margin above a sibling name's upper bound is never read.  A row whose d is
exactly 0 is exactly shift I and needs no eigensolve.  The kernel solves in
two rounds.  The first solves one anchor weight per margin matrix and
instance; by Weyl's theorem the anchor's eigenvalues then bound the matrix
at every other weight of the instance, within the frame bracket of the
difference of the two frame diagonals, and the second round solves only the
margins that these tighter bounds leave undecided.  Elsewhere a margin array
holds a certified lower bound, so the worst margin, its instance and the
violation count are those of solving them all.  The check_* functions report
every name's margin and screen each name against its own worst, so they
solve their one matrix per name in the first round, unless its d is 0.  The
state-vector margins need one LAPACK eigendecomposition per chunk
(matrices._eigvecs_stack).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .matrices import (
    NumericalError,
    SingularMatrixError,
    SymMatrix,
    _eigvals_min_stack,
    _eigvals_stack,
    _eigvecs_stack,
    MIN_DIM,
    MAX_DIM,
)
from .means import (
    SpdPair,
    _bridge,
    _diagonalize_pairs,
    _geometric_stacks,
    _harmonic_diag,
    _pair_frame,
    _recon,
    _require_nu,
    _sym,
)
from .scalar import critical_nu_diff, critical_nu_ratio, log_mean, specht_ratio

# Nothing here calls these; opbench's tracer wraps them here, and
# tests/test_benchmark_contract.py needs the metric verify.inverse_s that
# _inverse4 feeds.  The benchmark's re-base (ROADMAP.md item 9) drops both.
from .matrices import _eigh_stack
from .means import _inverse4

__all__ = [
    "CHECK_NAMES",
    "SuiteConfig",
    "UnitVector",
    "CheckResult",
    "CheckAggregate",
    "SuiteReport",
    "gen_spd_pair",
    "gen_unit_vector",
    "check_refined_chain",
    "check_reverse_ratio",
    "check_reverse_difference",
    "check_baseline_reverses",
    "check_hm_refined",
    "run_suite",
    "run_pair",
]

CHECK_IDS = {
    "refined_chain": 1,
    "reverse_ratio": 2,
    "reverse_difference": 3,
    "baseline_reverses": 4,
    "holder_mccarthy": 5,
}
CHECK_NAMES = tuple(CHECK_IDS)

# The margins of the pair checks: per check, rows (name, matrix, c).  A
# matrix is a tuple of signed terms (sign, coefficient, operand) whose frame
# diagonals are summed in their order (which fixes its last bits), and its
# margin is lambda_min, or c - lambda_max where a constant c is named.  The
# operands are the means am, gm and hm, the refined harmonic route rhm, the
# bridge (A+B)/2 - A #_(1/2) B and I, whose coefficient is the shift of the
# frame form; _pair_margins defines the coefficients and constants.
_AM_GM_BRIDGE = (("+", None, "am"), ("-", None, "gm"), ("-", "two_r", "bridge"))
_PAIR_MARGINS = {
    "refined_chain": (
        ("am_vs_refined_gm", _AM_GM_BRIDGE, None),
        ("refined_gm_vs_gm", (("+", "two_r", "bridge"),), None),
        ("gm_vs_refined_hm", (("+", None, "gm"), ("-", None, "rhm")), None),
        ("refined_hm_vs_hm", (("+", None, "rhm"), ("-", None, "hm")), None),
        ("am_vs_gm", (("+", None, "am"), ("-", None, "gm")), None),
    ),
    "reverse_ratio": (
        ("reverse_ratio", (("+", "two_r", "bridge"), ("-", None, "am"), ("+", "s_root", "gm")), None),
    ),
    "reverse_difference": (
        ("reverse_difference", _AM_GM_BRIDGE, "c_global"),
        ("reverse_difference_tight", _AM_GM_BRIDGE, "c_tight"),
    ),
    "baseline_reverses": (
        ("baseline_ratio", (("+", "s_full", "gm"), ("-", None, "am")), None),
        ("baseline_difference", (("+", "c_diff", "I"), ("+", None, "gm"), ("-", None, "am")), None),
    ),
}
PAIR_CHECK_NAMES = tuple(_PAIR_MARGINS)

DEFAULT_REL_TOL = 1e-8
# The state-vector margins are scale-free quantities, so they carry their own
# absolute tolerance instead of the rel_tol * operator-norm rule.
HM_ABS_TOL = 1e-10

DEFAULT_NU_GRID = tuple(i / 20 for i in range(21))

_CHUNK = 64


def _validate_weights(nu_grid, rel_tol):
    """The weight-grid and tolerance rules shared by suite and pair runs."""
    for nu in nu_grid:
        if not 0.0 <= nu <= 1.0:
            raise ValueError(f"nu_grid entries must lie in [0, 1], got {nu}")
    if not nu_grid:
        raise ValueError("nu_grid must be nonempty")
    if not rel_tol > 0.0:
        raise ValueError(f"rel_tol must be positive, got {rel_tol}")
    if not math.isfinite(rel_tol):
        raise ValueError(f"rel_tol must be finite, got {rel_tol}")


@dataclass(frozen=True)
class SuiteConfig:
    """Configuration of a verification run."""

    seed: int = 0
    trials: int = 1000
    dims: tuple = (2, 3, 4, 8)
    m: float = 1.0
    big_m: float = 10.0
    nu_grid: tuple = DEFAULT_NU_GRID
    rel_tol: float = DEFAULT_REL_TOL
    checks: tuple = CHECK_NAMES

    def validate(self):
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not self.dims:
            raise ValueError("dims must be a nonempty list of dimensions")
        for d in self.dims:
            if not MIN_DIM <= d <= MAX_DIM:
                raise ValueError(f"dims entries must be in [{MIN_DIM}, {MAX_DIM}], got {d}")
        if not 0.0 < self.m < self.big_m:
            raise ValueError(f"spectrum bounds must satisfy 0 < m < M, got m={self.m}, M={self.big_m}")
        if not math.isfinite(self.big_m):
            raise ValueError(f"spectrum bounds must be finite, got M={self.big_m}")
        _validate_weights(self.nu_grid, self.rel_tol)
        for name in self.checks:
            if name not in CHECK_IDS:
                raise ValueError(f"unknown check {name!r}; known: {sorted(CHECK_IDS)}")
        return self


@dataclass(frozen=True)
class UnitVector:
    """Real vector of Euclidean norm 1 (within 1e-12)."""

    coords: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coords, dtype=float)
        if arr.ndim != 1:
            raise ValueError("coords must be a 1-d sequence")
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"vector norm must be 1 within 1e-12, got {norm!r}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)

    @property
    def n(self):
        return self.coords.shape[0]


@dataclass(frozen=True)
class CheckResult:
    """Named margins of one check at one (instance, nu) with its pass rule."""

    check: str
    dim: int
    nu: float
    margins: dict
    scale: float
    tol: float
    passed: bool
    seed: int | None = None
    index: int | None = None


@dataclass(frozen=True)
class CheckAggregate:
    """Per-check summary over a whole suite run."""

    name: str
    worst_margin: float
    worst_instance: dict
    violations: int
    results: int

    def to_json_dict(self):
        return {
            "name": self.name,
            "worst_margin": self.worst_margin,
            "worst_instance": dict(self.worst_instance),
            "violations": self.violations,
        }


@dataclass(frozen=True)
class SuiteReport:
    config: SuiteConfig
    checks: tuple
    runtime_seconds: float
    errors: tuple = field(default_factory=tuple)

    @property
    def passed(self):
        return not self.errors and all(c.violations == 0 for c in self.checks)

    def to_json_dict(self):
        """Pinned report schema; runtime_seconds is the only volatile field."""
        doc = {
            "tool_version": __version__,
            "config": {
                "seed": self.config.seed,
                "trials": self.config.trials,
                "dims": list(self.config.dims),
                "m": self.config.m,
                "M": self.config.big_m,
                "nu_grid": list(self.config.nu_grid),
                "rel_tol": self.config.rel_tol,
                "checks": list(self.config.checks),
            },
            "checks": [c.to_json_dict() for c in self.checks],
            "runtime_seconds": self.runtime_seconds,
        }
        if self.errors:
            doc["errors"] = [dict(e) for e in self.errors]
        return doc


# ---------------------------------------------------------------------------
# Instance generation
# ---------------------------------------------------------------------------

def _rng_for(seed, check, index):
    return np.random.default_rng(np.random.SeedSequence([seed, CHECK_IDS[check], index]))


def _draw_spd(rng, dim, m, big_m):
    """The draws of one random SPD matrix, in stream order: the interior
    eigenvalues, uniform in [m, M], then the Gaussian of its orthogonal factor."""
    return rng.uniform(m, big_m, size=dim - 2), rng.standard_normal((dim, dim))


def _spd_from_draws(interior, gauss, m, big_m):
    """SPD matrices from stacked draws: interior (..., n-2), gauss (..., n, n).

    One eigenvalue is pinned to each endpoint so the certified condition ratio
    is tight.  The orthogonal factor is the Q of gauss = QR with the signs of
    diag(R) moved into Q.
    """
    q, r = np.linalg.qr(gauss)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs = np.where(signs == 0.0, 1.0, signs)
    q = q * signs[..., None, :]
    ends = np.broadcast_to([m, big_m], interior.shape[:-1] + (2,))
    eigvals = np.concatenate((ends, interior), axis=-1)
    mat = (q * eigvals[..., None, :]) @ np.swapaxes(q, -1, -2)
    return 0.5 * (mat + np.swapaxes(mat, -1, -2))


def _random_spd_array(dim, m, big_m, rng):
    return _spd_from_draws(*_draw_spd(rng, dim, m, big_m), m, big_m)


def gen_spd_pair(dim, m, big_m, rng) -> SpdPair:
    """Random SPD pair with spectra in [m, M], endpoints attained.

    Draw order per matrix: interior eigenvalues, then the orthogonal factor;
    A is drawn before B.  Bounds are certified from the computed spectra.
    """
    if not 0.0 < m < big_m:
        raise ValueError(f"need 0 < m < M, got m={m}, M={big_m}")
    if not MIN_DIM <= dim <= MAX_DIM:
        raise ValueError(f"dim must be in [{MIN_DIM}, {MAX_DIM}], got {dim}")
    a = SymMatrix._wrap(_random_spd_array(dim, m, big_m, rng))
    b = SymMatrix._wrap(_random_spd_array(dim, m, big_m, rng))
    return SpdPair.from_matrices(a, b)


def _draw_unit(dim, rng):
    """The coordinates of gen_unit_vector: a Gaussian draw, redrawn while its
    norm is below 1e-8, divided by its norm."""
    v = rng.standard_normal(dim)
    norm = np.linalg.norm(v)
    while norm < 1e-8:
        v = rng.standard_normal(dim)
        norm = np.linalg.norm(v)
    return v / norm


def gen_unit_vector(dim, rng) -> UnitVector:
    return UnitVector(_draw_unit(dim, rng))


def _nu_table(base, h):
    """(P, J) weight table: the base grid plus the two critical weights of each
    condition ratio in h, clamped to [0, 1]; h = 1 gives (1/2, 1/2)."""
    h = np.asarray(h, dtype=float)
    one = h == 1.0
    b = np.where(one, 2.0, h)
    table = np.empty((len(h), len(base) + 2))
    table[:, :-2] = base
    table[:, -2] = critical_nu_ratio(b)
    table[:, -1] = critical_nu_diff(b)
    extra = table[:, -2:]
    np.minimum(np.maximum(extra, 0.0, out=extra), 1.0, out=extra)
    extra[one] = 0.5
    return table


# ---------------------------------------------------------------------------
# Batched margin kernels
# ---------------------------------------------------------------------------

def _require_finite(check, margins, nus, label):
    """Raise NumericalError naming the first instance with a non-finite margin."""
    for name, values in margins.items():
        bad = ~np.isfinite(values)
        if bad.any():
            p, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
            raise NumericalError(
                f"non-finite margin {name} in check {check} instance ({label(p)}, nu={nus[p, j]})"
            )


class _Accumulator:
    def __init__(self, name):
        self.name = name
        self.worst = np.inf
        self.worst_instance = {"seed": None, "index": None, "dim": None, "nu": None}
        self.violations = 0
        self.results = 0

    def update(self, seed, indices, dim, nus, margins, tols):
        """margins: dict name -> (P, J); nus, tols broadcastable to (P, J)."""
        names = list(margins)
        stack = np.stack([margins[name] for name in names])  # (K, P, J)
        per_result_min = stack.min(axis=0)
        self.violations += int((per_result_min < -tols).sum())
        self.results += per_result_min.size
        flat = int(np.argmin(stack))
        k, p, j = np.unravel_index(flat, stack.shape)
        value = float(stack[k, p, j])
        if value < self.worst:
            self.worst = value
            self.worst_instance = {
                "seed": seed,
                "index": int(indices[p]),
                "dim": int(dim),
                "nu": float(nus[p, j]),
            }

    def finish(self):
        return CheckAggregate(
            name=self.name,
            worst_margin=float(self.worst),
            worst_instance=self.worst_instance,
            violations=self.violations,
            results=self.results,
        )


# The screen's slack per unit of dimension.  It widens the frame spectra by
# the residuals that _diagonalize_pairs is held to (A = W W^T within
# 8 n eps ||A||, B = W diag(t) W^T within 8 n eps sqrt(h) ||B||), and by
# Weyl's theorem the margin bounds by 8 n eps (||A|| max |d| + |shift|), which
# covers the roundoff of forming W diag(d) W^T, LAPACK's backward error and
# the rounding of the shift added to its eigenvalues; tests/test_verify.py
# checks that every solved margin stays inside the widened bounds of both
# rounds of the screen from h = 10 to 1e10.
_SCREEN_SLACK = 8.0 * np.finfo(float).eps


def _eig_bracket(d, t, low, top):
    """Bounds (lo, hi), each (2, K, P, J), on the smallest ([0]) and the
    largest ([1]) eigenvalue of W diag(d) W^T for K stacks of frame diagonals
    d (K, n, P, J), with the index of the diagonal before the table so that
    its extremes are elementwise extremes of n arrays; t is (n, P, 1).

    By Ostrowski's theorem (Horn and Johnson, Matrix Analysis, Thm 4.5.9)
    the eigenvalues are theta * min d and theta' * max d for some theta,
    theta' in the spectrum of W W^T = A, and likewise with d/t in that of
    W diag(t) W^T = B; low and top (2, P) enclose the spectra of A and of B.
    A NaN in d makes its bounds NaN.
    """
    q = np.empty((2,) + d.shape)
    q[0] = d
    np.divide(d, t, out=q[1])
    # axis 0: smallest or largest; axis 1: the frame of A or of B
    ext = np.empty((2,) + q.shape[:2] + q.shape[3:])
    np.minimum.reduce(q, axis=2, out=ext[0])
    np.maximum.reduce(q, axis=2, out=ext[1])
    at_low = low[:, None, :, None] * ext
    at_top = top[:, None, :, None] * ext
    return (np.maximum.reduce(np.minimum(at_low, at_top), axis=1),
            np.minimum.reduce(np.maximum(at_low, at_top), axis=1))


def _candidates(lo, hi, tols, group):
    """Mask (N, P, J) of the margins, bounded by lo and hi (N, P, J) for N
    names in the groups group (N,), that can be their group's worst over the
    (P, J) table or a violation of tols (P, 1): those whose lower bound is not
    above both the smallest upper bound of any name in their group and -tol.
    A NaN bound makes a candidate of every margin in its group."""
    least = np.minimum.reduce(hi.reshape(len(hi), -1), axis=1)
    least = np.where(group[:, None] == group, least, np.inf).min(axis=1)
    return ~(lo > np.maximum(least[:, None, None], -tols))


def _screen(d, shift, margins, frame, t, tols, solve):
    """N eigenvalue margins (N, P, J) of K margin matrices: solved where they
    can be their group's worst or a violation, a certified lower bound
    elsewhere.

    Matrix k is W diag(d[k]) W^T + shift[k] I up to roundoff, with d
    (K, n, P, J) and shift (K, P, J).  margins holds (k, c, g) per margin:
    lambda_min of matrix k, or c (P, 1) - lambda_max when c is given,
    screened against the worst of the margins that share its group g.  t is
    (n, P, 1) and tols (P, 1).  solve(need, lam) writes lambda_min and
    lambda_max of matrix k on each table row where need[k] (P * J) holds
    into lam[:, k] (2, K, P * J).

    The bounds of _eig_bracket are widened by the slack
    8 n eps (||A|| max_i |d_i| + |shift|), and by 8 n eps |c| for
    c - lambda_max, and the margins that are _candidates are solved in two
    rounds.  Round 1 solves one anchor weight a per matrix and instance
    among them: the one with the largest upper bound of lambda_max where a
    margin reads c - lambda_max of the matrix, else the one with the smallest
    lower bound of lambda_min.  By Weyl's theorem (Horn and Johnson, Matrix
    Analysis, Thm 4.3.1) every eigenvalue of matrix k at weight j lies then
    within the _eig_bracket of W diag(d_j - d_a) W^T plus shift_j - shift_a,
    widened by both slacks, of the anchor's.  On round 1's candidates that
    bracket is intersected with the first, an anchor's margins are exact,
    and round 2 solves those that are still candidates.  A NaN anchor makes
    NaN bounds, so its whole row stays a candidate.
    """
    k_count, _, p_count, j_count = d.shape
    unit = _SCREEN_SLACK * len(t)
    h = frame["scale"] / frame["m_hat"]
    widen = unit * frame["top"]
    widen[1] *= np.sqrt(h)
    low, top = frame["low"] - widen, frame["top"] + widen
    lo, hi = _eig_bracket(d, t, low, top)
    slack = unit * (frame["top_a"][:, None] * np.abs(d).max(axis=1) + np.abs(shift))
    lo = lo - slack + shift
    hi = hi + slack + shift
    name_k = np.array([k for k, _, _ in margins])
    largest = np.array([int(c is not None) for _, c, _ in margins])
    groups = [g for _, _, g in margins]
    group = np.array([groups.index(g) for g in groups])
    # the margins c - lambda_max, and their constants (C, P, 1)
    by_c = [i for i, (_, c, _) in enumerate(margins) if c is not None]
    const = np.stack([margins[i][1] for i in by_c]) if by_c else None
    pad = unit * np.abs(const) if by_c else None

    def name_bounds(lo, hi):
        name_lo, name_hi = lo[largest, name_k], hi[largest, name_k]
        if by_c:
            name_lo[by_c], name_hi[by_c] = const - name_hi[by_c] - pad, const - name_lo[by_c] + pad
        return name_lo, name_hi

    def needed(cand):
        need = np.zeros((k_count, p_count, j_count), dtype=bool)
        np.logical_or.at(need, name_k, cand)
        return need

    def solved_margins():
        value = lam_table[largest, name_k]
        if by_c:
            value[by_c] = const - value[by_c]
        return value

    name_lo, name_hi = name_bounds(lo, hi)
    cand = _candidates(name_lo, name_hi, tols, group)
    need = needed(cand)
    # round 1: the anchor weight of each matrix and instance, (K, P)
    top_side = np.zeros((k_count, 1, 1), dtype=bool)
    top_side[name_k[by_c]] = True
    anchor = np.where(need, np.where(top_side, hi[1], -lo[0]), -np.inf).argmax(axis=2)
    solved = np.zeros_like(need)
    solved[np.arange(k_count)[:, None], np.arange(p_count), anchor] = need.any(axis=2)
    lam = np.zeros((2, k_count, p_count * j_count))
    lam_table = lam.reshape(2, k_count, p_count, j_count)
    solve(solved.reshape(k_count, -1), lam)
    value = solved_margins()
    k, p, j = np.nonzero(need & ~solved)
    if len(k):
        # round 2 on the other candidates: by Weyl, each eigenvalue differs
        # from the anchor's by lambda_min to lambda_max of the difference
        a = anchor[k, p]
        step = (d[k, :, p, j] - d[k, :, p, a]).T[None, :, :, None]  # (1, n, M, 1)
        w_lo, w_hi = _eig_bracket(step, t[:, p], low[:, p], top[:, p])
        move = lam_table[:, k, p, a] + (shift[k, p, j] - shift[k, p, a])
        both = slack[k, p, j] + slack[k, p, a]
        lo[:, k, p, j] = np.maximum(lo[:, k, p, j], move + (w_lo[0, 0, :, 0] - both))
        hi[:, k, p, j] = np.minimum(hi[:, k, p, j], move + (w_hi[1, 0, :, 0] + both))
        name_lo, name_hi = name_bounds(lo, hi)
        exact = solved[name_k]
        name_lo = np.where(exact, value, name_lo)
        cand &= _candidates(name_lo, np.where(exact, value, name_hi), tols, group)
        rest = needed(cand) & ~solved
        if rest.any():
            solve(rest.reshape(k_count, -1), lam)
            value = solved_margins()
            solved |= rest
    return np.where(solved[name_k], value, name_lo)


def _sum_terms(terms, operand, coefficient):
    """The sum of a margin matrix's terms (sign, coefficient, operand) in
    their order, each coefficient(name) * operand(op), or operand(op) where
    it names no coefficient.  A term whose operand(op) is None adds nothing;
    0.0 if no term adds."""
    total = None
    for sign, name, op in terms:
        x = operand(op)
        if x is not None:
            x = x if name is None else coefficient(name) * x
            minus = sign == "-"
            total = (-x if minus else x) if total is None else (total - x if minus else total + x)
    return 0.0 if total is None else total


def _lazy(makers):
    """A getter of makers' values (name -> function of no argument), each made when first asked for."""
    made = {}
    return lambda name: made[name] if name in made else made.setdefault(name, makers[name]())


def _pair_margins(checks, frame, m, big_m, nus, rel_tol, label, by_name=False):
    """Margins (name -> (P, J)) and tolerances (P, 1) of each pair check in
    checks, as a dict check -> (margins, tols).

    frame is a pair stack from _diagonalize_pairs and nus the (P, J) weight
    table; m and big_m (P,) are the spectral bounds that set h and the reverse
    constants.  The tolerance is rel_tol times the larger operator norm of A
    and B.  label(p) names instance p in error messages; a non-finite margin
    raises NumericalError.  The refined HM's diagonal is 1 / (t^-nu +
    r (1 - t^-1/2)^2) multiplied through by t/t: its denominator is at least
    t^(1-nu) > 0, so, like every operand's, it is defined for every t > 0.

    The margins are the checks' rows of _PAIR_MARGINS.  _sum_terms sums a
    matrix's one term list over its operands' frame diagonals (d) and over
    the coefficient of I (the shift).  _screen bounds each margin from d and
    solves those that can be their check's worst over the table (the worst
    over all of its names) or a violation, in two rounds: the anchor
    weights, then what the Weyl bounds from the anchors leave.  Each round
    forms W diag(d) W^T on the rows it solves in one batched product, solves
    them in one _eigvals_stack call and adds the shift to their eigenvalues;
    a row whose d is exactly 0 is reported as its shift without an
    eigensolve, and a round with no other row makes no call.  A matrix that
    two checks share is kept where either needs it.  Every other margin is
    reported as its lower bound, above its check's worst and above -tol, so
    the worst margin, its instance and the violation count are those of
    solving all.  With by_name, each margin is screened against its own
    name's worst instead, so that at one (instance, nu) every margin is
    solved.
    """
    w, t = frame["w"], frame["t"]
    p_count, j_count = nus.shape
    r = np.minimum(nus, 1.0 - nus)
    # the per-pair values as (P, 1) columns of the table
    m, big_m, top_a = m[:, None], big_m[:, None], frame["top_a"][:, None]
    h = big_m / m
    tols = rel_tol * frame["scale"][:, None]
    t_i = t.T[:, :, None]  # (n, P, 1), with the index i of the frame diagonals first

    # the coefficients and constants, (P, 1) or (P, J), and each operand's
    # frame diagonal, (n, P, J); I has none
    value = _lazy({
        "two_r": lambda: 2.0 * r,
        "s_root": lambda: specht_ratio(np.sqrt(h)),
        "s_full": lambda: specht_ratio(h),
        "c_global": lambda: h * np.sqrt(big_m) * log_mean(np.sqrt(big_m), np.sqrt(m)) * np.log(value("s_root")),
        "c_tight": lambda: np.sqrt(h) * log_mean(np.sqrt(h), 1.0) * np.log(value("s_root")) * top_a,
        "c_diff": lambda: h * log_mean(m, big_m) * np.log(value("s_full")),
        "am": lambda: (1.0 - nus) + nus * t_i,
        "gm": lambda: np.power(t_i, nus),
        "bridge": lambda: 0.5 * (1.0 - np.sqrt(t_i)) ** 2,
        "rhm": lambda: t_i / (t_i ** (1.0 - nus) + r * (np.sqrt(t_i) - 1.0) ** 2),
        "hm": lambda: _harmonic_diag(t_i, nus),
        "I": lambda: None,
    })
    specs = [(check,) + row for check in checks for row in _PAIR_MARGINS[check]]
    mats = list(dict.fromkeys(terms for _, _, terms, _ in specs if len(terms) > 1))
    screened = [(mats.index(terms), c and value(c), (check, name) if by_name else check)
                for check, name, terms, c in specs if len(terms) > 1]
    d = np.stack([_sum_terms(terms, value, value) for terms in mats])
    # the shift is the coefficient of I; a one-term matrix c X over the
    # weight-free bridge (refined_gm_vs_gm) has the margin c lambda_min(X),
    # with X = (A + B)/2 - A #_(1/2) B formed from the pair
    shift = np.zeros((len(mats), p_count, j_count))
    for k, terms in enumerate(mats):
        shift[k] = _sum_terms(terms, {"I": 1.0}.get, value)
    half = np.full((p_count, 1), 0.5)
    lowest = _lazy({
        "bridge": lambda: _eigvals_min_stack(_bridge(frame, _geometric_stacks(w, t, half)[:, 0]))[:, None],
    })
    exact = {spec[:2]: _sum_terms(spec[2], lowest, value) for spec in specs if len(spec[2]) == 1}

    def solve(need, lam):
        # the kept matrices W diag(d) W^T in one batched frame product, and
        # their eigenvalues plus the shift: lambda(X + c I) = lambda(X) + c,
        # which rounds c once instead of into every diagonal entry.  A row
        # whose d is exactly 0 is exactly shift I, so its margins are its shift
        k, flat = np.nonzero(need)
        p, j = np.divmod(flat, j_count)
        diag, row_shift = d[k, :, p, j], shift[k, p, j]
        zero = ~diag.any(axis=1)
        lam[:, k[zero], flat[zero]] = row_shift[zero]
        keep = ~zero
        if not keep.any():
            return
        stack = _sym(_recon(w[p[keep]], diag[keep]))

        # one eigensolve; a matrix with a non-finite entry gets NaN margins
        try:
            ends = _eigvals_stack(stack)[:, [0, -1]]
        except NumericalError:
            finite = np.isfinite(stack).all(axis=(1, 2))
            if finite.all():
                raise
            ends = np.full((len(stack), 2), np.nan)
            if finite.any():
                ends[finite] = _eigvals_stack(stack[finite])[:, [0, -1]]
        lam[:, k[keep], flat[keep]] = ends.T + row_shift[keep]

    # each screened margin: solved where the screen needs it, its lower bound
    # elsewhere
    flat = _screen(d, shift, screened, frame, t_i, tols, solve)
    solved = iter(flat)
    result = {check: ({}, tols) for check in checks}
    for check, name, terms, _ in specs:
        result[check][0][name] = exact[check, name] if len(terms) == 1 else next(solved)
    if not (np.isfinite(flat).all() and all(np.isfinite(e).all() for e in exact.values())):
        for check, (margins, _) in result.items():
            _require_finite(check, margins, nus, label)
    del value  # some of its makers read it: free that cycle now, not at a collection
    return result


def _hm_margins(lam, q, x, nus, label):
    """State-vector margins (name -> (P, J)) and tolerances (P, 1).

    lam, q is the eigendecomposition of a (P, n, n) SPD stack, x the (P, n)
    unit vectors and nus the (P, J) weight table.  The refined margin is
    invariant under rescaling A, so it is evaluated on the spectrum normalized
    by the largest eigenvalue; that keeps its roundoff near machine precision
    for operands of any magnitude.  label(p) names instance p when a margin
    is not finite, which raises NumericalError.
    """
    p = len(lam)
    r = np.minimum(nus, 1.0 - nus)
    top = lam[:, -1]
    lam_unit = lam / top[:, None]
    weights = np.einsum("pij,pi->pj", q, x) ** 2
    # one contraction for every quadratic form: the margins vanish identically
    # at nu in {0, 1} only if q_lin and q_nu share the same summation order
    n_nu = nus.shape[1]
    exps = np.concatenate([nus, np.ones((p, 1)), np.full((p, 1), 0.5)], axis=1)
    q_all = np.einsum("pj,pjk->pk", weights, np.power(lam_unit[:, :, None], exps[:, None, :]))
    q_nu = q_all[:, :n_nu]
    q_lin = q_all[:, n_nu]
    q_half = q_all[:, n_nu + 1]
    refined = (1.0 - q_lin[:, None] ** (-nus) * q_nu) - r * (
        1.0 - q_half[:, None] / np.sqrt(q_lin)[:, None]
    ) ** 2
    baseline = top[:, None] ** nus * (q_lin[:, None] ** nus - q_nu)
    margins = {"hm_refined": refined, "hm_baseline": baseline}
    _require_finite("holder_mccarthy", margins, nus, label)
    return margins, np.full((p, 1), HM_ABS_TOL)


# ---------------------------------------------------------------------------
# Per-instance checks: the batched kernels at one instance and one weight
# ---------------------------------------------------------------------------

def _result(check, dim, nu, margins, scale, tols, seed, index):
    margins = {name: float(value[0, 0]) for name, value in margins.items()}
    tol = float(tols[0, 0])
    return CheckResult(
        check=check,
        dim=dim,
        nu=nu,
        margins=margins,
        scale=float(scale),
        tol=tol,
        passed=min(margins.values()) >= -tol,
        seed=seed,
        index=index,
    )


def _check_pair(check, pair, nu, rel_tol, seed, index):
    nu = _require_nu(nu)
    nus = np.array([[nu]])

    def label(p):
        return f"index={index}, dim={pair.n}"

    frame = _pair_frame(pair, f"check {check}", label)
    # every name's margin is reported, so each is screened against its own
    (margins, tols), = _pair_margins(
        (check,), frame, np.array([pair.m]), np.array([pair.big_m]), nus, rel_tol, label, by_name=True
    ).values()
    return _result(check, pair.n, nu, margins, frame["scale"][0], tols, seed, index)


def check_refined_chain(pair: SpdPair, nu, rel_tol=DEFAULT_REL_TOL, seed=None, index=None) -> CheckResult:
    """Margins of the four chain links plus the plain AM >= GM margin."""
    return _check_pair("refined_chain", pair, nu, rel_tol, seed, index)


def check_reverse_ratio(pair: SpdPair, nu, rel_tol=DEFAULT_REL_TOL, seed=None, index=None) -> CheckResult:
    """Margin of S(sqrt(h)) GM >= AM - 2r*bridge with h from the pair's bounds."""
    return _check_pair("reverse_ratio", pair, nu, rel_tol, seed, index)


def check_reverse_difference(pair: SpdPair, nu, rel_tol=DEFAULT_REL_TOL, seed=None, index=None) -> CheckResult:
    """Margins of the scalar difference bounds against AM - GM - 2r*bridge.

    Records both the h sqrt(M) L(sqrt(M), sqrt(m)) ln S(sqrt(h)) constant and
    the tighter sqrt(h) L(sqrt(h), 1) ln S(sqrt(h)) ||A|| intermediate.
    """
    return _check_pair("reverse_difference", pair, nu, rel_tol, seed, index)


def check_baseline_reverses(pair: SpdPair, nu, rel_tol=DEFAULT_REL_TOL, seed=None, index=None) -> CheckResult:
    """Margins of S(h) GM >= AM and h L(m, M) ln S(h) I + GM >= AM."""
    return _check_pair("baseline_reverses", pair, nu, rel_tol, seed, index)


def check_hm_refined(a: SymMatrix, x: UnitVector, nu, seed=None, index=None) -> CheckResult:
    """State-vector margins of the refined and plain power inequalities."""
    nu = _require_nu(nu)
    if a.n != x.n:
        raise ValueError(f"dimension mismatch: matrix {a.n} vs vector {x.n}")
    lam, q = _eigvecs_stack(a.entries[None])
    if lam[0, 0] <= 0.0:
        raise ValueError("matrix must be positive definite")
    margins, tols = _hm_margins(
        lam, q, x.coords[None], np.array([[nu]]), lambda p: f"index={index}, dim={a.n}"
    )
    return _result("holder_mccarthy", a.n, nu, margins, 1.0, tols, seed, index)


# ---------------------------------------------------------------------------
# Suite and pair runs
# ---------------------------------------------------------------------------

def _gen_chunk_pairs(cfg, check, dim, indices):
    """The pairs of a chunk: per-instance draws, one stacked QR and reconstruction."""
    interior = []
    gauss = []
    for k in indices:
        rng = _rng_for(cfg.seed, check, k)
        for _ in range(2):  # A, then B
            u, g = _draw_spd(rng, dim, cfg.m, cfg.big_m)
            interior.append(u)
            gauss.append(g)
    mats = _spd_from_draws(np.stack(interior), np.stack(gauss), cfg.m, cfg.big_m)
    return mats[0::2], mats[1::2]


def _eval_pair_chunk(cfg, check, dim, indices):
    """Generate a chunk of pairs; bounds and h are certified from the extreme
    eigenvalues of the frame."""
    def label(p):
        return f"seed={cfg.seed}, index={indices[p]}, dim={dim}"

    frame = _diagonalize_pairs(*_gen_chunk_pairs(cfg, check, dim, indices), f"check {check}", label)
    m_hat = frame["m_hat"]
    big_m_hat = frame["scale"]
    nus = _nu_table(cfg.nu_grid, big_m_hat / m_hat)
    margins, tols = _pair_margins((check,), frame, m_hat, big_m_hat, nus, cfg.rel_tol, label)[check]
    return nus, margins, tols


def _eval_hm_chunk(cfg, dim, indices):
    interior = []
    gauss = []
    vecs = []
    for k in indices:
        rng = _rng_for(cfg.seed, "holder_mccarthy", k)
        u, g = _draw_spd(rng, dim, cfg.m, cfg.big_m)
        interior.append(u)
        gauss.append(g)
        vecs.append(_draw_unit(dim, rng))
    lam, q = _eigvecs_stack(_spd_from_draws(np.stack(interior), np.stack(gauss), cfg.m, cfg.big_m))
    if lam[:, 0].min() <= 0.0:
        raise SingularMatrixError("generated matrix is not positive definite")
    nus = _nu_table(cfg.nu_grid, lam[:, -1] / lam[:, 0])
    margins, tols = _hm_margins(
        lam, q, np.stack(vecs), nus, lambda p: f"seed={cfg.seed}, index={indices[p]}, dim={dim}"
    )
    return nus, margins, tols


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    """Run every configured check over all instances and the augmented nu grid.

    Deterministic for a fixed config: instance streams are keyed by
    (seed, check, index) and aggregation order is fixed.
    """
    cfg.validate()
    start = time.perf_counter()
    by_dim = {}
    for k in range(cfg.trials):
        dim = cfg.dims[k % len(cfg.dims)]
        by_dim.setdefault(dim, []).append(k)

    aggregates = []
    errors = []
    for check in cfg.checks:
        acc = _Accumulator(check)
        for dim in sorted(by_dim):
            indices = by_dim[dim]
            for start_i in range(0, len(indices), _CHUNK):
                chunk = indices[start_i : start_i + _CHUNK]
                try:
                    if check == "holder_mccarthy":
                        nus, margins, tols = _eval_hm_chunk(cfg, dim, chunk)
                    else:
                        nus, margins, tols = _eval_pair_chunk(cfg, check, dim, chunk)
                except NumericalError as err:
                    errors.append(
                        {
                            "check": check,
                            "dim": dim,
                            "indices": list(chunk),
                            "message": str(err),
                        }
                    )
                    continue
                acc.update(cfg.seed, chunk, dim, nus, margins, tols)
        aggregates.append(acc.finish())

    runtime = time.perf_counter() - start
    return SuiteReport(
        config=cfg,
        checks=tuple(aggregates),
        runtime_seconds=runtime,
        errors=tuple(errors),
    )


def run_pair(pair: SpdPair, nu_grid=DEFAULT_NU_GRID, rel_tol=DEFAULT_REL_TOL):
    """Aggregates of the four pair checks on one pair over its augmented nu grid.

    The reverse constants and the critical weights use the pair's bounds
    pair.m and pair.big_m.  The worst instance carries index 0 and no seed.
    """
    _validate_weights(nu_grid, rel_tol)
    nus = _nu_table(nu_grid, [pair.h])

    def label(p):
        return f"pair, dim={pair.n}"

    frame = _pair_frame(pair, "pair checks", label)
    by_check = _pair_margins(
        PAIR_CHECK_NAMES, frame, np.array([pair.m]), np.array([pair.big_m]), nus, rel_tol, label
    )
    aggregates = []
    for check, (margins, tols) in by_check.items():
        acc = _Accumulator(check)
        acc.update(None, (0,), pair.n, nus, margins, tols)
        aggregates.append(acc.finish())
    return tuple(aggregates)
