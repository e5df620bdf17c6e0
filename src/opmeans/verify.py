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
W diag(1 / (t^-nu + r (1 - t^-1/2)^2)) W^T is the verifier's own.  A pair the
frame cannot certify positive definite or factor, a margin that is not
finite, or a t at or below the inversion floor raises NumericalError naming
the check and the instance; a failed SVD names the check, a failed margin
eigensolve its stack size.

Each pair margin is the smallest (or, for the difference reverse, largest)
eigenvalue of a stack of margin matrices, from matrices._eigvals_stack
(LAPACK, no eigenvectors), which reads only the lower triangle: every margin
stack is built from symmetric operands by elementwise arithmetic, so it is
exactly symmetric.  Only the state-vector margins need a Jacobi solve
(matrices._eigh_stack), one per chunk.
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
    _eigh_stack,
    _eigvals_min_stack,
    _eigvals_stack,
    MIN_DIM,
    MAX_DIM,
)
from .means import (
    SpdPair,
    _arithmetic_stack,
    _bridge,
    _diagonalize_pairs,
    _geometric_stacks,
    _harmonic_stack,
    _inverse4,
    _pair_frame,
    _recon,
    _require_nu,
    _sym4,
)
from .scalar import critical_nu_diff, critical_nu_ratio, log_mean, specht_ratio

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
PAIR_CHECK_NAMES = CHECK_NAMES[:4]

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


def gen_unit_vector(dim, rng) -> UnitVector:
    v = rng.standard_normal(dim)
    norm = np.linalg.norm(v)
    while norm < 1e-8:
        v = rng.standard_normal(dim)
        norm = np.linalg.norm(v)
    return UnitVector(v / norm)


def augmented_nu_grid(base, h):
    """Base grid plus the two critical weights of condition ratio h, clamped to [0, 1]."""
    if h == 1.0:
        extra = (0.5, 0.5)
    else:
        extra = (
            min(max(critical_nu_ratio(h), 0.0), 1.0),
            min(max(critical_nu_diff(h), 0.0), 1.0),
        )
    return tuple(base) + extra


def _nu_table(base, h):
    """(P, J) weight table: the base grid plus the critical weights of each h."""
    return np.array([augmented_nu_grid(base, float(hk)) for hk in h])


# ---------------------------------------------------------------------------
# Batched margin kernels
# ---------------------------------------------------------------------------

def _min_eig4(stack):
    p, j, n, _ = stack.shape
    return _eigvals_min_stack(stack.reshape(p * j, n, n)).reshape(p, j)


def _max_eig4(stack):
    p, j, n, _ = stack.shape
    return _eigvals_stack(stack.reshape(p * j, n, n))[:, -1].reshape(p, j)


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


def _pair_margins(check, frame, means, m, big_m, nus, rel_tol, label):
    """Margins (name -> (P, J)) and tolerances (P, 1) of one pair check.

    frame is a pair stack from _diagonalize_pairs and means its
    _geometric_stacks over nus, the (P, J) weight table; m and big_m (P,) are
    the spectral bounds that set h and the reverse constants.  The tolerance
    is rel_tol times the larger operator norm of A and B.  label(p) names
    instance p in error messages; a non-finite margin raises NumericalError.
    """
    r = np.minimum(nus, 1.0 - nus)
    r4 = r[:, :, None, None]
    am = _arithmetic_stack(frame["a"], frame["b"], nus)
    gm, gm_half = means
    bridge = _bridge(frame, gm_half)
    h = big_m / m

    if check == "refined_chain":
        def ctx_msg(p, j):
            return f"check refined_chain instance ({label(p)}, nu={nus[p, j]})"

        # Both harmonic means in the frame, each W diag(1/d) W^T: the refined
        # HM with d = t^-nu + r (1 - t^-1/2)^2, and the HM of means.py.
        inv_t = _inverse4(
            frame["t"][:, None], lambda p, j: f"check refined_chain instance ({label(p)})"
        )
        d_refined = inv_t ** nus[:, :, None] + r[:, :, None] * (1.0 - np.sqrt(inv_t)) ** 2
        refined_hm = _sym4(_recon(frame["w"][:, None], _inverse4(d_refined, ctx_msg)))
        hm = _harmonic_stack(frame, inv_t, nus, ctx_msg)
        bridge_min = _eigvals_min_stack(bridge)
        margins = {
            "am_vs_refined_gm": _min_eig4(am - gm - 2.0 * r4 * bridge[:, None]),
            "refined_gm_vs_gm": 2.0 * r * bridge_min[:, None],
            "gm_vs_refined_hm": _min_eig4(gm - refined_hm),
            "refined_hm_vs_hm": _min_eig4(refined_hm - hm),
            "am_vs_gm": _min_eig4(am - gm),
        }
    elif check == "reverse_ratio":
        s = specht_ratio(np.sqrt(h))[:, None, None, None]
        margins = {
            "reverse_ratio": _min_eig4(s * gm - (am - 2.0 * r4 * bridge[:, None]))
        }
    elif check == "reverse_difference":
        root_h = np.sqrt(h)
        log_s = np.log(specht_ratio(root_h))
        c_global = h * np.sqrt(big_m) * log_mean(np.sqrt(big_m), np.sqrt(m)) * log_s
        c_tight = root_h * log_mean(root_h, 1.0) * log_s * frame["top_a"]
        rhs_max = _max_eig4(am - gm - 2.0 * r4 * bridge[:, None])
        margins = {
            "reverse_difference": c_global[:, None] - rhs_max,
            "reverse_difference_tight": c_tight[:, None] - rhs_max,
        }
    elif check == "baseline_reverses":
        s = specht_ratio(h)
        diff_const = h * log_mean(m, big_m) * np.log(s)
        eye = np.eye(frame["a"].shape[-1])
        margins = {
            "baseline_ratio": _min_eig4(s[:, None, None, None] * gm - am),
            "baseline_difference": _min_eig4(
                diff_const[:, None, None, None] * eye + gm - am
            ),
        }
    else:  # pragma: no cover - guarded by config validation
        raise ValueError(f"not a pair check: {check}")

    _require_finite(check, margins, nus, label)
    return margins, rel_tol * frame["scale"][:, None]


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
    margins, tols = _pair_margins(
        check, frame, _geometric_stacks(frame, nus), np.array([pair.m]),
        np.array([pair.big_m]), nus, rel_tol, label,
    )
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
    lam, q = _eigh_stack(a.entries[None])
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
    margins, tols = _pair_margins(
        check, frame, _geometric_stacks(frame, nus), m_hat, big_m_hat, nus, cfg.rel_tol, label
    )
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
        vecs.append(gen_unit_vector(dim, rng).coords)
    lam, q = _eigh_stack(_spd_from_draws(np.stack(interior), np.stack(gauss), cfg.m, cfg.big_m))
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
    means = _geometric_stacks(frame, nus)
    aggregates = []
    for check in PAIR_CHECK_NAMES:
        acc = _Accumulator(check)
        margins, tols = _pair_margins(
            check, frame, means, np.array([pair.m]), np.array([pair.big_m]), nus, rel_tol, label
        )
        acc.update(None, (0,), pair.n, nus, margins, tols)
        aggregates.append(acc.finish())
    return tuple(aggregates)
