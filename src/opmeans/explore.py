"""Targeted numeric exploration of the scalar bounds: sign-change searches,
the open ordering question between the one-step and half-power difference
bounds, and numeric verification of the proof-level maximizers.

All scans evaluate the two parts of :func:`scan_quantity`: the factors that
do not depend on the weight nu (Specht's ratio, the logarithmic means and
their logarithms) are computed once per scan on the broadcast (a, b) axes,
then combined at each weight in turn.  :func:`scan_quantity` runs the same
two parts at one point, so recorded witnesses can be re-evaluated through the
same operations; reports are self-verifying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scalar import (
    critical_nu_diff,
    critical_nu_ratio,
    log_mean,
    reverse_diff_objective,
    reverse_ratio_objective,
    specht_ratio,
)

__all__ = [
    "GridSpec",
    "ExplorationReport",
    "ExtremizerReport",
    "ReferenceComparison",
    "scan_quantity",
    "reference_comparison",
    "no_ordering_scan",
    "conjecture_scan",
    "verify_extremizers",
    "golden_section_max",
    "REFERENCE_POINTS",
    "DEFAULT_EXTREMIZER_SAMPLES",
]

# Published reference values of the ratio-kind quantity at (a, b) = (1, 10):
# one of each sign, demonstrating that neither side dominates.
REFERENCE_A = 1.0
REFERENCE_B = 10.0
REFERENCE_POINTS = ((0.9, -0.246929), (0.6, 1.71544))
REFERENCE_TOL = 1e-4

DEFAULT_EXTREMIZER_SAMPLES = (0.1, 0.5, 2.0, 4.0, 10.0, 100.0)

_COMPONENT_TOL_REL = 1e-12

_SCAN_KINDS = ("ratio", "difference", "conjecture")

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class GridSpec:
    """Log-spaced (a, b) rectangle with a list of weights for nu-dependent scans."""

    a_lo: float = 1e-2
    a_hi: float = 1e2
    a_count: int = 200
    b_lo: float = 1e-2
    b_hi: float = 1e2
    b_count: int = 200
    nu_points: tuple = tuple(round(0.05 * i, 2) for i in range(1, 20))

    def validate(self):
        for name, lo, hi, count in (
            ("a", self.a_lo, self.a_hi, self.a_count),
            ("b", self.b_lo, self.b_hi, self.b_count),
        ):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"{name}-range endpoints must be finite")
            if lo <= 0.0 or hi <= 0.0:
                raise ValueError(f"{name}-range endpoints must be positive")
            if lo >= hi:
                raise ValueError(f"{name}-range must satisfy lo < hi")
            if count < 2:
                raise ValueError(f"{name}-range point count must be >= 2")
        for nu in self.nu_points:
            if not 0.0 <= nu <= 1.0:
                raise ValueError(f"nu_points entries must lie in [0, 1], got {nu}")
        return self

    def axes(self):
        return (
            np.geomspace(self.a_lo, self.a_hi, self.a_count),
            np.geomspace(self.b_lo, self.b_hi, self.b_count),
        )


@dataclass(frozen=True)
class ExplorationReport:
    name: str
    points: int
    min_value: float
    min_at: dict
    max_value: float
    max_at: dict
    negatives: int
    positives: int
    violations: int
    negative_witness: dict | None = None
    positive_witness: dict | None = None

    def to_json_dict(self):
        return {
            "name": self.name,
            "points": self.points,
            "min_value": self.min_value,
            "min_at": dict(self.min_at),
            "max_value": self.max_value,
            "max_at": dict(self.max_at),
            "negatives": self.negatives,
            "positives": self.positives,
            "violations": self.violations,
            "negative_witness": dict(self.negative_witness) if self.negative_witness else None,
            "positive_witness": dict(self.positive_witness) if self.positive_witness else None,
        }


@dataclass(frozen=True)
class ExtremizerReport:
    rows: tuple
    max_argmax_deviation: float
    max_value_rel_deviation: float

    def to_json_dict(self):
        return {
            "name": "extremizers",
            "rows": [dict(r) for r in self.rows],
            "max_argmax_deviation": self.max_argmax_deviation,
            "max_value_rel_deviation": self.max_value_rel_deviation,
        }


@dataclass(frozen=True)
class ReferenceComparison:
    a: float
    b: float
    rows: tuple
    max_deviation: float
    tolerance: float

    @property
    def within_tolerance(self):
        return self.max_deviation <= self.tolerance

    def to_json_dict(self):
        return {
            "name": "reference",
            "a": self.a,
            "b": self.b,
            "rows": [dict(r) for r in self.rows],
            "max_deviation": self.max_deviation,
            "tolerance": self.tolerance,
            "within_tolerance": self.within_tolerance,
        }


def scan_quantity(kind, a, b, nu=None):
    """The scanned quantity of each exploration, at one point or on arrays.

    * ``"ratio"``:      (1-nu)a + nu b - S(sqrt(a/b)) a^(1-nu) b^nu; takes both
      signs, so the remainder-aware ratio reverse has no one-sided companion.
    * ``"difference"``: L(a,b) ln S(a/b) minus the half-power difference bound
      plus remainder; again takes both signs.
    * ``"conjecture"``: L(a,b) ln S(a/b) - max(sqrt(a), sqrt(b)) L(sqrt(a),
      sqrt(b)) ln S(sqrt(a/b)); conjectured nonnegative, scanned for
      counterexamples.

    It is evaluated in two parts: :func:`_scan_factors` computes what does not
    depend on nu, and :func:`_at_weights` combines those factors at each
    weight.  The scans call the same two parts with one set of factors for
    all their weights, so a recorded witness re-evaluates here through the
    same operations.
    """
    if kind not in _SCAN_KINDS:
        raise ValueError(f"unknown scan kind {kind!r}")
    if kind != "conjecture" and nu is None:
        raise ValueError(f"{kind} scans need a weight nu")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    (out,) = _at_weights(kind, _scan_factors(kind, a, b), (nu,))
    if np.ndim(out) == 0:
        return float(out)
    return out


def _scan_factors(kind, a, b):
    """The factors of ``scan_quantity(kind, a, b, nu)`` that do not depend on nu.

    ``"ratio"`` gives (a, b, S(sqrt(a/b))).  ``"difference"`` and
    ``"conjecture"`` give (L(a,b), ln S(a/b), max(sqrt(a), sqrt(b))
    L(sqrt(a), sqrt(b)), ln S(sqrt(a/b)), sqrt(a), sqrt(b)).  ``a`` and ``b``
    broadcast against each other, so a scan can pass its two axes as a
    column and a row.
    """
    if kind == "ratio":
        return a, b, specht_ratio(np.sqrt(a / b))
    ra, rb = np.sqrt(a), np.sqrt(b)
    return (
        log_mean(a, b),
        np.log(specht_ratio(a / b)),
        np.maximum(ra, rb) * log_mean(ra, rb),
        np.log(specht_ratio(np.sqrt(a / b))),
        ra,
        rb,
    )


def _at_weights(kind, factors, nus):
    """Yield the scanned quantity at each weight of ``nus``, one array at a time.

    The products of the factors that do not depend on nu are formed once,
    before the first weight.  ``"conjecture"`` ignores the weight.
    """
    if kind == "ratio":
        a, b, specht = factors
        for nu in nus:
            nu = float(nu)
            gm = np.power(a, 1.0 - nu) * np.power(b, nu)
            yield (1.0 - nu) * a + nu * b - specht * gm
        return
    mean, log_specht, half_mean, half_log_specht, ra, rb = factors
    one_step = mean * log_specht
    half_power = half_mean * half_log_specht
    if kind == "conjecture":
        for _ in nus:
            yield one_step - half_power
        return
    gap = (ra - rb) ** 2
    for nu in nus:
        nu = float(nu)
        r = min(nu, 1.0 - nu)
        yield one_step - (half_power + r * gap)


def reference_comparison() -> ReferenceComparison:
    """Recompute the two published sign-change values at (a, b) = (1, 10)."""
    rows = []
    worst = 0.0
    for nu, reference in REFERENCE_POINTS:
        computed = scan_quantity("ratio", REFERENCE_A, REFERENCE_B, nu)
        deviation = abs(computed - reference)
        worst = max(worst, deviation)
        rows.append(
            {
                "a": REFERENCE_A,
                "b": REFERENCE_B,
                "nu": nu,
                "computed": computed,
                "reference": reference,
                "deviation": deviation,
            }
        )
    return ReferenceComparison(
        a=REFERENCE_A,
        b=REFERENCE_B,
        rows=tuple(rows),
        max_deviation=worst,
        tolerance=REFERENCE_TOL,
    )


def _witness(a, b, nu, value):
    w = {"a": float(a), "b": float(b), "value": float(value)}
    if nu is not None:
        w["nu"] = float(nu)
    return w


def no_ordering_scan(kind, grid: GridSpec = GridSpec()) -> ExplorationReport:
    """Scan for strict sign changes of the ratio or difference comparison.

    Both signs are expected on any reasonably wide grid; an absent witness is
    reported as None, never raised.
    """
    if kind not in ("ratio", "difference"):
        raise ValueError(f"kind must be 'ratio' or 'difference', got {kind!r}")
    grid.validate()
    a_axis, b_axis = grid.axes()
    factors = _scan_factors(kind, a_axis[:, None], b_axis[None, :])
    points = 0
    negatives = positives = 0
    min_value = np.inf
    max_value = -np.inf
    min_at = max_at = None
    neg_wit = pos_wit = None
    for nu, vals in zip(grid.nu_points, _at_weights(kind, factors, grid.nu_points)):
        points += vals.size
        negatives += int((vals < 0.0).sum())
        positives += int((vals > 0.0).sum())
        lo_i, lo_j = np.unravel_index(np.argmin(vals), vals.shape)
        hi_i, hi_j = np.unravel_index(np.argmax(vals), vals.shape)
        lo_at = _witness(a_axis[lo_i], b_axis[lo_j], nu, vals[lo_i, lo_j])
        hi_at = _witness(a_axis[hi_i], b_axis[hi_j], nu, vals[hi_i, hi_j])
        if lo_at["value"] < min_value:
            min_value, min_at = lo_at["value"], lo_at
        if hi_at["value"] > max_value:
            max_value, max_at = hi_at["value"], hi_at
        if neg_wit is None and lo_at["value"] < 0.0:
            neg_wit = lo_at
        if pos_wit is None and hi_at["value"] > 0.0:
            pos_wit = hi_at
    return ExplorationReport(
        name=f"no-ordering-{kind}",
        points=points,
        min_value=float(min_value),
        min_at=min_at,
        max_value=float(max_value),
        max_at=max_at,
        negatives=negatives,
        positives=positives,
        violations=0,
        negative_witness=neg_wit,
        positive_witness=pos_wit,
    )


def conjecture_scan(grid: GridSpec = GridSpec()) -> ExplorationReport:
    """Scan the one-step vs half-power difference-bound comparison off the diagonal.

    The composite quantity is recorded, never asserted: a strictly negative
    value is a counterexample to the conjectured ordering and is surfaced as a
    negative witness (distinguished CLI exit), not a failure.  The two proven
    component inequalities are asserted up to scaled roundoff and counted in
    ``violations`` if broken.
    """
    grid.validate()
    a_axis, b_axis = grid.axes()
    a_mesh, b_mesh = np.meshgrid(a_axis, b_axis, indexing="ij")
    mask = a_mesh != b_mesh
    a_flat = a_mesh[mask]
    b_flat = b_mesh[mask]
    factors = _scan_factors("conjecture", a_flat, b_flat)
    (vals,) = _at_weights("conjecture", factors, (None,))

    mean, log_specht, half_mean, half_log_specht = factors[:4]
    comp_tol = _COMPONENT_TOL_REL * (a_flat + b_flat)
    comp_means = half_mean - mean
    comp_specht = log_specht - half_log_specht
    violations = int((comp_means < -comp_tol).sum() + (comp_specht < -comp_tol).sum())

    lo_idx = int(np.argmin(vals))
    hi_idx = int(np.argmax(vals))
    negatives = int((vals < 0.0).sum())
    neg_wit = None
    if negatives:
        first_neg = int(np.argmax(vals < 0.0))
        neg_wit = _witness(a_flat[first_neg], b_flat[first_neg], None, vals[first_neg])
    return ExplorationReport(
        name="conjecture",
        points=int(vals.size),
        min_value=float(vals[lo_idx]),
        min_at=_witness(a_flat[lo_idx], b_flat[lo_idx], None, vals[lo_idx]),
        max_value=float(vals[hi_idx]),
        max_at=_witness(a_flat[hi_idx], b_flat[hi_idx], None, vals[hi_idx]),
        negatives=negatives,
        positives=int((vals > 0.0).sum()),
        violations=violations,
        negative_witness=neg_wit,
        positive_witness=None,
    )


def golden_section_max(fn, lo, hi, tol=1e-10):
    """Deterministic golden-section maximizer of a unimodal function on [lo, hi]."""
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc = fn(c)
    fd = fn(d)
    while hi - lo > tol:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = fn(d)
    x = 0.5 * (lo + hi)
    return x, fn(x)


def verify_extremizers(b_samples=DEFAULT_EXTREMIZER_SAMPLES, tol=1e-10) -> ExtremizerReport:
    """Locate the maxima of the ratio and difference objectives numerically and
    compare against the closed-form critical weights and maximum values.

    For each sample b the ratio objective is maximized over [0, 1/2] (closed
    form critical_nu_ratio(b), maximum specht_ratio(sqrt(b))), the difference
    objective over [0, 1/2] (critical_nu_diff(b), maximum
    L(1, sqrt(b)) ln S(sqrt(b))), and the mirrored ratio objective over
    [1/2, 1] whose maximizer is 1 - critical_nu_ratio(b).
    """
    rows = []
    worst_arg = 0.0
    worst_val = 0.0
    for b in b_samples:
        b = float(b)
        if b <= 0.0 or b == 1.0:
            raise ValueError(f"samples must be positive and != 1, got {b}")
        families = (
            (
                "ratio",
                lambda nu, b=b: reverse_ratio_objective(b, nu),
                (0.0, 0.5),
                critical_nu_ratio(b),
                specht_ratio(np.sqrt(b)),
            ),
            (
                "difference",
                lambda nu, b=b: reverse_diff_objective(b, nu),
                (0.0, 0.5),
                critical_nu_diff(b),
                log_mean(1.0, np.sqrt(b)) * np.log(specht_ratio(np.sqrt(b))),
            ),
            (
                "ratio_mirror",
                lambda nu, b=b: reverse_ratio_objective(b, 1.0 - nu),
                (0.5, 1.0),
                1.0 - critical_nu_ratio(b),
                specht_ratio(np.sqrt(b)),
            ),
        )
        for family, fn, (lo, hi), arg_closed, val_closed in families:
            arg_num, val_num = golden_section_max(fn, lo, hi, tol=tol)
            arg_dev = abs(arg_num - arg_closed)
            val_dev = abs(val_num - val_closed) / abs(val_closed) if val_closed != 0 else abs(val_num)
            worst_arg = max(worst_arg, arg_dev)
            worst_val = max(worst_val, val_dev)
            rows.append(
                {
                    "b": b,
                    "family": family,
                    "argmax_numeric": float(arg_num),
                    "argmax_closed_form": float(arg_closed),
                    "argmax_deviation": float(arg_dev),
                    "max_numeric": float(val_num),
                    "max_closed_form": float(val_closed),
                    "max_rel_deviation": float(val_dev),
                }
            )
    return ExtremizerReport(
        rows=tuple(rows),
        max_argmax_deviation=float(worst_arg),
        max_value_rel_deviation=float(worst_val),
    )
