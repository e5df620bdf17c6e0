"""Targeted numeric exploration of the scalar bounds: sign-change searches,
the open ordering question between the one-step and half-power difference
bounds, and numeric verification of the proof-level maximizers.

All scans evaluate the two parts of :func:`scan_quantity`: the factors that
do not depend on the weight nu (Specht's ratio, the logarithmic means and
their logarithms) are computed once per scan on the broadcast (a, b) axes,
then combined at each weight in turn.  :func:`scan_quantity` runs the same
two parts at one point, so recorded witnesses can be re-evaluated through the
same operations; reports are self-verifying.  The conjecture scan, like the
sign-change scans, runs on the broadcast axes and masks the points with
a == b by value, so it never forms a meshgrid.

The maximizers are checked by :func:`golden_section_max`, which searches an
array of intervals in lockstep: :func:`verify_extremizers` runs the three
searches of every sample b as one pass, with one evaluation of each
objective per step on the whole table.
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
    a, b = a_axis[:, None], b_axis[None, :]
    off = a != b
    factors = _scan_factors("conjecture", a, b)
    (vals,) = _at_weights("conjecture", factors, (None,))

    mean, log_specht, half_mean, half_log_specht = factors[:4]
    comp_tol = _COMPONENT_TOL_REL * (a + b)
    comp_means = half_mean - mean
    comp_specht = log_specht - half_log_specht
    violations = int(((comp_means < -comp_tol) & off).sum() + ((comp_specht < -comp_tol) & off).sum())

    # The diagonal is filled so that it never wins: argmin and argmax then
    # pick the first extreme off-diagonal point in row-major order.
    lo_i, lo_j = np.unravel_index(np.argmin(np.where(off, vals, np.inf)), vals.shape)
    hi_i, hi_j = np.unravel_index(np.argmax(np.where(off, vals, -np.inf)), vals.shape)
    negative = (vals < 0.0) & off
    negatives = int(negative.sum())
    neg_wit = None
    if negatives:
        neg_i, neg_j = np.unravel_index(np.argmax(negative), vals.shape)
        neg_wit = _witness(a_axis[neg_i], b_axis[neg_j], None, vals[neg_i, neg_j])
    return ExplorationReport(
        name="conjecture",
        points=int(off.sum()),
        min_value=float(vals[lo_i, lo_j]),
        min_at=_witness(a_axis[lo_i], b_axis[lo_j], None, vals[lo_i, lo_j]),
        max_value=float(vals[hi_i, hi_j]),
        max_at=_witness(a_axis[hi_i], b_axis[hi_j], None, vals[hi_i, hi_j]),
        negatives=negatives,
        positives=int(((vals > 0.0) & off).sum()),
        violations=violations,
        negative_witness=neg_wit,
        positive_witness=None,
    )


def golden_section_max(fn, lo, hi, tol=1e-10):
    """Deterministic golden-section maximizer of a unimodal function on [lo, hi].

    ``lo`` and ``hi`` may be arrays (they broadcast against each other); every
    interval is then searched in lockstep.  Each step makes one call of ``fn``
    on an array of probes, one per interval, so ``fn`` must be elementwise.
    An interval takes exactly the steps it would take alone: it stops once
    its width is at most ``tol``, after which its probes are still passed to
    ``fn`` but their values are ignored.  Every interval moves by its own
    comparison ``fc > fd`` (a tie or a NaN moves ``lo`` up), so each returned
    (argmax, maximum) pair has the bits of a search over that interval alone.
    Scalar ``lo`` and ``hi`` return scalars.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc = fn(c)
    fd = fn(d)
    active = hi - lo > tol
    while active.any():
        left = fc > fd  # the maximum lies in [lo, d]
        to_c = active & left  # d <- c, probe a new c
        to_d = active & ~left  # c <- d, probe a new d
        hi = np.where(to_c, d, hi)
        lo = np.where(to_d, c, lo)
        probe = np.where(left, hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo))
        fp = fn(probe)
        c, d = np.where(to_c, probe, np.where(to_d, d, c)), np.where(to_c, c, np.where(to_d, probe, d))
        fc, fd = np.where(to_c, fp, np.where(to_d, fd, fc)), np.where(to_c, fc, np.where(to_d, fp, fd))
        active = hi - lo > tol
    x = 0.5 * (lo + hi)
    return x, fn(x)


_EXTREMIZER_FAMILIES = ("ratio", "difference", "ratio_mirror")


def verify_extremizers(b_samples=DEFAULT_EXTREMIZER_SAMPLES, tol=1e-10) -> ExtremizerReport:
    """Locate the maxima of the ratio and difference objectives numerically and
    compare against the closed-form critical weights and maximum values.

    For each sample b the ratio objective is maximized over [0, 1/2] (closed
    form critical_nu_ratio(b), maximum specht_ratio(sqrt(b))), the difference
    objective over [0, 1/2] (critical_nu_diff(b), maximum
    L(1, sqrt(b)) ln S(sqrt(b))), and the mirrored ratio objective over
    [1/2, 1] whose maximizer is 1 - critical_nu_ratio(b).

    All 3 * len(b_samples) searches run as one lockstep
    :func:`golden_section_max` over a (sample, family) table; each step
    evaluates both objectives once on the whole table.  The closed forms are
    computed first, so a bad sample raises before any search.
    """
    samples = [float(b) for b in b_samples]
    for b in samples:
        if b <= 0.0 or b == 1.0:
            raise ValueError(f"samples must be positive and != 1, got {b}")
        if not math.isfinite(b):
            break  # critical_nu_ratio refuses it below, before any later sample
    b = np.array(samples, dtype=float)
    root = np.sqrt(b)
    arg_ratio = critical_nu_ratio(b)
    specht = specht_ratio(root)
    arg_closed = np.stack([arg_ratio, critical_nu_diff(b), 1.0 - arg_ratio], axis=-1)
    val_closed = np.stack([specht, log_mean(1.0, root) * np.log(specht), specht], axis=-1)

    column = b[:, None]
    difference = np.array([False, True, False])
    mirror = np.array([False, False, True])

    def objectives(nu):
        ratio = reverse_ratio_objective(column, np.where(mirror, 1.0 - nu, nu))
        return np.where(difference, reverse_diff_objective(column, nu), ratio)

    lo = np.tile(np.where(mirror, 0.5, 0.0), (len(samples), 1))
    arg_num, val_num = golden_section_max(objectives, lo, lo + 0.5, tol=tol)
    arg_dev = np.abs(arg_num - arg_closed)
    with np.errstate(divide="ignore", invalid="ignore"):
        val_dev = np.where(val_closed != 0, np.abs(val_num - val_closed) / np.abs(val_closed), np.abs(val_num))

    rows = [
        {
            "b": samples[i],
            "family": family,
            "argmax_numeric": float(arg_num[i, k]),
            "argmax_closed_form": float(arg_closed[i, k]),
            "argmax_deviation": float(arg_dev[i, k]),
            "max_numeric": float(val_num[i, k]),
            "max_closed_form": float(val_closed[i, k]),
            "max_rel_deviation": float(val_dev[i, k]),
        }
        for i in range(len(samples))
        for k, family in enumerate(_EXTREMIZER_FAMILIES)
    ]
    return ExtremizerReport(
        rows=tuple(rows),
        max_argmax_deviation=max([0.0, *(row["argmax_deviation"] for row in rows)]),
        max_value_rel_deviation=max([0.0, *(row["max_rel_deviation"] for row in rows)]),
    )
