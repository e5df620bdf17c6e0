"""Scalar means, margins and critical points underlying the operator inequalities.

Every function accepts floats or numpy arrays (broadcasting elementwise) and
returns a float for scalar input.  All margins are written so that a
nonnegative return value certifies the corresponding inequality at that point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "specht_ratio",
    "log_mean",
    "young_gap",
    "refined_young_margin",
    "baseline_ratio_margin",
    "baseline_diff_bound",
    "reverse_ratio_margin",
    "reverse_diff_margin",
    "critical_nu_ratio",
    "critical_nu_diff",
    "reverse_ratio_objective",
    "reverse_diff_objective",
    "WeightedTuple",
    "refined_weighted_amgm_margin",
]

# Below this, h is treated as exactly 1 by specht_ratio.
_SPECHT_ONE_EPS = 1e-15
# Below this |log(y/x)|, log_mean switches to the midpoint (relative error
# O(u^2/12) < 1e-17, beneath double roundoff).
_LOGMEAN_SWITCH = 1e-8

_WEIGHT_SUM_TOL = 1e-12
# Below this |u| = |ln b|/2 the critical weights take their Taylor series in
# u, whose first omitted term is below 2e-15 relative; the closed forms
# cancel there, both of their terms growing like 1/u.
_CRITICAL_SERIES_U = 0.05


def _as_float_array(x, name):
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def _require_positive(arr, name):
    if (arr <= 0.0).any():
        raise ValueError(f"{name} must be strictly positive")


def _require_weight(nu):
    arr = _as_float_array(nu, "nu")
    if (arr < 0.0).any() or (arr > 1.0).any():
        raise ValueError("nu must lie in [0, 1]")
    return arr


def _scalar_out(out, *inputs):
    if all(np.ndim(x) == 0 for x in inputs):
        return float(out)
    return out


def specht_ratio(h):
    """Specht's ratio S(h) = h^(1/(h-1)) / (e * ln h^(1/(h-1))), with S(1) = 1.

    Evaluated as exp(t - 1)/t with t = log1p(h - 1)/(h - 1), which keeps full
    precision through h = 1 where the defining formula is 0/0.  S(h) >= 1 and
    S(h) = S(1/h) for all h > 0; arguments below 1 are reflected through that
    identity because the direct formula's conditioning degrades like 1/h as
    h -> 0.
    """
    harr = _as_float_array(h, "h")
    _require_positive(harr, "h")
    harr = np.where(harr < 1.0, 1.0 / harr, harr)
    d = harr - 1.0
    near_one = np.abs(d) < _SPECHT_ONE_EPS
    safe_d = np.where(near_one, 1.0, d)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = np.log1p(safe_d) / safe_d
        s = np.exp(t - 1.0) / t
    out = np.where(near_one, 1.0, s)
    return _scalar_out(out, h)


def log_mean(x, y):
    """Logarithmic mean (y - x)/(ln y - ln x), extended by log_mean(x, x) = x.

    Symmetric in its arguments and always between min(x, y) and max(x, y).
    Near x = y the quotient cancels catastrophically, so for
    |ln(y/x)| < 1e-8 the midpoint (x + y)/2 is returned instead.
    """
    xarr = _as_float_array(x, "x")
    yarr = _as_float_array(y, "y")
    _require_positive(xarr, "x")
    _require_positive(yarr, "y")
    u = np.log(yarr) - np.log(xarr)
    near = np.abs(u) < _LOGMEAN_SWITCH
    safe_u = np.where(near, 1.0, u)
    with np.errstate(invalid="ignore"):
        quotient = (yarr - xarr) / safe_u
    out = np.where(near, 0.5 * (xarr + yarr), quotient)
    return _scalar_out(out, x, y)


def young_gap(a, b, nu):
    """Arithmetic-minus-geometric gap (1-nu)a + nu*b - a^(1-nu) b^nu, for a, b >= 0."""
    aarr = _as_float_array(a, "a")
    barr = _as_float_array(b, "b")
    nuarr = _require_weight(nu)
    if (aarr < 0.0).any() or (barr < 0.0).any():
        raise ValueError("a and b must be nonnegative")
    # 0**0 == 1.0 in IEEE pow, which is the convention needed at nu-endpoints.
    gm = np.power(aarr, 1.0 - nuarr) * np.power(barr, nuarr)
    out = (1.0 - nuarr) * aarr + nuarr * barr - gm
    return _scalar_out(out, a, b, nu)


def refined_young_margin(a, b, nu):
    """Slack of the refined arithmetic-geometric mean inequality.

    Returns (1-nu)a + nu*b - a^(1-nu) b^nu - r(sqrt(a)-sqrt(b))^2 with
    r = min(nu, 1-nu); nonnegative for all a, b >= 0 and nu in [0, 1].
    """
    aarr = _as_float_array(a, "a")
    barr = _as_float_array(b, "b")
    nuarr = _require_weight(nu)
    if (aarr < 0.0).any() or (barr < 0.0).any():
        raise ValueError("a and b must be nonnegative")
    r = np.minimum(nuarr, 1.0 - nuarr)
    out = young_gap(aarr, barr, nuarr) - r * (np.sqrt(aarr) - np.sqrt(barr)) ** 2
    return _scalar_out(out, a, b, nu)


def baseline_ratio_margin(a, b, nu):
    """Slack of the ratio reverse S(a/b) a^(1-nu) b^nu >= (1-nu)a + nu*b."""
    aarr = _as_float_array(a, "a")
    barr = _as_float_array(b, "b")
    nuarr = _require_weight(nu)
    _require_positive(aarr, "a")
    _require_positive(barr, "b")
    gm = np.power(aarr, 1.0 - nuarr) * np.power(barr, nuarr)
    out = specht_ratio(aarr / barr) * gm - ((1.0 - nuarr) * aarr + nuarr * barr)
    return _scalar_out(out, a, b, nu)


def baseline_diff_bound(a, b):
    """Difference-reverse constant L(a,b) ln S(a/b).

    Upper-bounds the gap (1-nu)a + nu*b - a^(1-nu) b^nu for every nu in [0,1].
    """
    aarr = _as_float_array(a, "a")
    barr = _as_float_array(b, "b")
    _require_positive(aarr, "a")
    _require_positive(barr, "b")
    out = log_mean(aarr, barr) * np.log(specht_ratio(aarr / barr))
    return _scalar_out(out, a, b)


def reverse_ratio_margin(a, b, nu):
    """Slack of the remainder-aware ratio reverse.

    Returns S(sqrt(a/b)) a^(1-nu) b^nu - [(1-nu)a + nu*b - r(sqrt(a)-sqrt(b))^2],
    nonnegative for all a, b > 0.
    """
    aarr = _as_float_array(a, "a")
    barr = _as_float_array(b, "b")
    nuarr = _require_weight(nu)
    _require_positive(aarr, "a")
    _require_positive(barr, "b")
    r = np.minimum(nuarr, 1.0 - nuarr)
    gm = np.power(aarr, 1.0 - nuarr) * np.power(barr, nuarr)
    rhs = (1.0 - nuarr) * aarr + nuarr * barr - r * (np.sqrt(aarr) - np.sqrt(barr)) ** 2
    out = specht_ratio(np.sqrt(aarr / barr)) * gm - rhs
    return _scalar_out(out, a, b, nu)


def reverse_diff_margin(a, b, nu):
    """Slack of the remainder-aware difference reverse.

    Returns w * L(sqrt(a), sqrt(b)) * ln S(sqrt(a/b)) minus the remainder-reduced
    gap (1-nu)a + nu*b - a^(1-nu) b^nu - r(sqrt(a)-sqrt(b))^2, where
    w = max(sqrt(a), sqrt(b)); nonnegative for all a, b > 0.
    """
    aarr = _as_float_array(a, "a")
    barr = _as_float_array(b, "b")
    nuarr = _require_weight(nu)
    _require_positive(aarr, "a")
    _require_positive(barr, "b")
    ra = np.sqrt(aarr)
    rb = np.sqrt(barr)
    omega = np.maximum(ra, rb)
    lhs = omega * log_mean(ra, rb) * np.log(specht_ratio(np.sqrt(aarr / barr)))
    r = np.minimum(nuarr, 1.0 - nuarr)
    reduced_gap = young_gap(aarr, barr, nuarr) - r * (ra - rb) ** 2
    out = lhs - reduced_gap
    return _scalar_out(out, a, b, nu)


def _critical_base(b):
    """b as a float array; every entry must be finite, positive and not 1."""
    barr = np.asarray(b, dtype=float)
    if not ((barr > 0.0) & (barr < np.inf)).all():
        raise ValueError("b must be strictly positive")
    if (barr == 1.0).any():
        raise ValueError("b = 1 is degenerate (every weight is maximizing)")
    return barr


def _critical_weight(b, closed_form, series):
    """closed_form(b), or, where |u| < _CRITICAL_SERIES_U with u = ln(b)/2,
    its series 1/4 + c1 u + c3 u^3 + c5 u^5 for series = (c1, c3, c5)."""
    barr = _critical_base(b)
    u = 0.5 * np.log(barr)
    near = np.abs(u) < _CRITICAL_SERIES_U
    if not near.any():
        return _scalar_out(closed_form(barr), b)
    with np.errstate(divide="ignore", invalid="ignore"):  # sqrt(b) may round to 1
        out = closed_form(barr)
    c1, c3, c5 = series
    u2 = u * u
    return _scalar_out(np.where(near, 0.25 + u * (c1 + u2 * (c3 + u2 * c5)), out), b)


def critical_nu_ratio(b):
    """Maximizing weight 1/ln(b) - 1/(2(sqrt(b)-1)) of the ratio-reverse objective.

    Defined for b > 0, b != 1; always lies in [0, 1/2].  With u = ln(b)/2 it
    is (1/u - 1/expm1(u))/2, taken as 1/4 - u/24 + u^3/1440 - u^5/60480 near
    b = 1 (see _CRITICAL_SERIES_U).
    """
    def closed_form(b):
        return 1.0 / np.log(b) - 1.0 / (2.0 * (np.sqrt(b) - 1.0))

    return _critical_weight(b, closed_form, (-1.0 / 24.0, 1.0 / 1440.0, -1.0 / 60480.0))


def critical_nu_diff(b):
    """Maximizing weight ln((sqrt(b)-1)/ln(sqrt(b))) / ln(b) of the difference objective.

    Defined for b > 0, b != 1; always lies in [0, 1/2].  With u = ln(b)/2 it
    is ln(expm1(u)/u)/(2u), taken as 1/4 + u/48 - u^3/5760 + u^5/362880 near
    b = 1 (see _CRITICAL_SERIES_U).
    """
    def closed_form(b):
        rb = np.sqrt(b)
        return np.log((rb - 1.0) / np.log(rb)) / np.log(b)

    return _critical_weight(b, closed_form, (1.0 / 48.0, -1.0 / 5760.0, 1.0 / 362880.0))


def reverse_ratio_objective(b, nu):
    """Ratio-family objective (nu*b + (1-nu) - nu(sqrt(b)-1)^2) / b^nu.

    The numerator equals 1 + 2nu(sqrt(b)-1) identically and is evaluated in
    that form.  The defining one cancels two terms of size nu*b down to a
    value of size 2nu*sqrt(b), losing about log10(sqrt(b)) digits: at
    b = 1e12 that moved the numeric argmax by 1.5e-6.

    Its maximum over nu in [0, 1/2] is specht_ratio(sqrt(b)), attained at
    critical_nu_ratio(b).
    """
    barr = _as_float_array(b, "b")
    nuarr = _require_weight(nu)
    _require_positive(barr, "b")
    num = 1.0 + 2.0 * nuarr * (np.sqrt(barr) - 1.0)
    out = num / np.power(barr, nuarr)
    return _scalar_out(out, b, nu)


def reverse_diff_objective(b, nu):
    """Difference-family objective nu*b + (1-nu) - b^nu - nu(sqrt(b)-1)^2.

    Evaluated as 1 + 2nu(sqrt(b)-1) - b^nu, which is the same function without
    the cancellation between nu*b and nu(sqrt(b)-1)^2 (see
    reverse_ratio_objective).

    Its maximum over nu in [0, 1/2] is log_mean(1, sqrt(b)) * ln specht_ratio(sqrt(b)),
    attained at critical_nu_diff(b).
    """
    barr = _as_float_array(b, "b")
    nuarr = _require_weight(nu)
    _require_positive(barr, "b")
    out = 1.0 + 2.0 * nuarr * (np.sqrt(barr) - 1.0) - np.power(barr, nuarr)
    return _scalar_out(out, b, nu)


@dataclass(frozen=True)
class WeightedTuple:
    """Nonnegative values with strictly positive weights summing to one.

    Weights must sum to 1 within 1e-12 and are renormalized exactly after
    validation.  `lambda_min` is the smallest weight and
    `min_weight_multiplicity` counts how many weights attain it.
    """

    values: tuple
    weights: tuple

    def __init__(self, values, weights):
        vals = np.asarray(values, dtype=float)
        wts = np.asarray(weights, dtype=float)
        if vals.ndim != 1 or wts.ndim != 1 or vals.shape != wts.shape:
            raise ValueError("values and weights must be 1-d sequences of equal length")
        if vals.size < 2:
            raise ValueError("need at least 2 values")
        if not np.isfinite(vals).all() or not np.isfinite(wts).all():
            raise ValueError("values and weights must be finite")
        if (vals < 0.0).any():
            raise ValueError("values must be nonnegative")
        if (wts <= 0.0).any():
            raise ValueError("weights must be strictly positive")
        total = float(wts.sum())
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 within {_WEIGHT_SUM_TOL}, got {total!r}")
        wts = wts / total
        object.__setattr__(self, "values", tuple(float(v) for v in vals))
        object.__setattr__(self, "weights", tuple(float(w) for w in wts))

    @property
    def n(self):
        return len(self.values)

    @property
    def lambda_min(self):
        return min(self.weights)

    @property
    def min_weight_multiplicity(self):
        lam = self.lambda_min
        return sum(1 for w in self.weights if w == lam)


def refined_weighted_amgm_margin(t: WeightedTuple) -> float:
    """Slack of the refined weighted arithmetic-geometric mean inequality.

    Returns [sum p_i a_i - prod a_i^p_i] - n*lam*[(1/n) sum a_i - prod a_i^(1/n)]
    with lam the smallest weight.  Nonnegative; zero when all values coincide
    (and only then, provided the smallest weight is attained once).
    """
    vals = np.asarray(t.values)
    wts = np.asarray(t.weights)
    n = t.n
    weighted_gap = float(wts @ vals - np.prod(np.power(vals, wts)))
    uniform_gap = float(vals.mean() - np.prod(np.power(vals, 1.0 / n)))
    return weighted_gap - n * t.lambda_min * uniform_gap
