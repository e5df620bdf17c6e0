import math

import numpy as np
import pytest

from opmeans.explore import (
    DEFAULT_EXTREMIZER_SAMPLES,
    GridSpec,
    conjecture_scan,
    golden_section_max,
    no_ordering_scan,
    reference_comparison,
    scan_quantity,
    verify_extremizers,
)
from opmeans.scalar import critical_nu_diff, critical_nu_ratio, log_mean, specht_ratio

SMALL_GRID = GridSpec(a_count=60, b_count=60, nu_points=(0.05, 0.2, 0.5, 0.6, 0.9))


# ---------------------------------------------------------------------------
# GridSpec
# ---------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(a_lo=-1.0).validate()
    with pytest.raises(ValueError):
        GridSpec(a_lo=2.0, a_hi=1.0).validate()
    with pytest.raises(ValueError):
        GridSpec(b_count=1).validate()
    with pytest.raises(ValueError):
        GridSpec(nu_points=(0.5, 2.0)).validate()
    GridSpec().validate()


@pytest.mark.parametrize(
    "fields,name",
    [
        ({"a_hi": math.inf}, "a-range"),
        ({"a_lo": math.nan}, "a-range"),
        ({"b_hi": math.inf}, "b-range"),
        ({"b_lo": -math.inf}, "b-range"),
    ],
)
def test_grid_validation_rejects_non_finite_endpoints(fields, name):
    with pytest.raises(ValueError, match=f"{name} endpoints must be finite"):
        GridSpec(**fields).validate()


def test_grid_axes_log_spaced():
    a_axis, b_axis = GridSpec(a_lo=0.01, a_hi=100.0, a_count=5).axes()
    assert a_axis[0] == pytest.approx(0.01)
    assert a_axis[-1] == pytest.approx(100.0)
    ratios = a_axis[1:] / a_axis[:-1]
    assert np.allclose(ratios, ratios[0])


# ---------------------------------------------------------------------------
# Reference values
# ---------------------------------------------------------------------------

def test_reference_values_match():
    cmp = reference_comparison()
    assert cmp.within_tolerance
    assert cmp.max_deviation <= 1e-4
    assert cmp.a == 1.0 and cmp.b == 10.0
    by_nu = {row["nu"]: row for row in cmp.rows}
    assert set(by_nu) == {0.9, 0.6}
    assert by_nu[0.9]["computed"] == pytest.approx(-0.246929, abs=1e-4)
    assert by_nu[0.6]["computed"] == pytest.approx(1.71544, abs=1e-4)


def test_reference_sanity_equal_inputs():
    assert scan_quantity("ratio", 5.0, 5.0, 0.3) == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# No-ordering scans
# ---------------------------------------------------------------------------

def test_ratio_scan_finds_both_signs():
    rep = no_ordering_scan("ratio", SMALL_GRID)
    assert rep.negative_witness is not None
    assert rep.positive_witness is not None
    assert rep.negatives > 0 and rep.positives > 0
    assert rep.violations == 0
    assert rep.points == 60 * 60 * 5


def test_difference_scan_finds_both_signs():
    rep = no_ordering_scan("difference", SMALL_GRID)
    assert rep.negative_witness is not None
    assert rep.positive_witness is not None


def test_scan_rejects_unknown_kind():
    with pytest.raises(ValueError):
        no_ordering_scan("nope", SMALL_GRID)
    with pytest.raises(ValueError):
        scan_quantity("nope", 1.0, 2.0)
    with pytest.raises(ValueError):
        scan_quantity("ratio", 1.0, 2.0)  # missing nu


def test_witnesses_self_verify():
    for kind in ("ratio", "difference"):
        rep = no_ordering_scan(kind, SMALL_GRID)
        for witness in (rep.negative_witness, rep.positive_witness, rep.min_at, rep.max_at):
            again = scan_quantity(kind, witness["a"], witness["b"], witness["nu"])
            assert again == pytest.approx(witness["value"], rel=1e-10)


def test_known_sign_points_on_ratio_scan():
    assert scan_quantity("ratio", 1.0, 10.0, 0.9) < 0.0
    assert scan_quantity("ratio", 1.0, 10.0, 0.6) > 0.0


# ---------------------------------------------------------------------------
# Scans against a per-weight oracle
# ---------------------------------------------------------------------------
#
# The oracle evaluates every weight from scratch on the full meshgrid, with the
# expressions written out in one piece.  The scans compute the weight-free
# factors once and combine them per weight on broadcast axes; both must give
# the same floats, so the reports are compared with ==.

def _oracle_quantity(kind, a, b, nu=None):
    if kind == "ratio":
        gm = np.power(a, 1.0 - nu) * np.power(b, nu)
        return (1.0 - nu) * a + nu * b - specht_ratio(np.sqrt(a / b)) * gm
    ra, rb = np.sqrt(a), np.sqrt(b)
    one_step = log_mean(a, b) * np.log(specht_ratio(a / b))
    half_power = np.maximum(ra, rb) * log_mean(ra, rb) * np.log(specht_ratio(np.sqrt(a / b)))
    if kind == "conjecture":
        return one_step - half_power
    return one_step - (half_power + min(nu, 1.0 - nu) * (ra - rb) ** 2)


def _oracle_witness(a, b, nu, value):
    w = {"a": float(a), "b": float(b), "value": float(value)}
    if nu is not None:
        w["nu"] = float(nu)
    return w


def _oracle_no_ordering(kind, grid):
    a_mesh, b_mesh = np.meshgrid(*grid.axes(), indexing="ij")
    out = {"name": f"no-ordering-{kind}", "points": 0, "min_value": np.inf, "min_at": None,
           "max_value": -np.inf, "max_at": None, "negatives": 0, "positives": 0,
           "violations": 0, "negative_witness": None, "positive_witness": None}
    for nu in grid.nu_points:
        vals = _oracle_quantity(kind, a_mesh, b_mesh, float(nu))
        out["points"] += vals.size
        out["negatives"] += int((vals < 0.0).sum())
        out["positives"] += int((vals > 0.0).sum())
        lo_idx, hi_idx = int(np.argmin(vals)), int(np.argmax(vals))
        lo, hi = float(vals.flat[lo_idx]), float(vals.flat[hi_idx])
        lo_at = _oracle_witness(a_mesh.flat[lo_idx], b_mesh.flat[lo_idx], nu, lo)
        hi_at = _oracle_witness(a_mesh.flat[hi_idx], b_mesh.flat[hi_idx], nu, hi)
        if lo < out["min_value"]:
            out["min_value"], out["min_at"] = lo, lo_at
        if hi > out["max_value"]:
            out["max_value"], out["max_at"] = hi, hi_at
        if out["negative_witness"] is None and lo < 0.0:
            out["negative_witness"] = lo_at
        if out["positive_witness"] is None and hi > 0.0:
            out["positive_witness"] = hi_at
    return out


def _oracle_conjecture(grid):
    a_mesh, b_mesh = np.meshgrid(*grid.axes(), indexing="ij")
    off = a_mesh != b_mesh
    a, b = a_mesh[off], b_mesh[off]
    vals = _oracle_quantity("conjecture", a, b)
    ra, rb = np.sqrt(a), np.sqrt(b)
    tol = 1e-12 * (a + b)
    comp_means = np.maximum(ra, rb) * log_mean(ra, rb) - log_mean(a, b)
    comp_specht = np.log(specht_ratio(a / b)) - np.log(specht_ratio(np.sqrt(a / b)))
    lo_idx, hi_idx = int(np.argmin(vals)), int(np.argmax(vals))
    negative = vals < 0.0
    first_neg = int(np.argmax(negative))
    return {
        "name": "conjecture",
        "points": int(vals.size),
        "min_value": float(vals[lo_idx]),
        "min_at": _oracle_witness(a[lo_idx], b[lo_idx], None, vals[lo_idx]),
        "max_value": float(vals[hi_idx]),
        "max_at": _oracle_witness(a[hi_idx], b[hi_idx], None, vals[hi_idx]),
        "negatives": int(negative.sum()),
        "positives": int((vals > 0.0).sum()),
        "violations": int((comp_means < -tol).sum() + (comp_specht < -tol).sum()),
        "negative_witness": (
            _oracle_witness(a[first_neg], b[first_neg], None, vals[first_neg])
            if negative.any() else None
        ),
        "positive_witness": None,
    }


ORACLE_GRIDS = {
    "default": GridSpec(),
    "non-square": GridSpec(a_lo=1e-6, a_hi=1e6, a_count=123, b_lo=1e-3, b_hi=1e8, b_count=77,
                           nu_points=(0.0, 0.3, 0.5, 1.0)),
}


@pytest.mark.parametrize("grid", list(ORACLE_GRIDS.values()), ids=list(ORACLE_GRIDS))
def test_scans_equal_per_weight_oracle(grid):
    for kind in ("ratio", "difference"):
        assert no_ordering_scan(kind, grid).to_json_dict() == _oracle_no_ordering(kind, grid)
    assert conjecture_scan(grid).to_json_dict() == _oracle_conjecture(grid)


# ---------------------------------------------------------------------------
# Conjecture scan
# ---------------------------------------------------------------------------

def test_conjecture_scan_no_negatives_small_grid():
    rep = conjecture_scan(GridSpec(a_count=80, b_count=80))
    assert rep.negatives == 0
    assert rep.negative_witness is None
    assert rep.min_value > 0.0
    assert rep.violations == 0
    assert rep.points == 80 * 80 - 80  # diagonal excluded


def test_conjecture_min_self_verifies():
    rep = conjecture_scan(GridSpec(a_count=40, b_count=40))
    again = scan_quantity("conjecture", rep.min_at["a"], rep.min_at["b"])
    assert again == pytest.approx(rep.min_at["value"], rel=1e-10)


def test_conjecture_components_hold_pointwise():
    rng = np.random.default_rng(3)
    a = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), 500))
    b = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), 500))
    tol = 1e-12 * (a + b)
    ra, rb = np.sqrt(a), np.sqrt(b)
    comp_means = np.maximum(ra, rb) * log_mean(ra, rb) - log_mean(a, b)
    comp_specht = np.log(specht_ratio(a / b)) - np.log(specht_ratio(np.sqrt(a / b)))
    assert np.all(comp_means >= -tol)
    assert np.all(comp_specht >= -tol)


# ---------------------------------------------------------------------------
# Extremizers
# ---------------------------------------------------------------------------

def test_golden_section_on_parabola():
    x, fx = golden_section_max(lambda t: -(t - 0.3) ** 2, 0.0, 1.0)
    assert x == pytest.approx(0.3, abs=1e-7)
    assert fx == pytest.approx(0.0, abs=1e-13)


def test_extremizers_default_samples():
    rep = verify_extremizers(DEFAULT_EXTREMIZER_SAMPLES)
    assert rep.max_argmax_deviation <= 1e-6
    assert rep.max_value_rel_deviation <= 1e-9
    assert len(rep.rows) == 3 * len(DEFAULT_EXTREMIZER_SAMPLES)


def test_extremizers_b4_values():
    rep = verify_extremizers((4.0,))
    rows = {row["family"]: row for row in rep.rows}
    assert rows["ratio"]["argmax_numeric"] == pytest.approx(critical_nu_ratio(4.0), abs=1e-6)
    assert rows["ratio"]["argmax_numeric"] == pytest.approx(0.221348, abs=1e-5)
    assert rows["ratio"]["max_numeric"] == pytest.approx(specht_ratio(2.0), rel=1e-9)
    assert rows["difference"]["argmax_numeric"] == pytest.approx(critical_nu_diff(4.0), abs=1e-6)
    assert rows["difference"]["argmax_numeric"] == pytest.approx(0.264383, abs=1e-5)
    assert rows["difference"]["max_numeric"] == pytest.approx(
        log_mean(1.0, 2.0) * math.log(specht_ratio(2.0)), rel=1e-9
    )
    assert rows["ratio_mirror"]["argmax_numeric"] == pytest.approx(
        1.0 - critical_nu_ratio(4.0), abs=1e-6
    )


def test_extremizers_reject_degenerate_sample():
    with pytest.raises(ValueError):
        verify_extremizers((1.0,))
    with pytest.raises(ValueError):
        verify_extremizers((-2.0,))
