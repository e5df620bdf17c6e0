import json
import math
import re

import numpy as np
import pytest

from opmeans import explore
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
from opmeans.scalar import (
    critical_nu_diff,
    critical_nu_ratio,
    log_mean,
    reverse_diff_objective,
    reverse_ratio_objective,
    specht_ratio,
)

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


def _seeded_grid(seed):
    rng = np.random.default_rng(seed)
    lo_a, hi_a, lo_b, hi_b = rng.uniform(0.0, 0.5, size=4)
    return GridSpec(a_lo=10.0 ** (-2.0 - lo_a), a_hi=10.0 ** (2.0 + hi_a),
                    b_lo=10.0 ** (-2.0 - lo_b), b_hi=10.0 ** (2.0 + hi_b))


ORACLE_GRIDS = {
    "default": GridSpec(),
    "non-square": GridSpec(a_lo=1e-6, a_hi=1e6, a_count=123, b_lo=1e-3, b_hi=1e8, b_count=77,
                           nu_points=(0.0, 0.3, 0.5, 1.0)),
    "seeded": _seeded_grid(7),
    # a[i] == b[i - 1] for i = 1..4: equal values off the index diagonal, which
    # the conjecture scan must drop by value
    "shared-off-diagonal": GridSpec(a_lo=1e-2, a_hi=1e2, a_count=5, b_lo=1e-1, b_hi=1e3, b_count=5),
}


@pytest.mark.parametrize("grid", list(ORACLE_GRIDS.values()), ids=list(ORACLE_GRIDS))
def test_scans_equal_per_weight_oracle(grid):
    for kind in ("ratio", "difference"):
        assert no_ordering_scan(kind, grid).to_json_dict() == _oracle_no_ordering(kind, grid)
    assert conjecture_scan(grid).to_json_dict() == _oracle_conjecture(grid)


def test_shared_values_grid_shares_values_off_the_index_diagonal():
    a_axis, b_axis = ORACLE_GRIDS["shared-off-diagonal"].axes()
    i, j = np.nonzero(a_axis[:, None] == b_axis[None, :])
    assert i.tolist() == [1, 2, 3, 4] and j.tolist() == [0, 1, 2, 3]


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
    assert np.ndim(x) == 0 and np.ndim(fx) == 0


# The per-search golden-section loop, one interval at a time with scalar
# probes: the oracle of the lockstep search.
_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


def _scalar_golden_section_max(fn, lo, hi, tol=1e-10):
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc = fn(c)
    fd = fn(d)
    steps = 0
    while hi - lo > tol:
        steps += 1
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = fn(d)
    x = 0.5 * (lo + hi)
    return x, fn(x), steps


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _parabola(t):
    return -(t - 0.3) ** 2


def _staircase(t):
    # flat steps give ties fc == fd
    return -np.abs(np.floor(8.0 * t) - 2.0)


def _nan_right(t):
    # NaN right of 0.4, so fc > fd is False whenever d lies there
    return np.where(t > 0.4, np.nan, -(t - 0.3) ** 2)


GOLDEN_INTERVALS = [(0.0, 1.0), (0.0, 1e-3), (0.2, 0.2), (-5.0, 5.0), (0.25, 0.5), (0.3, 0.3 + 1e-10)]


@pytest.mark.parametrize("fn", [_parabola, _staircase, _nan_right], ids=["parabola", "ties", "nan"])
def test_golden_section_lockstep_equals_scalar_runs(fn):
    lo = np.array([iv[0] for iv in GOLDEN_INTERVALS])
    hi = np.array([iv[1] for iv in GOLDEN_INTERVALS])
    x, fx = golden_section_max(fn, lo, hi)
    assert x.shape == fx.shape == lo.shape
    steps = set()
    for k, (a, b) in enumerate(GOLDEN_INTERVALS):
        want_x, want_f, n = _scalar_golden_section_max(fn, a, b)
        steps.add(n)
        assert _bits(x[k]) == _bits(want_x)
        assert _bits(fx[k]) == _bits(want_f)
        one_x, one_f = golden_section_max(fn, a, b)
        assert _bits(one_x) == _bits(want_x) and _bits(one_f) == _bits(want_f)
    assert 0 in steps and len(steps) >= 4  # lo == hi takes no step; widths differ
    assert not np.isnan(x).any()


def test_golden_section_calls_fn_once_per_step_on_every_probe():
    shapes = []

    def fn(t):
        shapes.append(np.shape(t))
        return _parabola(t)

    lo, hi = np.zeros((2, 3)), np.full((2, 3), 0.5)
    hi[0, 0] = 1e-6
    golden_section_max(fn, lo, hi)
    *_, steps = _scalar_golden_section_max(_parabola, 0.0, 0.5)
    assert shapes == [(2, 3)] * (steps + 3)


# The per-search loop that verify_extremizers replaced: three scalar searches
# per sample, each with its own closed forms.
def _extremizer_oracle(b_samples, tol=1e-10):
    rows = []
    worst_arg = worst_val = 0.0
    for b in b_samples:
        b = float(b)
        if b <= 0.0 or b == 1.0:
            raise ValueError(f"samples must be positive and != 1, got {b}")
        families = (
            ("ratio", lambda nu: reverse_ratio_objective(b, nu), (0.0, 0.5),
             critical_nu_ratio(b), specht_ratio(np.sqrt(b))),
            ("difference", lambda nu: reverse_diff_objective(b, nu), (0.0, 0.5),
             critical_nu_diff(b), log_mean(1.0, np.sqrt(b)) * np.log(specht_ratio(np.sqrt(b)))),
            ("ratio_mirror", lambda nu: reverse_ratio_objective(b, 1.0 - nu), (0.5, 1.0),
             1.0 - critical_nu_ratio(b), specht_ratio(np.sqrt(b))),
        )
        for family, fn, (lo, hi), arg_closed, val_closed in families:
            arg_num, val_num, _ = _scalar_golden_section_max(fn, lo, hi, tol=tol)
            arg_dev = abs(arg_num - arg_closed)
            val_dev = abs(val_num - val_closed) / abs(val_closed) if val_closed != 0 else abs(val_num)
            worst_arg = max(worst_arg, arg_dev)
            worst_val = max(worst_val, val_dev)
            rows.append({
                "b": b,
                "family": family,
                "argmax_numeric": float(arg_num),
                "argmax_closed_form": float(arg_closed),
                "argmax_deviation": float(arg_dev),
                "max_numeric": float(val_num),
                "max_closed_form": float(val_closed),
                "max_rel_deviation": float(val_dev),
            })
    return {
        "name": "extremizers",
        "rows": rows,
        "max_argmax_deviation": float(worst_arg),
        "max_value_rel_deviation": float(worst_val),
    }


@pytest.mark.parametrize(
    "samples",
    [DEFAULT_EXTREMIZER_SAMPLES, (0.01, 0.3, 0.9), (1.0 + 1e-6, 1.0 - 1e-6), (1e6,), (4.0,)],
    ids=["default", "below-one", "near-one", "1e6", "4"],
)
def test_extremizers_equal_per_search_oracle(samples):
    got = json.dumps(verify_extremizers(samples).to_json_dict())
    assert got == json.dumps(_extremizer_oracle(samples))


def test_extremizers_objective_call_count(monkeypatch):
    calls = []
    for name in ("reverse_ratio_objective", "reverse_diff_objective"):
        original = getattr(explore, name)
        monkeypatch.setattr(explore, name, lambda *args, f=original: calls.append(1) or f(*args))
    verify_extremizers()
    assert 0 < len(calls) <= 120


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


@pytest.mark.parametrize(
    "samples,message",
    [
        ((4.0, 0.0), "samples must be positive and != 1, got 0.0"),
        ((4.0, 1.0, -1.0), "samples must be positive and != 1, got 1.0"),
        ((4.0, math.nan), "b must be strictly positive"),
        ((math.inf,), "b must be strictly positive"),
        ((math.nan, 0.0), "b must be strictly positive"),
        ((-1.0, math.nan), "samples must be positive and != 1, got -1.0"),
    ],
)
def test_extremizers_refuse_the_first_bad_sample(samples, message):
    # the message of the first bad sample in order, as a search per sample gives
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        verify_extremizers(samples)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _extremizer_oracle(samples)


def test_extremizers_of_no_samples():
    rep = verify_extremizers(())
    assert rep.rows == () and rep.max_argmax_deviation == 0.0 and rep.max_value_rel_deviation == 0.0
