import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opmeans import scalar

mp.mp.dps = 50


# ---------------------------------------------------------------------------
# High-precision oracle (50 digits), independent of the library code paths:
# every formula below is the textbook definition evaluated in mpmath.
# ---------------------------------------------------------------------------

def mp_specht(h):
    h = mp.mpf(h)
    if h == 1:
        return mp.mpf(1)
    t = mp.log(h) / (h - 1)
    return mp.e ** (t - 1) / t


def mp_log_mean(x, y):
    x, y = mp.mpf(x), mp.mpf(y)
    if x == y:
        return x
    return (y - x) / (mp.log(y) - mp.log(x))


def mp_refined_young_margin(a, b, nu):
    a, b, nu = mp.mpf(a), mp.mpf(b), mp.mpf(nu)
    r = min(nu, 1 - nu)
    return (1 - nu) * a + nu * b - a ** (1 - nu) * b ** nu - r * (mp.sqrt(a) - mp.sqrt(b)) ** 2


def mp_reverse_ratio_margin(a, b, nu):
    a, b, nu = mp.mpf(a), mp.mpf(b), mp.mpf(nu)
    r = min(nu, 1 - nu)
    gm = a ** (1 - nu) * b ** nu
    rhs = (1 - nu) * a + nu * b - r * (mp.sqrt(a) - mp.sqrt(b)) ** 2
    return mp_specht(mp.sqrt(a / b)) * gm - rhs


def mp_reverse_diff_margin(a, b, nu):
    a, b, nu = mp.mpf(a), mp.mpf(b), mp.mpf(nu)
    r = min(nu, 1 - nu)
    lhs = max(mp.sqrt(a), mp.sqrt(b)) * mp_log_mean(mp.sqrt(a), mp.sqrt(b)) * mp.log(
        mp_specht(mp.sqrt(a / b))
    )
    gap = (1 - nu) * a + nu * b - a ** (1 - nu) * b ** nu - r * (mp.sqrt(a) - mp.sqrt(b)) ** 2
    return lhs - gap


def log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=size))


# ---------------------------------------------------------------------------
# Specht's ratio
# ---------------------------------------------------------------------------

def test_specht_at_one_is_exactly_one():
    assert scalar.specht_ratio(1.0) == 1.0


def test_specht_oracle_value_at_two():
    assert scalar.specht_ratio(2.0) == pytest.approx(float(mp_specht(2)), rel=1e-14)
    # frozen oracle digits
    assert scalar.specht_ratio(2.0) == pytest.approx(1.0614756908460936, rel=1e-14)


def test_specht_reciprocal_symmetry_examples():
    assert scalar.specht_ratio(4.0) == pytest.approx(scalar.specht_ratio(0.25), rel=1e-13)


def test_specht_rejects_nonpositive():
    with pytest.raises(ValueError):
        scalar.specht_ratio(0.0)
    with pytest.raises(ValueError):
        scalar.specht_ratio(-3.0)


def test_specht_near_one_stability():
    for d in [1e-16, -1e-16, 1e-13, -1e-13, 1e-9, 1e-6]:
        got = scalar.specht_ratio(1.0 + d)
        want = float(mp_specht(mp.mpf(1) + mp.mpf(d)))
        assert got == pytest.approx(want, abs=1e-14)


def test_specht_monotone_on_grids():
    down = np.geomspace(1e-4, 0.999, 200)
    vals = scalar.specht_ratio(down)
    assert np.all(np.diff(vals) < 0)
    up = np.geomspace(1.001, 1e4, 200)
    vals = scalar.specht_ratio(up)
    assert np.all(np.diff(vals) > 0)


@settings(max_examples=300)
@given(st.floats(min_value=1e-8, max_value=1e8))
def test_specht_at_least_one_and_symmetric(h):
    s = scalar.specht_ratio(h)
    assert s >= 1.0
    assert s == pytest.approx(scalar.specht_ratio(1.0 / h), rel=1e-12)


# ---------------------------------------------------------------------------
# Logarithmic mean
# ---------------------------------------------------------------------------

def test_log_mean_equal_arguments():
    assert scalar.log_mean(3.0, 3.0) == 3.0


def test_log_mean_oracle_value():
    want = float(mp_log_mean(2, 8))
    assert scalar.log_mean(2.0, 8.0) == pytest.approx(want, rel=1e-14)
    assert scalar.log_mean(2.0, 8.0) == pytest.approx(4.328085122666891, rel=1e-14)


def test_log_mean_symmetry():
    assert scalar.log_mean(2.0, 8.0) == scalar.log_mean(8.0, 2.0)


def test_log_mean_rejects_nonpositive():
    with pytest.raises(ValueError):
        scalar.log_mean(0.0, 1.0)
    with pytest.raises(ValueError):
        scalar.log_mean(1.0, -2.0)


def test_log_mean_near_equal_stability():
    for eps in [1e-12, 1e-10, 1e-9]:
        x, y = 5.0, 5.0 * (1.0 + eps)
        want = float(mp_log_mean(x, mp.mpf(5) * (1 + mp.mpf(eps))))
        assert scalar.log_mean(x, y) == pytest.approx(want, rel=1e-14)


@settings(max_examples=300)
@given(
    st.floats(min_value=1e-6, max_value=1e6),
    st.floats(min_value=1e-6, max_value=1e6),
)
def test_log_mean_between_min_and_max(x, y):
    lm = scalar.log_mean(x, y)
    assert min(x, y) - 1e-12 * max(x, y) <= lm <= max(x, y) + 1e-12 * max(x, y)


def test_log_mean_monotone_in_first_argument():
    us = np.geomspace(1e-3, 1e3, 400)
    vals = scalar.log_mean(us, 1.0)
    assert np.all(np.diff(vals) > 0)


# ---------------------------------------------------------------------------
# Refined Young margin
# ---------------------------------------------------------------------------

def test_refined_young_equal_inputs_zero():
    for nu in [0.0, 0.3, 0.5, 0.9, 1.0]:
        assert scalar.refined_young_margin(5.0, 5.0, nu) == pytest.approx(0.0, abs=1e-15)


def test_refined_young_oracle_value():
    want = float(mp_refined_young_margin(4, 1, mp.mpf(1) / 4))
    got = scalar.refined_young_margin(4.0, 1.0, 0.25)
    assert got == pytest.approx(want, rel=1e-13)
    assert got == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), rel=1e-13)


def test_refined_young_endpoint_weights_zero():
    assert scalar.refined_young_margin(7.0, 2.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert scalar.refined_young_margin(7.0, 2.0, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_refined_young_accepts_zero_boundary():
    # 0**0 convention at the endpoints
    assert scalar.refined_young_margin(0.0, 3.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert scalar.refined_young_margin(0.0, 3.0, 0.5) == pytest.approx(0.0, abs=1e-15)
    assert scalar.refined_young_margin(0.0, 0.0, 0.3) == 0.0


def test_refined_young_below_plain_gap():
    rng = np.random.default_rng(7)
    a = log_uniform(rng, 1e-4, 1e4, 1000)
    b = log_uniform(rng, 1e-4, 1e4, 1000)
    nu = rng.uniform(0.0, 1.0, 1000)
    refined = scalar.refined_young_margin(a, b, nu)
    plain = scalar.young_gap(a, b, nu)
    assert np.all(refined <= plain + 1e-12 * (a + b))


@settings(max_examples=500)
@given(
    st.floats(min_value=1e-4, max_value=1e4),
    st.floats(min_value=1e-4, max_value=1e4),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_refined_young_nonnegative(a, b, nu):
    assert scalar.refined_young_margin(a, b, nu) >= -1e-12 * (a + b)


# ---------------------------------------------------------------------------
# Baseline reverses
# ---------------------------------------------------------------------------

def test_baseline_ratio_equal_inputs_zero():
    assert scalar.baseline_ratio_margin(3.0, 3.0, 0.7) == pytest.approx(0.0, abs=1e-14)


def test_baseline_ratio_positive_case():
    a, b, nu = 1.0, 10.0, 0.9
    got = scalar.baseline_ratio_margin(a, b, nu)
    assert got > 0.0
    # S(a/b) >= S(sqrt(a/b)), so the margin dominates the remainder-aware one
    # minus its remainder term
    remainder = min(nu, 1 - nu) * (math.sqrt(a) - math.sqrt(b)) ** 2
    assert got >= scalar.reverse_ratio_margin(a, b, nu) - remainder - 1e-12


def test_baseline_ratio_weight_zero():
    a, b = 2.0, 9.0
    got = scalar.baseline_ratio_margin(a, b, 0.0)
    assert got == pytest.approx((scalar.specht_ratio(a / b) - 1.0) * a, rel=1e-13)
    assert got >= 0.0


def test_baseline_diff_bound_dominates_gap():
    bound = scalar.baseline_diff_bound(1.0, 10.0)
    gap = scalar.young_gap(1.0, 10.0, 0.5)
    assert bound == pytest.approx(2.419591049529486, rel=1e-13)
    assert bound > gap


def test_baseline_diff_bound_symmetric():
    assert scalar.baseline_diff_bound(2.0, 8.0) == pytest.approx(
        scalar.baseline_diff_bound(8.0, 2.0), rel=1e-14
    )


def test_baseline_diff_equal_inputs():
    assert scalar.baseline_diff_bound(4.0, 4.0) == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# Remainder-aware reverses
# ---------------------------------------------------------------------------

def test_reverse_ratio_equal_inputs_zero():
    assert scalar.reverse_ratio_margin(6.0, 6.0, 0.4) == pytest.approx(0.0, abs=1e-14)


def test_reverse_ratio_oracle_values():
    want = float(mp_reverse_ratio_margin(1, 10, mp.mpf("0.9")))
    assert scalar.reverse_ratio_margin(1.0, 10.0, 0.9) == pytest.approx(want, rel=1e-12)
    assert scalar.reverse_ratio_margin(1.0, 10.0, 0.9) == pytest.approx(
        0.7144732625176212, rel=1e-12
    )
    want = float(mp_reverse_ratio_margin(4, 1, mp.mpf("0.5")))
    assert scalar.reverse_ratio_margin(4.0, 1.0, 0.5) == pytest.approx(want, rel=1e-12)
    assert scalar.reverse_ratio_margin(4.0, 1.0, 0.5) == pytest.approx(
        2.0 * scalar.specht_ratio(2.0) - 2.0, rel=1e-12
    )


def test_reverse_diff_equal_inputs_zero():
    assert scalar.reverse_diff_margin(5.0, 5.0, 0.2) == pytest.approx(0.0, abs=1e-14)


def test_reverse_diff_oracle_value():
    want = float(mp_reverse_diff_margin(1, 10, mp.mpf("0.9")))
    got = scalar.reverse_diff_margin(1.0, 10.0, 0.9)
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(0.27725591572778185, rel=1e-12)


def test_reverse_diff_endpoint_weights():
    # gap and remainder both vanish, so the margin is the nonnegative left side
    lhs = max(1.0, math.sqrt(10.0)) * scalar.log_mean(1.0, math.sqrt(10.0)) * math.log(
        scalar.specht_ratio(math.sqrt(0.1))
    )
    for nu in (0.0, 1.0):
        assert scalar.reverse_diff_margin(1.0, 10.0, nu) == pytest.approx(lhs, rel=1e-12)


@settings(max_examples=500)
@given(
    st.floats(min_value=1e-4, max_value=1e4),
    st.floats(min_value=1e-4, max_value=1e4),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_reverses_nonnegative(a, b, nu):
    tol = 1e-12 * (a + b)
    assert scalar.baseline_ratio_margin(a, b, nu) >= -tol
    assert scalar.reverse_ratio_margin(a, b, nu) >= -tol
    assert scalar.reverse_diff_margin(a, b, nu) >= -tol
    assert scalar.baseline_diff_bound(a, b) - scalar.young_gap(a, b, nu) >= -tol


# ---------------------------------------------------------------------------
# Critical weights
# ---------------------------------------------------------------------------

def test_critical_nu_ratio_values():
    assert scalar.critical_nu_ratio(4.0) == pytest.approx(0.22134752044448221, rel=1e-12)
    want = 0.5 - 1.0 / (2.0 * (math.e - 1.0))
    assert scalar.critical_nu_ratio(math.e**2) == pytest.approx(want, rel=1e-12)


def test_critical_nu_diff_value():
    assert scalar.critical_nu_diff(4.0) == pytest.approx(0.26438318647244935, rel=1e-12)


@pytest.mark.parametrize("b", [0.1, 0.5, 2.0, 10.0, 100.0])
def test_critical_weights_in_half_interval(b):
    assert 0.0 <= scalar.critical_nu_ratio(b) <= 0.5
    assert 0.0 <= scalar.critical_nu_diff(b) <= 0.5


def test_critical_weights_reject_degenerate():
    for fn in (scalar.critical_nu_ratio, scalar.critical_nu_diff):
        with pytest.raises(ValueError):
            fn(1.0)
        with pytest.raises(ValueError):
            fn(-2.0)


def test_critical_weights_are_elementwise():
    b = np.array([[0.1, 0.5], [4.0, 1e8]])
    for fn in (scalar.critical_nu_ratio, scalar.critical_nu_diff):
        got = fn(b)
        assert got.shape == b.shape
        assert got.ravel().tolist() == [fn(float(x)) for x in b.ravel()]
        assert type(fn(4.0)) is float
        # one bad entry refuses the whole array
        for bad in ([2.0, 1.0], [2.0, -1.0], [2.0, np.nan], [2.0, np.inf], [0.0]):
            with pytest.raises(ValueError):
                fn(np.array(bad))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="strictly positive"):
                fn(bad)


def test_critical_weights_match_high_precision_near_and_far_from_one():
    # near b = 1 both terms of each closed form grow like 1/ln b and cancel;
    # the library switches to the Taylor series in u = ln(b)/2 there, and the
    # oracle is the defining formula at 60 digits on the same float b
    near = [1.0 + s * 10.0**-k for k in range(1, 16) for s in (1.0, -1.0)]
    far = [float(x) for x in np.logspace(-300, 300, 61) if x != 1.0]
    for b in near + far + [1.0 + 2.0**-52, 1.0 - 2.0**-53]:
        with mp.workdps(60):
            mb = mp.mpf(b)
            root = mp.sqrt(mb)
            want_ratio = 1 / mp.log(mb) - 1 / (2 * (root - 1))
            want_diff = mp.log((root - 1) / mp.log(root)) / mp.log(mb)
        for fn, want in ((scalar.critical_nu_ratio, want_ratio), (scalar.critical_nu_diff, want_diff)):
            got = fn(b)
            assert 0.0 <= got <= 0.5, (fn.__name__, b, got)
            assert abs(got - want) <= 1e-13 * abs(want), (fn.__name__, b, got)
    # the same values elementwise over an array
    got = scalar.critical_nu_ratio(np.array(near))
    assert got.tolist() == [scalar.critical_nu_ratio(b) for b in near]


@pytest.mark.parametrize("b", [0.1, 0.5, 2.0, 4.0, 10.0, 100.0])
def test_critical_weight_max_value_identities(b):
    nu_r = scalar.critical_nu_ratio(b)
    got = scalar.reverse_ratio_objective(b, nu_r)
    want = scalar.specht_ratio(math.sqrt(b))
    assert got == pytest.approx(want, rel=1e-10)

    nu_d = scalar.critical_nu_diff(b)
    got = scalar.reverse_diff_objective(b, nu_d)
    want = scalar.log_mean(1.0, math.sqrt(b)) * math.log(scalar.specht_ratio(math.sqrt(b)))
    assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("b", [1e-6, 0.1, 4.0, 1e6, 1e12, 1e16, 1e100])
@pytest.mark.parametrize("nu", [0.01, 0.2, 0.45, 0.8])
def test_objectives_match_defining_formula(b, nu):
    # The library evaluates the numerator as 1 + 2nu(sqrt(b)-1); the oracle
    # uses the defining nu*b + (1-nu) - nu(sqrt(b)-1)^2, with 150 digits for
    # the cancellation of its nu*b terms.  The error is measured against the
    # size of the terms that are left, which the defining form in double
    # precision misses by about eps*nu*b.
    with mp.workdps(150):
        mb, mnu = mp.mpf(b), mp.mpf(nu)
        num = mnu * mb + (1 - mnu) - mnu * (mp.sqrt(mb) - 1) ** 2
    scale = 1 + 2 * nu * math.sqrt(b)
    ratio = scalar.reverse_ratio_objective(b, nu)
    assert abs(ratio - num / mb**mnu) <= 4e-16 * scale / float(mb**mnu)
    diff = scalar.reverse_diff_objective(b, nu)
    assert abs(diff - (num - mb**mnu)) <= 4e-16 * (scale + float(mb**mnu))


def test_critical_nu_diff_matches_golden_section_argmax():
    # independent bracketing search, no derivative information
    for b in [0.5, 4.0, 10.0]:
        def f(nu):
            return scalar.reverse_diff_objective(b, nu)

        lo, hi = 0.0, 0.5
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        c = hi - invphi * (hi - lo)
        d = lo + invphi * (hi - lo)
        while hi - lo > 1e-12:
            if f(c) > f(d):
                hi, d = d, c
                c = hi - invphi * (hi - lo)
            else:
                lo, c = c, d
                d = lo + invphi * (hi - lo)
        assert 0.5 * (lo + hi) == pytest.approx(scalar.critical_nu_diff(b), abs=1e-6)


# ---------------------------------------------------------------------------
# Klein sandwich
# ---------------------------------------------------------------------------

@settings(max_examples=300)
@given(st.floats(min_value=1e-6, max_value=1e6).filter(lambda b: b != 1.0))
def test_klein_sandwich(b):
    rb = math.sqrt(b)
    assert 1.0 - 1.0 / rb <= math.log(rb) + 1e-15
    assert math.log(rb) <= rb - 1.0 + 1e-15


# ---------------------------------------------------------------------------
# Component inequalities of the difference-bound comparison
# ---------------------------------------------------------------------------

@settings(max_examples=300)
@given(
    st.floats(min_value=1e-4, max_value=1e4),
    st.floats(min_value=1e-4, max_value=1e4),
)
def test_half_power_component_inequalities(a, b):
    ra, rb = math.sqrt(a), math.sqrt(b)
    omega = max(ra, rb)
    assert scalar.log_mean(a, b) <= omega * scalar.log_mean(ra, rb) * (1.0 + 1e-12)
    assert math.log(scalar.specht_ratio(a / b)) >= math.log(
        scalar.specht_ratio(math.sqrt(a / b))
    ) - 1e-12


# ---------------------------------------------------------------------------
# Weighted tuples and the n-variable refinement
# ---------------------------------------------------------------------------

def test_weighted_tuple_validation():
    with pytest.raises(ValueError):
        scalar.WeightedTuple([1.0], [1.0])
    with pytest.raises(ValueError):
        scalar.WeightedTuple([1.0, 2.0], [0.5, 0.6])
    with pytest.raises(ValueError):
        scalar.WeightedTuple([1.0, -2.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        scalar.WeightedTuple([1.0, 2.0], [1.0, 0.0])


def test_weighted_tuple_renormalizes_exactly():
    t = scalar.WeightedTuple([1.0, 2.0, 3.0], [1 / 3, 1 / 3, 1 / 3])
    assert math.fsum(t.weights) == pytest.approx(1.0, abs=1e-16)


def test_weighted_tuple_min_weight_fields():
    t = scalar.WeightedTuple([1.0, 2.0, 3.0], [0.5, 0.25, 0.25])
    assert t.lambda_min == 0.25
    assert t.min_weight_multiplicity == 2


def test_amgm_margin_equal_values_zero():
    t = scalar.WeightedTuple([7.0, 7.0, 7.0], [0.2, 0.5, 0.3])
    assert scalar.refined_weighted_amgm_margin(t) == pytest.approx(0.0, abs=1e-14)


def test_amgm_margin_oracle_value():
    t = scalar.WeightedTuple([1.0, 2.0, 3.0], [0.5, 1 / 3, 1 / 6])
    got = scalar.refined_weighted_amgm_margin(t)
    assert got == pytest.approx(0.06214121365983494, rel=1e-12)


def test_amgm_two_point_reduction_matches_refined_young():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b = log_uniform(rng, 1e-2, 1e2, 2)
        nu = rng.uniform(0.0, 1.0)
        t = scalar.WeightedTuple([a, b], [1.0 - nu, nu])
        got = scalar.refined_weighted_amgm_margin(t)
        want = scalar.refined_young_margin(a, b, nu)
        assert abs(got - want) <= 1e-12 * (a + b)


def test_amgm_strictly_positive_off_equality():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        vals = log_uniform(rng, 1e-1, 1e1, n)
        if np.max(vals) / np.min(vals) < 1.0 + 1e-6:
            continue
        w = rng.dirichlet(np.ones(n) * 2.0)
        if np.min(w) <= 0 or np.sum(w == np.min(w)) != 1:
            continue
        t = scalar.WeightedTuple(vals, w)
        assert scalar.refined_weighted_amgm_margin(t) > 0.0


def test_array_broadcast_shapes():
    a = np.array([1.0, 4.0, 9.0])
    out = scalar.refined_young_margin(a, 1.0, 0.25)
    assert out.shape == (3,)
    assert out[1] == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), rel=1e-13)
