"""High-precision cross-check of the operator margins.

Recomputes the refined-chain and reverse margins for a few seeded instances
in 50-digit arithmetic (mpmath eigendecompositions all the way down) and
compares the float64 pipeline against that oracle.
"""

import mpmath as mp
import numpy as np
import pytest

from opmeans.means import weighted_geometric, weighted_harmonic
from opmeans.verify import (
    check_baseline_reverses,
    check_refined_chain,
    check_reverse_difference,
    check_reverse_ratio,
    gen_spd_pair,
)

mp.mp.dps = 50


def to_mp(arr):
    return mp.matrix([[mp.mpf(v) for v in row] for row in np.asarray(arr).tolist()])


def mp_sym_power(a, p):
    lam, q = mp.eigsy(a)
    n = a.rows
    out = mp.zeros(n, n)
    for k in range(n):
        scale = lam[k] ** p
        for i in range(n):
            for j in range(n):
                out[i, j] += scale * q[i, k] * q[j, k]
    return out


def mp_geometric(a, b, nu):
    root = mp_sym_power(a, mp.mpf(1) / 2)
    inv_root = mp_sym_power(a, -mp.mpf(1) / 2)
    return root * mp_sym_power(inv_root * b * inv_root, nu) * root


def mp_min_eig(a):
    lam, _ = mp.eigsy(a)
    return min(lam)


def mp_max_eig(a):
    lam, _ = mp.eigsy(a)
    return max(lam)


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


def mp_chain_margins(a, b, nu):
    nu = mp.mpf(nu)
    r = min(nu, 1 - nu)
    am = (1 - nu) * a + nu * b
    gm = mp_geometric(a, b, nu)
    bridge = (a + b) / 2 - mp_geometric(a, b, mp.mpf(1) / 2)
    inv_a = mp_sym_power(a, -1)
    inv_b = mp_sym_power(b, -1)
    gm_inv = mp_geometric(inv_a, inv_b, nu)
    bridge_inv = (inv_a + inv_b) / 2 - mp_geometric(inv_a, inv_b, mp.mpf(1) / 2)
    refined_hm = mp_sym_power(gm_inv + 2 * r * bridge_inv, -1)
    hm = mp_sym_power((1 - nu) * inv_a + nu * inv_b, -1)
    return {
        "am_vs_refined_gm": mp_min_eig(am - gm - 2 * r * bridge),
        "refined_gm_vs_gm": 2 * r * mp_min_eig(bridge),
        "gm_vs_refined_hm": mp_min_eig(gm - refined_hm),
        "refined_hm_vs_hm": mp_min_eig(refined_hm - hm),
        "am_vs_gm": mp_min_eig(am - gm),
    }


@pytest.mark.parametrize("seed,dim,nu", [(0, 2, 0.3), (1, 3, 0.5), (2, 3, 0.85)])
def test_chain_margins_match_high_precision_oracle(seed, dim, nu):
    rng = np.random.default_rng(seed)
    pair = gen_spd_pair(dim, 1.0, 10.0, rng)
    res = check_refined_chain(pair, nu)
    a = to_mp(pair.a.entries)
    b = to_mp(pair.b.entries)
    want = mp_chain_margins(a, b, nu)
    for name, margin in res.margins.items():
        assert margin == pytest.approx(float(want[name]), abs=1e-11 * res.scale), name
        assert float(want[name]) >= 0.0  # the oracle confirms the ordering itself


@pytest.mark.parametrize("seed,dim,nu", [(3, 2, 0.4), (4, 3, 0.7)])
def test_reverse_margins_match_high_precision_oracle(seed, dim, nu):
    rng = np.random.default_rng(seed)
    pair = gen_spd_pair(dim, 1.0, 10.0, rng)
    a = to_mp(pair.a.entries)
    b = to_mp(pair.b.entries)
    nu_mp = mp.mpf(nu)
    r = min(nu_mp, 1 - nu_mp)
    h = mp.mpf(pair.big_m) / mp.mpf(pair.m)
    eye = mp.eye(dim)
    am = (1 - nu_mp) * a + nu_mp * b
    gm = mp_geometric(a, b, nu_mp)
    bridge = (a + b) / 2 - mp_geometric(a, b, mp.mpf(1) / 2)

    res = check_reverse_ratio(pair, nu)
    want = mp_min_eig(mp_specht(mp.sqrt(h)) * gm - (am - 2 * r * bridge))
    assert res.margins["reverse_ratio"] == pytest.approx(float(want), abs=1e-11 * res.scale)

    res = check_reverse_difference(pair, nu)
    c = h * mp.sqrt(mp.mpf(pair.big_m)) * mp_log_mean(
        mp.sqrt(mp.mpf(pair.big_m)), mp.sqrt(mp.mpf(pair.m))
    ) * mp.log(mp_specht(mp.sqrt(h)))
    want = mp_min_eig(c * eye - (am - gm - 2 * r * bridge))
    assert res.margins["reverse_difference"] == pytest.approx(float(want), abs=1e-11 * res.scale)

    res = check_baseline_reverses(pair, nu)
    want_ratio = mp_min_eig(mp_specht(h) * gm - am)
    want_diff = mp_min_eig(
        h * mp_log_mean(mp.mpf(pair.m), mp.mpf(pair.big_m)) * mp.log(mp_specht(h)) * eye + gm - am
    )
    assert res.margins["baseline_ratio"] == pytest.approx(float(want_ratio), abs=1e-11 * res.scale)
    assert res.margins["baseline_difference"] == pytest.approx(float(want_diff), abs=1e-11 * res.scale)


@pytest.mark.parametrize("h", [1e6, 1e8])
@pytest.mark.parametrize("seed,dim,nu", [(3, 2, 0.4), (4, 3, 0.7), (6, 4, 0.3)])
def test_reverse_ratio_matches_high_precision_oracle_at_large_h(seed, dim, nu, h):
    # the frame decides accuracy here: a frame that squares the condition of
    # L^-1 B L^-T errs by up to 1.6e-2 of the tolerance at h = 1e8.  The other
    # reverse margins are not asserted at large h: S(h) GM and the difference
    # constants reach 1e15, so rounding them alone costs a few tolerances
    rng = np.random.default_rng(seed)
    pair = gen_spd_pair(dim, 1.0, h, rng)
    a = to_mp(pair.a.entries)
    b = to_mp(pair.b.entries)
    nu_mp = mp.mpf(nu)
    r = min(nu_mp, 1 - nu_mp)
    am = (1 - nu_mp) * a + nu_mp * b
    gm = mp_geometric(a, b, nu_mp)
    bridge = (a + b) / 2 - mp_geometric(a, b, mp.mpf(1) / 2)
    s = mp_specht(mp.sqrt(mp.mpf(pair.big_m) / mp.mpf(pair.m)))
    res = check_reverse_ratio(pair, nu)
    want = mp_min_eig(s * gm - (am - 2 * r * bridge))
    assert res.margins["reverse_ratio"] == pytest.approx(float(want), abs=5e-3 * res.tol)


@pytest.mark.parametrize("h", [1e8, 1e10])
@pytest.mark.parametrize("seed,dim,nu", [(3, 2, 0.4), (4, 3, 0.7), (6, 4, 0.3), (7, 4, 0.5), (8, 3, 1.0)])
def test_chain_margins_match_high_precision_oracle_at_large_h(seed, dim, nu, h):
    # t spans about h^2 here, beyond any inversion floor; the division-free
    # harmonic diagonals keep every name of the chain within 2.9e-5 of the
    # tolerance at h = 1e8 and 2.9e-4 at 1e10.  At 50 digits the
    # oracle's own gm_vs_refined_hm reads -7.8e-24 at nu = 1, where it
    # vanishes identically, so its sign is asserted only to 1e-20 scale
    pair = gen_spd_pair(dim, 1.0, h, np.random.default_rng(seed))
    res = check_refined_chain(pair, nu)
    want = mp_chain_margins(to_mp(pair.a.entries), to_mp(pair.b.entries), nu)
    assert sorted(res.margins) == sorted(want)
    for name, margin in res.margins.items():
        assert margin == pytest.approx(float(want[name]), abs=1e-2 * res.tol), name
        assert float(want[name]) >= -1e-20 * res.scale, name


def mp_harmonic(a, b, nu):
    return mp_sym_power((1 - nu) * mp_sym_power(a, -1) + nu * mp_sym_power(b, -1), -1)


def mp_rel_error(got, want):
    return float(mp.mnorm(to_mp(got) - want, "f") / mp.mnorm(want, "f"))


@pytest.mark.parametrize("h", [1e4, 1e8])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_public_means_match_high_precision_oracle_at_large_h(dim, h):
    # relative Frobenius errors over these 24 cases at h = 1e8: the frame
    # keeps GM to 1.1e-9 and HM to 2.5e-9; a sandwich route
    # A^1/2 (A^-1/2 B A^-1/2)^nu A^1/2 errs by up to 7.4e-2 on them, and
    # Jacobi inverses of A, B and the mix by 3.5e-8
    for seed in range(4):
        pair = gen_spd_pair(dim, 1.0, h, np.random.default_rng(seed))
        a = to_mp(pair.a.entries)
        b = to_mp(pair.b.entries)
        for nu in (0.3, 0.5, 1.0):
            nu_mp = mp.mpf(nu)
            gm_err = mp_rel_error(weighted_geometric(pair, nu).entries, mp_geometric(a, b, nu_mp))
            hm_err = mp_rel_error(weighted_harmonic(pair, nu).entries, mp_harmonic(a, b, nu_mp))
            assert gm_err <= 1e-8, (seed, nu, gm_err)
            assert hm_err <= 1e-8, (seed, nu, hm_err)


def test_hm_margins_match_high_precision_oracle():
    from opmeans.verify import UnitVector, check_hm_refined

    rng = np.random.default_rng(5)
    pair = gen_spd_pair(3, 1.0, 10.0, rng)
    a = pair.a
    x = rng.standard_normal(3)
    x /= np.linalg.norm(x)
    vec = UnitVector(x)
    for nu in (0.25, 0.6, 1.0):
        res = check_hm_refined(a, vec, nu)
        am = to_mp(a.entries)
        lam, q = mp.eigsy(am)
        w = []
        for j in range(3):
            w.append(sum(q[i, j] * mp.mpf(x[i]) for i in range(3)) ** 2)
        nu_mp = mp.mpf(nu)
        r = min(nu_mp, 1 - nu_mp)
        q_lin = sum(wi * lam[j] for j, wi in enumerate(w))
        q_nu = sum(wi * lam[j] ** nu_mp for j, wi in enumerate(w))
        q_half = sum(wi * mp.sqrt(lam[j]) for j, wi in enumerate(w))
        want_refined = (1 - q_lin ** (-nu_mp) * q_nu) - r * (1 - q_half / mp.sqrt(q_lin)) ** 2
        want_baseline = q_lin**nu_mp - q_nu
        assert res.margins["hm_refined"] == pytest.approx(float(want_refined), abs=1e-13)
        assert res.margins["hm_baseline"] == pytest.approx(float(want_baseline), abs=1e-13)
