"""Float64 reference of the pair-check margins on numpy.linalg.eigh (LAPACK).

Independent of the library's Jacobi solver, of its congruence frame and of
``opmeans.means``: every matrix function is formed here from a LAPACK
eigendecomposition, one instance and one weight at a time, and Specht's ratio
and the logarithmic mean are written from their definitions.  The smallest
eigenvalue of a margin matrix comes from the same LAPACK routine as in the
library, so this reference checks how the margins are assembled; the routine
itself is checked against the Jacobi solver in tests/test_matrices.py.
"""

import math

import numpy as np


def _fn(mat, f):
    lam, q = np.linalg.eigh(mat)
    out = (q * f(lam)) @ q.T
    return 0.5 * (out + out.T)


def _min_eig(mat):
    return float(np.linalg.eigvalsh(0.5 * (mat + mat.T))[0])


def _geometric(a, b, nu):
    root = _fn(a, np.sqrt)
    inv_root = _fn(a, lambda lam: 1.0 / np.sqrt(lam))
    return root @ _fn(inv_root @ b @ inv_root, lambda lam: np.maximum(lam, 0.0) ** nu) @ root


def specht(h):
    if h == 1.0:
        return 1.0
    t = math.log(h) / (h - 1.0)
    return math.exp(t - 1.0) / t


def log_mean(x, y):
    if x == y:
        return x
    return (y - x) / (math.log(y) - math.log(x))


def pair_bounds(a, b):
    """(m, M): the extreme eigenvalues of A and B together."""
    lam = np.concatenate([np.linalg.eigvalsh(a), np.linalg.eigvalsh(b)])
    return float(lam.min()), float(lam.max())


def pair_margins(check, a, b, nu):
    """The named margins of one pair check at one weight, bounds from the spectra."""
    m, big_m = pair_bounds(a, b)
    h = big_m / m
    r = min(nu, 1.0 - nu)
    am = (1.0 - nu) * a + nu * b
    gm = _geometric(a, b, nu)
    bridge = 0.5 * (a + b) - _geometric(a, b, 0.5)
    if check == "refined_chain":
        inv_a = _fn(a, lambda lam: 1.0 / lam)
        inv_b = _fn(b, lambda lam: 1.0 / lam)
        bridge_inv = 0.5 * (inv_a + inv_b) - _geometric(inv_a, inv_b, 0.5)
        refined_hm = np.linalg.inv(_geometric(inv_a, inv_b, nu) + 2.0 * r * bridge_inv)
        hm = np.linalg.inv((1.0 - nu) * inv_a + nu * inv_b)
        return {
            "am_vs_refined_gm": _min_eig(am - gm - 2.0 * r * bridge),
            "refined_gm_vs_gm": 2.0 * r * _min_eig(bridge),
            "gm_vs_refined_hm": _min_eig(gm - refined_hm),
            "refined_hm_vs_hm": _min_eig(refined_hm - hm),
            "am_vs_gm": _min_eig(am - gm),
        }
    if check == "reverse_ratio":
        return {"reverse_ratio": _min_eig(specht(math.sqrt(h)) * gm - (am - 2.0 * r * bridge))}
    if check == "reverse_difference":
        log_s = math.log(specht(math.sqrt(h)))
        c_global = h * math.sqrt(big_m) * log_mean(math.sqrt(big_m), math.sqrt(m)) * log_s
        c_tight = math.sqrt(h) * log_mean(math.sqrt(h), 1.0) * log_s * np.linalg.eigvalsh(a)[-1]
        rhs_max = -_min_eig(-(am - gm - 2.0 * r * bridge))
        return {
            "reverse_difference": c_global - rhs_max,
            "reverse_difference_tight": c_tight - rhs_max,
        }
    if check == "baseline_reverses":
        s = specht(h)
        eye = np.eye(a.shape[0])
        return {
            "baseline_ratio": _min_eig(s * gm - am),
            "baseline_difference": _min_eig(h * log_mean(m, big_m) * math.log(s) * eye + gm - am),
        }
    raise ValueError(f"not a pair check: {check}")


def worst_and_violations(check, a, b, nus, rel_tol):
    """(worst margin, violated weights) of one pair check over a weight list."""
    tol = rel_tol * pair_bounds(a, b)[1]
    lows = [min(pair_margins(check, a, b, nu).values()) for nu in nus]
    return min(lows), sum(low < -tol for low in lows)
