"""Computations made apart from the library, for checking its outputs.

Matrix functions go through ``numpy.linalg.eigh`` (LAPACK), not the
library's Jacobi solver, and the scalar functions are written from their
definitions.  Instance regeneration follows the documented stream: instance
k of check c draws from ``SeedSequence([seed, check id, k])``, A before B,
each matrix as interior eigenvalues then a Haar orthogonal factor, with the
two spectrum endpoints pinned.
"""

from __future__ import annotations

import math

import numpy as np

CHECK_IDS = {
    "refined_chain": 1,
    "reverse_ratio": 2,
    "reverse_difference": 3,
    "baseline_reverses": 4,
    "holder_mccarthy": 5,
}
PAIR_CHECKS = ("refined_chain", "reverse_ratio", "reverse_difference", "baseline_reverses")
HM_ABS_TOL = 1e-10


# ---------------------------------------------------------------------------
# scalar functions, from their definitions
# ---------------------------------------------------------------------------

def specht(h):
    """Specht's ratio h^(1/(h-1)) / (e ln h^(1/(h-1))), with S(1) = 1."""
    h = float(h)
    if h == 1.0:
        return 1.0
    power = h ** (1.0 / (h - 1.0))
    return power / (math.e * math.log(power))


def log_mean(x, y):
    """(y - x) / (ln y - ln x), with L(x, x) = x."""
    x, y = float(x), float(y)
    if x == y:
        return x
    return (y - x) / (math.log(y) - math.log(x))


def critical_weights(h):
    """The two critical weights of condition ratio h, clamped to [0, 1]."""
    if h == 1.0:
        return 0.5, 0.5
    root = math.sqrt(h)
    ratio = 1.0 / math.log(h) - 1.0 / (2.0 * (root - 1.0))
    diff = math.log((root - 1.0) / math.log(root)) / math.log(h)
    return min(max(ratio, 0.0), 1.0), min(max(diff, 0.0), 1.0)


def augmented_grid(nu_grid, h):
    return tuple(nu_grid) + critical_weights(h)


def ratio_quantity(a, b, nu):
    """(1-nu)a + nu b - S(sqrt(a/b)) a^(1-nu) b^nu."""
    return (1.0 - nu) * a + nu * b - specht(math.sqrt(a / b)) * a ** (1.0 - nu) * b**nu


def difference_quantity(a, b, nu):
    """L(a,b) ln S(a/b) - [max(sqrt a, sqrt b) L(sqrt a, sqrt b) ln S(sqrt(a/b)) + r (sqrt a - sqrt b)^2]."""
    r = min(nu, 1.0 - nu)
    ra, rb = math.sqrt(a), math.sqrt(b)
    one_step = log_mean(a, b) * math.log(specht(a / b))
    half_power = max(ra, rb) * log_mean(ra, rb) * math.log(specht(math.sqrt(a / b)))
    return one_step - (half_power + r * (ra - rb) ** 2)


def conjecture_quantity(a, b):
    """L(a,b) ln S(a/b) - max(sqrt a, sqrt b) L(sqrt a, sqrt b) ln S(sqrt(a/b))."""
    ra, rb = math.sqrt(a), math.sqrt(b)
    one_step = log_mean(a, b) * math.log(specht(a / b))
    return one_step - max(ra, rb) * log_mean(ra, rb) * math.log(specht(math.sqrt(a / b)))


def ratio_extremizer(b):
    """(argmax over [0, 1/2], maximum) of the ratio-family objective."""
    root = math.sqrt(b)
    return 1.0 / math.log(b) - 1.0 / (2.0 * (root - 1.0)), specht(root)


def difference_extremizer(b):
    """(argmax over [0, 1/2], maximum) of the difference-family objective."""
    root = math.sqrt(b)
    arg = math.log((root - 1.0) / math.log(root)) / math.log(b)
    return arg, log_mean(1.0, root) * math.log(specht(root))


# ---------------------------------------------------------------------------
# instance regeneration
# ---------------------------------------------------------------------------

def instance_rng(seed, check, index):
    return np.random.default_rng(np.random.SeedSequence([seed, CHECK_IDS[check], index]))


def haar(rng, dim):
    """A Haar-distributed orthogonal matrix: QR of a Gaussian matrix, signs fixed."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def random_spd(rng, dim, m, big_m):
    interior = rng.uniform(m, big_m, size=dim - 2)
    eigvals = np.concatenate(([m, big_m], interior))
    q = haar(rng, dim)
    return sym((q * eigvals) @ q.T)


def unit_vector(rng, dim):
    while True:
        v = rng.standard_normal(dim)
        norm = np.linalg.norm(v)
        if norm >= 1e-8:
            return v / norm


def regenerate(seed, check, index, dim, m, big_m):
    """The suite's instance: (A, B) for a pair check, (A, x) for holder_mccarthy."""
    rng = instance_rng(seed, check, index)
    a = random_spd(rng, dim, m, big_m)
    if check == "holder_mccarthy":
        return a, unit_vector(rng, dim)
    return a, random_spd(rng, dim, m, big_m)


# ---------------------------------------------------------------------------
# operator means through LAPACK
# ---------------------------------------------------------------------------

def sym(x):
    return 0.5 * (x + x.T)


def spectral(mat, fn):
    lam, q = np.linalg.eigh(sym(mat))
    return sym((q * fn(lam)) @ q.T)


def inverse(mat):
    return spectral(mat, lambda lam: 1.0 / lam)


def geometric(a, b, nu):
    """A^(1/2) (A^(-1/2) B A^(-1/2))^nu A^(1/2)."""
    root = spectral(a, np.sqrt)
    inv_root = spectral(a, lambda lam: 1.0 / np.sqrt(lam))
    middle = sym(inv_root @ b @ inv_root)
    return sym(root @ spectral(middle, lambda lam: np.maximum(lam, 0.0) ** nu) @ root)


def min_eig(mat):
    return float(np.linalg.eigvalsh(sym(mat))[0])


def max_eig(mat):
    return float(np.linalg.eigvalsh(sym(mat))[-1])


def pair_bounds(a, b):
    """(m, M) certified from the spectra of both operands; M is also the margin scale."""
    lam_a = np.linalg.eigvalsh(a)
    lam_b = np.linalg.eigvalsh(b)
    return float(min(lam_a[0], lam_b[0])), float(max(lam_a[-1], lam_b[-1]))


def pair_margins(check, a, b, nu):
    """Every named margin of one pair check at one weight."""
    m, big_m = pair_bounds(a, b)
    h = big_m / m
    r = min(nu, 1.0 - nu)
    am = (1.0 - nu) * a + nu * b
    gm = geometric(a, b, nu)
    bridge = 0.5 * (a + b) - geometric(a, b, 0.5)
    if check == "refined_chain":
        inv_a, inv_b = inverse(a), inverse(b)
        bridge_inv = 0.5 * (inv_a + inv_b) - geometric(inv_a, inv_b, 0.5)
        refined_hm = inverse(geometric(inv_a, inv_b, nu) + 2.0 * r * bridge_inv)
        hm = inverse((1.0 - nu) * inv_a + nu * inv_b)
        return {
            "am_vs_refined_gm": min_eig(am - gm - 2.0 * r * bridge),
            "refined_gm_vs_gm": 2.0 * r * min_eig(bridge),
            "gm_vs_refined_hm": min_eig(gm - refined_hm),
            "refined_hm_vs_hm": min_eig(refined_hm - hm),
            "am_vs_gm": min_eig(am - gm),
        }
    if check == "reverse_ratio":
        return {"reverse_ratio": min_eig(specht(math.sqrt(h)) * gm - (am - 2.0 * r * bridge))}
    if check == "reverse_difference":
        root_h = math.sqrt(h)
        log_s = math.log(specht(root_h))
        c_global = h * math.sqrt(big_m) * log_mean(math.sqrt(big_m), math.sqrt(m)) * log_s
        c_tight = root_h * log_mean(root_h, 1.0) * log_s * float(np.linalg.eigvalsh(a)[-1])
        top = max_eig(am - gm - 2.0 * r * bridge)
        return {"reverse_difference": c_global - top, "reverse_difference_tight": c_tight - top}
    if check == "baseline_reverses":
        s = specht(h)
        shift = h * log_mean(m, big_m) * math.log(s)
        return {
            "baseline_ratio": min_eig(s * gm - am),
            "baseline_difference": min_eig(shift * np.eye(a.shape[0]) + gm - am),
        }
    raise ValueError(f"not a pair check: {check}")


def hm_margins(a, x, nu):
    """State-vector margins from <x|A|x>, <x|A^nu|x> and <x|A^(1/2)|x>."""
    r = min(nu, 1.0 - nu)
    s = float(x @ a @ x)
    s_nu = float(x @ spectral(a, lambda lam: lam**nu) @ x)
    s_half = float(x @ spectral(a, np.sqrt) @ x)
    return {
        "hm_refined": 1.0 - s ** (-nu) * s_nu - r * (1.0 - s_half / math.sqrt(s)) ** 2,
        "hm_baseline": s**nu - s_nu,
    }


def margins(check, first, second, nu):
    if check == "holder_mccarthy":
        return hm_margins(first, second, nu)
    return pair_margins(check, first, second, nu)


def condition_ratio(check, first, second):
    if check == "holder_mccarthy":
        lam = np.linalg.eigvalsh(first)
        return float(lam[-1] / lam[0])
    m, big_m = pair_bounds(first, second)
    return big_m / m


def tolerance(check, first, second, rel_tol):
    if check == "holder_mccarthy":
        return HM_ABS_TOL
    return rel_tol * pair_bounds(first, second)[1]


# ---------------------------------------------------------------------------
# closed forms for commuting pairs
# ---------------------------------------------------------------------------

def commuting_margins(check, lam_a, lam_b, nu):
    """Margins of a pair sharing eigenvectors, from the paired eigenvalues alone.

    With A = Q diag(a) Q^T and B = Q diag(b) Q^T every mean is Q diag(.) Q^T
    of the scalar mean, so each Loewner margin is an extreme of the scalar
    Young-type margins over the eigenvalue pairs.
    """
    a = np.asarray(lam_a, dtype=float)
    b = np.asarray(lam_b, dtype=float)
    m = float(min(a.min(), b.min()))
    big_m = float(max(a.max(), b.max()))
    h = big_m / m
    r = min(nu, 1.0 - nu)
    am = (1.0 - nu) * a + nu * b
    gm = a ** (1.0 - nu) * b**nu
    bridge = 0.5 * (np.sqrt(a) - np.sqrt(b)) ** 2
    refined_young = am - gm - 2.0 * r * bridge
    if check == "refined_chain":
        gm_inv = a ** (nu - 1.0) * b ** (-nu)
        bridge_inv = 0.5 * (1.0 / np.sqrt(a) - 1.0 / np.sqrt(b)) ** 2
        refined_hm = 1.0 / (gm_inv + 2.0 * r * bridge_inv)
        hm = 1.0 / ((1.0 - nu) / a + nu / b)
        return {
            "am_vs_refined_gm": float(refined_young.min()),
            "refined_gm_vs_gm": float(2.0 * r * bridge.min()),
            "gm_vs_refined_hm": float((gm - refined_hm).min()),
            "refined_hm_vs_hm": float((refined_hm - hm).min()),
            "am_vs_gm": float((am - gm).min()),
        }
    if check == "reverse_ratio":
        return {"reverse_ratio": float((specht(math.sqrt(h)) * gm - (am - 2.0 * r * bridge)).min())}
    if check == "reverse_difference":
        root_h = math.sqrt(h)
        log_s = math.log(specht(root_h))
        c_global = h * math.sqrt(big_m) * log_mean(math.sqrt(big_m), math.sqrt(m)) * log_s
        c_tight = root_h * log_mean(root_h, 1.0) * log_s * float(a.max())
        top = float(refined_young.max())
        return {"reverse_difference": c_global - top, "reverse_difference_tight": c_tight - top}
    if check == "baseline_reverses":
        s = specht(h)
        shift = h * log_mean(m, big_m) * math.log(s)
        return {
            "baseline_ratio": float((s * gm - am).min()),
            "baseline_difference": float((shift + gm - am).min()),
        }
    raise ValueError(f"not a pair check: {check}")
