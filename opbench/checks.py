"""Checks of the program's reports against computations made apart from it.

Every checker takes a parsed report and returns a list of problems; an
empty list means the report passed.  None of them compares against a stored
copy of an earlier output.
"""

from __future__ import annotations

import numpy as np

from . import reference as ref

REPRO_LIMIT = 1e-4
PUBLISHED = {0.9: -0.246929, 0.6: 1.71544}
EXTREMIZER_ARG_LIMIT = 1e-6
EXTREMIZER_VALUE_LIMIT = 1e-9
# Closed forms here and in the library are the same formulas in another
# evaluation order; they agree to a few ulps.
FORMULA_REL = 1e-9
NU_MATCH = 1e-12
# Further seeded instances per check whose margins must not beat the reported worst.
EXTRA_INSTANCES = 2


def _close(x, y, rel=FORMULA_REL):
    return abs(x - y) <= rel * max(1.0, abs(x), abs(y))


def _worst_problems(label, check, first, second, entry, nu_grid, rel_tol):
    """Recompute one check's reported worst margin on its instance."""
    problems = []
    worst = entry["worst_margin"]
    nu = entry["worst_instance"]["nu"]
    tol = ref.tolerance(check, first, second, rel_tol)
    grid = ref.augmented_grid(nu_grid, ref.condition_ratio(check, first, second))
    if not any(abs(nu - g) <= NU_MATCH for g in grid):
        problems.append(f"{label}: worst nu {nu!r} is not on the instance's weight grid")
    else:
        at = min(ref.margins(check, first, second, nu).values())
        if abs(at - worst) > tol:
            problems.append(f"{label}: worst margin {worst!r} but recomputed {at!r} (tol {tol:.1e})")
    lowest = min(min(ref.margins(check, first, second, g).values()) for g in grid)
    if lowest < worst - tol:
        problems.append(f"{label}: margin {lowest!r} on the worst instance is below the reported worst {worst!r}")
    return problems


def _lower_bound_problems(label, check, first, second, worst, nu_grid, rel_tol):
    tol = ref.tolerance(check, first, second, rel_tol)
    grid = ref.augmented_grid(nu_grid, ref.condition_ratio(check, first, second))
    lowest = min(min(ref.margins(check, first, second, g).values()) for g in grid)
    if lowest < worst - tol:
        return [f"{label}: margin {lowest!r} is below the reported worst {worst!r}"]
    return []


def suite_results_per_check(cfg):
    return cfg["trials"] * (len(cfg["nu_grid"]) + 2)


def check_suite_report(doc, cfg, results=None):
    """Check an ``opmeans verify`` suite report.

    ``cfg`` holds seed, trials, dims, m, M, nu_grid, rel_tol and checks as
    passed on the command line; ``results`` maps check name to the number of
    margin results the suite evaluated, when the run captured it.
    """
    problems = []
    if doc.get("errors"):
        problems.append(f"report has numerical errors: {doc['errors']}")
    names = [entry.get("name") for entry in doc.get("checks", [])]
    if names != list(cfg["checks"]):
        problems.append(f"checks {names} differ from the requested {list(cfg['checks'])}")
    expected = suite_results_per_check(cfg)
    if results is not None:
        for name in cfg["checks"]:
            if results.get(name) != expected:
                problems.append(f"{name}: {results.get(name)} results, expected {expected}")
    dims = list(cfg["dims"])
    for entry in doc.get("checks", []):
        name = entry.get("name")
        if name not in ref.CHECK_IDS:
            continue
        if entry["violations"] != 0:
            problems.append(f"{name}: {entry['violations']} violations of a theorem")
        inst = entry["worst_instance"]
        index, dim = inst["index"], inst["dim"]
        if inst["seed"] != cfg["seed"] or not 0 <= index < cfg["trials"] or dim != dims[index % len(dims)]:
            problems.append(f"{name}: worst instance {inst} is not an instance of this run")
            continue
        first, second = ref.regenerate(cfg["seed"], name, index, dim, cfg["m"], cfg["M"])
        problems += _worst_problems(
            f"{name}[{index}]", name, first, second, entry, cfg["nu_grid"], cfg["rel_tol"]
        )
        picker = np.random.default_rng([cfg["seed"], ref.CHECK_IDS[name], 99])
        for other in picker.choice(cfg["trials"], size=min(EXTRA_INSTANCES, cfg["trials"]), replace=False):
            other = int(other)
            first, second = ref.regenerate(
                cfg["seed"], name, other, dims[other % len(dims)], cfg["m"], cfg["M"]
            )
            problems += _lower_bound_problems(
                f"{name}[{other}]", name, first, second, entry["worst_margin"],
                cfg["nu_grid"], cfg["rel_tol"],
            )
    return problems


def check_pair_report(doc, a, b, nu_grid, rel_tol, spectra=None):
    """Check an ``opmeans verify --pair`` report on the pair (a, b).

    ``spectra`` = (eigenvalues of A, eigenvalues of B) in shared-eigenvector
    order when the pair commutes; every worst margin is then also compared
    with its closed form.
    """
    problems = []
    names = [entry.get("name") for entry in doc.get("checks", [])]
    if names != list(ref.PAIR_CHECKS):
        problems.append(f"checks {names} differ from {list(ref.PAIR_CHECKS)}")
    n = a.shape[0]
    h = ref.condition_ratio("refined_chain", a, b)
    grid = ref.augmented_grid(nu_grid, h)
    tol = ref.tolerance("refined_chain", a, b, rel_tol)
    for entry in doc.get("checks", []):
        name = entry.get("name")
        if name not in ref.PAIR_CHECKS:
            continue
        if entry["violations"] != 0:
            problems.append(f"{name}: {entry['violations']} violations of a theorem")
        inst = entry["worst_instance"]
        if inst["dim"] != n or inst["index"] != 0:
            problems.append(f"{name}: worst instance {inst} does not describe the pair")
        problems += _worst_problems(name, name, a, b, entry, nu_grid, rel_tol)
        if spectra is not None:
            closed = min(min(ref.commuting_margins(name, *spectra, g).values()) for g in grid)
            if abs(closed - entry["worst_margin"]) > tol:
                problems.append(
                    f"{name}: worst margin {entry['worst_margin']!r} but closed form {closed!r}"
                )
    return problems


def check_reference_rows(rows, label):
    problems = []
    seen = set()
    for row in rows:
        nu = row["nu"]
        seen.add(nu)
        own = ref.ratio_quantity(row["a"], row["b"], nu)
        if not _close(row["computed"], own):
            problems.append(f"{label}: value {row['computed']!r} at nu={nu}, recomputed {own!r}")
        if nu in PUBLISHED and abs(row["computed"] - PUBLISHED[nu]) > REPRO_LIMIT:
            problems.append(f"{label}: value at nu={nu} deviates from {PUBLISHED[nu]} by more than 1e-4")
        if row["deviation"] > REPRO_LIMIT:
            problems.append(f"{label}: deviation {row['deviation']!r} at nu={nu} above 1e-4")
    if seen != set(PUBLISHED):
        problems.append(f"{label}: rows at weights {sorted(seen)}, expected {sorted(PUBLISHED)}")
    return problems


def check_repro_report(doc):
    """Check an ``opmeans repro`` report."""
    return check_reference_rows(doc.get("rows", []), "repro")


def grid_points(grid):
    """(points per no-ordering scan, points of the conjecture scan) of a grid."""
    a_axis = np.geomspace(*grid["a_range"][:2], int(grid["a_range"][2]))
    b_axis = np.geomspace(*grid["b_range"][:2], int(grid["b_range"][2]))
    full = a_axis.size * b_axis.size
    diagonal = int((a_axis[:, None] == b_axis[None, :]).sum())
    return full * len(grid["nu_points"]), full - diagonal


def _witness_problems(label, kind, witness, sign):
    if witness is None:
        return [f"{label}: no {'negative' if sign < 0 else 'positive'} witness"]
    if kind == "ratio":
        own = ref.ratio_quantity(witness["a"], witness["b"], witness["nu"])
    else:
        own = ref.difference_quantity(witness["a"], witness["b"], witness["nu"])
    if own * sign <= 0.0 or witness["value"] * sign <= 0.0:
        return [f"{label}: witness {witness} recomputes to {own!r}, wrong sign"]
    if not _close(witness["value"], own, rel=1e-8):
        return [f"{label}: witness value {witness['value']!r}, recomputed {own!r}"]
    return []


def check_explore_report(doc, grid, b_samples):
    """Check an ``opmeans explore --scan all`` report on the given grid."""
    problems = []
    scans = {scan.get("name"): scan for scan in doc.get("scans", [])}
    wanted = ["reference", "no-ordering-ratio", "no-ordering-difference", "conjecture", "extremizers"]
    if sorted(scans) != sorted(wanted):
        return [f"scans {sorted(scans)} differ from {sorted(wanted)}"]
    problems += check_reference_rows(scans["reference"]["rows"], "reference")
    per_scan, conjecture_points = grid_points(grid)
    for kind in ("ratio", "difference"):
        scan = scans[f"no-ordering-{kind}"]
        if scan["points"] != per_scan:
            problems.append(f"no-ordering-{kind}: {scan['points']} points, grid has {per_scan}")
        problems += _witness_problems(f"no-ordering-{kind}", kind, scan["negative_witness"], -1)
        problems += _witness_problems(f"no-ordering-{kind}", kind, scan["positive_witness"], +1)
    conj = scans["conjecture"]
    if conj["points"] != conjecture_points:
        problems.append(f"conjecture: {conj['points']} points, grid has {conjecture_points}")
    if conj["negatives"] != 0 or conj["violations"] != 0:
        problems.append(f"conjecture: {conj['negatives']} negatives, {conj['violations']} component violations")
    low = conj["min_at"]
    own = ref.conjecture_quantity(low["a"], low["b"])
    if not _close(low["value"], own, rel=1e-8) or own < 0.0:
        problems.append(f"conjecture: minimum {low} recomputes to {own!r}")
    ext = scans["extremizers"]
    if ext["max_argmax_deviation"] > EXTREMIZER_ARG_LIMIT or ext["max_value_rel_deviation"] > EXTREMIZER_VALUE_LIMIT:
        problems.append(
            f"extremizers: deviations {ext['max_argmax_deviation']!r}, {ext['max_value_rel_deviation']!r} above limits"
        )
    rows = {(row["b"], row["family"]): row for row in ext["rows"]}
    for b in b_samples:
        arg_r, val_r = ref.ratio_extremizer(b)
        arg_d, val_d = ref.difference_extremizer(b)
        for family, arg, val in (
            ("ratio", arg_r, val_r),
            ("difference", arg_d, val_d),
            ("ratio_mirror", 1.0 - arg_r, val_r),
        ):
            row = rows.get((b, family))
            if row is None:
                problems.append(f"extremizers: no row for b={b} {family}")
                continue
            if abs(row["argmax_numeric"] - arg) > EXTREMIZER_ARG_LIMIT or not _close(row["max_closed_form"], val):
                problems.append(f"extremizers: b={b} {family} row {row} disagrees with ({arg!r}, {val!r})")
    return problems
