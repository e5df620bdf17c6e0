"""Command-line entry point.

Subcommands:

* ``verify``  -- run the seeded inequality suite (or check one user-supplied
  matrix pair) and write a JSON/CSV report;
* ``explore`` -- run the grid scans and extremizer verification;
* ``repro``   -- recompute the two published reference values of the ratio
  comparison at (a, b) = (1, 10) and report deviations.

Exit codes: 0 success, 1 inequality violation, 2 usage/config error,
3 internal numerical error or any other unexpected error (traceback on
stderr), 10 conjecture counterexample witness.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
import traceback

from . import __version__
from .explore import (
    DEFAULT_EXTREMIZER_SAMPLES,
    GridSpec,
    conjecture_scan,
    no_ordering_scan,
    reference_comparison,
    verify_extremizers,
)
from .matrices import NumericalError, load_matrix
from .means import SpdPair
from .verify import (
    CHECK_NAMES,
    DEFAULT_NU_GRID,
    DEFAULT_REL_TOL,
    SuiteConfig,
    run_pair,
    run_suite,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_CONJECTURE_WITNESS = 10

_SCAN_CHOICES = (
    "all",
    "reference",
    "no-ordering-ratio",
    "no-ordering-difference",
    "conjecture",
    "extremizers",
)


def _parse_int_list(text, flag):
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise ValueError(f"{flag} must be a comma-separated list of integers, got {text!r}")


def _parse_float_list(text, flag):
    try:
        return tuple(float(part) for part in text.split(",") if part != "")
    except ValueError:
        raise ValueError(f"{flag} must be a comma-separated list of numbers, got {text!r}")


def _parse_range(text, flag):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"{flag} must be lo,hi,count, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"{flag} must be lo,hi,count, got {text!r}")


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(doc, out_path):
    _emit(json.dumps(doc, indent=2) + "\n", out_path)


def _emit_csv(rows, fieldnames, out_path):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    _emit(buf.getvalue(), out_path)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _suite_csv_rows(doc):
    rows = []
    for check in doc["checks"]:
        inst = check["worst_instance"]
        rows.append(
            {
                "name": check["name"],
                "worst_margin": check["worst_margin"],
                "worst_seed": inst["seed"],
                "worst_index": inst["index"],
                "worst_dim": inst["dim"],
                "worst_nu": inst["nu"],
                "violations": check["violations"],
            }
        )
    return rows


def _emit_verify_report(doc, args):
    if args.format == "json":
        _emit_json(doc, args.out)
    else:
        _emit_csv(
            _suite_csv_rows(doc),
            ["name", "worst_margin", "worst_seed", "worst_index", "worst_dim", "worst_nu", "violations"],
            args.out,
        )


def _verify_pair_mode(args):
    start = time.perf_counter()
    pair = SpdPair.from_matrices(load_matrix(args.pair[0]), load_matrix(args.pair[1]))
    aggregates = run_pair(pair, args.nu_grid, args.rel_tol)
    doc = {
        "tool_version": __version__,
        "config": {
            "pair": [args.pair[0], args.pair[1]],
            "nu_grid": list(args.nu_grid),
            "rel_tol": args.rel_tol,
        },
        "checks": [c.to_json_dict() for c in aggregates],
        "runtime_seconds": time.perf_counter() - start,
    }
    _emit_verify_report(doc, args)
    return EXIT_VIOLATION if any(c.violations for c in aggregates) else EXIT_OK


def cmd_verify(args):
    if args.pair:
        return _verify_pair_mode(args)
    cfg = SuiteConfig(
        seed=args.seed,
        trials=args.trials,
        dims=args.dims,
        m=args.m,
        big_m=args.big_m,
        nu_grid=args.nu_grid,
        rel_tol=args.rel_tol,
        checks=args.checks,
    )
    cfg.validate()
    report = run_suite(cfg)
    doc = report.to_json_dict()
    _emit_verify_report(doc, args)
    if report.errors:
        for err in report.errors:
            print(f"numerical error in {err['check']}: {err['message']}", file=sys.stderr)
        return EXIT_NUMERICAL
    if not report.passed:
        return EXIT_VIOLATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# explore
# ---------------------------------------------------------------------------

def cmd_explore(args):
    grid = GridSpec(
        a_lo=args.a_range[0],
        a_hi=args.a_range[1],
        a_count=args.a_range[2],
        b_lo=args.b_range[0],
        b_hi=args.b_range[1],
        b_count=args.b_range[2],
        nu_points=args.nu_points,
    )
    grid.validate()
    wanted = args.scan
    reports = []
    if wanted in ("all", "reference"):
        reports.append(reference_comparison().to_json_dict())
    if wanted in ("all", "no-ordering-ratio"):
        reports.append(no_ordering_scan("ratio", grid).to_json_dict())
    if wanted in ("all", "no-ordering-difference"):
        reports.append(no_ordering_scan("difference", grid).to_json_dict())
    if wanted in ("all", "conjecture"):
        reports.append(conjecture_scan(grid).to_json_dict())
    if wanted in ("all", "extremizers"):
        reports.append(verify_extremizers(args.b_samples).to_json_dict())

    doc = {"tool_version": __version__, "scans": reports}
    if args.format == "json":
        _emit_json(doc, args.out)
    else:
        rows = []
        for rep in reports:
            rows.append(
                {
                    "name": rep.get("name"),
                    "points": rep.get("points", len(rep.get("rows", []))),
                    "min_value": rep.get("min_value"),
                    "max_value": rep.get("max_value"),
                    "negatives": rep.get("negatives"),
                    "positives": rep.get("positives"),
                    "violations": rep.get("violations", 0),
                }
            )
        _emit_csv(
            rows,
            ["name", "points", "min_value", "max_value", "negatives", "positives", "violations"],
            args.out,
        )

    violation = False
    witness = False
    for rep in reports:
        if rep.get("violations", 0):
            violation = True
        if rep.get("name") == "conjecture" and rep.get("negatives", 0):
            witness = True
        if rep.get("name") == "reference" and not rep.get("within_tolerance", True):
            violation = True
        if rep.get("name") == "extremizers":
            if rep["max_argmax_deviation"] > 1e-6 or rep["max_value_rel_deviation"] > 1e-9:
                violation = True
    if violation:
        return EXIT_VIOLATION
    if witness:
        return EXIT_CONJECTURE_WITNESS
    return EXIT_OK


# ---------------------------------------------------------------------------
# repro
# ---------------------------------------------------------------------------

def cmd_repro(args):
    cmp = reference_comparison()
    if args.format == "json":
        _emit_json(cmp.to_json_dict(), args.out)
    else:
        rows = [
            {
                "nu": row["nu"],
                "computed": row["computed"],
                "reference": row["reference"],
                "deviation": row["deviation"],
            }
            for row in cmp.rows
        ]
        _emit_csv(rows, ["nu", "computed", "reference", "deviation"], args.out)
    if args.out:
        # keep the human-readable summary on stdout when the report goes to a file
        for row in cmp.rows:
            print(
                f"a={cmp.a:g} b={cmp.b:g} nu={row['nu']:g}: computed {row['computed']:+.6f} "
                f"reference {row['reference']:+.6f} deviation {row['deviation']:.2e}"
            )
    return EXIT_OK if cmp.within_tolerance else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_output_flags(sub):
    sub.add_argument("--out", help="write the report to this path (default: stdout)")
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="opmeans",
        description="Operator-mean inequality verification and exploration",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    verify = subs.add_parser("verify", help="run the seeded verification suite")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--trials", type=int, default=1000)
    verify.add_argument("--dims", type=lambda s: _parse_int_list(s, "--dims"), default=(2, 3, 4, 8))
    verify.add_argument("--m", type=float, default=1.0)
    verify.add_argument("--M", dest="big_m", type=float, default=10.0)
    verify.add_argument(
        "--nu-grid", type=lambda s: _parse_float_list(s, "--nu-grid"), default=DEFAULT_NU_GRID
    )
    verify.add_argument("--rel-tol", type=float, default=DEFAULT_REL_TOL)
    verify.add_argument(
        "--checks", type=lambda s: tuple(s.split(",")), default=CHECK_NAMES,
        help="comma-separated subset of: " + ",".join(CHECK_NAMES),
    )
    verify.add_argument(
        "--pair", nargs=2, metavar=("FILE_A", "FILE_B"),
        help="check one user-supplied matrix pair instead of random instances",
    )
    _add_output_flags(verify)
    verify.set_defaults(func=cmd_verify)

    explore = subs.add_parser("explore", help="run grid scans and extremizer verification")
    explore.add_argument("--scan", choices=_SCAN_CHOICES, default="all")
    explore.add_argument(
        "--a-range", type=lambda s: _parse_range(s, "--a-range"), default=(1e-2, 1e2, 200)
    )
    explore.add_argument(
        "--b-range", type=lambda s: _parse_range(s, "--b-range"), default=(1e-2, 1e2, 200)
    )
    explore.add_argument(
        "--nu-points",
        type=lambda s: _parse_float_list(s, "--nu-points"),
        default=GridSpec().nu_points,
    )
    explore.add_argument(
        "--b",
        dest="b_samples",
        type=lambda s: _parse_float_list(s, "--b"),
        default=DEFAULT_EXTREMIZER_SAMPLES,
        help="comma-separated condition ratios for the extremizer scan",
    )
    _add_output_flags(explore)
    explore.set_defaults(func=cmd_explore)

    repro = subs.add_parser(
        "repro", help="recompute the published reference values of the ratio comparison"
    )
    _add_output_flags(repro)
    repro.set_defaults(func=cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            code = 0
        return int(code)
    try:
        return args.func(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception:
        # Any other failure is a fault of the program, never a verdict on an
        # inequality, so it must not leave with the violation code 1.
        traceback.print_exc()
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
