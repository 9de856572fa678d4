"""Serialization helpers shared by the CLI: exact-rational JSON and CSV.

Conventions that make outputs byte-reproducible:
  - rationals are always "num/den" strings (den kept even when 1),
  - floats are rendered with repr(), the shortest round-trip form,
  - JSON is emitted with sorted keys and a trailing newline,
  - CSV rows are written in a documented, deterministic order.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from .errors import InvalidParameter

BOUND_CSV_HEADER = [
    "kind",
    "q",
    "d",
    "s",
    "r",
    "m",
    "n",
    "lhs",
    "rhs",
    "applicable",
    "feasible",
    "pass",
]


def frac_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def fmt_float(x) -> str:
    return repr(float(x))


def fmt_opt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return fmt_float(x)
    if isinstance(x, Fraction):
        return frac_str(x)
    if isinstance(x, tuple):
        return ",".join(str(c) for c in x)
    if isinstance(x, dict):
        return ";".join(f"{k}:{v}" for k, v in sorted(x.items()))
    return str(x)


def jsonable(obj):
    """Recursively convert Fractions/tuples for deterministic JSON."""
    if isinstance(obj, Fraction):
        return frac_str(obj)
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def dump_json(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n"


def csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt_opt(x) for x in row])
    return buf.getvalue()


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(csv_text(header, rows))


def bound_check_row(check) -> list:
    return [
        check.kind,
        check.q,
        check.d,
        check.s,
        check.r,
        check.m,
        check.n,
        None if check.lhs is None else Fraction(check.lhs),
        check.rhs,
        check.applicable,
        check.feasible,
        check.passed,
    ]


def moment_columns(report) -> dict:
    """Every named moment column of one report, each computed once.  The
    second-moment JSON, its CSV row and the sweep row select from it; in a
    CSV the a-vector is a comma list and chi a list of r:value pairs."""
    spec = report.spec
    return {
        "spec": spec.key,
        "q": spec.q,
        "d": spec.d,
        "s": spec.s,
        "a": spec.a,
        "n_b": spec.n_b,
        "mean": report.mean,
        "mu_d_q": report.mu_d_q,
        "residual_mean": report.mean - report.mu_d_q,
        "second_moment": report.second_moment,
        "mu_d2_q2": report.mu_d2_q2,
        "residual_second": report.second_moment - report.mu_d2_q2,
        "chi": report.chi,
        "smn": {f"{m},{n}": v for (m, n), v in report.smn.items()},
        "mean_reconstructed": report.mean_reconstructed,
        "v2_exact_mode": report.v2_exact_mode,
        "v2_paper_mode": report.v2_paper_mode,
        "paper_mode_residual": report.v2_paper_mode - report.v2_exact_mode,
        "mean_reconstruction_exact": report.mean_reconstruction_exact,
        "v2_exact_mode_matches": report.v2_exact_mode_matches,
    }


# the flat rows' own columns; the second-moment JSON holds all the others
ROW_ONLY_COLUMNS = ("n_b", "mean_reconstruction_exact", "v2_exact_mode_matches")

MOMENT_CSV_HEADER = [
    "spec",
    "q",
    "d",
    "s",
    "mean",
    "mu_d_q",
    "residual_mean",
    "second_moment",
    "mu_d2_q2",
    "residual_second",
    "mean_reconstruction_exact",
    "v2_exact_mode_matches",
    "paper_mode_residual",
]

# verify-identities echoes these beside its own checks
IDENTITY_JSON_KEYS = [
    "spec",
    "mean",
    "second_moment",
    "paper_mode_residual",
    "v2_exact_mode_matches",
]

# seed and bounds (the bound-suite summary) are not moment columns
SWEEP_CSV_HEADER = [
    "spec",
    "q",
    "d",
    "s",
    "a",
    "seed",
    "n_b",
    "mean",
    "mu_d_q",
    "residual_mean",
    "second_moment",
    "mu_d2_q2",
    "residual_second",
    "chi",
    "mean_reconstruction_exact",
    "v2_exact_mode_matches",
    "bounds",
]


CHI_CSV_HEADER = ["spec", "r", "chi_r", "main_term", "bound_rhs", "pass"]
SMN_CSV_HEADER = ["spec", "m", "n", "s_mn", "main_term", "bound_rhs", "pass"]


def merge_csv_files(paths):
    """Concatenate CSVs with identical headers; no row de-duplication.

    Rows come back sorted lexicographically by their string columns, so
    merged reports are stable regardless of input order.
    """
    header = None
    rows = []
    for path in paths:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                this_header = next(reader)
            except StopIteration:
                raise InvalidParameter(f"{path}: empty file") from None
            if header is None:
                header = this_header
            elif this_header != header:
                raise InvalidParameter(
                    f"{path}: columns {this_header} != {header}"
                )
            rows.extend(list(r) for r in reader)
    rows.sort()
    return header, rows
