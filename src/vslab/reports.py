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
from fractions import Fraction
from json.encoder import encode_basestring_ascii

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


def dump_json(obj) -> str:
    """obj as JSON text with sorted keys, an indent of 2 and a trailing newline.

    Fractions become "num/den" strings, floats the strings of their repr(),
    tuples lists and keys their str(); keys with one str() keep the last
    value.  The text is json.dumps(..., sort_keys=True, indent=2) of the
    converted payload, written in the same walk as the conversions: json's
    indenting encoder is pure Python, so a walk to convert and a walk to
    encode would cost twice.  A container that several entries share, such
    as the chi or smn table of one moment report, is written once per indent.
    """
    return "".join(_json_pieces(obj, "\n", {})) + "\n"


def write_json(path, obj):
    """Write dump_json(obj) to path piece by piece, as the walk makes it,
    so the whole text is never held.  A walk that raises leaves the text
    written so far at path."""
    def fill(fh):
        fh.writelines(_json_pieces(obj, "\n", {}))
        fh.write("\n")
    _write(path, fill)


# the JSON text of a leaf, by exact type; a subclass takes _leaf's path
_LEAVES = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda x: "true" if x else "false",
    type(None): lambda x: "null",
    Fraction: lambda x: f'"{x.numerator}/{x.denominator}"',
    float: lambda x: f'"{fmt_float(x)}"',  # a float's repr needs no escapes
}


def _json_pieces(obj, newline, memo, look=True):
    """obj's JSON text, whose lines start with newline, in pieces: the
    members of a container are joined into one piece up to each member
    that is a container itself.  memo maps the id and newline of each
    container written so far to its text, or to None when it was seen
    once: only a shared container is looked up again, so only its text is
    kept, from its second sight on (look=False writes it afresh)."""
    leaf = _LEAVES.get(type(obj))
    if leaf is not None:
        yield leaf(obj)
        return
    is_dict = isinstance(obj, dict)
    if not is_dict and not isinstance(obj, (list, tuple)):
        yield _leaf(obj)
        return
    if not obj:
        yield "{}" if is_dict else "[]"
        return
    key = id(obj), newline
    if look and key in memo:
        if memo[key] is None:
            memo[key] = "".join(_json_pieces(obj, newline, memo, False))
        yield memo[key]
        return
    memo[key] = None
    if is_dict:
        items = sorted({str(k): v for k, v in obj.items()}.items())
        members = [(encode_basestring_ascii(k) + ": ", v) for k, v in items]
    else:
        members = [("", v) for v in obj]
    inner = newline + "  "
    run, sep = ["{" if is_dict else "["], inner  # run: the piece being joined
    for head, value in members:
        run.append(sep + head)
        sep = "," + inner
        leaf = _LEAVES.get(type(value))
        if leaf is not None:
            run.append(leaf(value))
        else:
            yield "".join(run)
            run = []
            yield from _json_pieces(value, inner, memo)
    run.append(newline + ("}" if is_dict else "]"))
    yield "".join(run)


def _leaf(obj):
    """The JSON text of a leaf whose type subclasses a leaf type."""
    for kind in (str, int, Fraction, float):
        if isinstance(obj, kind):
            return _LEAVES[kind](obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def csv_text(header, rows) -> str:
    buf = io.StringIO()
    _write_rows(buf, header, rows)
    return buf.getvalue()


def _write_rows(fh, header, rows):
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt_opt(x) for x in row])


def _write(path, fill):
    """Open path for writing and call fill on the file; a path that cannot
    be written is a usage error."""
    try:
        with open(path, "w") as fh:
            fill(fh)
    except OSError as exc:
        raise InvalidParameter(f"cannot write {path}: {exc.strerror}") from None


def write_csv(path, header, rows):
    """Write the CSV of csv_text(header, rows) to path, row by row."""
    _write(path, lambda fh: _write_rows(fh, header, rows))


def bound_check_row(check) -> list:
    return [
        check.kind,
        check.q,
        check.d,
        check.s,
        check.r,
        check.m,
        check.n,
        check.lhs,
        check.rhs,
        check.applicable,
        check.feasible,
        check.passed,
    ]


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
        try:
            fh = open(path, newline="")
        except OSError as exc:
            raise InvalidParameter(f"cannot read {path}: {exc.strerror}") from None
        with fh:
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
