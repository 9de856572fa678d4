"""vslab: config-driven experiment runner.

Exit codes: 0 = all requested checks passed, 1 = a verification failed
(failing instances are listed on stdout), 2 = usage/config error or an
infeasible budget for a directly requested computation, 3 = internal
error: a computed result broke a property the mathematics guarantees
(BrokenInvariant), which is a bug, not bad input.

Every randomized selection draws from a counter-based Philox generator
keyed by --seed with the instance coordinates in the counter, so any
sweep is replayable and identical configs give byte-identical outputs.
VSLAB_WORKERS sets the default worker count.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
from math import comb, factorial

import numpy as np

from . import bounds as bd
from . import counting as ct
from . import moments as mo
from . import reports as rp
from .errors import BrokenInvariant, BudgetExceeded, InvalidParameter, VslabError
from .family import FamilySpec, cover, orbit_representatives
from .gf import parse_descriptor
from .sweep import (
    FamilyStats, check_sweepable, collect_many, default_workers, run_scope
)

CHECK_FAILED = 1
USAGE_ERROR = 2
INTERNAL_ERROR = 3


def _philox(seed: int, *counters: int):
    counter = np.zeros(4, dtype=np.uint64)
    for i, c in enumerate(counters[:3]):
        counter[i + 1] = c % (1 << 64)
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


def parse_int_list(text: str):
    """"5", "5,7", and "5-9" all become sorted integer lists; a reversed
    range such as "9-5" is refused, not read as empty."""
    out = []
    for part in str(text).split(","):
        part = part.strip()
        try:
            ends = [int(x) for x in part.split("-", 1)]
        except ValueError:
            raise InvalidParameter(f"malformed integer list {text!r}") from None
        if ends[0] > ends[-1]:
            raise InvalidParameter(f"reversed range {part!r} in {text!r}")
        out.extend(range(ends[0], ends[-1] + 1))
    return sorted(set(out))


def _at_least(low: int, text: str) -> int:
    """The integer text, refused to argparse when below low."""
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    return _at_least(1, text)


def nonnegative_int(text: str) -> int:
    """argparse type for budgets, which may be 0 but not negative."""
    return _at_least(0, text)


def select_a_vectors(field, d, s, policy, seed):
    """Fixed-coefficient choices per the --a policy, as an iterable.

    "all" enumerates F_q^s lazily, from (0, ..., 0); "random:N" draws N
    vectors from Philox keyed by the seed with (q, d, s) in the counter;
    anything else is an explicit comma list.  s = 0 yields the single
    empty a, from no policy, "all" or "random:N"; an explicit vector,
    which names coefficients that s = 0 does not fix, is refused.
    """
    q = field.q
    policy = (policy or "").strip()
    if policy == "all":
        return itertools.product(range(q), repeat=s)
    if not policy:
        if s == 0:
            return [()]
        raise InvalidParameter(f"--a is required when s = {s} > 0")
    try:
        if policy.startswith("random:"):
            count = int(policy.split(":", 1)[1])
        else:
            vec = tuple(int(c) for c in policy.split(","))
    except ValueError:
        raise InvalidParameter(f"malformed --a {policy!r}") from None
    if policy.startswith("random:"):
        if count < 1:
            raise InvalidParameter(f"--a random:N needs N >= 1, got {count}")
        if s == 0:
            return [()]
        rng = _philox(seed, q, d, s)
        draws = rng.integers(0, q, size=(count, s))
        return [tuple(int(x) for x in row) for row in draws]
    if len(vec) != s:
        raise InvalidParameter(f"--a needs {s} entries, got {len(vec)}")
    return [vec]


def _a_vectors(args, field, d, s, grid):
    """The --a vectors at one point.  A grid applies --a to its s >= 1
    points only, so an explicit vector is refused at s = 0 by the
    single-field commands alone."""
    policy = "all" if grid and s == 0 else args.a
    return select_a_vectors(field, d, s, policy, args.seed)


def _plan(args, field=None, d=None, s=None):
    """(spec, swept spec) for each --a vector at one (field, d, s), in --a
    order; the single-field commands take all three from --field, --d and
    --s.  The swept spec is the canonical member of spec's affine orbit of
    a, which shares all its statistics; family.cover reduces it to what is
    swept.  The budget is judged on the requested family before anything is
    swept, and on the first a alone, before F_q^s is built: n_b does not
    depend on a.
    """
    grid = field is not None
    field = parse_descriptor(args.field) if field is None else field
    d = args.d if d is None else d
    s = args.s if s is None else s

    def spec_at(a):  # one call site, so a q <= d warning prints once
        return FamilySpec(field, d, s, a)

    a_vectors = iter(_a_vectors(args, field, d, s, grid))
    specs = [spec_at(next(a_vectors))]
    check_sweepable(specs[0], args.budget)
    specs += map(spec_at, a_vectors)
    reps = orbit_representatives(field, d, s, [spec.a for spec in specs])
    return [(spec, spec_at(rep)) for spec, rep in zip(specs, reps)]


def _instances(args, plan=None):
    """(spec, stats) for each (spec, swept spec) of the plan, in plan order;
    the default plan is the one of --field, --d and --s.

    All swept specs go through one collect_many stream, each by its
    family.cover, so this loop works on one instance while the workers
    sweep the next ones; each member gets its swept spec's stats under its
    own key.
    """
    plan = _plan(args) if plan is None else plan
    stream = collect_many([sw for _, sw in plan], workers=args.workers, cover=cover)
    for (spec, _), stats in zip(plan, stream):
        yield spec, dataclasses.replace(stats, key=spec.key)


def _moment_instances(args, plan=None):
    """(spec, stats, report, columns, JSON columns) for each instance.

    A moment report and its columns depend on the spec only through q, d
    and s, so they, and the columns' JSON form, are built once per
    distinct stats; each member gets copies with its own spec and a.
    """
    built = {}
    for spec, stats in _instances(args, plan):
        shared = dataclasses.replace(stats, key="")
        if shared not in built:
            rep = mo.build_moment_report(spec, stats)
            cols = rp.moment_columns(rep)
            built[shared] = rep, cols, rp.jsonable(cols)
        rep, cols, json_cols = built[shared]
        own = {"spec": spec.key, "a": spec.a}
        yield (spec, stats, dataclasses.replace(rep, spec=spec), {**cols, **own},
               {**json_cols, **rp.jsonable(own)})


def _grid(args, checked):
    """(field, d, s, marker) over --fields x --d x --s (default s: 0..d-2),
    skipping q <= d; marker is None at a point to sweep.

    In a `checked` grid a point that no estimate covers (every s > d-2
    is one) gets an "instance" marker when --s named it and is skipped
    otherwise.  Other grids refuse an s > d-2, which names no family.
    """
    fields = [parse_descriptor(f) for f in str(args.fields).split(",")]
    d_list = parse_int_list(args.d)
    s_list = None if args.s is None else parse_int_list(args.s)
    for field in fields:
        for d in d_list:
            if field.q <= d:
                continue
            top = max(d - 2, 0)
            for s in range(top + 1) if s_list is None else s_list:
                if checked and not bd.applicability(field.q, d, s, field.p):
                    if s_list is not None:
                        yield field, d, s, bd.marker("instance", field.q, d, s)
                elif s <= top:
                    yield field, d, s, None
                else:
                    raise InvalidParameter(
                        f"s = {s} > d-2 = {d - 2} names no family at d = {d}"
                    )


# -- command handlers ---------------------------------------------------------


def cmd_mean(args):
    results = []
    for spec, stats in _instances(args):
        mu_q = mo.main_term("mean_main", spec)
        results.append(
            {
                "spec": spec.key,
                "a": list(spec.a),
                "n_b": stats.n_b,
                "mean": stats.mean,
                "mu_d_q": mu_q,
                "residual": stats.mean - mu_q,
            }
        )
    _emit_json(args, results)
    return 0


def cmd_second_moment(args):
    reports = []
    rows = []
    failures = []
    for spec, _, rep, cols, json_cols in _moment_instances(args):
        reports.append(
            {k: v for k, v in json_cols.items() if k not in rp.ROW_ONLY_COLUMNS}
        )
        rows.append([cols[key] for key in rp.MOMENT_CSV_HEADER])
        if not rep.identities_hold:
            failures.append(spec.key)
    _emit_json(args, reports, failures=failures)
    if args.csv:
        rp.write_csv(args.csv, rp.MOMENT_CSV_HEADER, rows)
    if failures:
        print("FAIL:", *failures, file=sys.stderr)
        return CHECK_FAILED
    return 0


def _count_table(args, header, count, oracle, checks_of):
    """One CSV row per bound check: cell, swept count (count(stats, *cell)),
    main term, rhs and verdict.  Unless --method is "profile", the oracle
    must agree exactly."""
    rows = []
    mismatches = []
    for spec, stats in _instances(args):
        for check in checks_of(spec, stats):
            cell = (check.r,) if check.m is None else (check.m, check.n)
            value = count(stats, *cell)
            if args.method != "profile":
                other = oracle(spec, *cell, budget=args.subset_budget)
                if other != value:
                    mismatches.append((spec.key, *cell, value, other))
            rows.append([spec.key, *cell, value, check.main, check.rhs, check.passed])
    _emit_csv(args, header, rows)
    if mismatches:
        print(f"FAIL dual-method {args.command}:", mismatches, file=sys.stderr)
        return CHECK_FAILED
    return 0


def cmd_chi(args):
    r_values = parse_int_list(args.r) if args.r else None
    return _count_table(
        args, rp.CHI_CSV_HEADER, FamilyStats.chi, ct.chi_r,
        lambda spec, stats: bd.chi_checks(spec, stats, r_values),
    )


def cmd_smn(args):
    return _count_table(
        args, rp.SMN_CSV_HEADER, FamilyStats.s_mn, ct.s_mn, bd.smn_checks
    )


def cmd_gamma(args):
    d, s = args.d, args.s
    r_list = parse_int_list(args.r) if args.r else range(1, d + 1)
    for r in r_list:
        if not 1 <= r <= d:
            raise InvalidParameter(f"need 1 <= r <= d, got r={r}")
    mn_pairs = []
    if bool(args.m) != bool(args.n):
        raise InvalidParameter("--m and --n are given together or not at all")
    if args.m:
        m_list, n_list = parse_int_list(args.m), parse_int_list(args.n)
        mn_pairs = list(itertools.product(m_list, n_list))
    for m, n in mn_pairs:
        if not (1 <= m <= d and 1 <= n <= d):
            raise InvalidParameter(f"need 1 <= m, n <= d, got m={m}, n={n}")
    results = []
    failures = []
    for spec, stats in _instances(args):
        entry = {"spec": spec.key, "r": {}, "mn": {}}
        for r in r_list:
            affine_open, closed = stats.gamma_open(r), stats.gamma_closed[r - 1]
            item = {"affine_open": affine_open, "closed": closed}
            if r >= d - s + 1:
                ok = affine_open == factorial(r) * stats.chi(r)
                item["open_equals_r_factorial_chi"] = ok
                if not ok:
                    failures.append((spec.key, "gamma_r", r))
            if r == 1:
                ok = closed == spec.q ** (d - s)
                item["closed_equals_q_power"] = ok
                if not ok:
                    failures.append((spec.key, "gamma_1_closed", 1))
            entry["r"][str(r)] = item
        for (m, n), g in ct.gamma_counts_mn(spec, mn_pairs).items():
            ok = g.affine_open == factorial(m) * factorial(n) * stats.s_mn(m, n)
            entry["mn"][f"{m},{n}"] = {
                "affine_open": g.affine_open,
                "closed": g.closed,
                "open_equals_mn_factorial_smn": ok,
            }
            if not ok:
                failures.append((spec.key, "gamma_mn", (m, n)))
        results.append(entry)
    _emit_json(args, results, failures=[list(f) for f in failures])
    return CHECK_FAILED if failures else 0


def cmd_verify_identities(args):
    d, s = args.d, args.s
    checks = []
    for spec, stats, rep, _, json_cols in _moment_instances(args):
        entry = {key: json_cols[key] for key in rp.IDENTITY_JSON_KEYS}
        if rep.mean_reconstruction_exact is not None:
            entry["mean_reconstruction_exact"] = rep.mean_reconstruction_exact
        if s >= 1:
            dual = [
                stats.chi(r) == ct.chi_r(spec, r, budget=args.subset_budget)
                for r in range(d - s + 1, d + 1)
                if comb(spec.q, r) <= args.subset_budget
            ]
            entry["chi_dual_method"] = all(dual) if dual else None
        entry["gamma_1_closed_exact"] = stats.gamma_closed[0] == spec.q ** (d - s)
        # a check that could not run (None, or absent) does not fail the instance
        entry["ok"] = (
            rep.identities_hold
            and entry.get("chi_dual_method") is not False
            and entry["gamma_1_closed_exact"]
        )
        checks.append(entry)
    _emit_json(args, checks)
    bad = [c["spec"] for c in checks if not c["ok"]]
    if bad:
        print("FAIL:", *bad, file=sys.stderr)
        return CHECK_FAILED
    return 0


def cmd_verify_bounds(args):
    # the marker rows or the plan of every grid point, before the first sweep
    points = []
    for field, d, s, marker in _grid(args, checked=True):
        markers, plan = [], []
        if marker is not None:
            markers = [marker]
        else:
            try:
                plan = _plan(args, field, d, s)
            except BudgetExceeded:
                # n_b does not depend on a, so every a-vector is over budget
                a_count = sum(1 for _ in _a_vectors(args, field, d, s, grid=True))
                markers = [bd.marker("sweep", field.q, d, s)] * a_count
        points.append((markers, plan))
    instances = _instances(args, [entry for _, plan in points for entry in plan])
    rows = []
    any_fail = False
    for markers, plan in points:
        checks = markers + [
            check
            for spec, stats in itertools.islice(instances, len(plan))
            for check in bd.bound_suite(spec, stats)
        ]
        any_fail |= any(check.passed is False for check in checks)
        rows.extend(rp.bound_check_row(check) + [args.seed] for check in checks)
    _emit_csv(args, rp.BOUND_CSV_HEADER + ["seed"], rows)
    return CHECK_FAILED if any_fail else 0


def cmd_sweep(args):
    rows = []
    failed = False
    # the whole grid is planned, and so checked, before the first sweep
    plan = [
        entry
        for field, d, s, _ in _grid(args, checked=False)
        for entry in _plan(args, field, d, s)
    ]
    for spec, stats, rep, cols, _ in _moment_instances(args, plan):
        checks = bd.bound_suite(spec, stats)
        failed |= not rep.identities_hold
        failed |= any(check.passed is False for check in checks)
        cols.update(seed=args.seed, bounds=bd.suite_summary(checks))
        rows.append([cols[key] for key in rp.SWEEP_CSV_HEADER])
    _emit_csv(args, rp.SWEEP_CSV_HEADER, rows)
    return CHECK_FAILED if failed else 0


APPENDIX_CASES = [(7, 4), (5, 5), (3, 6), (3, 4), (5, 6), (3, 7)]
SUBRES_CASES = [(5, 3), (7, 4), (3, 3), (5, 5)]


def _pairs(text, default):
    """"7,4;5,5" becomes [(7, 4), (5, 5)]; no text gives the default."""
    if not text:
        return default
    try:
        return [(int(p), int(d)) for p, d in (c.split(",") for c in text.split(";"))]
    except ValueError:
        raise InvalidParameter(f"malformed p,d pair list {text!r}") from None


def cmd_appendix(args):
    from . import appendix as ap

    case_list = _pairs(args.cases, APPENDIX_CASES)
    subres_list = _pairs(args.subres, SUBRES_CASES)
    results = {"cases": [], "subres1_terms": []}
    any_fail = False
    for p, d in case_list:
        rep = ap.appendix_case_check(p, d)
        entry = rep.to_dict()
        entry["b0_degree"] = ap.resultant_b0_degree(
            p, d, {0, 1} if rep.case == "generic" else {0, 1, 2}
        )
        results["cases"].append(entry)
        any_fail |= rep.matched == "failed"
    for p, d in subres_list:
        rep = ap.subres1_terms_check(p, d)
        results["subres1_terms"].append(rep.to_dict())
        any_fail |= rep.matched == "failed"
    _emit_json(args, results)
    return CHECK_FAILED if any_fail else 0


def cmd_audit_linear(args):
    field = parse_descriptor(args.field)
    d, s = args.d, args.s
    q = field.q
    rng = _philox(args.seed, q, d, s)
    a_vectors = _a_vectors(args, field, d, s, grid=False)
    specs = [FamilySpec(field, d, s, a) for a in a_vectors]
    total = d - s
    if total < 2:  # past the family's own checks, only d = 1 gets here
        raise InvalidParameter(
            f"audit-linear needs two nonempty subsets with m + n <= d - s = {total}"
        )
    checks = []
    failures = 0
    for spec in specs:
        for _ in range(args.count):
            m = int(rng.integers(1, total))
            n = int(rng.integers(1, total - m + 1))
            perm = rng.permutation(q)
            g1 = {int(x) for x in perm[:m]}
            g2 = {int(x) for x in perm[m : m + n]}
            audit = ct.linear_system_audit(spec, g1, g2)
            ok = audit["rank"] == m + n and audit["count_all"] == q ** (
                d - s + 1 - m - n
            )
            if ok and q ** (d - s + 1) <= args.subset_budget:
                brute_all, brute_strict = _brute_linear_counts(spec, g1, g2)
                ok = (
                    audit["count_all"] == brute_all
                    and audit["count_strict"] == brute_strict
                )
            failures += not ok
            checks.append(
                {
                    "spec": spec.key,
                    "gamma1": sorted(g1),
                    "gamma2": sorted(g2),
                    "rank": audit["rank"],
                    "count_all": audit["count_all"],
                    "count_strict": audit["count_strict"],
                    "ok": ok,
                }
            )
    _emit_json(args, checks, failures=failures)
    return CHECK_FAILED if failures else 0


def _brute_linear_counts(spec, g1, g2):
    from .family import enumerate_b, family_poly
    from .upoly import batch_eval

    gf = spec.field
    count_all = count_strict = 0
    for b in enumerate_b(spec):
        vals = batch_eval(gf, family_poly(spec, b, 0))
        c1 = {vals[t] for t in g1}
        c2 = {vals[t] for t in g2}
        if len(c1) == 1 and len(c2) == 1:
            count_all += 1
            count_strict += c1 != c2
    return count_all, count_strict


def cmd_report_merge(args):
    header, rows = rp.merge_csv_files(args.paths)
    rp.write_csv(args.out, header, rows)
    return 0


# -- wiring --------------------------------------------------------------------


def _emit_json(args, results, **extra):
    """Write {command, config, results, **extra} to --out, else stdout."""
    # output paths and the worker count are not semantic config: identical
    # runs aimed at different files or run on more workers must still
    # produce byte-identical payloads
    skip = {"func", "config", "out", "csv", "workers"}
    config = {
        k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None
    }
    text = rp.dump_json(
        {"command": args.command, "config": config, "results": results, **extra}
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(args, header, rows):
    """Write the CSV to --out, else stdout."""
    if args.out:
        rp.write_csv(args.out, header, rows)
    else:
        sys.stdout.write(rp.csv_text(header, rows))


def _add_command(subs, name, func, help_text, field_mode="single", a_default=""):
    """A subcommand with the shared flags, --d and --a; single-field
    commands also get --s."""
    sub = subs.add_parser(name, help=help_text)
    sub.set_defaults(func=func)
    if field_mode == "single":
        sub.add_argument("--field", required=True, help="p^k or p^k/c0,c1,...")
        sub.add_argument("--d", type=int, required=True)
        sub.add_argument("--s", type=int, required=True)
        sub.add_argument("--a", default=a_default)
    else:
        sub.add_argument("--fields", required=True, help="comma list of descriptors")
        sub.add_argument("--d", required=True, help="list or range, e.g. 5-9")
        sub.add_argument("--a", default="random:1")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--budget", type=nonnegative_int, default=10**6,
                     help="max b-vectors per requested instance")
    sub.add_argument("--subset-budget", type=nonnegative_int, default=10**6,
                     dest="subset_budget")
    sub.add_argument("--workers", type=positive_int, default=default_workers())
    sub.add_argument("--out", default=None)
    return sub


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vslab",
        description="exact value-set statistics of polynomial families "
        "over odd-characteristic finite fields",
    )
    parser.add_argument("--config", default=None, help="JSON file of defaults")
    subs = parser.add_subparsers(dest="command", required=True)

    _add_command(subs, "mean", cmd_mean, "exact average value set")

    p = _add_command(subs, "second-moment", cmd_second_moment,
                     "exact second moment + report")
    p.add_argument("--csv", default=None, help="also write flat CSV rows")

    p = _add_command(subs, "chi", cmd_chi, "interpolating-subset counts")
    p.add_argument("--r", default=None, help="r values; default full high range")
    p.add_argument("--method", choices=["profile", "subsets", "both"],
                   default="profile")

    p = _add_command(subs, "smn", cmd_smn, "two-subset interpolation counts")
    p.add_argument("--method", choices=["profile", "brute", "both"],
                   default="profile")

    p = _add_command(subs, "gamma", cmd_gamma, "incidence-variety point counts")
    p.add_argument("--r", default=None)
    p.add_argument("--m", default=None)
    p.add_argument("--n", default=None)

    _add_command(subs, "verify-identities", cmd_verify_identities,
                 "exact identity checks", a_default="all")

    p = _add_command(subs, "verify-bounds", cmd_verify_bounds,
                     "one-sided bound suite", field_mode="multi")
    p.add_argument("--s", default=None, help="list/range; default: all applicable")

    p = _add_command(subs, "sweep", cmd_sweep, "moment + bound rows over a grid",
                     field_mode="multi")
    p.add_argument("--s", required=True)

    p = subs.add_parser("appendix", help="discriminant formula checks")
    p.add_argument("--cases", default=None, help='e.g. "7,4;5,5"')
    p.add_argument("--subres", default=None, help='e.g. "5,3;7,4"')
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_appendix)

    p = _add_command(subs, "audit-linear", cmd_audit_linear,
                     "Vandermonde rank/count audit")
    p.add_argument("--count", type=positive_int, default=50)

    p = subs.add_parser("report-merge", help="merge schema-compatible CSVs")
    p.add_argument("paths", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report_merge)

    return parser


def _apply_config_file(argv):
    """--config JSON (or --config=JSON) supplies defaults; explicit flags,
    as --flag value or --flag=value, still win."""
    for idx, arg in enumerate(argv):
        if arg == "--config":
            path = argv[idx + 1]
            rest = argv[:idx] + argv[idx + 2 :]
            break
        if arg.startswith("--config="):
            path = arg[len("--config=") :]
            rest = argv[:idx] + argv[idx + 1 :]
            break
    else:
        return argv
    with open(path) as fh:
        conf = json.load(fh)
    if not isinstance(conf, dict):
        kind = type(conf).__name__
        raise InvalidParameter(f"{path}: expected a JSON object, got {kind}")
    command = conf.pop("command", None)
    if command and (not rest or rest[0].startswith("-")):
        rest.insert(0, command)
    given = {a.split("=", 1)[0] for a in rest if a.startswith("--")}
    extra = []
    for key, value in sorted(conf.items()):
        flag = "--" + key.replace("_", "-")
        if flag not in given:
            extra.extend([flag, str(value)])
    return rest + extra


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config_file(argv)
    except (OSError, json.JSONDecodeError, IndexError, InvalidParameter) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        # the parser reads VSLAB_WORKERS for the --workers default
        args = build_parser().parse_args(argv)
        # every sweep of the run shares one worker pool, closed on return
        with run_scope():
            return args.func(args)
    except BudgetExceeded as exc:
        print(f"infeasible budget: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenInvariant as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    except VslabError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
