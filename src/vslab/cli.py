"""vslab: config-driven experiment runner.

Exit codes: 0 = all requested checks passed, 1 = a verification failed
(failing instances are listed on stdout), 2 = usage/config error or an
infeasible budget for a directly requested computation.

Every randomized selection draws from a counter-based Philox generator
keyed by --seed with the instance coordinates in the counter, so any
sweep is replayable and identical configs give byte-identical outputs.
VSLAB_WORKERS sets the default worker count.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import comb, factorial

import numpy as np

from . import bounds as bd
from . import counting as ct
from . import moments as mo
from . import reports as rp
from .errors import BudgetExceeded, VslabError
from .family import FamilySpec
from .gf import parse_descriptor
from .sweep import collect_stats, default_workers

USAGE_ERROR = 2
CHECK_FAILED = 1


def _philox(seed: int, *counters: int):
    counter = np.zeros(4, dtype=np.uint64)
    for i, c in enumerate(counters[:3]):
        counter[i + 1] = c % (1 << 64)
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


def parse_int_list(text: str):
    """"5", "5,7", and "5-9" all become sorted integer lists."""
    out = []
    for part in str(text).split(","):
        part = part.strip()
        if "-" in part:
            lo, hi = part.split("-", 1)
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return sorted(set(out))


def select_a_vectors(field, d, s, policy, seed):
    """Fixed-coefficient choices per the --a policy.

    "all" enumerates F_q^s; "random:N" draws N vectors from Philox
    keyed by the seed with (q, d, s) in the counter; anything else is
    an explicit comma list.  s = 0 always yields the single empty a.
    """
    q = field.q
    if s == 0:
        return [()]
    policy = (policy or "").strip()
    if policy == "all":
        out = []
        for idx in range(q**s):
            vec = []
            for _ in range(s):
                idx, c = divmod(idx, q)
                vec.append(c)
            out.append(tuple(reversed(vec)))
        return out
    if policy.startswith("random:"):
        count = int(policy.split(":", 1)[1])
        rng = _philox(seed, q, d, s)
        draws = rng.integers(0, q, size=(count, s))
        return [tuple(int(x) for x in row) for row in draws]
    if not policy:
        raise VslabError(f"--a is required when s = {s} > 0")
    vec = tuple(int(c) for c in policy.split(","))
    if len(vec) != s:
        raise VslabError(f"--a needs {s} entries, got {len(vec)}")
    return [vec]


def _spec(field, d, s, a):
    return FamilySpec(field, d, s, tuple(a))


def _collect(spec, args):
    return collect_stats(spec, workers=args.workers, budget=args.budget)


# -- command handlers ---------------------------------------------------------


def cmd_mean(args):
    field = parse_descriptor(args.field)
    results = []
    for a in select_a_vectors(field, args.d, args.s, args.a, args.seed):
        spec = _spec(field, args.d, args.s, a)
        stats = _collect(spec, args)
        mean = mo.value_set_mean(spec, stats=stats)
        mu_q = mo.mu(args.d) * field.q
        results.append(
            {
                "spec": spec.key,
                "a": list(a),
                "n_b": stats.n_b,
                "mean": mean,
                "mu_d_q": mu_q,
                "residual": mean - mu_q,
            }
        )
    payload = {"command": "mean", "config": _config_echo(args), "results": results}
    _emit_json(args.out, payload)
    return 0


def cmd_second_moment(args):
    field = parse_descriptor(args.field)
    reports = []
    rows = []
    failures = []
    for a in select_a_vectors(field, args.d, args.s, args.a, args.seed):
        spec = _spec(field, args.d, args.s, a)
        stats = _collect(spec, args)
        rep = mo.build_moment_report(spec, stats)
        reports.append(rp.moment_report_dict(rep))
        rows.append(rp.moment_report_row(rep))
        if rep.v2_exact_mode != rep.second_moment:
            failures.append(spec.key)
        if rep.mean_reconstructed is not None and rep.mean_reconstructed != rep.mean:
            failures.append(spec.key)
    payload = {
        "command": "second-moment",
        "config": _config_echo(args),
        "results": reports,
        "failures": failures,
    }
    _emit_json(args.out, payload)
    if args.csv:
        rp.write_csv(args.csv, rp.MOMENT_CSV_HEADER, rows)
    if failures:
        print("FAIL:", *failures, file=sys.stderr)
        return CHECK_FAILED
    return 0


CHI_CSV_HEADER = ["spec", "r", "chi_r", "main_term", "bound_rhs", "pass"]


def cmd_chi(args):
    field = parse_descriptor(args.field)
    d, s = args.d, args.s
    rows = []
    mismatches = []
    for a in select_a_vectors(field, d, s, args.a, args.seed):
        spec = _spec(field, d, s, a)
        stats = _collect(spec, args)
        r_values = (
            parse_int_list(args.r) if args.r else range(d - s + 1, d + 1)
        )
        applicable = bd.applicability(field.q, d, s, field.p)
        for r in r_values:
            value = stats.chi(r)
            if args.method in ("subsets", "both"):
                oracle = ct.chi_r(
                    spec, r, method="subsets", budget=args.subset_budget
                )
                if oracle != value:
                    mismatches.append((spec.key, r, value, oracle))
            main = Fraction(field.q ** (d - s), factorial(r))
            rhs = bd.bound_value("chi", field.q, d, s=s, r=r)
            ok = (
                bd.BoundCheck.verdict(abs(Fraction(value) - main), rhs)
                if "chi" in applicable
                else None
            )
            rows.append([spec.key, r, value, main, rhs, ok])
    rp.write_csv(args.out, CHI_CSV_HEADER, rows)
    if mismatches:
        print("FAIL dual-method chi:", mismatches, file=sys.stderr)
        return CHECK_FAILED
    return 0


SMN_CSV_HEADER = ["spec", "m", "n", "s_mn", "main_term", "bound_rhs", "pass"]


def cmd_smn(args):
    field = parse_descriptor(args.field)
    d, s = args.d, args.s
    rows = []
    mismatches = []
    for a in select_a_vectors(field, d, s, args.a, args.seed):
        spec = _spec(field, d, s, a)
        stats = _collect(spec, args)
        applicable = bd.applicability(field.q, d, s, field.p)
        kind = "smn" if s >= 1 else "smn_s0"
        lo = d - s + 1
        for m in range(1, d + 1):
            for n in range(1, d + 1):
                if not lo <= m + n <= 2 * d:
                    continue
                value = stats.s_mn(m, n)
                if args.method in ("brute", "both"):
                    oracle = ct.s_mn(
                        spec, m, n, method="brute", budget=args.subset_budget
                    )
                    if oracle != value:
                        mismatches.append((spec.key, m, n, value, oracle))
                main = Fraction(
                    field.q ** (d - s + 1), factorial(m) * factorial(n)
                )
                rhs = bd.bound_value(kind, field.q, d, s=s, m=m, n=n)
                ok = (
                    bd.BoundCheck.verdict(abs(Fraction(value) - main), rhs)
                    if kind in applicable
                    else None
                )
                rows.append([spec.key, m, n, value, main, rhs, ok])
    rp.write_csv(args.out, SMN_CSV_HEADER, rows)
    if mismatches:
        print("FAIL dual-method smn:", mismatches, file=sys.stderr)
        return CHECK_FAILED
    return 0


def cmd_gamma(args):
    field = parse_descriptor(args.field)
    d, s = args.d, args.s
    results = []
    failures = []
    for a in select_a_vectors(field, d, s, args.a, args.seed):
        spec = _spec(field, d, s, a)
        stats = _collect(spec, args)
        entry = {"spec": spec.key, "r": {}, "mn": {}}
        r_list = parse_int_list(args.r) if args.r else range(1, d + 1)
        for r in r_list:
            g = ct.gamma_counts_r(spec, r, stats=stats)
            item = {"affine_open": g.affine_open, "closed": g.closed}
            if r >= d - s + 1:
                ok = g.affine_open == factorial(r) * stats.chi(r)
                item["open_equals_r_factorial_chi"] = ok
                if not ok:
                    failures.append((spec.key, "gamma_r", r))
            if r == 1:
                ok = g.closed == field.q ** (d - s)
                item["closed_equals_q_power"] = ok
                if not ok:
                    failures.append((spec.key, "gamma_1_closed", 1))
            entry["r"][str(r)] = item
        if args.m and args.n:
            for m in parse_int_list(args.m):
                for n in parse_int_list(args.n):
                    g = ct.gamma_counts_mn(spec, m, n, stats=stats)
                    ok = g.affine_open == factorial(m) * factorial(n) * stats.s_mn(
                        m, n
                    )
                    entry["mn"][f"{m},{n}"] = {
                        "affine_open": g.affine_open,
                        "closed": g.closed,
                        "open_equals_mn_factorial_smn": ok,
                    }
                    if not ok:
                        failures.append((spec.key, "gamma_mn", (m, n)))
        results.append(entry)
    payload = {
        "command": "gamma",
        "config": _config_echo(args),
        "results": results,
        "failures": [list(f) for f in failures],
    }
    _emit_json(args.out, payload)
    return CHECK_FAILED if failures else 0


def cmd_verify_identities(args):
    field = parse_descriptor(args.field)
    d, s = args.d, args.s
    checks = []
    for a in select_a_vectors(field, d, s, args.a, args.seed):
        spec = _spec(field, d, s, a)
        stats = _collect(spec, args)
        rep = mo.build_moment_report(spec, stats)
        entry = {
            "spec": spec.key,
            "mean": rep.mean,
            "second_moment": rep.second_moment,
            "paper_mode_residual": rep.paper_mode_residual(),
        }
        ok = True
        if rep.mean_reconstructed is not None:
            entry["mean_reconstruction_exact"] = rep.mean_reconstructed == rep.mean
            ok &= entry["mean_reconstruction_exact"]
        entry["v2_exact_mode_matches"] = rep.v2_exact_mode == rep.second_moment
        ok &= entry["v2_exact_mode_matches"]
        if s >= 1:
            dual = []
            for r in range(d - s + 1, d + 1):
                if comb(field.q, r) <= args.subset_budget:
                    dual.append(
                        stats.chi(r)
                        == ct.chi_r(spec, r, "subsets", budget=args.subset_budget)
                    )
            entry["chi_dual_method"] = all(dual) if dual else None
            if dual:
                ok &= all(dual)
        g1 = ct.gamma_counts_r(spec, 1, stats=stats)
        entry["gamma_1_closed_exact"] = g1.closed == field.q ** (d - s)
        ok &= entry["gamma_1_closed_exact"]
        entry["ok"] = ok
        checks.append(entry)
    payload = {
        "command": "verify-identities",
        "config": _config_echo(args),
        "results": checks,
    }
    _emit_json(args.out, payload)
    bad = [c["spec"] for c in checks if not c["ok"]]
    if bad:
        print("FAIL:", *bad, file=sys.stderr)
        return CHECK_FAILED
    return 0


def cmd_verify_bounds(args):
    fields = [parse_descriptor(f) for f in str(args.fields).split(",")]
    d_list = parse_int_list(args.d)
    s_list = parse_int_list(args.s) if args.s is not None else None
    rows = []
    any_fail = False
    for field in fields:
        for d in d_list:
            if field.q <= d:
                continue
            s_candidates = (
                s_list if s_list is not None else list(range(0, max(d - 2, 0) + 1))
            )
            for s in s_candidates:
                if s > max(d - 2, 0):
                    continue
                if not bd.applicability(field.q, d, s, field.p):
                    if s_list is not None:
                        # explicitly requested: record, never silently skip
                        rows.append(
                            rp.bound_check_row(
                                bd.inapplicable_marker(field.q, d, s)
                            )
                            + [args.seed]
                        )
                    continue
                for a in select_a_vectors(field, d, s, args.a, args.seed):
                    spec = _spec(field, d, s, a)
                    if spec.n_b > args.budget:
                        rows.append(
                            rp.bound_check_row(bd.infeasible_marker(field.q, d, s))
                            + [args.seed]
                        )
                        continue
                    stats = collect_stats(
                        spec, workers=args.workers, budget=args.budget
                    )
                    for check in bd.bound_suite(spec, stats):
                        rows.append(rp.bound_check_row(check) + [args.seed])
                        if check.applicable and check.feasible:
                            any_fail |= check.passed is False
    rp.write_csv(args.out, rp.BOUND_CSV_HEADER + ["seed"], rows)
    return CHECK_FAILED if any_fail else 0


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


def cmd_sweep(args):
    fields = [parse_descriptor(f) for f in str(args.fields).split(",")]
    rows = []
    for field in fields:
        for d in parse_int_list(args.d):
            if field.q <= d:
                continue
            for s in parse_int_list(args.s):
                if s > max(d - 2, 0):
                    continue
                for a in select_a_vectors(field, d, s, args.a, args.seed):
                    spec = _spec(field, d, s, a)
                    if spec.n_b > args.budget:
                        raise BudgetExceeded(
                            f"{spec.key}: n_b={spec.n_b} > budget {args.budget}"
                        )
                    stats = _collect(spec, args)
                    rep = mo.build_moment_report(spec, stats)
                    checks = bd.bound_suite(spec, stats)
                    applicable = [c for c in checks if c.applicable]
                    if not applicable:
                        verdict = "n/a"
                    elif all(c.passed for c in applicable):
                        verdict = "pass"
                    else:
                        verdict = "fail:" + ",".join(
                            sorted({c.kind for c in applicable if not c.passed})
                        )
                    chi_txt = ";".join(
                        f"{r}:{v}" for r, v in sorted(rep.chi.items())
                    )
                    mean_ok = (
                        ""
                        if rep.mean_reconstructed is None
                        else rep.mean_reconstructed == rep.mean
                    )
                    rows.append(
                        [
                            spec.key,
                            field.q,
                            d,
                            s,
                            ",".join(str(c) for c in a),
                            args.seed,
                            stats.n_b,
                            rep.mean,
                            rep.mean - rep.residual_mean(),
                            rep.residual_mean(),
                            rep.second_moment,
                            rep.second_moment - rep.residual_second(),
                            rep.residual_second(),
                            chi_txt,
                            mean_ok,
                            rep.v2_exact_mode == rep.second_moment,
                            verdict,
                        ]
                    )
    rp.write_csv(args.out, SWEEP_CSV_HEADER, rows)
    bad = [r for r in rows if str(r[-1]).startswith("fail")]
    return CHECK_FAILED if bad else 0


APPENDIX_CASES = [(7, 4), (5, 5), (3, 6), (3, 4), (5, 6), (3, 7)]
SUBRES_CASES = [(5, 3), (7, 4), (3, 3), (5, 5)]


def cmd_appendix(args):
    from . import appendix as ap

    case_list = (
        [tuple(map(int, c.split(","))) for c in args.cases.split(";")]
        if args.cases
        else APPENDIX_CASES
    )
    subres_list = (
        [tuple(map(int, c.split(","))) for c in args.subres.split(";")]
        if args.subres
        else SUBRES_CASES
    )
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
    payload = {
        "command": "appendix",
        "config": _config_echo(args),
        "results": results,
    }
    _emit_json(args.out, payload)
    return CHECK_FAILED if any_fail else 0


def cmd_audit_linear(args):
    field = parse_descriptor(args.field)
    d, s = args.d, args.s
    q = field.q
    rng = _philox(args.seed, q, d, s)
    a_vectors = select_a_vectors(field, d, s, args.a, args.seed)
    checks = []
    failures = 0
    for a in a_vectors:
        spec = _spec(field, d, s, a)
        for _ in range(args.count):
            total = d - s
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
    payload = {
        "command": "audit-linear",
        "config": _config_echo(args),
        "results": checks,
        "failures": failures,
    }
    _emit_json(args.out, payload)
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


def _config_echo(args):
    # output paths and the worker count are not semantic config: identical
    # runs aimed at different files or run on more workers must still
    # produce byte-identical payloads
    skip = {"func", "config", "out", "csv", "workers"}
    return {
        k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None
    }


def _emit_json(path, payload):
    text = rp.dump_json(payload)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_common(sub, field_mode="single"):
    if field_mode == "single":
        sub.add_argument("--field", required=True, help="p^k or p^k/c0,c1,...")
    else:
        sub.add_argument("--fields", required=True, help="comma list of descriptors")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--budget", type=int, default=10**6,
                     help="max enumerated b-vectors per instance")
    sub.add_argument("--subset-budget", type=int, default=10**6, dest="subset_budget")
    sub.add_argument("--workers", type=int, default=default_workers())
    sub.add_argument("--out", default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vslab",
        description="exact value-set statistics of polynomial families "
        "over odd-characteristic finite fields",
    )
    parser.add_argument("--config", default=None, help="JSON file of defaults")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("mean", help="exact average value set")
    _add_common(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--a", default="")
    p.set_defaults(func=cmd_mean)

    p = subs.add_parser("second-moment", help="exact second moment + report")
    _add_common(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--a", default="")
    p.add_argument("--csv", default=None, help="also write flat CSV rows")
    p.set_defaults(func=cmd_second_moment)

    p = subs.add_parser("chi", help="interpolating-subset counts")
    _add_common(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--a", default="")
    p.add_argument("--r", default=None, help="r values; default full high range")
    p.add_argument("--method", choices=["profile", "subsets", "both"],
                   default="profile")
    p.set_defaults(func=cmd_chi)

    p = subs.add_parser("smn", help="two-subset interpolation counts")
    _add_common(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--a", default="")
    p.add_argument("--method", choices=["profile", "brute", "both"],
                   default="profile")
    p.set_defaults(func=cmd_smn)

    p = subs.add_parser("gamma", help="incidence-variety point counts")
    _add_common(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--a", default="")
    p.add_argument("--r", default=None)
    p.add_argument("--m", default=None)
    p.add_argument("--n", default=None)
    p.set_defaults(func=cmd_gamma)

    p = subs.add_parser("verify-identities", help="exact identity checks")
    _add_common(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--a", default="all")
    p.set_defaults(func=cmd_verify_identities)

    p = subs.add_parser("verify-bounds", help="one-sided bound suite")
    _add_common(p, field_mode="multi")
    p.add_argument("--d", required=True, help="list or range, e.g. 5-9")
    p.add_argument("--s", default=None, help="list/range; default: all applicable")
    p.add_argument("--a", default="random:1")
    p.set_defaults(func=cmd_verify_bounds)

    p = subs.add_parser("sweep", help="moment + bound rows over a grid")
    _add_common(p, field_mode="multi")
    p.add_argument("--d", required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--a", default="random:1")
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("appendix", help="discriminant formula checks")
    p.add_argument("--cases", default=None, help='e.g. "7,4;5,5"')
    p.add_argument("--subres", default=None, help='e.g. "5,3;7,4"')
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_appendix)

    p = subs.add_parser("audit-linear", help="Vandermonde rank/count audit")
    _add_common(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--a", default="")
    p.add_argument("--count", type=int, default=50)
    p.set_defaults(func=cmd_audit_linear)

    p = subs.add_parser("report-merge", help="merge schema-compatible CSVs")
    p.add_argument("paths", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report_merge)

    return parser


def _apply_config_file(parser, argv):
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
    parser = build_parser()
    try:
        argv = _apply_config_file(parser, argv)
    except (OSError, json.JSONDecodeError, IndexError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"infeasible budget: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except VslabError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
