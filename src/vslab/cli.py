"""vslab: config-driven experiment runner.

Exit codes: 0 = all requested checks passed, 1 = a verification failed,
2 = usage/config error or an infeasible budget for a directly requested
computation, 3 = internal error: a computed result broke a property the
mathematics guarantees (BrokenInvariant), which is a bug, not bad input.
Each check is a named verdict in its command's ledger; `_conclude` alone
chooses between 0 and 1, and names each failing instance on one stderr
FAIL line.  A verdict of None means the check could not run: it never fails.

Every randomized selection draws from a counter-based Philox generator
keyed by --seed with the instance coordinates in the counter, so any
sweep is replayable and identical configs give byte-identical outputs.
The generator is _Philox, a pure-Python Philox4x64-10 that draws what
numpy's does: --a random:N at (q, d, s) is
Generator(Philox(key=seed, counter=(0, q, d, s))).integers(0, q, size=(N, s)),
so numpy replays it, and no command loads numpy.random.
The worker count is --workers (or its --config key), 1 when not given.

Importing the module loads only what parsing and writing need: argparse,
json, reports and errors.  numpy and the engine (family, gf's tables,
moments, sweep) are imported by the functions that use them, so a command
that never sweeps, such as appendix or report-merge, never loads numpy,
and neither does --help or a command refused before its plan: every
command parses its --field or --fields before it loads numpy, the
oracles (counting) or the bound suite.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from math import factorial

from . import reports as rp
from .errors import BrokenInvariant, BudgetExceeded, InvalidParameter, VslabError

CHECK_FAILED = 1
USAGE_ERROR = 2
INTERNAL_ERROR = 3


_M64 = (1 << 64) - 1
# Philox4x64-10 (Salmon et al., SC 2011): the round multipliers and the
# Weyl increments added to the key after each round
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B


class _Philox:
    """numpy's Generator(Philox(key=seed, counter=(0, q, d, s))) in plain
    Python: the same 64- and 32-bit words, bounded integers and
    permutations, so no command loads numpy.random.  q is taken mod 2^64.
    """

    def __init__(self, seed: int, q: int, d: int, s: int):
        k0, k1 = seed & _M64, seed >> 64
        self.keys = [  # the key of each of the ten rounds
            ((k0 + i * _PHILOX_W0) & _M64, (k1 + i * _PHILOX_W1) & _M64)
            for i in range(10)
        ]
        self.counter = [0, q & _M64, d & _M64, s & _M64]
        self.words = []  # the unread words of the last block, last word first
        self.half = None  # the upper half of a word next32 has split

    def block(self) -> tuple:
        """The next four 64-bit words: the counter stepped, then encrypted."""
        ctr = self.counter
        for i in range(4):  # the 256-bit counter, word 0 lowest
            ctr[i] = (ctr[i] + 1) & _M64
            if ctr[i]:
                break
        x0, x1, x2, x3 = ctr
        m0, m1, low = _PHILOX_M0, _PHILOX_M1, _M64  # locals, read in every round
        for k0, k1 in self.keys:
            p0, p1 = m0 * x0, m1 * x2
            x0, x1, x2, x3 = (
                (p1 >> 64) ^ x1 ^ k0, p1 & low, (p0 >> 64) ^ x3 ^ k1, p0 & low
            )
        return x0, x1, x2, x3

    def next64(self) -> int:
        if not self.words:
            self.words = list(reversed(self.block()))
        return self.words.pop()

    def next32(self) -> int:
        if self.half is not None:
            half, self.half = self.half, None
            return half
        word = self.next64()
        self.half = word >> 32
        return word & 0xFFFFFFFF

    def integers(self, lo: int, hi: int) -> int:
        """numpy's integers(lo, hi): Lemire's bounded multiply-and-reject
        on 32-bit words when hi - lo fits one, else on 64-bit words; an
        array draw is these draws in row-major order."""
        span = hi - lo
        if span == 1:
            return lo  # numpy draws nothing here
        bits, draw = (32, self.next32) if span <= 1 << 32 else (64, self.next64)
        low = (1 << bits) - 1
        m = draw() * span
        if m & low < span:
            threshold = (1 << bits) % span
            while m & low < threshold:
                m = draw() * span
        return lo + (m >> bits)

    def permutation(self, n: int) -> list:
        """numpy's permutation(n) for n <= 2^32: a Fisher-Yates shuffle of
        range(n), from the top, each j drawn by masking 32-bit words until
        j <= i.  The words are next32's, read in blocks of eight halves."""
        # the halves due, in draw order: the held upper half, then the lower
        # and upper half of each buffered word
        halves = [] if self.half is None else [self.half]
        for word in reversed(self.words):
            halves += (word & 0xFFFFFFFF, word >> 32)
        pos, end, out = 0, len(halves), list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = i + 1
            while j > i:
                if pos == end:
                    x0, x1, x2, x3 = self.block()
                    halves = [x0 & 0xFFFFFFFF, x0 >> 32, x1 & 0xFFFFFFFF, x1 >> 32,
                              x2 & 0xFFFFFFFF, x2 >> 32, x3 & 0xFFFFFFFF, x3 >> 32]
                    pos, end = 0, 8
                j = halves[pos] & mask
                pos += 1
            out[i], out[j] = out[j], out[i]
        # hand the unread halves back: an odd one out is a held upper half
        rest = halves[pos:]
        self.half = rest.pop(0) if len(rest) % 2 else None
        self.words = [hi << 32 | lo for lo, hi in zip(rest[-2::-2], rest[::-2])]
        return out


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


def seed_int(text: str) -> int:
    """argparse type for --seed, a Philox key: 0 <= seed < 2^128."""
    value = _at_least(0, text)
    if value >= 1 << 128:
        raise argparse.ArgumentTypeError(f"must be < 2^128, got {value}")
    return value


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
        rng = _Philox(seed, q, d, s)
        return [tuple(rng.integers(0, q) for _ in range(s)) for _ in range(count)]
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
    from .gf import parse_descriptor

    grid = field is not None
    field = parse_descriptor(args.field) if field is None else field
    d = args.d if d is None else d
    s = args.s if s is None else s
    # a malformed --field is refused above, before numpy is loaded
    from .family import FamilySpec, orbit_representatives
    from .sweep import check_sweepable

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
    sweep the next ones; each member gets its swept spec's stats.
    """
    plan = _plan(args) if plan is None else plan
    from .family import cover
    from .sweep import collect_many

    stream = collect_many([sw for _, sw in plan], workers=args.workers, cover=cover)
    for (spec, _), stats in zip(plan, stream):
        yield spec, stats


def _moment_instances(args, plan=None):
    """(spec, stats, checks, columns) for each instance.

    moments.build_moment_report's columns and checks depend on the spec
    only through q, d and s, so they are built once per distinct stats;
    each member gets a fresh list of the checks (verify-identities appends
    to it) and the columns with its own spec and a.  The columns share
    their values, so the JSON walk writes a shared chi or smn table once.
    """
    from . import moments as mo

    built = {}
    for spec, stats in _instances(args, plan):
        if stats not in built:
            built[stats] = mo.build_moment_report(spec, stats)
        cols, checks = built[stats]
        yield spec, stats, list(checks), {**cols, "spec": spec.key, "a": spec.a}


def _grid(args, checked):
    """(field, d, s, marker) over --fields x --d x --s (default s: 0..d-2),
    skipping q <= d; marker is None at a point to sweep.

    In a `checked` grid a point that no estimate covers (every s > d-2
    is one) gets an "instance" marker when --s named it and is skipped
    otherwise.  Other grids refuse an s > d-2, which names no family.
    """
    from .gf import parse_descriptor

    fields = [parse_descriptor(f) for f in str(args.fields).split(",")]
    d_list = parse_int_list(args.d)
    s_list = None if args.s is None else parse_int_list(args.s)
    from . import bounds as bd
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
    from . import moments as mo

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
    return _conclude(args, [], results)


def cmd_second_moment(args):
    reports = []
    rows = []
    ledger = []
    for spec, _, checks, cols in _moment_instances(args):
        reports.append(
            {k: v for k, v in cols.items() if k not in rp.ROW_ONLY_COLUMNS}
        )
        rows.append([cols[key] for key in rp.MOMENT_CSV_HEADER])
        ledger.append((spec.key, checks))
    if args.csv:
        rp.write_csv(args.csv, rp.MOMENT_CSV_HEADER, rows)
    return _conclude(args, ledger, reports, failures="instances")


def _count_table(args, plan, header, count, oracle, judge, cells, checks_of):
    """One CSV row per bound check of each planned instance: cell, swept
    count (count(stats, *cell)), main term, rhs and verdict.  With
    --method both, the oracle must agree exactly; judge(spec, *cell, budget)
    refuses a cell over --subset-budget before the sweep.  checks_of gives
    the checks of the cells, in order."""
    if args.method == "both":
        spec = plan[0][0]  # the oracles' budgets depend on q, d and s only
        for cell in cells:
            judge(spec, *cell, budget=args.subset_budget)
    rows = []
    ledger = []
    for spec, stats in _instances(args, plan):
        checks = []
        for bound in checks_of(spec, stats):
            cell = (bound.r,) if bound.m is None else (bound.m, bound.n)
            value = count(stats, *cell)
            if args.method == "both":
                other = oracle(spec, *cell, budget=args.subset_budget)
                checks.append((cell, other == value))
            rows.append([spec.key, *cell, value, bound.main, bound.rhs, bound.passed])
        ledger.append((spec.key, checks))
    return _conclude(args, ledger, rows, header)


def cmd_chi(args):
    r_values = parse_int_list(args.r) if args.r else None
    plan = _plan(args)  # a refused plan loads neither bounds nor the oracles
    from . import bounds as bd
    from . import counting as ct
    from .sweep import FamilyStats

    r_values = bd.chi_r_values(args.d, args.s, r_values)  # refused before the sweep
    return _count_table(
        args, plan, rp.CHI_CSV_HEADER, FamilyStats.chi, ct.chi_r,
        ct.check_chi_r_budget, [(r,) for r in r_values],
        lambda spec, stats: bd.chi_checks(spec, stats, r_values),
    )


def cmd_smn(args):
    plan = _plan(args)
    from . import bounds as bd
    from . import counting as ct
    from .moments import smn_cells
    from .sweep import FamilyStats

    return _count_table(
        args, plan, rp.SMN_CSV_HEADER, FamilyStats.s_mn, ct.s_mn,
        ct.check_s_mn_budget, smn_cells(args.d, args.d - args.s + 1), bd.smn_checks,
    )


def _gamma_1_closed_exact(spec, stats):
    """Gamma_1^* holds q^(d-s) points: each (b, t) has the one b0 = -f_b(t)."""
    return stats.gamma_closed[0] == spec.q ** (spec.d - spec.s)


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
    open_r = [r for r in r_list if r >= d - s + 1]
    plan = _plan(args)
    import dataclasses

    from . import counting as ct

    results = []
    ledger = []
    for spec, stats in _instances(args, plan):
        # the oracle's open Gamma_r counts ride on the (m, n) scan; past
        # --subset-budget they are not counted, and their checks read None,
        # while requested (m, n) counts are refused
        try:
            scan = ct.gamma_counts_mn(spec, mn_pairs, budget=args.subset_budget,
                                      r_values=open_r)
        except BudgetExceeded:
            if mn_pairs:
                raise
            scan = {}
        entry = {"spec": spec.key, "r": {}, "mn": {}}
        checks = []
        for r in r_list:
            item = entry["r"][str(r)] = {
                "affine_open": stats.gamma_open(r), "closed": stats.gamma_closed[r - 1]
            }
            if r in open_r:
                ok = item["open_equals_r_factorial_chi"] = None if r not in scan else (
                    scan[r].affine_open == factorial(r) * stats.chi(r)
                )
                checks.append((("gamma_r", r), ok))
            if r == 1:
                ok = item["closed_equals_q_power"] = _gamma_1_closed_exact(spec, stats)
                checks.append((("gamma_1_closed", 1), ok))
        for m, n in mn_pairs:
            g = scan[m, n]
            ok = g.affine_open == factorial(m) * factorial(n) * stats.s_mn(m, n)
            entry["mn"][f"{m},{n}"] = {
                **dataclasses.asdict(g), "open_equals_mn_factorial_smn": ok
            }
            checks.append((("gamma_mn", (m, n)), ok))
        results.append(entry)
        ledger.append((spec.key, checks))
    return _conclude(args, ledger, results, failures="checks")


def cmd_verify_identities(args):
    plan = _plan(args)
    from . import counting as ct

    d, s = args.d, args.s
    results = []
    ledger = []
    for spec, stats, checks, cols in _moment_instances(args, plan):
        if s >= 1:
            dual = []
            for r in range(d - s + 1, d + 1):
                try:  # past --subset-budget the oracle does not run
                    oracle = ct.chi_r(spec, r, budget=args.subset_budget)
                except BudgetExceeded:
                    continue
                dual.append(stats.chi(r) == oracle)
            checks.append(("chi_dual_method", all(dual) if dual else None))
        checks.append(("gamma_1_closed_exact", _gamma_1_closed_exact(spec, stats)))
        entry = {key: cols[key] for key in rp.IDENTITY_JSON_KEYS}
        entry.update(checks, ok=not _failing(checks))
        results.append(entry)
        ledger.append((spec.key, checks))
    return _conclude(args, ledger, results)


def cmd_verify_bounds(args):
    grid = list(_grid(args, checked=True))  # refuses a bad grid before bounds loads
    from . import bounds as bd

    # the marker rows or the plan of every grid point, before the first sweep
    points = []
    for field, d, s, marker in grid:
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
    ledger = []
    for markers, plan in points:
        bounds = list(markers)
        for spec, stats in itertools.islice(instances, len(plan)):
            suite = bd.bound_suite(spec, stats)
            ledger.append((spec.key, [(b.kind, b.passed) for b in suite]))
            bounds += suite
        rows.extend(rp.bound_check_row(b) + [args.seed] for b in bounds)
    return _conclude(args, ledger, rows, rp.BOUND_CSV_HEADER + ["seed"])


def cmd_sweep(args):
    rows = []
    ledger = []
    # the whole grid is planned, and so checked, before the first sweep
    plan = [
        entry
        for field, d, s, _ in _grid(args, checked=False)
        for entry in _plan(args, field, d, s)
    ]
    from . import bounds as bd

    for spec, stats, checks, cols in _moment_instances(args, plan):
        suite = bd.bound_suite(spec, stats)
        ledger.append((spec.key, checks + [(b.kind, b.passed) for b in suite]))
        cols.update(seed=args.seed, bounds=bd.suite_summary(suite))
        rows.append([cols[key] for key in rp.SWEEP_CSV_HEADER])
    return _conclude(args, ledger, rows, rp.SWEEP_CSV_HEADER)


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
    ledger = []
    for p, d in case_list:
        rep = ap.appendix_case_check(p, d)
        entry = rep.to_dict()
        entry["b0_degree"] = ap.resultant_b0_degree(
            p, d, {0, 1} if rep.case == "generic" else {0, 1, 2}
        )
        results["cases"].append(entry)
        ledger.append((f"cases:{p},{d}", [("matched", rep.matched != "failed")]))
    for p, d in subres_list:
        rep = ap.subres1_terms_check(p, d)
        results["subres1_terms"].append(rep.to_dict())
        ledger.append((f"subres:{p},{d}", [("matched", rep.matched != "failed")]))
    return _conclude(args, ledger, results)


def cmd_audit_linear(args):
    from .gf import parse_descriptor

    field = parse_descriptor(args.field)
    from . import counting as ct
    from .family import FamilySpec

    d, s = args.d, args.s
    q = field.q
    rng = _Philox(args.seed, q, d, s)
    specs = [FamilySpec(field, d, s, a) for a in _a_vectors(args, field, d, s, False)]
    total = d - s  # FamilySpec keeps s <= d-2: room for two nonempty subsets
    results = []
    ledger = []
    for spec in specs:
        checks = []
        for _ in range(args.count):
            m = rng.integers(1, total)
            n = rng.integers(1, total - m + 1)
            perm = rng.permutation(q)
            g1, g2 = set(perm[:m]), set(perm[m : m + n])
            audit = ct.linear_system_audit(spec, g1, g2)
            full = q ** (d - s + 1 - m - n)
            ok = audit["rank"] == m + n and audit["count_all"] == full
            if ok:
                try:  # past --subset-budget the brute oracle does not run
                    brute = ct.brute_linear_counts(spec, g1, g2, args.subset_budget)
                except BudgetExceeded:
                    pass
                else:
                    ok = (audit["count_all"], audit["count_strict"]) == brute
            checks.append(("linear_system", ok))
            results.append(
                {"spec": spec.key, "gamma1": sorted(g1), "gamma2": sorted(g2),
                 **audit, "ok": ok}
            )
        ledger.append((spec.key, checks))
    return _conclude(args, ledger, results, failures="count")


def cmd_report_merge(args):
    header, rows = rp.merge_csv_files(args.paths)
    rp.write_csv(args.out, header, rows)
    return 0


# -- wiring --------------------------------------------------------------------


def _failing(checks):
    """The names of the failing checks among (name, verdict) pairs; a
    verdict of None means the check could not run, and it never fails."""
    return [name for name, ok in checks if ok is False]


def _conclude(args, ledger, results, header=None, failures=None):
    """Write the results, as CSV rows under a header or else as JSON, and
    return the exit code.  The ledger holds (instance, checks) entries, each
    check a (name, verdict) pair.  `failures` names the shape of the JSON
    failures field: the failing "instances", [instance, *name] for each
    failing check ("checks"), or their "count".  One stderr FAIL line names
    each failing instance once."""
    failed = [(inst, names) for inst, checks in ledger if (names := _failing(checks))]
    shapes = {
        "instances": [inst for inst, _ in failed],
        "checks": [[inst, *name] for inst, names in failed for name in names],
        "count": sum(len(names) for _, names in failed),
    }
    if header is None:
        extra = {"failures": shapes[failures]} if failures else {}
        _emit_json(args, results, **extra)
    elif args.out:
        rp.write_csv(args.out, header, results)
    else:
        sys.stdout.write(rp.csv_text(header, results))
    if not failed:
        return 0
    print("FAIL:", *(inst for inst, _ in failed), file=sys.stderr)
    return CHECK_FAILED


def _emit_json(args, results, **extra):
    """Write {command, config, results, **extra} to --out, else stdout."""
    # output paths and the worker count are not semantic config: identical
    # runs aimed at different files or run on more workers must still
    # produce byte-identical payloads
    skip = {"func", "config", "out", "csv", "workers"}
    config = {
        k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None
    }
    payload = {"command": args.command, "config": config, "results": results, **extra}
    if args.out:
        rp.write_json(args.out, payload)
    else:
        sys.stdout.write(rp.dump_json(payload))


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
    sub.add_argument("--seed", type=seed_int, default=0)
    sub.add_argument("--budget", type=nonnegative_int, default=10**6,
                     help="max b-vectors per requested instance")
    sub.add_argument("--subset-budget", type=nonnegative_int, default=10**6,
                     dest="subset_budget")
    sub.add_argument("--workers", type=positive_int, default=1)
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
    p.add_argument("--method", choices=["profile", "both"], default="profile",
                   help="both checks each swept count against the subsets oracle")

    p = _add_command(subs, "smn", cmd_smn, "two-subset interpolation counts")
    p.add_argument("--method", choices=["profile", "both"], default="profile",
                   help="both checks each swept count against the brute-force oracle")

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
            if idx + 1 == len(argv):
                raise InvalidParameter("--config is missing its file path")
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
    except (OSError, json.JSONDecodeError, InvalidParameter) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        args = build_parser().parse_args(argv)
        # an output file that cannot be created is refused before any sweep;
        # reports' writers still map every other failure to write
        for path in (args.out, getattr(args, "csv", None)):
            parent = path and (os.path.dirname(path) or ".")
            if parent and not os.path.isdir(parent):
                raise InvalidParameter(f"cannot write {path}: no directory {parent}")
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
