"""The benchmark's workloads: vslab CLI commands and the checks of their outputs.

An operation is one CLI command.  It succeeds when it exits with the
expected code and every check of its outputs passes.  The checks use
`fq`, sympy and the formulas the paper states, never vslab code.

Each operation also carries `pairs`: the sum of n_b * q over the family
instances whose statistics it asks for, taken from the request alone,
so that a program that enumerates fewer vectors to answer the same
request shows a higher rate.
"""

from __future__ import annotations

import csv
import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import fq

BUDGET = 10**6
BRUTE_PAIRS = 10**5  # instances with n_b * q up to this are recomputed here
OUT = "out"  # the --out file name, with an extension per format


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple
    pairs: int
    expect_rc: int
    check: Callable[[Path], list]  # output directory -> problems found


def _fraction(text):
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def _read_json(directory):
    return json.loads((directory / f"{OUT}.json").read_text())


def _read_csv(directory):
    with open(directory / f"{OUT}.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def _field(text):
    """(p, k, modulus) of a descriptor, with vslab's documented default modulus."""
    head, _, tail = text.partition("/")
    p, _, k = head.partition("^")
    p, k = int(p), int(k or 1)
    modulus = tuple(int(c) for c in tail.split(",")) if tail else fq.default_modulus(p, k)
    return p, k, modulus


def _a_vectors(q, s):
    """F_q^s in the order "--a all" documents (a_{d-1} most significant)."""
    return [
        tuple((idx // q ** (s - 1 - j)) % q for j in range(s)) for idx in range(q**s)
    ]


# -- bounds-grid -----------------------------------------------------------------

GRID_FIELDS = ("7^1", "11^1", "13^1", "5^2", "3^3")
GRID_D = range(5, 10)


def applicable(q, d, s, p):
    """Whether any estimate of the paper covers (q, d, s); see the README."""
    if q <= d:
        return False
    if s >= 1:
        return (p > 3 and s <= d - 3) or (p == 3 and s <= d - 6)
    return (p > 3 and d >= 5) or (p == 3 and d >= 9)


def grid_instances():
    """(p, k, d, s) of every grid point verify-bounds visits without --s."""
    out = []
    for text in GRID_FIELDS:
        p, k, _ = _field(text)
        for d in GRID_D:
            out.extend(
                (p, k, d, s) for s in range(0, d - 1) if applicable(p**k, d, s, p)
            )
    return out


def grid_rows(d, s):
    """Rows bound_suite writes for one feasible instance."""
    lo = d - s + 1
    n_mn = sum(
        1 for m in range(1, d + 1) for n in range(1, d + 1) if lo <= m + n <= 2 * d
    )
    return (3 + 2 * s + n_mn) if s >= 1 else (1 + n_mn)


def random_a(seed, q, d, s):
    """The "random:1" draw: Philox keyed by the seed, (q, d, s) in the counter."""
    if s == 0:
        return ()
    counter = np.zeros(4, dtype=np.uint64)
    counter[1:] = (q, d, s)
    rng = np.random.Generator(np.random.Philox(key=seed, counter=counter))
    return tuple(int(x) for x in rng.integers(0, q, size=(1, s))[0])


def check_bounds_grid(directory, seed):
    rows = _read_csv(directory)
    problems = []
    per_instance = Counter((r["q"], r["d"], r["s"]) for r in rows)
    want = {}
    lhs_kinds = {"mean_main", "v2", "v2_s0"}
    brute = {}
    for p, k, d, s in grid_instances():
        q = p**k
        key = (str(q), str(d), str(s))
        feasible = q ** (d - s - 1) <= BUDGET
        want[key] = grid_rows(d, s) if feasible else 1
        if feasible and q ** (d - s) <= BRUTE_PAIRS:
            field = fq.Field(p, k, fq.default_modulus(p, k))
            brute[key] = fq.family_moments(field, d, s, random_a(seed, q, d, s))
    if per_instance != Counter(want):
        problems.append(f"rows per instance differ from the grid: {len(rows)} rows")
    for r in rows:
        q, d, s = int(r["q"]), int(r["d"]), int(r["s"])
        key = (r["q"], r["d"], r["s"])
        over = q ** (d - s - 1) > BUDGET
        if r["seed"] != str(seed):
            problems.append(f"{key}: seed {r['seed']}")
        if (r["feasible"] == "false") != over or (over and r["kind"] != "sweep"):
            problems.append(f"{key}: {r['kind']} feasible={r['feasible']}")
        if r["applicable"] == "true" and r["feasible"] == "true" and r["pass"] != "true":
            problems.append(f"{key}: {r['kind']} r={r['r']} m={r['m']} n={r['n']} "
                            f"pass={r['pass']!r}")
        if key in brute and r["kind"] in lhs_kinds:
            mean, second = brute[key]
            want_lhs = (
                abs(mean - fq.mu(d) * q)
                if r["kind"] == "mean_main"
                else abs(second - fq.mu(d) ** 2 * q**2)
            )
            if _fraction(r["lhs"]) != want_lhs:
                problems.append(f"{key}: {r['kind']} lhs {r['lhs']} != brute {want_lhs}")
    return problems


def bounds_grid(seed, workers):
    pairs = sum(
        (p**k) ** (d - s)
        for p, k, d, s in grid_instances()
        if (p**k) ** (d - s - 1) <= BUDGET
    )
    argv = ("verify-bounds", "--fields", ",".join(GRID_FIELDS), "--d", "5-9",
            "--a", "random:1", "--seed", str(seed), "--workers", str(workers),
            "--out", f"{OUT}.csv")
    return [Op("verify-bounds", argv, pairs, 0,
               lambda directory: check_bounds_grid(directory, seed))]


# -- moments-all-a ---------------------------------------------------------------

# (command, field, d, s, brute): the brute families are the smallest ones
MOMENT_FAMILIES = (
    ("second-moment", "11^1", 6, 1, False),
    ("mean", "5^2", 5, 1, False),
    ("second-moment", "3^3", 5, 2, False),
    ("mean", "7^1", 5, 1, True),
    ("mean", "11^1", 5, 0, False),
    ("second-moment", "7^1", 6, 2, True),
)


def check_moments(directory, command, field, d, s, brute):
    results = _read_json(directory)["results"]
    q = field.q
    problems = []
    a_all = _a_vectors(q, s)
    if [tuple(r["a"]) for r in results] != a_all:
        return [f"results do not cover F_{q}^{s} in order"]
    prefix = f"q={field.descriptor};d={d};s={s};"
    problems += [f"spec {r['spec']}" for r in results if not r["spec"].startswith(prefix)]
    means = [_fraction(r["mean"]) for r in results]
    average = sum(means) / len(means)
    if average != fq.cohen_mean(q, d):
        problems.append(f"average mean {average} != {fq.cohen_mean(q, d)}")
    if brute:
        for a, r, mean in zip(a_all, results, means):
            want_mean, want_second = fq.family_moments(field, d, s, a)
            if mean != want_mean:
                problems.append(f"a={a}: mean {mean} != brute {want_mean}")
            if command == "second-moment" and _fraction(r["second_moment"]) != want_second:
                problems.append(f"a={a}: second moment != brute {want_second}")
    return problems


def moments_all_a(seed):
    rng = random.Random(seed)
    ops = []
    for command, text, d, s, brute in MOMENT_FAMILIES:
        p, k, modulus = _field(text)
        if k > 1:  # the seed picks the modulus: the same field, relabelled
            modulus = rng.choice(fq.irreducible_moduli(p, k))
        field = fq.Field(p, k, modulus)
        descriptor = field.descriptor if k > 1 else text
        argv = (command, "--field", descriptor, "--d", str(d), "--s", str(s),
                "--a", "all", "--seed", str(seed), "--workers", "1",
                "--out", f"{OUT}.json")

        def check(directory, command=command, field=field, d=d, s=s, brute=brute):
            return check_moments(directory, command, field, d, s, brute)

        ops.append(Op(f"{command}-{p}^{k}-d{d}-s{s}", argv, field.q**d, 0, check))
    return ops


# -- crosscheck ------------------------------------------------------------------


def check_chi(directory, d, s):
    rows = _read_csv(directory)
    problems = []
    if [int(r["r"]) for r in rows] != list(range(d - s + 1, d + 1)):
        problems.append("chi rows do not cover r = d-s+1..d")
    problems += [f"chi r={r['r']} pass={r['pass']!r}" for r in rows if r["pass"] != "true"]
    return problems


def check_smn(directory, d, s):
    rows = _read_csv(directory)
    cells = {(int(r["m"]), int(r["n"])): int(r["s_mn"]) for r in rows}
    want = {
        (m, n)
        for m in range(1, d + 1)
        for n in range(1, d + 1)
        if d - s + 1 <= m + n <= 2 * d
    }
    if set(cells) != want:
        return ["smn rows do not cover d-s+1 <= m+n <= 2d"]
    return [f"S_{m},{n} != S_{n},{m}" for (m, n), v in cells.items() if cells[(n, m)] != v]


def check_gamma(directory, q, d, s, mn):
    payload = _read_json(directory)
    problems = [f"failures {payload['failures']}"] if payload["failures"] else []
    for entry in payload["results"]:
        if entry["r"]["1"]["closed"] != q ** (d - s):
            problems.append(f"Gamma_1^* = {entry['r']['1']['closed']} != q^(d-s)")
        if sorted(entry["mn"]) != sorted(mn):
            problems.append(f"(m,n) cells {sorted(entry['mn'])}")
    return problems


def check_identities(directory, q, d, s):
    results = _read_json(directory)["results"]
    problems = [f"{r['spec']} not ok" for r in results if r["ok"] is not True]
    if len(results) != q**s:
        problems.append(f"{len(results)} results for {q**s} a-vectors")
    elif sum(_fraction(r["mean"]) for r in results) / q**s != fq.cohen_mean(q, d):
        problems.append("average mean differs from the closed form")
    return problems


def check_audit(directory, q, d, s, count):
    payload = _read_json(directory)
    results = payload["results"]
    problems = [] if len(results) == count else [f"{len(results)} audit rows"]
    for r in results:
        m, n = len(r["gamma1"]), len(r["gamma2"])
        full = q ** (d - s + 1 - m - n)
        if r["rank"] != m + n or r["count_all"] != full or r["count_strict"] != full - full // q:
            problems.append(f"audit {r['gamma1']} {r['gamma2']}: rank {r['rank']} "
                            f"count_all {r['count_all']} count_strict {r['count_strict']}")
    return problems


def _parse_poly(text, p, names):
    """"2*B0*B2^7 + B1^2*B2^6" -> {exponent tuple: coefficient mod p}."""
    terms = {}
    for term in text.split(" + "):
        coeff, expo = 1, [0] * len(names)
        for factor in term.split("*"):
            name, _, power = factor.partition("^")
            if name in names:
                expo[names.index(name)] += int(power or 1)
            else:
                coeff *= int(factor)
        key = tuple(expo)
        terms[key] = (terms.get(key, 0) + coeff) % p
    return {e: c for e, c in terms.items() if c}


_SYMPY_DISC: dict = {}


def sympy_disc(p, d, free):
    """Res_T(F, dF/dT) mod p for F = T^d + sum_{j in free} Bj T^j, by sympy."""
    key = (p, d, free)
    if key not in _SYMPY_DISC:
        import sympy as sp

        names = tuple(f"B{j}" for j in free)
        t = sp.Symbol("T")
        syms = sp.symbols(names)
        f = t**d + sum(b * t**j for b, j in zip(syms, free))
        res = sp.Poly(sp.resultant(f, sp.diff(f, t), t), *syms)
        terms = {e: int(c) % p for e, c in res.terms()}
        _SYMPY_DISC[key] = (names, {e: c for e, c in terms.items() if c})
    return _SYMPY_DISC[key]


def check_appendix(directory):
    results = _read_json(directory)["results"]
    problems = []
    for case in results["cases"]:
        p, d = case["p"], case["d"]
        names, want = sympy_disc(p, d, (0, 1) if case["case"] == "generic" else (0, 1, 2))
        if _parse_poly(case["computed"], p, names) != want:
            problems.append(f"({p},{d}) discriminant differs from sympy's resultant")
        finding = (p, d) == (3, 7)
        expected = [("failed", "exact")] if finding else [("exact", None), ("exact", "exact")]
        if (case["matched"], case["derived_matched"]) not in expected:
            problems.append(f"({p},{d}) matched={case['matched']} "
                            f"derived_matched={case['derived_matched']}")
    if [(c["p"], c["d"]) for c in results["cases"]].count((3, 7)) != 1:
        problems.append("the (3,7) case is missing")
    problems += [
        f"subresultant ({c['p']},{c['d']}) {c['matched']}"
        for c in results["subres1_terms"]
        if c["matched"] != "exact"
    ]
    return problems


def crosscheck(seed):
    rng = random.Random(seed)

    def a(q, s):
        return ",".join(str(rng.randrange(q)) for _ in range(s))

    def family(command, q, d, s, a_text, *extra):
        return (command, "--field", f"{q}^1", "--d", str(d), "--s", str(s),
                "--a", a_text, "--workers", "1", *extra)

    audit_count = 1000
    mn = ["1,1", "2,1"]
    return [
        Op("chi", family("chi", 19, 6, 2, a(19, 2), "--method", "both",
                         "--out", f"{OUT}.csv"),
           19**3 * 19, 0, lambda directory: check_chi(directory, 6, 2)),
        Op("smn", family("smn", 11, 4, 2, a(11, 2), "--method", "both",
                         "--subset-budget", "10000000", "--out", f"{OUT}.csv"),
           11 * 11, 0, lambda directory: check_smn(directory, 4, 2)),
        Op("gamma", family("gamma", 13, 6, 2, a(13, 2), "--m", "1,2", "--n", "1",
                           "--out", f"{OUT}.json"),
           13**3 * 13, 0, lambda directory: check_gamma(directory, 13, 6, 2, mn)),
        Op("verify-identities", family("verify-identities", 11, 5, 2, "all",
                                       "--out", f"{OUT}.json"),
           11**2 * 11**2 * 11, 0,
           lambda directory: check_identities(directory, 11, 5, 2)),
        # the audit and the appendix ask for no (member, value) pairs
        Op("audit-linear", family("audit-linear", 13, 7, 1, a(13, 1), "--count",
                                  str(audit_count), "--seed", str(seed),
                                  "--out", f"{OUT}.json"),
           0, 0, lambda directory: check_audit(directory, 13, 7, 1, audit_count)),
        Op("appendix", ("appendix", "--out", f"{OUT}.json"), 0, 1, check_appendix),
    ]


WORKLOADS = {
    "bounds-grid": lambda seed, workers: bounds_grid(seed, workers),
    "moments-all-a": lambda seed, workers: moments_all_a(seed),
    "crosscheck": lambda seed, workers: crosscheck(seed),
}
