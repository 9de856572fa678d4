"""Evaluators for the explicit error bounds, their hypotheses, and the
growth analysis of h(k) = C(d,k)^2 (d-k)!.

Left-hand sides are exact rationals supplied by the statistics modules;
only the right-hand sides are floats.  A check passes when

    lhs <= rhs * (1 + 1e-9)

with the comparison done in exact rational arithmetic after converting
the float rhs exactly.  The slack only keeps the contract honest: at
desk scale the right-hand sides dwarf the left by orders of magnitude,
so it never decides a verdict.  For d > 20 the rhs terms are assembled
in log space before exponentiating, which is where the documented
<= 1e-9 relative slack comes from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, isqrt

from .errors import BrokenInvariant, InvalidParameter
from .moments import main_term

RELATIVE_SLACK = Fraction(1, 10**9)
LOG_SPACE_THRESHOLD = 20

BOUND_KINDS = (
    "mean_main",
    "mean_refined",
    "chi",
    "gamma_star",
    "smn",
    "smn_s0",
    "v2",
    "v2_s0",
)


# -- parameter combinations used by the estimates ---------------------------


def d_r(d: int, r: int) -> int:
    """Sum of (d - i) for i = 1..r: the multidegree total minus r."""
    return r * d - r * (r + 1) // 2


def delta_r(d: int, r: int) -> int:
    """d!/(d-r)!: the degree of the incidence variety closure."""
    return factorial(d) // factorial(d - r)


def d_mn(d: int, m: int, n: int) -> int:
    return (m + n) * d - comb(m + 1, 2) - comb(n + 1, 2)


def delta_mn(d: int, m: int, n: int) -> int:
    return factorial(d) ** 2 // (factorial(d - m) * factorial(d - n))


def xi_mn(m: int, n: int) -> int:
    return comb(m, 2) + comb(n, 2) + 1


def h_value(d: int, k: int) -> int:
    return comb(d, k) ** 2 * factorial(d - k)


def k0_floor(d: int) -> int:
    """floor(-1/2 + sqrt(5+4d)/2), exactly: max k with (2k+1)^2 <= 5+4d."""
    s = isqrt(5 + 4 * d)
    if (s + 1) ** 2 <= 5 + 4 * d:
        s += 1
    return (s - 1) // 2


# -- hypothesis predicates ---------------------------------------------------


def applicability(q: int, d: int, s: int, p: int) -> set:
    """Which bound kinds apply at (q, d, s), per the stated hypotheses.

    mean_main / v2 / smn / gamma_star need 1 <= s <= d-4 for p > 3 and
    1 <= s <= d-6 for p = 3; the chi estimate (and the refined mean
    corollary derived from it) is stated with s <= d-3 for p > 3;
    v2_s0 / smn_s0 need s = 0 with d >= 5 for p > 3 and d >= 9 for
    p = 3.  Everything needs odd p and q > d.
    """
    out: set = set()
    if p <= 2 or q <= d:
        return out
    if s >= 1:
        tight = (p > 3 and s <= d - 4) or (p == 3 and s <= d - 6)
        loose = (p > 3 and s <= d - 3) or (p == 3 and s <= d - 6)
        if tight:
            out.update({"mean_main", "v2", "smn", "gamma_star"})
        if loose:
            out.update({"chi", "mean_refined"})
    else:
        if (p > 3 and d >= 5) or (p == 3 and d >= 9):
            out.update({"v2_s0", "smn_s0"})
    return out


# -- right-hand sides ---------------------------------------------------------


def _pow_term(base: float, expo: float, extra_log: float = 0.0) -> float:
    """base**expo * e**extra_log, via logs to dodge double overflow."""
    return math.exp(expo * math.log(base) + extra_log)


def bound_value(
    kind: str,
    q: int,
    d: int,
    s: int | None = None,
    r: int | None = None,
    m: int | None = None,
    n: int | None = None,
) -> float:
    """Float value of the named bound's right-hand side."""
    if kind not in BOUND_KINDS:
        raise InvalidParameter(f"unknown bound kind {kind!r}")
    need_s = kind in ("mean_refined", "chi", "gamma_star", "smn")
    if need_s and s is None:
        raise InvalidParameter(f"{kind} needs s")
    if kind in ("chi", "gamma_star") and r is None:
        raise InvalidParameter(f"{kind} needs r")
    if kind in ("smn", "smn_s0") and (m is None or n is None):
        raise InvalidParameter(f"{kind} needs m and n")

    sqrt_q = math.sqrt(q)
    if kind == "mean_main":
        if d <= LOG_SPACE_THRESHOLD:
            tail = 49.0 * d ** (d + 5) * math.exp(2.0 * math.sqrt(d) - d)
        else:
            tail = 49.0 * _pow_term(d, d + 5, 2.0 * math.sqrt(d) - d)
        return d * d * 2.0 ** (d - 1) * sqrt_q + tail

    if kind == "mean_refined":
        total = sum(h_value(d, k) for k in range(s))
        return d * d * 2.0 ** (d - 1) * sqrt_q + 3.5 * d**4 * float(total)

    if kind == "chi":
        dr, dlt = d_r(d, r), delta_r(d, r)
        main = (dlt * (dr - 2) + 2) * q ** (d - s) / sqrt_q
        tail = (14 * dr * dr * dlt * dlt + r * (r - 1) * dlt // 2) * q ** (
            d - s - 1
        )
        return (main + tail) / factorial(r)

    if kind == "gamma_star":
        dr, dlt = d_r(d, r), delta_r(d, r)
        return (dlt * (dr - 2) + 2) * q ** (d - s) / sqrt_q + (
            14 * dr * dr * dlt * dlt
        ) * float(q ** (d - s - 1))

    if kind == "smn":
        dmn, dlt = d_mn(d, m, n), delta_mn(d, m, n)
        main = (dlt * (dmn - 2) + 2) * q ** (d - s) * sqrt_q
        tail = (14 * dmn * dmn * dlt * dlt + xi_mn(m, n) * dlt) * q ** (d - s)
        return (main + tail) / (factorial(m) * factorial(n))

    if kind == "smn_s0":
        dmn, dlt = d_mn(d, m, n), delta_mn(d, m, n)
        return (
            (14 * dmn**3 * dlt * dlt + xi_mn(m, n) * dlt)
            * float(q**d)
            / (factorial(m) * factorial(n))
        )

    if kind == "v2":
        if d <= LOG_SPACE_THRESHOLD:
            tail = 14.0**3 * d ** (2 * d + 6) * math.exp(4 * math.sqrt(d) - 2 * d)
        else:
            tail = _pow_term(d, 2 * d + 6, 4 * math.sqrt(d) - 2 * d + math.log(14.0**3))
        return d * d * 2.0 ** (2 * d + 1) * q * sqrt_q + tail * q

    if kind == "v2_s0":
        if d <= LOG_SPACE_THRESHOLD:
            tail = 14.0**3 * d ** (2 * d + 8) * math.exp(4 * math.sqrt(d) - 2 * d)
        else:
            tail = _pow_term(d, 2 * d + 8, 4 * math.sqrt(d) - 2 * d + math.log(14.0**3))
        return (d * d * 2.0 ** (2 * d - 2) + tail) * q

    raise InvalidParameter(kind)


# -- checks --------------------------------------------------------------------


@dataclass(frozen=True)
class BoundCheck:
    """One |exact value - main term| <= rhs comparison, or a recorded skip."""

    kind: str
    q: int
    d: int
    s: int
    r: int | None
    m: int | None
    n: int | None
    lhs: Fraction | None
    rhs: float | None
    applicable: bool
    feasible: bool
    passed: bool | None
    main: Fraction | None = None

    @staticmethod
    def verdict(lhs: Fraction, rhs: float) -> bool:
        # Fraction(float) is exact, so this comparison has no rounding.
        return lhs <= Fraction(rhs) * (1 + RELATIVE_SLACK)


def _check(kind, spec, value, r=None, m=None, n=None):
    """|value - main term| against the kind's rhs, with a verdict only where
    the kind's hypotheses hold at this instance."""
    q, d, s = spec.q, spec.d, spec.s
    rhs = bound_value(kind, q, d, s=s, r=r, m=m, n=n)
    main = main_term(kind, spec, r=r, m=m, n=n)
    lhs = abs(Fraction(value) - main)
    ok = kind in applicability(q, d, s, spec.field.p)
    passed = BoundCheck.verdict(lhs, rhs) if ok else None
    return BoundCheck(kind, q, d, s, r, m, n, lhs, rhs, ok, True, passed, main)


def chi_r_values(d, s, r_values=None):
    """r_values, default all of d-s+1..d, the range in which the chi_r
    bounds are stated; an r outside it is refused."""
    if r_values is None:
        return range(d - s + 1, d + 1)
    outside = [r for r in r_values if not d - s + 1 <= r <= d]
    if outside:
        raise InvalidParameter(
            f"the chi_r bounds hold for {d - s + 1} <= r <= {d}, not r = {outside}"
        )
    return r_values


def chi_checks(spec, stats, r_values=None) -> list:
    """The chi_r estimates |chi_r - q^(d-s)/r!| <= rhs, for r in
    chi_r_values(d, s, r_values)."""
    r_values = chi_r_values(spec.d, spec.s, r_values)
    return [_check("chi", spec, stats.chi(r), r=r) for r in r_values]


def smn_cells(d, s) -> list:
    """The (m, n) cells with d-s+1 <= m+n <= 2d, where the S_mn bounds are
    stated, in the order of smn_checks."""
    return [
        (m, n)
        for m in range(1, d + 1)
        for n in range(1, d + 1)
        if d - s + 1 <= m + n <= 2 * d
    ]


def smn_checks(spec, stats) -> list:
    """The S_mn estimates |S_mn - q^(d-s+1)/(m! n!)| <= rhs for every cell
    of smn_cells; the kind is smn_s0 when s = 0."""
    kind = "smn" if spec.s >= 1 else "smn_s0"
    return [
        _check(kind, spec, stats.s_mn(m, n), m=m, n=n)
        for m, n in smn_cells(spec.d, spec.s)
    ]


def bound_suite(spec, stats) -> list:
    """Every bound check at one family instance, from one sweep's stats:
    the mean and second-moment checks, then chi_r and gamma_star for each
    r in turn, then the S_mn cells."""
    second = stats.second_moment
    if spec.s == 0:
        checks = [_check("v2_s0", spec, second)]
    else:
        checks = [
            _check("mean_main", spec, stats.mean),
            _check("mean_refined", spec, stats.mean),
            _check("v2", spec, second),
        ]
    for chi in chi_checks(spec, stats):
        gamma = stats.gamma_closed[chi.r - 1]
        checks += [chi, _check("gamma_star", spec, gamma, r=chi.r)]
    return checks + smn_checks(spec, stats)


def suite_summary(checks) -> str:
    """One word for a suite: "n/a" when no check applies, "pass", or
    "fail:" and the failing kinds."""
    applicable = [c for c in checks if c.applicable]
    if not applicable:
        return "n/a"
    failed = sorted({c.kind for c in applicable if not c.passed})
    return "fail:" + ",".join(failed) if failed else "pass"


def marker(kind, q, d, s) -> BoundCheck:
    """Row for a grid point with no checks, recorded, never silently skipped:
    kind "sweep" is an instance over the budget, kind "instance" an
    explicitly requested one that no estimate covers."""
    over_budget = kind == "sweep"
    return BoundCheck(
        kind, q, d, s, None, None, None, None, None, over_budget, not over_budget, None
    )


# -- unimodality of h(k) -------------------------------------------------------


@dataclass(frozen=True)
class UnimodalityAudit:
    d: int
    k0: int
    values: tuple
    argmax_set: tuple
    classification: str


def unimodality_audit(d: int) -> UnimodalityAudit:
    """Exact growth analysis of h(k) on [0, d-1].

    h must be non-decreasing throughout ("increasing") or rise to a
    plateau and then fall ("unimodal"), with floor(k0) attaining the
    maximum; any other shape raises.
    """
    if d < 2:
        raise InvalidParameter("unimodality audit needs d >= 2")
    values = tuple(h_value(d, k) for k in range(d))
    peak = max(values)
    argmax = tuple(k for k, v in enumerate(values) if v == peak)
    first, last = argmax[0], argmax[-1]
    rising = all(values[k] <= values[k + 1] for k in range(first))
    plateau = all(values[k] == peak for k in range(first, last + 1))
    falling = all(values[k] >= values[k + 1] for k in range(last, d - 1))
    if not (rising and plateau and falling):
        raise BrokenInvariant(f"h is not unimodal for d={d}: {values}")
    classification = "increasing" if last == d - 1 and rising else "unimodal"
    k0 = k0_floor(d)
    if k0 not in argmax:
        raise BrokenInvariant(f"floor(k0)={k0} misses argmax {argmax} for d={d}")
    return UnimodalityAudit(d, k0, values, argmax, classification)
