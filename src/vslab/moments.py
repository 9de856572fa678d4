"""Exact value-set statistics and their combinatorial reconstructions.

Everything here is exact rational arithmetic (fractions.Fraction); a
tolerance anywhere in this layer would only mask bugs.  The two
reconstruction identities are:

  mean:   V = sum_{r=1}^{d-s} (-1)^(r-1) C(q,r) q^(1-r)
              + q^-(d-s-1) sum_{r=d-s+1}^{d} (-1)^(r-1) chi_r

  second moment (mode="paper", the closed middle term as printed):
          V2 = V + sum_{2<=m+n<=d-s} (-1)^(m+n) C(q,m) C(q,n) q^(2-m-n)
              + q^-(d-s-1) sum_{d-s+1<=m+n<=2d} (-1)^(m+n) S_mn

  second moment (mode="exact", the middle term from measured counts,
  which keeps the b_{0,1} != b_{0,2} constraint):
          V2 = V + q^-(d-s-1) sum_{2<=m+n<=2d} (-1)^(m+n) S_mn

Whether the two modes agree is a finding the reports surface, never an
assumption baked in.

build_moment_report computes every moment column that the second-moment,
sweep and verify-identities outputs select from, once; reports only formats
them.  Nothing here needs family or sweep at run time, nor numpy.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import TYPE_CHECKING

from .errors import InvalidParameter

if TYPE_CHECKING:
    from .family import FamilySpec
    from .sweep import FamilyStats


@lru_cache(maxsize=None)
def mu(d: int) -> Fraction:
    """sum_{r=1}^{d} (-1)^(r-1) / r!, the limiting value-set density."""
    if d < 1:
        raise InvalidParameter("mu is defined for d >= 1")
    return sum(
        (Fraction((-1) ** (r - 1), factorial(r)) for r in range(1, d + 1)),
        Fraction(0),
    )


def main_term(kind: str, spec: FamilySpec, r=None, m=None, n=None) -> Fraction:
    """The main term the bound of the named kind centres on: mu_d q for the
    mean, mu_d^2 q^2 for the second moment, q^(d-s)/r! for chi_r,
    q^(d-s) for Gamma_r^*, and q^(d-s+1)/(m! n!) for S_mn."""
    q, d, s = spec.q, spec.d, spec.s
    if kind in ("mean_main", "mean_refined"):
        return mu(d) * q
    if kind in ("v2", "v2_s0"):
        return mu(d) ** 2 * q**2
    if kind == "chi":
        return Fraction(q ** (d - s), factorial(r))
    if kind == "gamma_star":
        return Fraction(q ** (d - s))
    if kind in ("smn", "smn_s0"):
        return Fraction(q ** (d - s + 1), factorial(m) * factorial(n))
    raise InvalidParameter(f"unknown bound kind {kind!r}")


def one_minus_inv_e_enclosure():
    """Rational interval containing 1 - e^-1, via the alternating series.

    Consecutive partial sums of e^-1 = sum (-1)^k / k! bracket the limit,
    so the enclosure is rigorous; 60 terms is far below 10^-50 wide.
    """
    partial = Fraction(0)
    values = []
    for k in range(60):
        partial += Fraction((-1) ** k, factorial(k))
        values.append(partial)
    hi_e, lo_e = values[-2], values[-1]
    if hi_e < lo_e:
        hi_e, lo_e = lo_e, hi_e
    return 1 - hi_e, 1 - lo_e


def cohen_exact_mean(q: int, d: int) -> Fraction:
    """The exact average value set of all monic degree-d f with f(0)=0."""
    if d < 1:
        raise InvalidParameter("need d >= 1")
    return sum(
        (
            Fraction((-1) ** (r - 1) * comb(q, r), q ** (r - 1))
            for r in range(1, d + 1)
        ),
        Fraction(0),
    )


def reconstruct_mean(spec: FamilySpec, chi) -> Fraction:
    """Rebuild the mean from the interpolating-subset counts chi_r."""
    d, s, q = spec.d, spec.s, spec.q
    if not 1 <= s <= d - 2:
        raise InvalidParameter(f"mean reconstruction needs 1 <= s <= d-2, got s={s}")
    missing = [r for r in range(d - s + 1, d + 1) if r not in chi]
    if missing:
        raise InvalidParameter(f"chi vector is missing r in {missing}")
    high = sum((-1) ** (r - 1) * chi[r] for r in range(d - s + 1, d + 1))
    return cohen_exact_mean(q, d - s) + Fraction(high, q ** (d - s - 1))


def reconstruct_second_moment(
    spec: FamilySpec, mean: Fraction, smatrix, mode: str = "exact"
) -> Fraction:
    """Rebuild the second moment from S_mn; see the module docstring."""
    d, s, q = spec.d, spec.s, spec.q
    if mode not in ("paper", "exact"):
        raise InvalidParameter(f"unknown mode {mode!r}")
    lo = 2 if mode == "exact" else d - s + 1
    cells = [
        (m, n)
        for m in range(1, d + 1)
        for n in range(1, d + 1)
        if lo <= m + n <= 2 * d
    ]
    missing = [cell for cell in cells if cell not in smatrix]
    if missing:
        raise InvalidParameter(f"S matrix is missing cells {missing[:6]}...")

    total = Fraction(mean)
    if mode == "paper":
        for m in range(1, d + 1):
            for n in range(1, d + 1):
                if 2 <= m + n <= d - s:
                    total += Fraction(
                        (-1) ** (m + n) * comb(q, m) * comb(q, n), q ** (m + n - 2)
                    )
    signed = sum((-1) ** (m + n) * smatrix[(m, n)] for m, n in cells)
    return total + Fraction(signed, q ** (d - s - 1))


def build_moment_report(spec: FamilySpec, stats: FamilyStats):
    """(columns, checks) of one family sweep, exactly.

    columns names every moment value, each computed once: the two moments,
    their main terms, residuals and reconstructions, chi_r and S_mn (keyed
    "m,n"), and the verdicts of checks.  checks are (name, bool) pairs, each
    reconstruction defined at this s against its moment; the mean's is
    defined for 1 <= s <= d-2 only, and elsewhere its column reads None.
    """
    d, s = spec.d, spec.s
    mean, second = stats.mean, stats.second_moment
    mu_d_q, mu_d2_q2 = main_term("mean_main", spec), main_term("v2", spec)
    chi = {r: stats.chi(r) for r in range(d - s + 1, d + 1)} if s >= 1 else {}
    smn = {(m, n): stats.s_mn(m, n) for m in range(1, d + 1) for n in range(1, d + 1)}
    v2_exact = reconstruct_second_moment(spec, mean, smn, mode="exact")
    v2_paper = reconstruct_second_moment(spec, mean, smn, mode="paper")
    mean_reconstructed = None
    checks = [("v2_exact_mode_matches", v2_exact == second)]
    if 1 <= s <= d - 2:
        mean_reconstructed = reconstruct_mean(spec, chi)
        checks.append(("mean_reconstruction_exact", mean_reconstructed == mean))
    columns = {
        "spec": spec.key,
        "q": spec.q,
        "d": d,
        "s": s,
        "a": spec.a,
        "n_b": spec.n_b,
        "mean": mean,
        "mu_d_q": mu_d_q,
        "residual_mean": mean - mu_d_q,
        "second_moment": second,
        "mu_d2_q2": mu_d2_q2,
        "residual_second": second - mu_d2_q2,
        "chi": chi,
        "smn": {f"{m},{n}": v for (m, n), v in smn.items()},
        "mean_reconstructed": mean_reconstructed,
        "v2_exact_mode": v2_exact,
        "v2_paper_mode": v2_paper,
        "paper_mode_residual": v2_paper - v2_exact,
        "mean_reconstruction_exact": None,  # unless defined at this s
        **dict(checks),
    }
    return columns, tuple(checks)
