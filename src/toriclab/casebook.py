"""Worked examples run as executable checks.

Two stories live here.  The first is an incidence-level certificate for a
boundary on the Segre cubic threefold: blowing up five points of a
four-plane arrangement in 3-space is crepant exactly because every blown-up
point lies on precisely two of the planes, and the induced map to the cubic
contracts the ten lines through point pairs.  The second is a regression
suite running the toric boundary laws (trivial K+B, index one, log
canonicity, complexity zero) over every bundled fan.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from toriclab._value import Value
from toriclab.catalog import bundled_fans
from toriclab.complexity import complexity, decomposition_by_primes
from toriclab.pairs import (
    ToricPair,
    blowup_point_log_discrepancy,
    index,
    is_log_cy,
    singularity_type,
)
from toriclab.toric import ToricVariety, divisor_class, is_fano


class IncidenceArrangement(Value):
    """Points, hyperplanes, and which hyperplanes each point spans."""

    points: tuple[str, ...]
    hyperplanes: tuple[str, ...]
    incidence: tuple[tuple[str, frozenset[str]], ...]

    def __post_init__(self):
        names = dict(self.incidence)
        if set(names) != set(self.points):
            raise ValueError("incidence must list every point exactly once")
        for point, planes in self.incidence:
            if not planes <= set(self.hyperplanes):
                raise ValueError(f"unknown hyperplane in incidence of {point}")

    def incident(self, point: str) -> frozenset[str]:
        return dict(self.incidence)[point]

    def drop_incidence(self, point: str, hyperplane: str) -> "IncidenceArrangement":
        """Copy with one point-hyperplane incidence removed (for mutation
        tests)."""
        new = tuple(
            (p, planes - {hyperplane} if p == point else planes)
            for p, planes in self.incidence
        )
        return IncidenceArrangement(self.points, self.hyperplanes, new)


BLOWN_UP_POINTS = ("p", "q", "r", "s", "t")


def segre_arrangement() -> IncidenceArrangement:
    """Five points and four planes: H1 through {p,q,r}, H2 through {p,s,t},
    H3 through {u1,q,s}, H4 through {u2,r,t}.  Each of p,q,r,s,t lies on
    exactly two planes; u1, u2 are auxiliary points on the line H1 cap H2
    chosen to span H3 and H4."""
    inc = {
        "p": frozenset({"H1", "H2"}),
        "q": frozenset({"H1", "H3"}),
        "r": frozenset({"H1", "H4"}),
        "s": frozenset({"H2", "H3"}),
        "t": frozenset({"H2", "H4"}),
        "u1": frozenset({"H3"}),
        "u2": frozenset({"H4"}),
    }
    return IncidenceArrangement(
        points=("p", "q", "r", "s", "t", "u1", "u2"),
        hyperplanes=("H1", "H2", "H3", "H4"),
        incidence=tuple(sorted(inc.items())),
    )


class CrepantCertificate(Value):
    """Exceptional coefficients of the point blow-ups, the count of
    contracted lines, and whether the pulled-back boundary is effective."""

    coefficients: tuple[tuple[str, Fraction], ...]
    contracted_line_count: int
    effective: bool

    def __post_init__(self):
        if self.effective != all(c >= 0 for _, c in self.coefficients):
            raise ValueError("effectivity flag disagrees with the coefficients")


def segre_certificate(arrangement: Optional[IncidenceArrangement] = None) -> CrepantCertificate:
    """Crepancy certificate for blowing up p,q,r,s,t in the arrangement.

    The exceptional divisor over a point on `mult` of the boundary planes
    in 3-space has log discrepancy 3 - mult, hence pulled-back coefficient
    mult - 2.  With the canonical arrangement every coefficient is 0 and
    the boundary stays effective; the contracted locus of the induced map
    to the cubic is the 10 lines through pairs of blown-up points.
    """
    if arrangement is None:
        arrangement = segre_arrangement()
        for point in BLOWN_UP_POINTS:
            if len(arrangement.incident(point)) != 2:
                raise RuntimeError(f"arrangement corrupted: {point} should span two planes")
    coeffs = tuple(
        (point, 1 - blowup_point_log_discrepancy(3, len(arrangement.incident(point))))
        for point in BLOWN_UP_POINTS
    )
    return CrepantCertificate(
        coefficients=coeffs,
        contracted_line_count=math.comb(len(BLOWN_UP_POINTS), 2),
        effective=all(c >= 0 for _, c in coeffs),
    )


class SuiteLine(Value):
    name: str
    status: str  # "pass", "fail" or "info"
    witness: str

    def render(self) -> str:
        return f"{self.name} {self.status} {self.witness}"


class SuiteReport(Value):
    lines: tuple[SuiteLine, ...]

    @property
    def passed(self) -> bool:
        return all(line.status != "fail" for line in self.lines)


def toric_boundary_suite() -> SuiteReport:
    """Check, over every bundled fan with its reduced boundary: K+B has
    trivial class, index one, singularity type lc, and complexity zero for
    the prime decomposition.  Fano-ness is recorded as information."""
    lines: list[SuiteLine] = []
    for name, fan in bundled_fans():
        pair = ToricPair.reduced(fan)
        X = ToricVariety(fan)

        kb = [int(b - 1) for b in pair.boundary]
        kb_class = divisor_class(X, kb)
        lines.append(
            SuiteLine(f"{name}:kb-class-zero", "pass" if kb_class.is_zero() else "fail", str(kb_class))
        )
        lcy = is_log_cy(pair)
        lines.append(SuiteLine(f"{name}:log-cy", "pass" if lcy else "fail", str(lcy)))
        m = index(pair)
        lines.append(SuiteLine(f"{name}:index-one", "pass" if m == 1 else "fail", f"index={m}"))
        stype = singularity_type(pair)
        lines.append(SuiteLine(f"{name}:lc", "pass" if stype == "lc" else "fail", stype))
        report = complexity(pair, decomposition_by_primes(pair))
        lines.append(
            SuiteLine(
                f"{name}:complexity-zero",
                "pass" if report.c == 0 else "fail",
                f"dim={report.dim} rho={report.rho} norm={report.norm} c={report.c}",
            )
        )
        lines.append(SuiteLine(f"{name}:fano", "info", str(is_fano(X))))
    return SuiteReport(tuple(lines))
