"""Decompositions of toric boundaries and the complexity invariant.

A decomposition writes the boundary as a weighted sum of reduced
torus-invariant divisors.  Its complexity is

    c  =  dim X  +  rho  -  sum of the weights,

where rho, the rank of the span of the part classes in Cl tensor Q, is

    rho  =  rank [P; R^T]  -  rank R

for the ray matrix R (one ray per row) and the parts' indicator rows P:
Cl tensor Q is Q^rays modulo the column span of R (the exact sequence
0 -> M_Q -> Q^rays -> Cl(X)_Q -> 0); rank R is the fan's cached
`ray_rank`.  A singleton part {i} is the unit row e_i of P, so it adds one
to the rank and its column can be deleted from every other row: the one
elimination runs on the columns that no singleton part covers, and not
at all when none is left (a boundary with a positive coefficient on
every ray, decomposed into primes).  The check that the parts sum to
the boundary and the sum of the weights run in integers over D, the lcm
of the pair's A (pairs.ToricPair) and the weights' denominators, each
weight read once by as_integer_ratio; the norm and c are one Fraction
over D each.  The prime decomposition is read off the pair's integers
and holds its own Fractions, bound unchecked.  Everything is exact
integer and rational arithmetic.  For a
toric log Calabi-Yau pair with its prime decomposition this is zero, and
it can never be negative for a log CY pair; a negative value here always
means a bug.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Optional

from toriclab._value import Value
from toriclab.fan import Fan, _integers
from toriclab.lattice import rank as matrix_rank
from toriclab.pairs import ToricPair, crepant_pullback


class Decomposition(Value):
    """Formal sum of weighted reduced divisors: parts (alpha_i, B_i) with
    B_i a set of ray indices."""

    parts: tuple[tuple[Fraction, frozenset[int]], ...]

    def __post_init__(self):
        norm = []
        for alpha, rays in self.parts:
            if not isinstance(alpha, Fraction):
                alpha = Fraction(alpha)
            if alpha.numerator < 0:
                raise ValueError("part weights must be non-negative")
            rays = frozenset(_integers(rays))
            if not rays:
                raise ValueError("empty part in decomposition")
            norm.append((alpha, rays))
        object.__setattr__(self, "parts", tuple(norm))

    @classmethod
    def of(cls, parts: Iterable[tuple[object, Iterable[int]]]) -> "Decomposition":
        return cls(tuple(parts))


class ComplexityReport(Value):
    """c = dim + rho - norm, checked at construction in integers: with c =
    p/q and norm = r/s, p.s + r.q == (dim + rho).q.s."""

    rho: int
    norm: Fraction
    dim: int
    c: Fraction

    def __post_init__(self):
        (p, q), (r, s) = self.c.as_integer_ratio(), self.norm.as_integer_ratio()
        if p * s + r * q != (self.dim + self.rho) * q * s:
            raise ValueError("inconsistent complexity report")


def decomposition_by_primes(pair: ToricPair) -> Decomposition:
    """One singleton part per ray carrying a positive coefficient (the
    boundary is effective, so a nonzero one): b_i > 0 iff alpha_i < A.
    The parts are the pair's own Fractions and singleton frozensets, the
    form Decomposition leaves them in, so they are bound unchecked."""
    singletons = map(frozenset, zip(range(len(pair.alpha))))  # {0}, {1}, ...
    positive = map(pair.A.__gt__, pair.alpha)
    return Decomposition._trusted(tuple(itertools.compress(zip(pair.boundary, singletons), positive)))


def complexity(pair: ToricPair, decomposition: Decomposition) -> ComplexityReport:
    """Complexity of the decomposition; raises if it does not decompose
    the pair's boundary.  rho = #singleton rays + rank of [P; R^T] on the
    other columns - rank R (see the module docstring).  With D the lcm of
    the pair's A and the weights' denominators, the parts must sum to
    D.b_i = D - (D/A).alpha_i on every ray, in integers and one list
    comparison; with W the sum of the scaled weights, the norm is W / D
    and c = (D(dim + rho) - W) / D."""
    n, A, parts = len(pair.fan.rays), pair.A, decomposition.parts
    ratios = [alpha.as_integer_ratio() for alpha, _ in parts]
    D = math.lcm(A, *[d for _, d in ratios])
    weights = [m * (D // d) for m, d in ratios]
    sums = [0] * n
    for w, (_, part) in zip(weights, parts):
        for i in part:
            if not 0 <= i < n:
                raise ValueError("part mentions a ray index outside the fan")
            sums[i] += w
    scale = D // A
    if sums != [D - scale * a for a in pair.alpha]:
        for i, (got, a) in enumerate(zip(sums, pair.alpha)):
            if got != D - scale * a:
                raise ValueError(
                    f"decomposition mismatch at ray {pair.fan.rays[i]}: sums to {Fraction(got, D)}, boundary has {pair.boundary[i]}"
                )
    singles = {i for _, part in parts if len(part) == 1 for i in part}
    rho = len(singles) - pair.fan.ray_rank
    if len(singles) < n:
        rest = [i for i in range(n) if i not in singles]
        rows = [tuple(int(i in part) for i in rest) for _, part in parts if len(part) > 1]
        rows += [tuple(x[i] for i in rest) for x in zip(*pair.fan.rays)]  # the rows of R^T
        rho += matrix_rank(rows)
    W, dim = sum(weights), pair.dim
    return ComplexityReport(rho, Fraction(W, D), dim, Fraction(D * (dim + rho) - W, D))


class BmszReport(Value):
    c: Fraction
    floor_two_c: Optional[int]


def assert_bmsz(pair: ToricPair, decomposition: Decomposition) -> BmszReport:
    """Check the non-negativity law c >= 0 for a log CY pair and, when
    c < 1, report floor(2c) (the number of components the associated toric
    boundary is allowed to replace)."""
    report = complexity(pair, decomposition)
    if report.c < 0:
        raise RuntimeError(
            f"BMSZ violation: complexity {report.c} < 0; this indicates an implementation bug"
        )
    floor_two_c = None
    if report.c < 1:
        floor_two_c = int(2 * report.c)  # floor of a non-negative rational
        # floor(B) is supported on boundary rays by construction, so the
        # toric consistency of (X, floor(B)) holds in this model
    return BmszReport(c=report.c, floor_two_c=floor_two_c)


def complexity_transport(
    pair: ToricPair, fine: Fan, decomposition: Decomposition
) -> tuple[ComplexityReport, ComplexityReport]:
    """Complexity before and after a crepant pullback.

    The decomposition on the refinement keeps the old parts (re-indexed
    through the ray vectors) and adds one singleton part per new ray with
    its pulled-back coefficient.  When all new coefficients are one the
    two complexities agree exactly; this is asserted.
    """
    pulled = crepant_pullback(pair, fine)
    before = complexity(pair, decomposition)

    fine_index = {ray: i for i, ray in enumerate(fine.rays)}
    new_parts = []
    for alpha, rays in decomposition.parts:
        new_parts.append((alpha, frozenset(fine_index[pair.fan.rays[i]] for i in rays)))
    old_rays = set(pair.fan.rays)
    new_coeff_values = []
    for i, ray in enumerate(fine.rays):
        if ray not in old_rays:
            new_parts.append((pulled.boundary[i], frozenset((i,))))
            new_coeff_values.append(pulled.boundary[i])
    after = complexity(pulled, Decomposition.of(new_parts))
    if all(v == 1 for v in new_coeff_values) and after.c != before.c:
        raise RuntimeError(
            f"complexity changed under a reduced crepant pullback ({before.c} -> {after.c}); bug"
        )
    return before, after
