"""Toric varieties from fans: class groups, divisors, ampleness.

The divisor class group is presented as the cokernel of the character
lattice mapping into the free group on the rays; the class group and
divisor classes read off that one Smith chart of the ray matrix.  The
pair invariants (complexity, the log Calabi-Yau test) read the pieces
below and ranks of the ray matrix, and never build it.  Coefficients
become integers through lattice._over_lcm.  Linear pieces on maximal
cones and the (Q-)Cartier tests are read in integer arithmetic from the
seeds of a full-dimensional cone (fan.Cone._echelon), strongly convex
or not, else from the cone's Smith chart (lattice.SolveChart): a piece
is one sum per column of the seeds' functionals, checked on every
generator by one list comparison (_scaled_piece), and one lazy walk
takes them cone by cone (_pieces).
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from toriclab._value import Value
from toriclab.fan import Cone, Fan, _integers, is_complete, is_simplicial
from toriclab.lattice import AbelianGroupStructure, SolveChart, Vec, _over_lcm, primitive, vdot


class ToricVariety(Value):
    fan: Fan

    @property
    def dim(self) -> int:
        return self.fan.rank


class DivisorClass(Value):
    """Class of a torus-invariant divisor in Cl(X), in SNF coordinates.

    `free` are the coordinates on the free part, `torsion` the residues
    modulo the listed invariants.  Classes of divisors on the same variety
    compare meaningfully; the presentation is deterministic.
    """

    free: tuple[int, ...]
    torsion: tuple[int, ...]
    invariants: tuple[int, ...]

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.free) and all(x == 0 for x in self.torsion)


@lru_cache(maxsize=256)
def _presentation(fan: Fan):
    """Rows of the Smith transform U of the ray matrix that Cl(X) reads:
    (free rows, torsion rows, torsion invariants).  The free rows are the
    chart's left kernel Z, a torsion row has invariant >= 2; rows with
    invariant 1 map to zero in Cl(X) and are dropped."""
    chart = SolveChart.of(fan.rays, fan.rank)
    torsion = [(u, d) for u, d in zip(chart.U, chart.d) if d >= 2]
    return chart.Z, tuple(u for u, _ in torsion), tuple(d for _, d in torsion)


def class_group(X: ToricVariety) -> AbelianGroupStructure:
    """Cl(X) as the cokernel of the character-to-divisor map."""
    free, _, invariants = _presentation(X.fan)
    return AbelianGroupStructure(len(free), invariants)


def divisor_class(X: ToricVariety, D: Sequence) -> DivisorClass:
    """Image of an integral torus-invariant divisor in Cl(X)."""
    A, d = _over_lcm(D)
    if A != 1:
        raise ValueError("divisor_class needs integral coefficients; see divisor_class_q")
    if len(d) != len(X.fan.rays):
        raise ValueError("expected one coefficient per ray")
    free_rows, torsion_rows, invariants = _presentation(X.fan)
    free = tuple(vdot(u, d) for u in free_rows)
    torsion = tuple(vdot(u, d) % n for u, n in zip(torsion_rows, invariants))
    return DivisorClass(free, torsion, invariants)


def divisor_class_q(X: ToricVariety, D: Sequence) -> tuple[Fraction, ...]:
    """Image of a Q-divisor in Cl(X) tensor Q (free coordinates only)."""
    A, scaled = _over_lcm(D)
    if len(scaled) != len(X.fan.rays):
        raise ValueError("expected one coefficient per ray")
    return tuple(Fraction(vdot(u, scaled), A) for u in _presentation(X.fan)[0])


def _scaled_piece(cone: Cone, a: Sequence[int]) -> tuple[int, Optional[Vec]]:
    """(L, L.m) with L > 0 for the piece m with m.g_i = a_i on the cone's
    generators, or (L, None) when no such m exists (a integral).

    A full-dimensional cone, strongly convex or not, reads its one
    elimination (H, pivots, last) (Cone._echelon): each pivot (c, s) pairs
    a seed g_s with its functional h_s = H[c], worth last on g_s and 0 on
    the other seeds, and every row of H is one of them.  So L = |last|
    and L.m = sign(last) sum a_s h_s, one sum over the columns of H with
    the sign folded into the a_s; it is a piece iff it takes its values on
    the other generators too.  A
    lower-dimensional cone reads its Smith chart: L the largest invariant
    and L.m = M.a.  Every generator is checked in one list comparison of
    the values L.m takes with L.a; on a mismatch the first generator missed
    is read off the same two lists: a seed (or any generator of a
    lower-dimensional cone) missed means the solve is broken, another one
    means no piece."""
    if cone.dim == cone.rank:
        H, pivots, last = cone._echelon
        values = [0] * len(H)
        for c, s in pivots:  # every row of H is a pivot row: a_s goes with h_s = H[c]
            values[c] = a[s]
        if last < 0:
            values = [-x for x in values]
        L, lm = abs(last), tuple([sum(map(operator.mul, values, column)) for column in zip(*H)])
    else:
        chart = cone.solve_chart
        L, lm = chart.L, chart.solve(a)
        if lm is None:
            return L, None
    got, want = [sum(map(operator.mul, lm, g)) for g in cone.generators], list(map(L.__mul__, a))
    if got == want:
        return L, lm
    # the first generator missed; zip raises when a has the wrong length
    j = next(j for j, (x, y) in enumerate(zip(got, want, strict=True)) if x != y)
    if cone.dim < cone.rank or any(s == j for _, s in cone._echelon[1]):
        raise RuntimeError("linear solve broken: local functional misses a prescribed value on a ray")
    return L, None


def _pieces(fan: Fan, alpha: Sequence[int]) -> Iterator[tuple[int, Optional[Vec]]]:
    """_scaled_piece of alpha (one integer per ray) on each maximal cone's
    rays, in order and lazily: the one walk of the pieces, read by
    local_functionals, is_fano and the psi record (pairs), which stops at
    the first cone without a piece."""
    return (_scaled_piece(cone, list(map(alpha.__getitem__, c))) for c, cone in zip(fan.max_cones, fan.cones))


def local_functionals(fan: Fan, values: Sequence) -> list[Optional[tuple[Fraction, ...]]]:
    """For each maximal cone, some m with <m, u_i> = values[i] on the
    cone's rays u_i, or None where no such m exists.

    The values are scaled once to integers alpha = A.values, A the lcm of
    their denominators (lattice._over_lcm), and each cone answers in
    integers (_pieces).  A full-dimensional cone reads its seeds off its
    echelon: the piece is unique and no Smith form is taken.  A
    lower-dimensional cone reads its Smith chart: no piece iff Z.alpha !=
    0 on the cone's rays, and otherwise the piece M.alpha / (L.A), the
    solution whose free Smith coordinates vanish; only its values on the
    cone's span are meaningful.
    """
    A, alpha = _over_lcm(values)
    if len(alpha) != len(fan.rays):
        raise ValueError("expected one coefficient per ray")
    return [None if lm is None else tuple(Fraction(x, L * A) for x in lm) for L, lm in _pieces(fan, alpha)]


def is_qcartier(X: ToricVariety, D: Sequence) -> bool:
    """On each maximal cone some rational linear functional agrees with
    minus the coefficients on the cone's rays."""
    return all(m is not None for m in local_functionals(X.fan, [-Fraction(c) for c in D]))


def is_cartier(X: ToricVariety, D: Sequence) -> bool:
    """Like is_qcartier but the functional must be integral: D is
    integral and so is every piece of local_functionals(-D), i.e. L
    divides L.m on each maximal cone (see _scaled_piece)."""
    A, d = _over_lcm(D)
    pieces = local_functionals(X.fan, [-x for x in d])
    if A != 1:
        return False
    return all(m is not None and all(x.denominator == 1 for x in m) for m in pieces)


def projective_space_fan(n: int) -> Fan:
    """Fan of P^n, which is P(1, ..., 1): the standard basis rays plus
    minus their sum, as weighted_projective_fan builds it."""
    (n,) = _integers((n,))
    if n < 1:
        raise ValueError("need n >= 1")
    return weighted_projective_fan((1,) * (n + 1))


def weighted_projective_fan(weights: Sequence[int]) -> Fan:
    """Fan of the weighted projective space with the given weights.

    Convention: when the first weight is 1 the rays are the standard basis
    e_1..e_n together with v_0 = -(w_1 e_1 + ... + w_n e_n); otherwise the
    quotient lattice Z^{n+1} / Z.weights is presented through a Smith
    normal form and the images of the basis vectors are primitivized.
    Maximal cones are all n-element subsets of the n+1 rays.
    """
    w = _integers(weights)
    if len(w) < 2 or any(x <= 0 for x in w):
        raise ValueError("weights must be at least two positive integers")
    if math.gcd(*w) != 1:
        raise ValueError("weights must be coprime overall")
    n = len(w) - 1
    if w[0] == 1:
        rays = [tuple(-w[j + 1] for j in range(n))]
        rays += [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    else:
        # rows 2..n+1 of a unimodular matrix sending the weight vector to e_1
        # give a projection Z^{n+1} -> Z^n with kernel Z.weights
        chart = SolveChart.of([[x] for x in w], 1)
        if chart.d != (1,):
            raise RuntimeError("Smith form of coprime weights must have leading entry 1")
        proj = chart.Z
        rays = [primitive(tuple(row[i] for row in proj)) for i in range(n + 1)]
    cones = list(itertools.combinations(range(n + 1), n))
    return Fan.from_data(rays, cones, rank=n)


def is_fano(X: ToricVariety) -> bool:
    """Is -K ample?  Decided by strict convexity of the support function
    taking value one on every ray, across every wall of the fan.  Only
    complete simplicial fans are supported.

    Each maximal cone gives L.m for its piece m (m.u = 1 on the cone's
    rays) from the walk local_functionals reads (_pieces), with L =
    |det| > 0, so the test m.g < 1 across a wall reads (L.m).g < L in
    integers.  The walls come from the fan's one cached wall map
    (Fan.wall_map), which is_complete has already built.  One side of
    each wall suffices: the two pieces differ by a functional vanishing on
    the wall, and the cones' other rays lie on opposite sides of it.
    """
    fan = X.fan
    if not fan.max_cones or not is_complete(fan) or not is_simplicial(fan):
        raise ValueError("ampleness test unsupported: fan must be complete and simplicial")
    cones = fan.cones
    pieces = list(_pieces(fan, [1] * len(fan.rays)))
    for key, ((a, _), (b, _)) in fan.wall_map.items():
        L, lm = pieces[a]
        if any(vdot(lm, g) >= L for g in set(cones[b].generators) - key):
            return False
    return True
