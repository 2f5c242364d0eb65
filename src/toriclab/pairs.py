"""Toric pairs (X, B): log discrepancies and singularity classes.

A pair couples a fan with one rational boundary coefficient per ray.  When
K+B is Q-Cartier the pair carries a piecewise-linear function psi, linear
on each maximal cone with psi(u_i) = 1 - b_i; the value of psi at a
primitive lattice point is the log discrepancy of the corresponding
divisorial valuation.  Only torus-invariant valuations are consulted: for
a toric pair the extremal log discrepancies are attained by them, so the
singularity class computed from lattice points is the honest one.

A pair carries its boundary in integers from construction: A, the lcm
of the coefficient denominators, and alpha = A(1 - b), both from the one
reader of rationals as integers (lattice._over_lcm), so every boundary
test is an integer sign (b > 1 iff alpha_i < 0, b = 1 iff alpha_i = 0).
Every pair query reads these and one integer record of psi per pair
(LogDiscrepancyFunction), built by the one walk of the pieces
(toric._pieces); with a full-dimensional maximal cone none of
them takes an elimination.  The loops over a pair's rays and cones run
on those ints in list comprehensions and builtins (sum over map, min,
list comparisons), and read a Fraction only through as_integer_ratio:
the least psi walks a simplex's box one Smith invariant at a time,
holding the points of all but the last invariant above 1, and a place is
classified by comparing the numerator of its log discrepancy with 0 and
with its denominator.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from toriclab._value import Value, derived
from toriclab.fan import Cone, Diagnostics, Fan, _holding, _integers, is_refinement
from toriclab.lattice import Vec, _over_lcm, rank as matrix_rank, vdot
from toriclab.toric import ToricVariety, _pieces, projective_space_fan


class EffectivityError(ValueError):
    """A log pullback produced a negative coefficient somewhere."""

    def __init__(self, ray: Vec, coefficient: Fraction):
        self.ray = ray
        self.coefficient = coefficient
        super().__init__(f"log pullback is not effective: coefficient {coefficient} on ray {ray}")


class ToricPair(Value):
    """A toric variety plus an effective boundary divisor.

    Effectivity (all coefficients >= 0) is enforced at construction;
    whether K+B is Q-Cartier is a property, checked by validate_pair.  The
    boundary stays a tuple of Fractions; a coefficient that is not one
    already is converted once.  Construction also computes the integers
    every pair query reads (lattice._over_lcm): A, the lcm of the
    coefficient denominators, and alpha = A(1 - b), one per ray, with b
    effective iff no A.b_i is negative; and the hash of the fields, for the
    cached pair queries that look the pair up again and again.
    """

    variety: ToricVariety
    boundary: tuple[Fraction, ...]
    A: int = derived()
    alpha: tuple[int, ...] = derived()

    def __post_init__(self):
        coeffs = tuple([c if isinstance(c, Fraction) else Fraction(c) for c in self.boundary])
        if len(coeffs) != len(self.variety.fan.rays):
            raise ValueError("expected one boundary coefficient per ray")
        A, scaled = _over_lcm(coeffs)
        if min(scaled, default=0) < 0:
            raise ValueError("boundary must be effective")
        object.__setattr__(self, "boundary", coeffs)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "alpha", tuple([A - x for x in scaled]))
        object.__setattr__(self, "_hash", hash((self.variety, coeffs)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_fan(cls, fan: Fan, coefficients: Sequence) -> "ToricPair":
        return cls(ToricVariety(fan), tuple(coefficients))

    @classmethod
    def reduced(cls, fan: Fan) -> "ToricPair":
        """The pair with the full reduced torus-invariant boundary."""
        return cls(ToricVariety(fan), tuple(Fraction(1) for _ in fan.rays))

    @property
    def fan(self) -> Fan:
        return self.variety.fan

    @property
    def dim(self) -> int:
        return self.variety.dim


def standard_pair(n: int) -> ToricPair:
    """(P^n, sum of the coordinate hyperplanes)."""
    return ToricPair.reduced(projective_space_fan(n))


def validate_pair(pair: ToricPair) -> Diagnostics:
    """Q-Cartierness of K+B (effectivity is enforced at construction),
    read by building the pair's one psi record: the first maximal cone on
    which no piece takes the values 1 - b on its rays is the witness."""
    try:
        _psi(pair)
    except ValueError as e:  # not Q-Cartier: the only ValueError building psi raises
        return Diagnostics(False, "K+B is not Q-Cartier on a maximal cone", (pair.fan.max_cones[e.cone_index],))
    return Diagnostics(True)


class LogDiscrepancyFunction:
    """The PL function psi with psi(u_i) = 1 - b_i, one linear piece per
    maximal cone.  Exists exactly when K+B is Q-Cartier.

    It is held as one integer record, built once per pair from the
    pair's A and alpha = A(1 - b): `scaled`, per maximal cone (L.A, L.m)
    with psi = L.m / (L.A) on that cone, where (L, L.m) is the piece
    toric._pieces takes of alpha on the cone's rays (off the echelon of a
    full-dimensional cone, the Smith chart of a lower-dimensional one).
    Building it raises ValueError at the first maximal cone without a
    piece, with that cone's index as its `cone_index`.  The class stays the
    builtin one, as pair answers report an error by its class name and
    message.
    """

    def __init__(self, pair: ToricPair):
        self.pair = pair
        A = pair.A
        self.scaled: list[tuple[int, Vec]] = []
        for L, lm in _pieces(pair.fan, pair.alpha):
            if lm is None:
                error = ValueError("K+B is not Q-Cartier; no log discrepancy function")
                error.cone_index = len(self.scaled)
                raise error
            self.scaled.append((L * A, lm))

    def cone_index_of(self, v: Sequence) -> Optional[int]:
        """The first maximal cone, in order, that holds v (fan._holding);
        None if none does."""
        return next(_holding(self.pair.fan.cones, v), None)

    def __call__(self, v: Sequence) -> Fraction:
        k = self.cone_index_of(v)
        if k is None:
            raise ValueError("valuation not visible in this fan: point outside the support")
        LA, lm = self.scaled[k]
        return Fraction(vdot(lm, v), LA)


@lru_cache(maxsize=256)
def _psi(pair: ToricPair) -> LogDiscrepancyFunction:
    return LogDiscrepancyFunction(pair)


def log_discrepancy(pair: ToricPair, v: Sequence[int]) -> Fraction:
    """Log discrepancy of the toric valuation at a primitive point of the
    support; on a ray u_i this is 1 - b_i."""
    v = _integers(v)
    if not any(v):
        raise ValueError("the origin is not a valuation")
    if math.gcd(*v) != 1:
        raise ValueError("expected a primitive lattice vector")
    return _psi(pair)(v)


def _least_exceptional_psi(cone: Cone, alpha: Sequence[int], A: int) -> Optional[int]:
    """The sign of (least psi) - 1 over the primitive lattice points of the
    cone that are not rays, where psi is linear with psi(generators[i]) =
    alpha[i] / A > 0: -1, 0 or 1, or None when the cone has no such point.

    A simplex with rays u_i, cached Smith form U.G.V = diag(d) of the ray
    matrix G, has the fundamental-parallelepiped points sum frac(lambda_i)
    u_i with lambda = (t_1/d_1, ..., t_k/d_k).U, 0 <= t_j < d_j; any other
    of its non-ray primitive points is one of them plus rays, or contains
    u_i + u_j, which only raises psi, so its candidates are the nonzero
    parallelepiped points and the sums a_i + a_j.  Every non-ray primitive
    point of the cone lies in a simplex of Cone.triangulation (psi > 0 on
    the generators makes the cone strongly convex), whose rays are
    generators, so the least value over those simplices is the least over
    all independent dim-subsets of generators.
    """
    best = None
    for sub, simplex in cone.triangulation:
        chart = simplex.solve_chart
        U, d, L = chart.U, chart.d, chart.L
        # integers throughout: psi = value / (L * A), L * frac(lambda_i) = lam_i mod L
        a = list(map(alpha.__getitem__, sub))
        low = min([L * (x + y) for x, y in itertools.combinations(a, 2)], default=None)
        # the box points L.frac(lambda) as partial sums, one invariant d_j > 1
        # at a time (d_j = 1 adds only t_j = 0), reduced mod L.  The points
        # of all but the last such invariant are held and the last one's
        # values streamed into min, so at most det/d_last points are held
        steps = [(dj, [L // dj * x for x in row]) for dj, row in zip(d, U) if dj > 1]
        if steps:
            box = [(0,) * len(a)]
            for dj, step in steps[:-1]:
                box = [[(x + t * y) % L for x, y in zip(p, step)] for p in box for t in range(dj)]
            dj, step = steps[-1]
            values = (sum(map(operator.mul, a, [(x + t * y) % L for x, y in zip(p, step)])) for p in box for t in range(dj))
            next(values)  # t = 0, the origin
            least = min(values)
            low = least if low is None else min(low, least)
        if low is not None:
            sign = (low > L * A) - (low < L * A)
            best = sign if best is None else min(best, sign)
    return best


def singularity_type(pair: ToricPair) -> str:
    """Finest of terminal / canonical / klt / lc / not-lc that holds.

    The classes are treated as a nested chain.  With all coefficients at
    most one a toric pair is automatically lc; klt additionally needs all
    coefficients below one.  Canonical and terminal then compare with 1
    the least log discrepancy over the primitive non-ray lattice points,
    which each maximal cone yields in closed form from one Smith chart per
    simplex of its cached triangulation (_least_exceptional_psi, fed the
    pair's alpha and A); the cost does not depend on how close the
    coefficients are to 1.  A coefficient above 1 is a negative alpha_i,
    one equal to 1 a zero.
    """
    alpha = pair.alpha
    if min(alpha, default=0) < 0:
        return "not-lc"
    _psi(pair)  # raises if K+B is not Q-Cartier
    if 0 in alpha:
        return "lc"
    fan = pair.fan
    canonical = False
    for c, cone in zip(fan.max_cones, fan.cones):
        sign = _least_exceptional_psi(cone, list(map(alpha.__getitem__, c)), pair.A)
        if sign == -1:
            return "klt"
        canonical = canonical or sign == 0
    return "canonical" if canonical else "terminal"


def is_log_cy(pair: ToricPair) -> bool:
    """Log Calabi-Yau: lc and K+B trivial in Cl tensor Q, that is, some
    rational m has m.u_i = 1 - b_i on every ray u_i.

    A coefficient above 1 gives False; otherwise raises ValueError when
    K+B is not Q-Cartier.  When some maximal cone is full-dimensional, its
    piece of psi, read off its seeds, is the only candidate for m, so the
    test reads L.m.u_i.A == L.A.alpha_i on every ray off the psi record
    and the pair's integers (a coefficient above 1 is alpha_i < 0), with
    no elimination.  Otherwise Cl tensor Q is Q^rays modulo the column span
    of the ray matrix R, and K+B is trivial there iff appending alpha =
    A(1 - b) to R keeps its rank (Fan.ray_rank)."""
    alpha = pair.alpha
    if min(alpha, default=0) < 0:
        return False
    psi = _psi(pair)  # raises if K+B is not Q-Cartier
    fan = pair.fan
    for (LA, lm), cone in zip(psi.scaled, fan.cones):
        if cone.dim == fan.rank:
            A = pair.A
            return [A * sum(map(operator.mul, lm, u)) for u in fan.rays] == list(map(LA.__mul__, alpha))
    extended = [(*u, a) for u, a in zip(fan.rays, pair.alpha)]
    return matrix_rank(extended) == fan.ray_rank


def index(pair: ToricPair) -> int:
    """Least m >= 1 with m(K+B) Cartier.

    m(K+B) is Cartier iff every coefficient m b_i is an integer and, on
    each maximal cone, some integral m.psi agrees with m(1 - b_i) on the
    rays.  On a full-dimensional cone the piece of psi is the only
    solution, read off the cone's seeds.  On a lower-dimensional cone the
    piece that its Smith chart returns has its free Smith coordinates
    zero, and the chart's V is unimodular, so that piece is integral iff
    some integral solution exists.  The index is therefore the lcm of A,
    the lcm of the coefficient denominators, and of the denominators of
    the pieces L.m / (L.A) of the psi record, LA / gcd(LA, *Lm) per cone.
    K+B not Q-Cartier raises ValueError.
    """
    m = pair.A
    for LA, lm in _psi(pair).scaled:
        m = math.lcm(m, LA // math.gcd(LA, *lm))
    return m


def crepant_pullback(pair: ToricPair, fine: Fan) -> ToricPair:
    """Log pullback of the pair along a fan refinement.  `fine` must be a
    valid fan, which is not checked here (validate_fan), and must pass
    is_refinement, its cones covering each cone of the pair's fan exactly
    once, else ValueError.

    New rays receive coefficient 1 - psi(v); existing rays keep theirs.
    Raises EffectivityError when some new coefficient is negative.
    """
    if not is_refinement(fine, pair.fan):
        raise ValueError("fan is not a refinement of the pair's fan")
    psi = _psi(pair)
    old = {ray: pair.boundary[i] for i, ray in enumerate(pair.fan.rays)}
    coeffs = []
    for ray in fine.rays:
        if ray in old:
            coeffs.append(old[ray])
        else:
            c = 1 - psi(ray)
            if c < 0:
                raise EffectivityError(ray, c)
            coeffs.append(c)
    return ToricPair.from_fan(fine, coeffs)


class PlaceClassification(Value):
    """Truth vector of the place labels for one divisorial valuation; a
    place can carry several labels at once (canonical and non-terminal,
    for instance)."""

    discrepancy: Fraction
    log_canonical: bool
    canonical: bool
    non_canonical: bool
    terminal: bool
    non_terminal: bool

    def labels(self) -> tuple[str, ...]:
        out = []
        if self.log_canonical:
            out.append("log canonical place")
        if self.canonical:
            out.append("canonical place")
        if self.non_canonical:
            out.append("non-canonical place")
        if self.terminal:
            out.append("terminal place")
        if self.non_terminal:
            out.append("non-terminal place")
        return tuple(out)


def classify_extracted_place(pair: ToricPair, v: Sequence[int]) -> PlaceClassification:
    """Classify the exceptional valuation at a primitive point that is not
    already a ray of the fan."""
    v = _integers(v)
    if v in pair.fan.rays:
        raise ValueError("not exceptional: the point is a ray of the fan")
    a = log_discrepancy(pair, v)
    n, d = a.as_integer_ratio()  # d > 0: a compares with 0 and 1 as n with 0 and d
    return PlaceClassification(a, n == 0, n == d, n < d, n > d, n <= d)


def blowup_point_log_discrepancy(dim: int, mult) -> Fraction:
    """Log discrepancy of the exceptional divisor of a point blow-up on a
    smooth ambient: the dimension minus the boundary multiplicity at the
    point."""
    if dim < 2:
        raise ValueError("need dimension at least 2")
    return Fraction(dim) - Fraction(mult)
