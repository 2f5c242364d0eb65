"""Toric pairs (X, B): log discrepancies and singularity classes.

A pair couples a fan with one rational boundary coefficient per ray.  When
K+B is Q-Cartier the pair carries a piecewise-linear function psi, linear
on each maximal cone with psi(u_i) = 1 - b_i; the value of psi at a
primitive lattice point is the log discrepancy of the corresponding
divisorial valuation.  Only torus-invariant valuations are consulted: for
a toric pair the extremal log discrepancies are attained by them, so the
singularity class computed from lattice points is the honest one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from toriclab.fan import Diagnostics, Fan, is_refinement
from toriclab.lattice import Vec, vdot
from toriclab.toric import (
    ToricVariety,
    divisor_class_q,
    is_cartier,
    local_functionals,
    projective_space_fan,
)


class EffectivityError(ValueError):
    """A log pullback produced a negative coefficient somewhere."""

    def __init__(self, ray: Vec, coefficient: Fraction):
        self.ray = ray
        self.coefficient = coefficient
        super().__init__(f"log pullback is not effective: coefficient {coefficient} on ray {ray}")


@dataclass(frozen=True)
class ToricPair:
    """A toric variety plus an effective boundary divisor.

    Effectivity (all coefficients >= 0) is enforced at construction;
    whether K+B is Q-Cartier is a property, checked by validate_pair.
    """

    variety: ToricVariety
    boundary: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = tuple(Fraction(c) for c in self.boundary)
        if len(coeffs) != len(self.variety.fan.rays):
            raise ValueError("expected one boundary coefficient per ray")
        if any(c < 0 for c in coeffs):
            raise ValueError("boundary must be effective")
        object.__setattr__(self, "boundary", coeffs)

    @classmethod
    def from_fan(cls, fan: Fan, coefficients: Sequence) -> "ToricPair":
        return cls(ToricVariety(fan), tuple(Fraction(c) for c in coefficients))

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

    def log_canonical_coefficients(self) -> tuple[Fraction, ...]:
        """Coefficients of K+B: b_i - 1 on each ray."""
        return tuple(b - 1 for b in self.boundary)


def standard_pair(n: int) -> ToricPair:
    """(P^n, sum of the coordinate hyperplanes)."""
    return ToricPair.reduced(projective_space_fan(n))


def validate_pair(pair: ToricPair) -> Diagnostics:
    """Effectivity plus Q-Cartierness of K+B, reported per cone."""
    if any(b < 0 for b in pair.boundary):
        idx = next(i for i, b in enumerate(pair.boundary) if b < 0)
        return Diagnostics(False, "boundary not effective", (pair.fan.rays[idx],))
    pieces = local_functionals(pair.fan, [1 - b for b in pair.boundary])
    for c, m in zip(pair.fan.max_cones, pieces):
        if m is None:
            return Diagnostics(False, "K+B is not Q-Cartier on a maximal cone", (c,))
    return Diagnostics(True)


class LogDiscrepancyFunction:
    """The PL function psi with psi(u_i) = 1 - b_i, one linear piece per
    maximal cone.  Exists exactly when K+B is Q-Cartier."""

    def __init__(self, pair: ToricPair):
        fan = pair.fan
        self.pair = pair
        self._pieces: list[tuple[Fraction, ...]] = local_functionals(fan, [1 - b for b in pair.boundary])
        if any(m is None for m in self._pieces):
            raise ValueError("K+B is not Q-Cartier; no log discrepancy function")
        self._oracles = [fan.cone(c).membership_oracle() for c in fan.max_cones]

    def piece(self, cone_index: int) -> tuple[Fraction, ...]:
        return self._pieces[cone_index]

    def cone_index_of(self, v: Sequence) -> Optional[int]:
        for k, member in enumerate(self._oracles):
            if member(v):
                return k
        return None

    def __call__(self, v: Sequence) -> Fraction:
        k = self.cone_index_of(v)
        if k is None:
            raise ValueError("valuation not visible in this fan: point outside the support")
        return Fraction(vdot(self._pieces[k], v))


@lru_cache(maxsize=None)
def _psi(pair: ToricPair) -> LogDiscrepancyFunction:
    return LogDiscrepancyFunction(pair)


def log_discrepancy(pair: ToricPair, v: Sequence[int]) -> Fraction:
    """Log discrepancy of the toric valuation at a primitive point of the
    support; on a ray u_i this is 1 - b_i."""
    v = tuple(int(x) for x in v)
    if all(x == 0 for x in v):
        raise ValueError("the origin is not a valuation")
    if math.gcd(*v) != 1:
        raise ValueError("expected a primitive lattice vector")
    return _psi(pair)(v)


def _enumerate_low_discrepancy_points(pair: ToricPair):
    """Primitive non-ray lattice points v with psi(v) <= 1, each with its
    discrepancy.  Only callable when every coefficient is < 1, which makes
    the search region {psi <= 1} bounded in every cone."""
    fan = pair.fan
    psi = _psi(pair)
    rays = set(fan.rays)
    seen = set()
    for k, c in enumerate(fan.max_cones):
        member = psi._oracles[k]
        m = psi.piece(k)
        lo = [0] * fan.rank
        hi = [0] * fan.rank
        for i in c:
            scale = 1 / (1 - pair.boundary[i])
            for d in range(fan.rank):
                x = Fraction(fan.rays[i][d]) * scale
                lo[d] = min(lo[d], math.floor(x))
                hi[d] = max(hi[d], math.ceil(x))
        for point in itertools.product(*(range(lo[d], hi[d] + 1) for d in range(fan.rank))):
            if point in seen or all(x == 0 for x in point):
                continue
            if math.gcd(*point) != 1 or point in rays:
                continue
            if not member(point):
                continue
            value = Fraction(vdot(m, point))
            if value <= 1:
                seen.add(point)
                yield point, value


def singularity_type(pair: ToricPair) -> str:
    """Finest of terminal / canonical / klt / lc / not-lc that holds.

    The classes are treated as a nested chain.  With all coefficients at
    most one a toric pair is automatically lc; klt additionally needs all
    coefficients below one; canonical and terminal are then decided by
    exhausting the primitive lattice points of the bounded regions
    {psi <= 1}, excluding the origin and the rays.
    """
    if any(b > 1 for b in pair.boundary):
        return "not-lc"
    _psi(pair)  # raises if K+B is not Q-Cartier
    if any(b == 1 for b in pair.boundary):
        return "lc"
    worst = None
    for _, value in _enumerate_low_discrepancy_points(pair):
        worst = value if worst is None else min(worst, value)
        if worst < 1:
            return "klt"
    if worst is None:
        return "terminal"
    return "canonical" if worst == 1 else "terminal"


def is_log_cy(pair: ToricPair) -> bool:
    """Log Calabi-Yau: lc and K+B trivial in Cl tensor Q."""
    if singularity_type(pair) == "not-lc":
        return False
    kb = pair.log_canonical_coefficients()
    return all(x == 0 for x in divisor_class_q(pair.variety, kb))


def index(pair: ToricPair) -> int:
    """Least m >= 1 with m(K+B) Cartier."""
    kb = pair.log_canonical_coefficients()
    denom = 1
    for c in kb:
        denom = denom * c.denominator // math.gcd(denom, c.denominator)
    cone_lcm = 1
    for c in pair.fan.max_cones:
        idx = pair.fan.cone(c).lattice_index()
        cone_lcm = cone_lcm * idx // math.gcd(cone_lcm, idx)
    bound = denom * cone_lcm
    for m in range(1, bound + 1):
        scaled = [m * x for x in kb]
        if all(x.denominator == 1 for x in scaled) and is_cartier(pair.variety, scaled):
            return m
    raise RuntimeError("index search exceeded its bound; this is a bug")


def crepant_pullback(pair: ToricPair, fine: Fan) -> ToricPair:
    """Log pullback of the pair along a fan refinement.

    New rays receive coefficient 1 - psi(v); existing rays keep theirs.
    Raises EffectivityError when some new coefficient is negative (the log
    pullback need not be effective).
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


def restrict_boundary(pair: ToricPair, coarse: Fan) -> ToricPair:
    """Push the boundary forward to a coarser fan by dropping the rays that
    are not rays of that fan."""
    lookup = {ray: pair.boundary[i] for i, ray in enumerate(pair.fan.rays)}
    try:
        coeffs = tuple(lookup[ray] for ray in coarse.rays)
    except KeyError as e:
        raise ValueError(f"ray {e.args[0]} missing from the finer fan") from e
    return ToricPair.from_fan(coarse, coeffs)


@dataclass(frozen=True)
class PlaceClassification:
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
    v = tuple(int(x) for x in v)
    if v in pair.fan.rays:
        raise ValueError("not exceptional: the point is a ray of the fan")
    a = log_discrepancy(pair, v)
    return PlaceClassification(
        discrepancy=a,
        log_canonical=(a == 0),
        canonical=(a == 1),
        non_canonical=(a < 1),
        terminal=(a > 1),
        non_terminal=(a <= 1),
    )


def blowup_point_log_discrepancy(dim: int, mult) -> Fraction:
    """Log discrepancy of the exceptional divisor of a point blow-up on a
    smooth ambient: the dimension minus the boundary multiplicity at the
    point."""
    if dim < 2:
        raise ValueError("need dimension at least 2")
    return Fraction(dim) - Fraction(mult)
