"""Cones, fans, and fan surgeries (star subdivisions, 2D resolutions).

A cone is stored by its primitive extremal generators, a fan by a canonical
(lexicographically sorted) ray list plus maximal cones as ray-index sets.
All geometry is decided exactly, by one kernel on integer rows: the double
description, seeded by the one elimination over Q (lattice.echelon, which
also gives cone dimensions and, when no maximal cone is full-dimensional,
the rank of a fan's ray matrix).  Rows spanning Q^2 or Q^3 seed from the
cofactors of their first independent rows instead, with no elimination run.
The run joins two rays of the dual cone only when they are adjacent, and
in a span of dimension d <= 3 two rays that share d - 2 zero rows always
are: a row both vanish on cuts a face of dimension <= 2 out of the
pointed dual cone, which holds exactly two extreme rays.  So only runs
with d >= 4 make the combinatorial test; every run counts its adjacency
decisions.  Inside the library facets carry their members as bitmasks.
One run per cone gives its facets, from which membership, relative
interiors, walls and faces are read (a face as the closure of its
generators, Cone._closure).  Separation questions (strong convexity,
extremality, whether two cones meet in a common face, rational linear
feasibility, its rational rows made integers by lattice._over_lcm) ask
whether a row lies in the lineality space of a cone, on every one of its
facets (Gordan and Motzkin).  A cone with independent generators is
strongly convex with every generator extremal, and no facets are
computed.  A cone caches one elimination of its generators, the echelon
of [G^T | I] (Cone._echelon), and reads every rational fact off it: its
dimension, its span (the rows without a pivot), the start of its double
description, and its seeds (the pivots: dim independent generators,
each with a functional vanishing on the others), which give the linear
pieces of a full-dimensional cone (toric._scaled_piece) and the facets
and unimodularity of a full-dimensional simplicial one, with no double
description: a unimodular one's facet normals are its dual basis, the
seed functionals taken as they stand (negated when last = -1), and only
|last| > 1 divides by the gcd.  Its Smith chart (lattice.SolveChart)
answers lattice questions only.  A strongly convex cone that is not
simplicial caches one pulling triangulation into simplices.  One oriented wall test
(_covers_once), on the walls and their inward normals, decides whether
cones cover a region exactly once: the space for validate_fan (on complete
fans of full-dimensional cones, simplicial or not), is_complete and
is_refinement onto a complete fan, each coarse cone for is_refinement onto
any other.  Nothing here ever touches a float: a coordinate, ray index or
rank that is not an integer raises ValueError (_primitives reads every
cone's generators and fan's rays).

Fan.from_data shares fans by the fan, not by the data: while an equal fan
built by it is still held anywhere (a cached pair or presentation, the
bundled catalogue, the caller), it returns that object for any data
giving that fan (rays in another order or not primitive, cones listed
otherwise), with every chart, wall map and rank it has cached.  It looks
the data up as given first and then by its normal form (_normal_form),
which Fan(...) also computes, and keeps each fan under two keys only: its
normal form and the data it was built from.  A fan nobody holds is
dropped.  Both keys pay where one process presents its fans again, as
a library caller or the bench's repeated workloads do: without the
table, or with the normal form as the only key, those queries slow
down.  Fan(...) always builds a new fan.  validate_fan runs its checks
once per fan and caches the Diagnostics on it, so a fan shared this way
is validated once.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import weakref
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from toriclab._value import Value, cached_property
from toriclab.lattice import SolveChart, Vec, _over_lcm, echelon, primitive, rank as matrix_rank, vdot


def _integers(xs: Iterable) -> tuple[int, ...]:
    """xs as ints, or ValueError when int() would change the value of one
    (a string must spell an integer, which int() itself checks)."""
    xs = tuple(xs)
    ns = tuple(map(int, xs))
    if ns != xs:
        for n, x in zip(ns, xs):
            if n != x and not isinstance(x, str):
                raise ValueError(f"not an integer: {x!r}")
    return ns


def _primitives(vectors: Iterable[Sequence], rank, noun: str) -> tuple[list[Vec], int]:
    """(the vectors made primitive, in order, the rank as an int), each
    read through _integers; ValueError on a vector whose length is not the
    rank or that is zero, naming it by `noun`.  The one reading of a
    cone's generators and of a fan's rays."""
    (rank,) = _integers([rank])
    out = []
    for v in vectors:
        v = _integers(v)
        if len(v) != rank:
            raise ValueError(f"{noun} length differs from ambient rank")
        if not any(v):
            raise ValueError(f"zero {noun}")
        out.append(primitive(v))
    return out, rank


def _holding(cones: Sequence[Cone], v: Sequence) -> Iterator[int]:
    """The indices of the cones that hold v (Cone.contains), in order and
    lazily: the one point-location scan, read by psi for the first,
    is_refinement for all and the wall test for any after the first."""
    return (k for k, cone in enumerate(cones) if cone.contains(v))


# ---------------------------------------------------------------------------
# double description (facets of a cone from its generators)
# ---------------------------------------------------------------------------


def double_description(
    rows: Sequence[Sequence[int]], seed_echelon=None
) -> tuple[tuple[int, ...], list[tuple[Vec, frozenset[int]]], int]:
    """Facets of the cone spanned by integer rows, not all zero, by the
    double-description method (Motzkin, Raiffa, Thompson and Thrall 1953;
    Fukuda and Prodon 1996).

    Returns (pivots, facets, tests).  The rows span a space of dimension
    d = len(pivots), and the pivot coordinates carry it one to one, so the
    method runs on those d coordinates.  A facet is (inward normal h,
    members): h is a primitive integer functional, zero off the pivots,
    with h.row >= 0 on every row, and members holds the i with h.row_i = 0.
    `tests` counts the adjacency decisions made: the pairs that pass the
    d - 2 filter.  `seed_echelon` is the rows' `_seed_echelon`, which the
    run only reads (a cone passes its cached one, Cone._echelon) and finds
    when not given.

    One `lattice.echelon` run on the transposed rows beside an identity
    (or, for rows spanning Q^2 or Q^3, their cofactors) finds d independent
    rows, the seeds, and the adjugate functionals vanishing on all seeds
    but one (each worth `last` on its own seed, so oriented by its sign):
    the extreme rays of the dual of the seeds' simplicial cone.  The other
    nonzero rows are then cut in one by one, in the given order (a zero
    row lies on every facet and bounds nothing).  A new ray joins a
    ray on the positive side to one on the negative side only when they are
    adjacent.  The dual cone stays pointed throughout, and adjacent rays
    share at least d - 2 zero rows, so pairs sharing fewer are not
    adjacent.  For d <= 3 every pair left is: a row both rays vanish on
    cuts a face of dimension <= 2 out of the pointed cone, which holds
    exactly two extreme rays, so these two span it (for d = 2 the cone
    itself is that face).  For d >= 4 a pair is adjacent iff no third ray
    vanishes on every row both of them vanish on (the combinatorial test).

    The cone over a square, a rank-3 run: four facets of two generators
    each, from two adjacency decisions and no combinatorial test.

    >>> pivots, facets, tests = double_description([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
    >>> pivots, tests
    ((0, 1, 2), 2)
    >>> [(h, sorted(members)) for h, members in facets]
    [((1, -1, 1), [1, 2]), ((-1, -1, 1), [0, 1]), ((1, 1, 1), [2, 3]), ((-1, 1, 1), [0, 3])]
    """
    k = len(rows)
    pivots, facets, tests = _double_description(rows, seed_echelon)
    return pivots, [(h, frozenset(i for i in range(k) if z >> i & 1)) for h, z in facets], tests


def _double_description(rows, seed_echelon=None) -> tuple[tuple[int, ...], list[tuple[Vec, int]], int]:
    """double_description(rows, seed_echelon), each facet's members as a
    bitmask (bit i for row i).  The seed normals are zero off the pivots,
    as every ray made from them is, so the run works on the rows as
    given."""
    k, n = len(rows), len(rows[0])
    H, seeded, last = _seed_echelon(rows, n) if seed_echelon is None else seed_echelon
    pivots = tuple(c for c, _ in seeded)
    d, at = len(pivots), set(pivots)
    full = sum(1 << s for _, s in seeded)
    rays = [
        (primitive(tuple([last * H[c][j] if j in at else 0 for j in range(n)])), full & ~(1 << s)) for c, s in seeded
    ]
    scan = d > 3  # for d <= 3 the d - 2 filter decides adjacency alone
    zero = [j for j, g in enumerate(rows) if not any(g)]  # on every facet, bounding no face
    tests = 0
    for j in sorted(set(range(k)).difference([s for _, s in seeded], zero)):
        g, bit = rows[j], 1 << j
        pos, neg, kept = [], [], []
        for h, z in rays:
            v = sum(map(operator.mul, h, g))
            if v > 0:
                pos.append((h, z, v))
                kept.append((h, z))
            elif v < 0:
                neg.append((h, z, v))
            else:
                kept.append((h, z | bit))
        if neg:
            masks = [z for _, z in rays]
            for hp, zp, vp in pos:
                for hn, zn, vn in neg:
                    common = zp & zn
                    if common.bit_count() < d - 2:
                        continue
                    tests += 1
                    if scan and any(z & common == common and z != zp and z != zn for z in masks):
                        continue
                    h = [vp * b - vn * a for a, b in zip(hp, hn)]
                    q = math.gcd(*h)
                    kept.append((tuple([x // q for x in h]), common | bit))
        rays = kept
    if zero:
        mask = sum(1 << j for j in zero)
        rays = [(h, z | mask) for h, z in rays]
    return pivots, rays, tests


def _seed_echelon(rows: Sequence[Sequence[int]], n: int) -> tuple[tuple[Vec, ...], tuple[tuple[int, int], ...], int]:
    """(H, pivots, last) from `lattice.echelon` of [G^T | I], G the rows, n
    wide: row c holds one functional's values on every row, then its
    coefficients, which H[c] keeps.  A pivot (c, s) makes H[c] worth `last`
    on row s and 0 on the other pivots' rows.  Every other H[c] vanishes
    on every row of G, and as the elimination keeps the identity block
    invertible, those span the functionals vanishing on G over Q.

    Rows spanning Q^n for n = 2 or 3 take their greedy seeds and cofactor
    rows instead (_cofactor_echelon), with no elimination: the same seeds
    and facets, the pivots (0, ..., n - 1) and last the seeds'
    determinant."""
    if 2 <= n <= 3:
        seeded = _cofactor_echelon(rows, n)
        if seeded is not None:
            return seeded
    k = len(rows)
    T, pivots, last = echelon([[g[c] for g in rows] + [int(c == j) for j in range(n)] for c in range(n)], k)
    return tuple(tuple(row[k:]) for row in T), pivots, last


def _cofactor_echelon(rows, n):
    """`_seed_echelon` of rows spanning Q^n, n = 2 or 3, read off cofactors;
    None when they do not span.  The seeds s_i are greedy: each the first
    later row outside the span of the earlier seeds.  Pivot (i, s_i) takes
    g_si's cofactor row H[i], the one solution of H[i].g_sj = last when
    i = j and 0 otherwise, with last = det(g_s0, ..., g_s(n-1))."""
    gens = iter(enumerate(rows))
    for s0, a in gens:
        if any(a):
            break
    else:
        return None
    if n == 2:
        for s1, b in gens:
            d = a[0] * b[1] - a[1] * b[0]
            if d:
                return ((b[1], -b[0]), (-a[1], a[0])), ((0, s0), (1, s1)), d
        return None
    for s1, b in gens:
        ab = _cross(a, b)
        if any(ab):
            break
    else:
        return None
    for s2, c in gens:
        d = ab[0] * c[0] + ab[1] * c[1] + ab[2] * c[2]
        if d:
            return (_cross(b, c), _cross(c, a), ab), ((0, s0), (1, s1), (2, s2)), d
    return None


def _cross(u, v):
    return u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]


# ---------------------------------------------------------------------------
# separation (Gordan and Motzkin on the facets)
# ---------------------------------------------------------------------------


def _separating(
    equal: Sequence[Sequence[int]], weak: Sequence[Sequence[int]], strict: Sequence[Sequence[int]]
) -> Optional[Vec]:
    """An integer y with y.e = 0 on the equal rows, y.r >= 0 on the weak
    and y.s > 0 on the strict ones, or None; some row must be given.

    Such y form the face of the dual of cone(rows) spanned by the normals
    of the facets holding every equal row, from one double-description
    run.  By Gordan and Motzkin y exists iff no strict row lies on all of
    those facets, and then their sum is one.  Zero rows are left to the
    run, which puts them on every facet: a zero equal or weak row changes
    nothing, and a zero strict row gives None."""
    rows = [*equal, *weak, *strict]
    _, facets, _ = _double_description(rows)
    held, lineal, normals = (1 << len(equal)) - 1, (1 << len(rows)) - 1, []
    for h, members in facets:
        if held & members == held:
            normals.append(h)
            lineal &= members
    if lineal >> (len(rows) - len(strict)):
        return None
    return tuple(map(sum, zip(*normals))) if normals else (0,) * len(rows[0])


def linear_feasible(
    nvars: int,
    equalities: Sequence[tuple[Sequence, object]] = (),
    gte: Sequence[tuple[Sequence, object]] = (),
    gt: Sequence[tuple[Sequence, object]] = (),
) -> bool:
    """Decide whether the mixed system { a.x = b, c.x >= d, e.x > f } has
    a rational solution.  Exact: each constraint (a, b) becomes the
    integer row (a, -b), times the lcm of its denominators
    (lattice._over_lcm), in the variables (x, t); with t > 0 strict,
    (x, t) solves the rows iff x / t solves the system, which one
    separation test (_separating) decides."""
    equal, weak, strict = [], [], []
    for out, system in ((equal, equalities), (weak, gte), (strict, gt)):
        for a, b in system:
            if len(a) != nvars:
                raise ValueError("constraint length differs from the number of variables")
            out.append(_over_lcm((*a, -b))[1])
    return _separating(equal, weak, strict + [(0,) * nvars + (1,)]) is not None


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _simplex_members(n: int) -> tuple[frozenset[int], ...]:
    """The member sets of the n facets of a cone of n = rank independent
    generators, sorted: the facet missing generator s, for s = n - 1, ...,
    0.  Every such cone of one rank shares them."""
    every = frozenset(range(n))
    return tuple(every - {s} for s in reversed(range(n)))


class Cone(Value):
    """Rational polyhedral cone given by primitive generators.

    The constructor normalizes: generators are primitivized, deduplicated
    and sorted, and the rank is read as an int (_primitives).  Strong
    convexity and extremality are geometric properties checked by the
    predicates below, not at construction.
    """

    generators: tuple[Vec, ...]
    rank: int

    def __post_init__(self):
        gens, rank = _primitives(self.generators, self.rank, "generator")
        object.__setattr__(self, "generators", tuple(sorted(set(gens))))
        object.__setattr__(self, "rank", rank)

    @classmethod
    def from_generators(cls, gens: Iterable[Sequence[int]], rank: Optional[int] = None) -> "Cone":
        gens = tuple(gens)
        if rank is None:
            if not gens:
                raise ValueError("cannot infer ambient rank of empty cone")
            rank = len(gens[0])
        return cls(gens, rank)

    @cached_property
    def _echelon(self) -> tuple[tuple[Vec, ...], tuple[tuple[int, int], ...], int]:
        """(H, pivots, last), `_seed_echelon` of the generators: the cone's
        one elimination over Q, read by dim, span membership, facet_data,
        is_unimodular and the linear pieces (toric._scaled_piece).  Its
        pivots (c, s), in pivot order, are the seeds: the dim independent
        generators g_s that the double description seeds from, each with
        the functional h_s = H[c] worth `last` on g_s and 0 on the other
        seeds.  In rank 2 and 3 a full-dimensional cone takes the
        cofactors of its seeds (_cofactor_echelon), with last their
        determinant in seed order, and runs no elimination.  A cone with
        no generators has no pivots and last 1."""
        return _seed_echelon(self.generators, self.rank)

    @cached_property
    def dim(self) -> int:
        """Dimension of the span: the number of pivots of the echelon
        (the cofactor seeds of a full-dimensional cone in rank 2 or 3)."""
        return len(self._echelon[1])

    def contains(self, x: Sequence) -> bool:
        """Exact membership test (x may have Fraction entries)."""
        return self._satisfies(x, strict=False)

    def relint_contains(self, x: Sequence) -> bool:
        """Is x a combination of the generators with all coefficients > 0?"""
        return self._satisfies(x, strict=True)

    def _satisfies(self, x, strict):
        """Is <h, x> >= 0 (> 0 when strict) on every facet normal h, with x
        in the span?  x is in the span iff every functional of the
        echelon's rows without a pivot, which span those vanishing on the
        generators, vanishes on x (no such row when dim == rank).  A
        full-dimensional simplicial cone reads its facets off its seeds; a
        cone that is its own span, such as a line, has none, and the span
        test alone decides.  Every row is as long as x, once x passes the
        length check."""
        if len(x) != self.rank:
            raise ValueError("point length differs from ambient rank")
        if self.dim < self.rank:
            H, pivots, _ = self._echelon
            held = {c for c, _ in pivots}
            if any(vdot(h, x) for c, h in enumerate(H) if c not in held):
                return False
        for _, h in self.facet_data:
            v = sum(map(operator.mul, h, x))
            if v < 0 or v == 0 and strict:
                return False
        return True

    def is_strongly_convex(self) -> bool:
        """True iff the cone contains no line, i.e. no generator lies in
        its lineality space, on every facet.  Independent generators never
        do; a cone that is its own span, such as a line, has no facets, so
        every generator does."""
        if len(self.generators) == self.dim:
            return True
        return not self._closure(frozenset())

    def generators_extremal(self) -> bool:
        """Every listed generator spans an extremal ray (always so for
        independent generators).  A generator g is redundant iff it lies
        in the cone over the other generators on every facet through g:
        each generator in a combination for g is on every facet g is on.
        On a pointed cone an extremal g has no such others; on a line, with
        no facets, each generator's others are the opposite generator,
        which does not hold it."""
        gens = self.generators
        if len(gens) == self.dim:
            return True
        flats = [self._closure(frozenset({i})) - {i} for i in range(len(gens))]
        return not any(flat and Cone(tuple(gens[j] for j in flat), self.rank).contains(g) for g, flat in zip(gens, flats))

    def _closure(self, idx: frozenset[int]) -> frozenset[int]:
        """The generators on every facet that holds the generators idx,
        all of them when no facet does: the least face holding idx, or
        for idx empty the generators in the lineality space."""
        closure = frozenset(range(len(self.generators)))
        for members, _ in self.facet_data:
            if idx <= members:
                closure &= members
        return closure

    def is_unimodular(self) -> bool:
        """Generators extend to a basis of the ambient lattice (and the
        cone is simplicial): for n = rank independent generators, every one
        a seed, |last| = |det G| = 1 (Cone._echelon), else every invariant
        of the Smith chart is 1."""
        if len(self.generators) == self.dim == self.rank:
            return abs(self._echelon[2]) == 1
        return len(self.generators) == self.dim and self.solve_chart.L == 1

    @cached_property
    def solve_chart(self) -> SolveChart:
        """The Smith chart of the generator matrix, rows in generator
        order, built on first read for lattice questions only: unimodularity
        of a cone that is not full-dimensional simplicial, the pieces of a
        lower-dimensional cone (toric._scaled_piece), a simplex's
        parallelepiped (pairs)."""
        return SolveChart.of(self.generators, self.rank)

    @cached_property
    def facet_data(self) -> tuple[tuple[frozenset[int], Vec], ...]:
        """Facets as (generator-index set, inward ambient normal), sorted
        by index set, from one double-description run; a cone of n = rank
        independent generators reads them off its echelon (H, pivots,
        last) instead, every generator a seed g_s with functional h_s =
        H[c] for its pivot (c, s): the facet missing g_s has normal
        sign(last).h_s divided by its gcd, as the run would seed them, and
        the seeds in descending order give the facets sorted, their member
        sets shared by every such cone of one rank (_simplex_members).  A
        unimodular cone (|last| = 1) takes its dual basis sign(last).h_s as
        it stands: each is worth 1 on its own generator, so primitive
        already; only |last| > 1 divides by the gcd.  In rank 2 and 3 the
        h_s are cofactor rows (Cone._echelon).

        The normal h is a primitive integer functional with h.g = 0 on the
        facet's generators and h.g > 0 on every other generator; with the
        functionals vanishing on the span (the echelon's rows without a
        pivot) it yields an H-description of the cone.  The run starts from
        the cone's cached echelon, so it takes no elimination of its own.
        A 1-dimensional cone has the origin as its one facet, unless it is
        a line.  A cone that is its own span (a line, a plane) has no
        facets: () is its answer, and the span equations alone describe it.
        """
        if not self.generators:
            return ()
        if len(self.generators) == self.dim == self.rank:
            H, pivots, last = self._echelon
            seeds = [H[c] for c, _ in reversed(pivots)]
            if last == 1:
                normals = seeds
            elif last == -1:
                normals = [tuple([-x for x in h]) for h in seeds]
            else:  # |last| > 1: a seed functional may have a common divisor
                normals = [primitive(h if last > 0 else tuple([-x for x in h])) for h in seeds]
            return tuple(zip(_simplex_members(self.rank), normals))
        _, facets, _ = double_description(self.generators, self._echelon)
        return tuple(sorted(((members, h) for h, members in facets), key=lambda kv: sorted(kv[0])))

    @cached_property
    def triangulation(self) -> tuple[tuple[tuple[int, ...], "Cone"], ...]:
        """The pulling triangulation from g_0 (De Loera, Rambau and Santos,
        *Triangulations*, ch. 4) as (generator indices, Cone._trusted
        simplex) pairs: a simplicial cone is its own; otherwise each simplex
        S of each facet missing g_0 gives cone(g_0, S).  A cone that is not
        strongly convex has none and raises ValueError.
        >>> square = Cone.from_generators([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
        >>> [indices for indices, _ in square.triangulation]
        [(0, 1, 3), (0, 2, 3)]
        """
        gens = self.generators
        if len(gens) == self.dim:
            return ((tuple(range(len(gens))), self),)
        if not self.is_strongly_convex():
            raise ValueError("no triangulation: cone is not strongly convex")
        return tuple(
            ((0, *(f[i] for i in s)), Cone._trusted((gens[0], *simplex.generators), self.rank))
            for f in (sorted(members) for members, _ in self.facet_data if 0 not in members)
            for s, simplex in Cone._trusted(tuple(gens[i] for i in f), self.rank).triangulation
        )


# ---------------------------------------------------------------------------
# fans
# ---------------------------------------------------------------------------


# Fan.from_data's fans that something still holds, each under at most two
# keys: (class, *its normal form) and (class, rays, cones, rank) as given to
# the call that built it; other data reaching it add none.  A fan drops
# out, with its keys, when the last holder lets go.
_ALIVE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _normal_form(
    rays: Iterable[Sequence[int]], max_cones: Iterable[Iterable[int]], rank
) -> tuple[tuple[Vec, ...], tuple[tuple[int, ...], ...], int]:
    """(rays, max_cones, rank) of the fan on the given data: the rays made
    primitive and sorted, each cone remapped onto them and sorted, the
    cones sorted without repeats, the rank an int.  The data of equal fans
    have one normal form.  ValueError on data that is not a fan's."""
    primitives, rank = _primitives(rays, rank, "ray")
    if len(set(primitives)) != len(primitives):
        raise ValueError("duplicate ray")
    order = sorted(range(len(primitives)), key=primitives.__getitem__)
    relabel = dict(zip(order, range(len(order))))
    cones = set()
    for cone in max_cones:
        raw = _integers(cone)
        if raw and (min(raw) < 0 or max(raw) >= len(primitives)):
            raise ValueError("ray index out of range")
        mapped = tuple(sorted(map(relabel.__getitem__, raw)))
        if len(set(mapped)) != len(mapped):
            raise ValueError("repeated ray index in cone")
        if not mapped:
            raise ValueError("empty maximal cone")
        cones.add(mapped)
    return tuple(primitives[i] for i in order), tuple(sorted(cones)), rank


class Fan(Value):
    """Fan as canonical ray list plus maximal cones (ray-index tuples).

    The data is brought to its normal form on construction (_normal_form):
    rays primitive and sorted lexicographically, cone index sets remapped
    accordingly, so equal fans compare equal structurally.
    """

    rays: tuple[Vec, ...]
    max_cones: tuple[tuple[int, ...], ...]
    rank: int

    def __post_init__(self):
        for name, value in zip(("rays", "max_cones", "rank"), _normal_form(self.rays, self.max_cones, self.rank)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_data(
        cls, rays: Iterable[Sequence[int]], max_cones: Iterable[Iterable[int]], rank: Optional[int] = None
    ) -> "Fan":
        """The fan on the given rays and maximal cones (ray-index sets);
        rank defaults to the length of the first ray.  While an equal fan
        built here is alive, whatever data it was built from, that fan is
        returned itself, with its caches (its validation included);
        Fan(...) always builds a new one.

        The data as given is looked up first, so a caller passing the data
        a fan was built from again pays no normalisation; on a miss, the
        normal form.  A fan missing under both is built once from its
        normal form and registered under both keys; other data found by
        the normal form add none, so a live fan holds at most two.

        >>> p1 = Fan.from_data([(1,), (-1,)], [(0,), (1,)])
        >>> Fan.from_data([[1], [-1]], [[0], [1]]) is p1
        True
        >>> Fan.from_data([(-2,), (3,)], [(1,), (0,)]) is p1  # reordered, not primitive
        True
        >>> Fan(p1.rays, p1.max_cones, p1.rank) is p1
        False
        """
        rays = tuple(map(tuple, rays))
        if rank is None:
            if not rays:
                raise ValueError("cannot infer rank of empty fan; pass rank=")
            rank = len(rays[0])
        key = (cls, rays, tuple(map(tuple, max_cones)), rank)
        fan = _ALIVE.get(key)
        if fan is None:
            normal = (cls, *_normal_form(*key[1:]))
            fan = _ALIVE.get(normal)
            if fan is None:
                fan = _ALIVE[normal] = _ALIVE[key] = cls._trusted(*normal[1:])
        return fan

    def cone(self, indices: Iterable[int]) -> Cone:
        return Cone(tuple(self.rays[i] for i in indices), self.rank)

    @cached_property
    def cones(self) -> tuple[Cone, ...]:
        """The maximal cones as Cone objects, built once per fan so their
        cached facet data is shared by every predicate.  The rays are
        primitive, distinct and sorted and each index tuple is sorted, so
        the generators are already normal (Cone._trusted)."""
        ray = self.rays.__getitem__
        return tuple(Cone._trusted(tuple(map(ray, c)), self.rank) for c in self.max_cones)

    @cached_property
    def wall_map(self) -> Mapping[frozenset[Vec], tuple[tuple[int, Vec], ...]]:
        """walls(cones), once per fan: each wall's (cone index, inward
        normal) pairs, read by the one coverage test (_covers_once) that
        validate_fan and is_complete share, and by toric.is_fano.  Read
        only, as every holder of a shared fan (Fan.from_data) reads it."""
        return MappingProxyType(walls(self.cones))

    @cached_property
    def _diagnostics(self) -> "Diagnostics":
        """validate_fan's answer, its checks run once per fan."""
        used = set(itertools.chain.from_iterable(self.max_cones))
        for i in range(len(self.rays)):
            if i not in used:
                return Diagnostics(False, "ray not contained in any maximal cone", (self.rays[i],))
        for idx, cone in zip(self.max_cones, self.cones):
            if not cone.is_strongly_convex():
                return Diagnostics(False, "maximal cone is not strongly convex", (idx,))
            if not cone.generators_extremal():
                return Diagnostics(False, "non-extremal generator in maximal cone", (idx,))
        if _covers_space(self):
            return Diagnostics(True)
        for ca, cb in itertools.combinations(self.max_cones, 2):
            ia, ib = set(ca), set(cb)
            if ia <= ib or ib <= ia:
                return Diagnostics(False, "maximal cone contained in another", (ca, cb))
            if not _meet_in_common_face(self, ca, cb):
                return Diagnostics(False, "cones do not intersect in a common face", (ca, cb))
        return Diagnostics(True)

    @cached_property
    def ray_rank(self) -> int:
        """Rank of the ray matrix, once per fan (complexity, log CY): the
        ambient rank when some maximal cone is full-dimensional, else one
        `lattice.rank`."""
        if any(cone.dim == self.rank for cone in self.cones):
            return self.rank
        return matrix_rank(self.rays)


class Diagnostics(Value):
    """Outcome of a validation: the first problem found, with a witness."""

    valid: bool
    problem: Optional[str] = None
    witness: Optional[tuple] = None

    def __bool__(self):
        return self.valid


def validate_fan(fan: Fan) -> Diagnostics:
    """Check the fan axioms; reports the first violation with a witness.

    Checks, in order: every ray used, strong convexity and extremality of
    each maximal cone, no cone contained in another, and the pairwise
    intersection-is-a-common-face condition (via an exact separating
    functional).  A complete fan of full-dimensional cones, simplicial or
    not, is accepted by its walls after the per-cone checks, in time
    linear in the cones (_covers_once, which then shows the cones cover
    the space exactly once, hence meet in common faces); the pairwise scan
    runs only where that test rejects or does not apply, so every invalid
    fan reports the same first violation and witness.

    The checks run once per fan object, and their Diagnostics is cached
    on the fan like its wall map: every later call, on a fan that
    Fan.from_data shares among all data of an equal fan, reads it back.
    """
    return fan._diagnostics


def _covers_once(
    cones: Sequence[Cone], wall_map: Mapping[frozenset[Vec], tuple[tuple[int, Vec], ...]], boundary: Sequence[Vec] = ()
) -> bool:
    """Do the cones, all of one dimension d, cover their region exactly
    once?  wall_map is walls(cones).  The region is the whole space when
    `boundary` is empty, else the cone holding all of them whose facet
    normals `boundary` lists.  Four checks decide it, for cones that are
    strongly convex with extremal generators, simplicial or not (the
    interior-facet theorem; De Loera, Rambau and Santos, Triangulations,
    2010, ch. 4): (1) every wall lies in one or two cones; (2) across a
    wall in two cones, every generator of the second off the wall is < 0
    on the first cone's inward normal for it; (3) every wall in one cone
    lies on a boundary normal; (4) the sum of the first cone's rays lies
    in no other cone.

    The degree argument: a wall is a set of generators, so a wall in two
    cones is one facet of both.  Let X be the region's relative interior
    minus every face of dimension <= d - 2 of every cone; X is connected.
    A point y of X on a cone's boundary lies in the relative interior of
    one facet F of it, and near y the cone is a half-ball on one side of
    F.  By (3) F is no wall in one cone, as y is not on the region's
    boundary, so by (1) and (2) it is a facet of one other cone, a
    half-ball on the other side: the half-balls at y pair into balls.  So
    f(x), the number of cones holding x, is the same at all points of X
    near y on no facet, hence constant on X; (4) makes it 1 near that sum.

    With no boundary, passing all four checks makes the cones a fan.  Let
    x lie in two cones A and B, and take a ball about x that meets only
    the cones holding x and, of each, only the faces holding x.  A path in
    the ball, from A's interior to B's within X, leaves each cone C it
    crosses through the relative interior of a facet F of C, which holds
    x, into the one cone across F (degree 1), which also has F as a facet.
    The least face of C holding x is the least face of F holding x, and
    so is the other cone's; so A and B have one least face G holding x.
    For x in the relative interior of A & B, a face of A holding x holds
    all of A & B, so A & B = G: a face of both, whose extremal rays are
    the generators common to A and B.  Conversely, the cones of a fan
    covering the region meet in common faces, so they pass all four
    checks."""
    for wall, sides in wall_map.items():
        if len(sides) == 2:
            (_, h), (b, _) = sides
            for g in cones[b].generators:
                if g not in wall and vdot(h, g) >= 0:
                    return False
        elif len(sides) != 1 or not any(all(vdot(h, g) == 0 for g in wall) for h in boundary):
            return False
    inside = tuple(map(sum, zip(*cones[0].generators)))  # in every cone's span
    return next(_holding(cones[1:], inside), None) is None


def _covers_space(fan: Fan) -> bool:
    """Has the fan maximal cones, all full-dimensional, that cover the
    space exactly once (_covers_once with no boundary, on the cached wall
    map)?  The one guard of the wall test in validate_fan, is_complete and
    is_refinement."""
    cones = fan.cones
    return bool(cones) and all(cone.dim == fan.rank for cone in cones) and _covers_once(cones, fan.wall_map)


def _meet_in_common_face(fan: Fan, ca: tuple[int, ...], cb: tuple[int, ...]) -> bool:
    """True iff cone(ca) and cone(cb) meet exactly in cone(ca & cb), which
    is then a face of both: iff some functional is zero on the common
    rays, > 0 on the rest of ca and < 0 on the rest of cb, for it exposes
    the common face on both sides."""
    common = set(ca) & set(cb)
    strict = [fan.rays[i] for i in ca if i not in common]
    strict += [tuple(-x for x in fan.rays[i]) for i in cb if i not in common]
    return _separating([fan.rays[i] for i in common], (), strict) is not None


def is_simplicial(fan: Fan) -> bool:
    """Every maximal cone has exactly dim-of-cone generators."""
    return all(len(c) == cone.dim for c, cone in zip(fan.max_cones, fan.cones))


def is_smooth(fan: Fan) -> bool:
    """Every maximal cone is unimodular (its generators extend to a basis
    of the ambient lattice)."""
    return all(cone.is_unimodular() for cone in fan.cones)


def is_complete(fan: Fan) -> bool:
    """Do the maximal cones cover the space exactly once?

    Decided by the one wall test (_covers_once, no boundary allowed) on
    the fan's cached wall map (Fan.wall_map), which validate_fan shares.
    A valid fan passes iff its support is the whole space; cones that
    overlap or wind round more than once fail.  A lower-dimensional
    maximal cone raises ValueError.
    """
    if any(cone.dim != fan.rank for cone in fan.cones):
        raise ValueError("completeness undefined: maximal cone is not full-dimensional")
    return _covers_space(fan) if fan.max_cones else fan.rank == 0


def walls(cones: Sequence[Cone]) -> dict[frozenset[Vec], tuple[tuple[int, Vec], ...]]:
    """Map the generator set of every facet of the given cones to the
    cones that have that facet, as a tuple of (cone index, the facet's
    inward normal in that cone) from facet_data."""
    out: dict[frozenset[Vec], list[tuple[int, Vec]]] = {}
    for k, cone in enumerate(cones):
        generator = cone.generators.__getitem__
        for members, h in cone.facet_data:
            out.setdefault(frozenset(map(generator, members)), []).append((k, h))
    return {wall: tuple(sides) for wall, sides in out.items()}


def star_subdivision(fan: Fan, stratum: Iterable[int], ray: Optional[Sequence[int]] = None) -> Fan:
    """Stellar subdivision of the fan at the cone spanned by the given ray
    indices, inserting `ray` (default: the primitive sum of the stratum's
    generators).

    Every maximal cone containing the stratum is replaced by the cones
    spanned by the new ray together with the facets that miss the stratum;
    all other cones are kept.  This is the combinatorial model of blowing
    up the closed torus orbit attached to the stratum.
    """
    tau = set(_integers(stratum))
    if not tau:
        raise ValueError("stratum must contain at least one ray")
    if any(i < 0 or i >= len(fan.rays) for i in tau):
        raise ValueError("stratum ray index out of range")
    hosts, new_cones = [], []
    for k, c in enumerate(fan.max_cones):
        if tau <= set(c):
            hosts.append(k)
        else:
            new_cones.append(c)
    tau_cone = fan.cone(tau)
    if not hosts or not _is_face(tau_cone, fan.cones[hosts[0]]):
        raise ValueError("stratum is not a cone of the fan")
    if ray is None:
        v = primitive(tuple(map(sum, zip(*tau_cone.generators))))
    else:
        v = primitive(_integers(ray))
        if not tau_cone.relint_contains(v):
            raise ValueError("subdivision ray does not lie in the relative interior of the stratum")

    new_rays = list(fan.rays)
    if v in fan.rays:
        v_idx = fan.rays.index(v)
    else:
        v_idx = len(new_rays)
        new_rays.append(v)

    # Fan.cones[k].generators[m] is fan.rays[max_cones[k][m]]
    for k in hosts:
        c = fan.max_cones[k]
        for members, _ in fan.cones[k].facet_data:
            facet = {c[m] for m in members}
            if not tau <= facet:
                new_cones.append(tuple(sorted(facet | {v_idx})))
    return Fan(tuple(new_rays), tuple(new_cones), fan.rank)


def _is_face(sub: Cone, cone: Cone) -> bool:
    """Are sub's generators those of a face of `cone`?  Every face is the
    intersection of the facets holding it (the cone, of none), so sub is
    one iff exactly its generators lie on every facet that holds it."""
    sub_set = set(sub.generators)
    idx = frozenset(i for i, g in enumerate(cone.generators) if g in sub_set)
    return len(idx) == len(sub_set) and cone._closure(idx) == idx


def is_refinement(fine: Fan, coarse: Fan) -> bool:
    """True iff every maximal cone of `fine` sits inside a cone of
    `coarse` and the fine cones inside each coarse cone cover it exactly
    once: for a valid fine fan, iff the two fans have the same support.

    Each fine ray is located once, in the set of coarse cones holding it.
    A coarse cone is convex, so it holds a fine cone iff it holds all of
    its rays: the hosts of a fine cone are the intersection of its rays'
    sets.  When the coarse cones are full-dimensional and cover the space
    (_covers_space), the fine fan's own wall test on its cached wall map
    decides the rest: _covers_space(fine), False when a fine cone is
    lower-dimensional.  That is enough: a point interior to coarse cone k
    lies in no other coarse cone, so every fine cone covering it sits in
    k, and the fine cones in k cover k once iff all fine cones cover the
    space once.  Matching fine walls across coarse walls too, the test
    rejects a fine ray hanging on a coarse wall, which is not a fan.
    Otherwise the fine cones in one coarse cone, all of its dimension,
    take the one wall test (_covers_once) with the coarse facet normals
    as the allowed boundary, unless the coarse cone itself is the only
    one."""
    if fine.rank != coarse.rank:
        return False
    coarse_cones = coarse.cones
    holders = [set(_holding(coarse_cones, r)) for r in fine.rays]
    hosts = [set.intersection(*(holders[j] for j in c)) for c in fine.max_cones]
    if not all(hosts):
        return False
    if _covers_space(coarse):
        return _covers_space(fine)
    for k, cc in enumerate(coarse_cones):
        cones = [cone for cone, h in zip(fine.cones, hosts) if k in h]
        if len(cones) == 1 and cones[0].generators == cc.generators:
            continue
        if not cones or any(c.dim != cc.dim for c in cones):
            return False
        if not _covers_once(cones, walls(cones), [h for _, h in cc.facet_data]):
            return False
    return True


# ---------------------------------------------------------------------------
# two-dimensional resolution (Hirzebruch-Jung continued fraction)
# ---------------------------------------------------------------------------


def resolve_cone_2d(cone: Cone) -> list[Vec]:
    """Rays to insert so the 2D cone becomes a union of unimodular cones:
    the Hilbert-basis members that are not generators, in order from one
    generator to the other; [] when the cone is already unimodular.

    With u, w ordered so that D = det(u, w) > 0 and r = det(v, w) at the
    current ray v, the rays follow the Hirzebruch-Jung continued fraction
    (Oda, Convex Bodies and Algebraic Geometry, 1.6; Fulton, Introduction
    to Toric Varieties, 2.6).  The first is (s u + w) / D, the lattice
    point with det(u, v) = 1 and 0 < r = s < D; each next one is
    b v - v_prev with b = ceil(r_prev / r), and r becomes b r - r_prev.
    Consecutive rays span determinant-one cones; at r = 0 the walk stands
    on w.
    """
    if cone.rank != 2:
        raise ValueError("2D resolution requires ambient rank 2")
    if len(cone.generators) != 2:
        raise ValueError("cone must be two-dimensional")
    u, w = cone.generators
    d = u[0] * w[1] - u[1] * w[0]
    if d < 0:
        u, w, d = w, u, -d
    if d == 1:
        return []
    if d == 0:
        raise ValueError("cone must be two-dimensional")
    # x u1 + y u2 = 1; u is primitive, and u2 = 0 means u = (+-1, 0)
    x = pow(u[0], -1, abs(u[1])) if u[1] else u[0]
    y = (1 - x * u[0]) // u[1] if u[1] else 0
    r = -(x * w[0] + y * w[1]) % d
    prev, cur, r_prev = u, ((r * u[0] + w[0]) // d, (r * u[1] + w[1]) // d), d
    inserted = []
    while r:
        inserted.append(cur)
        b = -(-r_prev // r)
        prev, cur = cur, (b * cur[0] - prev[0], b * cur[1] - prev[1])
        r_prev, r = r, b * r - r_prev
    if cur != w:
        raise RuntimeError("Hirzebruch-Jung walk invariant broken: the walk did not end on the second generator")
    return inserted
