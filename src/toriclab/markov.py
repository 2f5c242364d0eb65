"""Markov triples and the weighted hypersurface attached to adjacent pairs.

A Markov triple solves a^2 + b^2 + c^2 = 3abc in positive integers.  Each
triple, together with its adjacent triple (replace the largest entry c by
d = 3ab - c), determines the trinomial hypersurface

    V(x1 x2 + x3^c + x4^d)  inside  P(a^2, b^2, d, c),

a degeneration of the projective plane.  This module enumerates triples by
walking the Markov tree of Vieta jumps and computes the numerics of those
hypersurfaces: degree, amplitude, well-formedness and quasismoothness.

No numeric is searched for.  The degree c*d = a^2 + b^2 is checked on every
triple; the rest are proved once, in `hkw_surface`: the weights are
pairwise coprime, so the surface is well-formed; the amplitude is c + d,
so it is Fano; the Jacobian criterion makes it quasismooth.
"""

from __future__ import annotations

from operator import itemgetter

from toriclab._value import Value


class MarkovTriple(Value, order=True):
    a: int
    b: int
    c: int

    def __post_init__(self):
        if not (0 < self.a <= self.b <= self.c):
            raise ValueError("triple must be positive and sorted")
        if self.a**2 + self.b**2 + self.c**2 != 3 * self.a * self.b * self.c:
            raise ValueError(f"({self.a},{self.b},{self.c}) does not solve the Markov equation")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


def _walk(bound: int) -> list[tuple[int, int, int]]:
    """The (a, b, c) of every Markov triple with c <= bound, as plain int
    tuples sorted by (c, b, a): the walk behind `enumerate_markov`, which
    `markov table` reads as it is.

    (1,1,1) -> (1,1,2) -> (1,2,5), and every (a, b, c) with a < b < c has
    exactly the two children (a, c, 3ac - b) and (b, c, 3bc - a), each with
    a larger largest entry; every triple occurs once in the tree, so a
    branch stops at its first triple beyond the bound.

    Every tuple is sorted and solves the equation, so `enumerate_markov`
    builds its triples unchecked: the three seeds solve it, and a Vieta
    jump x -> 3yz - x keeps it, since the equation is
    x^2 - 3yz x + (y^2 + z^2) = 0, a quadratic in x whose two roots sum to
    3yz.  The children of a < b < c are the jumps of b and of a, and stay
    sorted: a < c, and 3ac - b > c because 3ac - b >= 3c - b > 2c > c; so
    too b < c < 3bc - a.  Checked input (`markov adjacent`) goes through
    MarkovTriple(...); `_numerics` checks every row of `markov table`."""
    if bound < 1:
        raise ValueError("bound must be positive")
    found = [t for t in ((1, 1, 1), (1, 1, 2)) if t[2] <= bound]
    stack = [(1, 2, 5)]
    while stack:
        a, b, c = t = stack.pop()
        if c <= bound:
            found.append(t)
            stack += (a, c, 3 * a * c - b), (b, c, 3 * b * c - a)
    found.sort(key=itemgetter(2, 1, 0))
    return found


def enumerate_markov(bound: int) -> list[MarkovTriple]:
    """All Markov triples with largest entry at most `bound`, sorted by
    (c, b, a): the triples of `_walk`, built unchecked
    (`MarkovTriple._trusted`), since the walk makes only sorted solutions."""
    return [MarkovTriple._trusted(a, b, c) for a, b, c in _walk(bound)]


def adjacent_triple(t: MarkovTriple) -> MarkovTriple:
    """Vieta jump of the largest entry: (a, b, c) -> sorted (a, b, 3ab-c)."""
    d = 3 * t.a * t.b - t.c
    if d <= 0:
        raise RuntimeError("the jump of the maximal entry of a Markov triple must be positive")
    return MarkovTriple(*sorted((t.a, t.b, d)))


def _numerics(a: int, b: int, c: int) -> tuple[int, int]:
    """d = 3ab - c and the degree c*d, checked to be a^2 + b^2: with this d, the Markov equation."""
    d = 3 * a * b - c
    degree = c * d
    if degree != a * a + b * b:
        raise RuntimeError("Markov equation broken: c*d differs from a^2 + b^2")
    return d, degree


class HkwSurfaceData(Value):
    """Numerics of V(x1 x2 + x3^c + x4^d) in P(a^2, b^2, d, c)."""

    triple: MarkovTriple
    weights: tuple[int, int, int, int]
    degree: int
    amplitude: int
    wellformed: bool
    quasismooth: bool
    fano: bool

    def __post_init__(self):
        c, d = self.weights[3], self.weights[2]
        if self.degree != c * d:
            raise ValueError("degree must equal c*d")
        if self.amplitude != sum(self.weights) - self.degree:
            raise ValueError("amplitude must be sum of weights minus degree")


def hkw_surface(t: MarkovTriple) -> HkwSurfaceData:
    """Weighted-hypersurface data for the triple and its adjacent one, in
    closed form.

    Write d = 3ab - c.  The Markov equation c^2 - 3abc + a^2 + b^2 = 0 gives
    c*d = a^2 + b^2 (`_numerics` checks it), so d > 0 and the degree is a^2 + b^2.

    Well-formed: the weights (a^2, b^2, d, c) are pairwise coprime, so any
    three of them have gcd 1.
    - The entries of a Markov triple are pairwise coprime.  A prime p
      dividing two of them divides the square of the third, hence all
      three; a Vieta jump x -> 3yz - x keeps all three divisible by p, and
      the jumps lead every triple down to (1, 1, 1).
    - No entry is divisible by 3.  Squares are 0 or 1 mod 3, and three of
      them sum to 0 mod 3 only if all are 0 or all are 1; all 0 would put
      3 in every entry.
    - (a, b, d) is the Vieta jump of (a, b, c), again a Markov triple, so
      a, b, d are pairwise coprime as well.
    - g = gcd(c, d) divides c + d = 3ab and is prime to ab, since c is, so
      g divides 3; 3 does not divide c, so g = 1.

    Fano: the amplitude is a^2 + b^2 + d + c - c*d = c + d > 0.

    Quasismooth, by the Jacobian criterion for the trinomial
    x1 x2 + x3^c + x4^d: the partials are (x2, x1, c x3^{c-1},
    d x4^{d-1}).  If c == 1 or d == 1 one partial is a nonzero constant,
    so there is no common zero at all; otherwise the common zero locus is
    x1 = x2 = x3 = x4 = 0, which the weighted projective space excludes.
    Either way the affine cone is smooth away from the origin."""
    a, b, c = t.a, t.b, t.c
    d, degree = _numerics(a, b, c)
    return HkwSurfaceData(
        triple=t,
        weights=(a * a, b * b, d, c),
        degree=degree,
        amplitude=c + d,
        wellformed=True,
        quasismooth=True,
        fano=True,
    )
