"""Bundled fans used by the regression suite, the samples and the tests.

Everything here is complete; the collection deliberately mixes smooth,
simplicial-singular and higher-dimensional examples.
"""

from __future__ import annotations

from functools import lru_cache

from toriclab.fan import Fan
from toriclab.polytope import enumerate_reflexive_polygons, face_fan
from toriclab.toric import projective_space_fan, weighted_projective_fan


def p1xp1_fan() -> Fan:
    """Fan of P1 x P1, the Hirzebruch surface F0."""
    return hirzebruch_fan(0)


def hirzebruch_fan(k: int) -> Fan:
    """Fan of the degree-k Hirzebruch surface (k = 0 is P1 x P1)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return Fan.from_data(
        [(1, 0), (0, 1), (-1, k), (0, -1)],
        [(0, 1), (1, 2), (2, 3), (3, 0)],
    )


def cone_over_square_fan() -> Fan:
    """Affine fan with a single non-simplicial maximal cone (the cone over
    a square); the standard non-Q-factorial example."""
    return Fan.from_data(
        [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)],
        [(0, 1, 2, 3)],
    )


@lru_cache(maxsize=1)
def bundled_fans() -> tuple[tuple[str, Fan], ...]:
    """Named complete fans: projective spaces up to dimension 4, the
    quadric surface, Hirzebruch surfaces F0..F3, two weighted projective
    spaces, and the face fans of all 16 reflexive polygons."""
    entries: list[tuple[str, Fan]] = []
    for n in range(1, 5):
        entries.append((f"P{n}", projective_space_fan(n)))
    entries.append(("P1xP1", p1xp1_fan()))
    for k in range(4):
        entries.append((f"F{k}", hirzebruch_fan(k)))
    entries.append(("P(1,1,2)", weighted_projective_fan((1, 1, 2))))
    entries.append(("P(1,4,1,5)", weighted_projective_fan((1, 4, 1, 5))))
    for i, poly in enumerate(enumerate_reflexive_polygons(), start=1):
        entries.append((f"reflexive-{i:02d}", face_fan(poly)))
    return tuple(entries)
