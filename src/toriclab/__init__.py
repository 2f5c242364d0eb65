"""Exact-arithmetic toolkit for toric log Calabi-Yau geometry.

Everything is built on arbitrary-precision integers and rationals; there is
no floating point anywhere in the library.  The criteria this package
decides (log canonicity, complexity zero, reflexivity, ...) are exact
equalities, so approximate arithmetic would be meaningless.

Subpackages by theme:

- ``lattice``    exact linear algebra (echelon form over Q, Smith forms read through one chart)
- ``fan``        cones, fans, star subdivisions, 2D resolutions
- ``toric``      class groups, (Q-)Cartier tests, Fano test, weighted projective fans
- ``pairs``      toric pairs, log discrepancies, singularity classes, crepant pullback
- ``complexity`` boundary decompositions and the complexity invariant
- ``polytope``   lattice polytopes, reflexivity, normal forms, polygon enumeration
- ``markov``     Markov triples and the associated weighted hypersurface data
- ``casebook``   curated worked examples and the regression suite over bundled fans
- ``cli``        the ``toriclab`` command line front-end

The answers are frozen value objects (``Cone``, ``Fan``, ``ToricPair``,
``Diagnostics``, ``MarkovTriple``, ...): immutable, equal and hashed by
their fields, printed as ``Name(field=value, ...)``.
"""

from toriclab.fan import Cone, Fan
from toriclab.pairs import ToricPair
from toriclab.toric import ToricVariety

__all__ = ["Cone", "Fan", "ToricPair", "ToricVariety"]

__version__ = "0.1.0"
