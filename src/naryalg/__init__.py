"""naryalg: exact-arithmetic toolkit for n-ary Lie structures.

Subpackages by topic:

  scalars, tensors, poly, linalg   -- exact arithmetic foundations
  lie, cohomology                  -- binary algebras and their complexes
  gla                              -- even multibrackets, coderivations, BRST
  filippov                         -- n-Lie algebras and their invariants
  nary_cohomology                  -- Filippov complexes as one Leibniz complex
  poisson                          -- multivector fields and tensor conditions
  catalog, algfile, cli            -- named examples, files, batch front-end
"""

from .scalars import GaussianRational
from .tensors import AntisymTensor, BracketTensor, gen_kronecker
from .poly import Poly
from .lie import LieAlgebra, Representation, SymInvariantPoly
from .gla import GLAlgebra
from .filippov import FilippovAlgebra
from .nary_cohomology import LeibnizAlgebra, NCochain

__all__ = [
    "AntisymTensor", "BracketTensor", "FilippovAlgebra", "GaussianRational", "GLAlgebra",
    "LeibnizAlgebra", "LieAlgebra", "NCochain", "Poly", "Representation",
    "SymInvariantPoly", "gen_kronecker",
]
