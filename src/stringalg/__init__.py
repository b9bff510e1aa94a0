"""Exact-arithmetic toolkit for string and locally string algebras.

Presentations are quivers with monomial relations; the library validates
the defining overlap conditions, computes maximal-path structure and the
radical, builds and certifies derivations, exponential and inner
automorphisms, decomposes graded-identity automorphisms into exponential /
endpoint-preserving / inner factors (each inner unit solved by one linear
system in the algebra), and factors polynomial matrices in the
triangular-at-zero Smith style.
"""

from .algebra import Element, PathAlgebra, format_element, parse_element
from .decompose import (Decomposition, Factor, OuterClassReport,
                        decompose_general, outer_class, peel_maximal)
from .errors import StringAlgError
from .maximal import (ArrowPartition, InfiniteMaximalPath, MaximalPathReport,
                      arrow_partition, classify_maximal, cycle_sum,
                      degree_zero_center_dimension, parallel_maximal,
                      repeat_free_path, rotation_sum)
from .morphisms import (Derivation, Endomorphism, Unit, exponentiate,
                        inner_automorphism, invert_unit, make_derivation,
                        membership, graded_part, verify_endomorphism)
from .polymat import (Poly, PolyMatrix, SmithFactorization, modified_smith,
                      poly_matrix_inverse)
from .quiver import (AlgebraPresentation, Path, Quiver, RelationSet,
                     parse_quiver, validate_presentation)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
