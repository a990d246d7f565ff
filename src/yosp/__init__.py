"""yosp: exact computations with representations of the extended Yangian X(osp(1|2))."""

from .exact_arith import (DegreeError, PoleError, RatFunc, Scalar, UniPoly, rat,
                          rat_str)
from .super_linalg import GradedSpace, OperatorPoly
from .rep_core import (Factor, MissingDepth, ModuleFormatError, ModuleRep,
                       ReconstructionInconsistent, TruncatedInput, apply_twist,
                       build_elementary, build_small_verma, load_module,
                       save_module, vector_representation)
from .hopf_tensor import (HighestWeight, NoHighestVector, central_from_hw,
                          dual_module, elementary_hw, highest_weight_of,
                          tensor_modules)
from .analysis import (DrinfeldPoly, NotDominant, NotInvariant,
                       RelationViolation, Subspace, WeightCharacter,
                       WeightMismatch, character_of, check_tensor_criterion,
                       classify_finite_dim, cyclic_span, drinfeld_polynomial,
                       gauss_diagonal_check, is_irreducible, osp_action,
                       quotient_module, singular_vectors, tii_eigenvalue,
                       verify_central, verify_rtt)

__version__ = "0.1.0"
