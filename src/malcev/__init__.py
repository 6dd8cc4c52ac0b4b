"""Exact arithmetic and decision procedures for finitely generated nilpotent
groups of fixed class and rank, presented as quotients of free nilpotent
groups by full-form relator matrices."""

from types import ModuleType as _Module

from .extgcd import (BoundedCombinationTrace, RejectedInput, extgcd_bounded,
                     extgcd_pair_bounded)
from .freegroup import (BasicCommutator, ExpWord, HallBasis, SizeCapExceeded,
                        build_hall_basis, coords_to_word, eval_free)
from .presentations import (FullFormMatrix, NilpotentPresentation,
                            QuotientPresentation, consistency_check,
                            free_presentation, from_finite_presentation,
                            make_quotient_presentation)
from .groups import (GroupElement, element, identity, inverse, mult,
                     normal_form, power, reduce_coords, word_problem)
from .subgroups import (CoordinateMatrix, MembershipWitness,
                        coordinate_matrix, express_in_original_generators,
                        full_form, membership, subgroup_presentation)
from .decisions import (ConjugacyAnswer, HomSpec, NoPower, NotInImage,
                        centralizer, conjugacy, element_order,
                        kernel_and_preimage, power_problem, torsion_bound)

__all__ = [name for name, value in globals().items()  # the API, no submodule
           if not name.startswith("_") and not isinstance(value, _Module)]
