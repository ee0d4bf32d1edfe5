"""Structure-constant toolkit for finite-dimensional compact quantum group algebras.

The package certifies, numerically, the full finite-dimensional theory of
Hopf *-algebras presented by structure constants: axiom suites, Haar
functionals, corepresentations and their decomposition, Clebsch-Gordan
systems, ordinary and twisted irreducible tensor operators in the right and
left regular coaction formalisms, Wigner-Eckart factorizations, and quantum
homogeneous spaces carried by coideal *-subalgebras.
"""

from .algebra import (HopfAlgebraSpec, LinearFunctional, build_dual, verify_hopf_axioms,
                      verify_star_axioms)
from .cg import (CGSystem, cg_block_residual, character_orthogonality,
                 conjugate_multiplicity_symmetries, coupled_basis_functions,
                 coupled_inverse_residual, multiplicity_in, solve_cg, solve_cg_systems,
                 tensor_product, verify_triple_haar)
from .corep import (Corepresentation, IrrepTable, are_equivalent, check_unitary,
                    conjugate_corep, decompose_comodule, doubly_contragredient,
                    identity_corep, invariant_gram, irrep_table, is_irreducible,
                    morphism_space, unitarize, verify_corep, verify_orthogonality)
from .groups import (GroupTable, all_permutation_group, build_function_algebra,
                     build_group_algebra, builtin_algebras, cyclic_group, symmetric_group_3)
from .haar import (GramPair, HaarFunctional, certify_haar, gram_matrices,
                   regular_unitarity_report, solve_haar, verify_haar_lemmas)
from .homspace import (CoidealSubalgebra, build_coset_subalgebra,
                       canonical_restricted_candidates, restricted_coaction_report,
                       restricted_gram, solve_restricted_basis_functions,
                       solve_restricted_family, state_coideal, subspace_coideal,
                       verify_coideal)
from .regular import (BasisFunctionSet, Carrier, basis_function_orthogonality,
                      canonical_basis_functions, check_basis_functions,
                      dual_action_crosscheck, product_coaction_check,
                      projection_completeness_residual, projection_operator,
                      regular_carrier, regular_coaction_tensor, regular_corep,
                      regular_invariance_report, verify_projection_identities)
from .report import CheckResult, Report
from .tensor_ops import (VARIANTS, TensorOperatorFamily, apply_family_to_basis_functions,
                         check_families, check_family, couple_families, family_report,
                         multiplication_family, operator_coaction_components,
                         operator_coaction_report, operator_comodule,
                         operator_product_rule_residual, pipeline_components,
                         solve_family_space)
from .wigner_eckart import verify_wigner_eckart, we_tensor

__version__ = "0.1.0"
