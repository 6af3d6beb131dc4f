"""smallcox: exact computations with small Coxeter groups.

A Coxeter system is *small* when every exponent lies in {1, 2, 3, inf};
precisely then its reflection representation is a group of integer
matrices.  This package computes with that integral picture: finite
congruence images and principal congruence subgroups, presentations and
abelianizations of finite-index kernels on the cells of their coset
graphs, holonomy representations of crystallographic quotients of twin
and triplet groups, and the permutahedron complex that controls the
free rank of the pure triplet group.
"""

from .coxeter import (INF, CoxeterError, CoxeterSystem, SimpleGraph,
                      build_system, family_of, is_small, named_system,
                      parse_coxeter_matrix, parse_word, racg_system,
                      simple_graph, symmetric, triplet, twin, universal)
from .matrices import Matrix, SmithForm, parse_matrix, smith_normal_form
from .tits import (PolyCoeffs, alpha, evaluate, evaluate_mod,
                   generator_matrix, order_check_2m, pair_product_formula,
                   pair_product_square_formula, pm_coefficients, row_tables,
                   twin_power_matrix)
from .congruence import (BudgetExceededError, FiniteMatrixGroup,
                         FiniteQuotientMap, QuotientCheck,
                         RelationCheckError, alternating_quotient_check,
                         congruence_member, enumerate_image,
                         even_vector_quotient_check, format_group_dump,
                         minimal_congruence_power, orbit,
                         product_quotient_check, quotient_map)
from .rewriting import (AbelianInvariants, CosetTable, KernelRewriter,
                        Presentation, abelian_invariants, coset_table,
                        format_presentation, tietze_simplify)
from .crystallo import (BasisSpanError, HolonomyReport, LatticeTorsionError,
                        beta_word, holonomy_via_conjugation,
                        theta_cross_check, theta_faithfulness,
                        theta_generator_matrix)
from .permutahedron import FaceCensus, face_census, pl_rank

__version__ = "0.1.0"
