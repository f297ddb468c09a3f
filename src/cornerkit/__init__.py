"""cornerkit: exact combinatorial checks for sphere-like nerves, Coxeter
labelings, dual-cell obstruction cochains, and torus characteristic data."""

from .simplicial import (EMPTY_COMPLEX, EMPTY_SIMPLEX, LabeledComplex, Simplex,
                         SimplicialComplex, barycentric, barycentric_all_two,
                         boundary_simplex, build_complex, cone,
                         euler_characteristic, f_vector, join, label_all, link,
                         point_complex, simplex, simplices, suspension)
from .homology import (ChainComplex, FGAbelianGroup, IntegerMatrix, SNFResult,
                       SparseMatrix, TRIVIAL_GROUP, Z, chain_complex, cokernel,
                       homology, homology_all, invariant_factors,
                       reduced_homology, reduced_homology_all, snf,
                       snf_diagonal, solve_integer)
from .ghs import GhsReport, is_ghs, is_polyhedral_homology_manifold
from .coxeter import (BudgetExceeded, CoxeterMatrix, FinitenessVerdict,
                      coxeter_matrix, coxeter_nerve, is_aspherical, is_finite,
                      is_proper_labeling, presentation)
from .equivalence import (find_isomorphism, invariant_fingerprint,
                          verify_isomorphism)
from .dualcells import (Cochain, DualComplex, DualFace, acyclicity_report,
                        coboundary, dual_complex, indicator_cochain,
                        is_cocycle, is_resolution_ready, solve_obstruction,
                        zero_cochain)
from .quasitoric import (CharacteristicPair, Fan, complete_lifts,
                         even_betti_report, from_fan, h1_total_space, h_vector,
                         is_characteristic, normalize_rows, pi1_orbit_union,
                         unimodular_span)

__version__ = "0.1.0"
