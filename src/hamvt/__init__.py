"""Hamilton cycle certification toolkit for vertex-transitive graphs."""

from .gf2k import (GF2k, SMatrix, count_eq2, field_make, quad_irreducible_m,
                   s_group, s_matrix_order, s_mul, weil_check)
from .graphs import Graph
from .hamilton import (DEFAULT_BUDGET, BudgetExhausted, HamiltonCertificate,
                       SolveResult, find_hamilton_cycle, find_hamilton_path,
                       iter_hamilton_cycles, verify_hamilton)
from .lift import (InvalidChoice, NotAutomorphism, NotSemiregular,
                   SemiregularDecomposition, cycle_voltage, decompose,
                   lift_hamilton, lifted_components, quotient_graph,
                   voltages_are_coboundary)
from .orbital import (EmptySelection, OrbitalGraph, SuborbitTable,
                      orbital_graph, pair_closed_selections, suborbits)
from .perms import (BlockSystem, CosetAction, NotTransitive, Perm, PermGroup,
                    SubgroupNotContained, block_systems, coset_action,
                    find_semiregular, minimal_block, point_stabilizer)
from .pipeline import (AnalysisReport, GroupDegreeMismatch,
                       GroupNotAutomorphisms, MalformedInput, analyze,
                       graph_from_json, group_from_json)
from .products import (BadBaseCycle, BadParams, GcdNotOne, NotCubic,
                       ProductModel, UnknownName, catalog, catalog_gens,
                       cayley, truncate_cubic, truncation_lift, y1_cycle,
                       y2_cycle)

__all__ = [name for name in dir() if not name.startswith("_")]
