"""Exact zero-sum analysis of two-leader containment control.

The library computes containment steady states with exact rational
arithmetic, builds the leaders' outcome matrix, finds security strategies
and saddle points (the optimal topologies), and cross-validates everything
with a floating-point RK4 simulator.
"""

from .containment import (
    ConvexWeights,
    LeaderLinks,
    LeaderStates,
    convex_weights,
    grounded,
    payoffs,
    steady_state,
)
from .exactmat import (
    adjugate_int,
    determinant_int,
    inverse_rational,
    is_positive_definite,
    principal_submatrix,
    solve_rational,
    spanning_tree_count,
)
from .game import (
    Dominance,
    GameReport,
    Ordering,
    OutcomeMatrix,
    Shortcut,
    Strategy,
    compare_half,
    enumerate_strategies,
    game_values,
    grounded_adjugate_sum,
    m_ij,
    nash_equilibria,
    neighborhood_dominance,
    optimal_topologies,
    outcome_entry,
    outcome_matrix,
    outcome_rows,
    se_set,
    security_sets,
    shortcut_optimal,
    single_link_report,
)
from .graphs import (
    Graph,
    adjacency,
    build_graph,
    center_vertices,
    format_edge_list,
    generate,
    is_circulant_labeled,
    is_connected,
    laplacian,
    load_edge_list,
    neighbors,
    parse_edge_list,
    random_connected_graph,
)
from .simulate import (
    Property5Residual,
    SimConfig,
    Trajectory,
    average_distances,
    check_property5,
    simulate,
    stability_limit,
    terminal_residual,
    trajectory_csv,
)

__version__ = "0.1.0"
