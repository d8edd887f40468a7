"""Graph addressings over {0..r-1, *}: constructions, spectral lower bounds,
exact minimum-length search, and distance-multigraph biclique partitions.

The public surface re-exports the main operations of each module; see the
README for a tour and demos/ for worked examples.
"""

from .addressing import (
    Addressing,
    addressing_from_json,
    addressing_to_json,
    format_addressing,
    load_addressing,
    parse_addressing,
    partition_coverage,
    partition_to_addressing,
    save_addressing,
    to_partition,
    verify_addressing,
    weight,
    word_distance,
)
from .constructions import (
    OneTwoCover,
    append_merge_column,
    blow_up,
    ceil_two_sqrt,
    cover_to_H,
    induced_embedding,
    k_threshold,
    one_two_cover,
    plus_three,
    random_partition,
)
from .errors import (
    CapabilityError,
    DisconnectedGraphError,
    Graph6ParseError,
    PreconditionError,
    SelfCheckError,
)
from .graphs import (
    Graph,
    all_graphs,
    automorphisms,
    bfs_distances,
    canonical_form,
    complete_graph,
    complete_multipartite,
    connected_graphs,
    cycle_graph,
    emit_graph6,
    is_connected,
    johnson_graph,
    johnson_subsets,
    kam_graph,
    multipartite_classes,
    parse_graph6,
    path_graph,
    petersen_graph,
    random_graph,
)
from .johnson import (
    ComponentStats,
    good_pairs,
    good_pairs_characterized,
    johnson_addressing,
    johnson_coordinates,
    matching_f,
    symbol_rule,
    union_graph_h,
)
from .search import (
    CensusResult,
    SearchConfig,
    SearchOutcome,
    SolveResult,
    census_distribution,
    feasible_at_length,
    solve_N,
)
from .spectral import BoundReport, Inertia, inertia, is_eigensharp, lower_bound

__version__ = "0.1.0"
