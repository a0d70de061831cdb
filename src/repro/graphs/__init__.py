"""Graph substrate: CSR graphs, generators, powers, line graphs, coloring,
graph sources, streaming generation, and the out-of-core shard store."""

from .graph import CSR_ARRAY_FILES, Graph
from .generators import (
    bounded_degree_graph,
    caterpillar_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    gnp_block_graph,
    gnp_random_graph,
    grid_graph,
    hypercube_graph,
    path_graph,
    power_law_graph,
    random_bipartite_graph,
    random_regular_graph,
    random_tree,
    star_graph,
)
from .linegraph import line_graph, line_graph_size
from .power import (
    BallTooLargeError,
    adjacency_matrix,
    ball_sizes,
    hop_pattern,
    square_graph,
)
from .coloring import (
    ColoringResult,
    distance2_coloring,
    linial_coloring,
    validate_coloring,
)
from .io import (
    graph_fingerprint,
    graph_fingerprint_stream,
    read_edge_list,
    write_edge_list,
)
from .source import GraphSource
from .streaming import STREAMING_GENERATORS, stream_blocks
from .store import (
    GraphStore,
    StoreCorruptError,
    StoreMissError,
    StoredGraphInfo,
    open_stored_graph,
)
from .kernels import (
    alive_arc_select,
    alive_edge_degrees,
    neighbor_min,
    segment_min,
    segment_sum,
)

__all__ = [
    "BallTooLargeError",
    "CSR_ARRAY_FILES",
    "ColoringResult",
    "Graph",
    "GraphSource",
    "GraphStore",
    "STREAMING_GENERATORS",
    "StoreCorruptError",
    "StoreMissError",
    "StoredGraphInfo",
    "adjacency_matrix",
    "alive_arc_select",
    "alive_edge_degrees",
    "ball_sizes",
    "bounded_degree_graph",
    "caterpillar_graph",
    "complete_bipartite_graph",
    "complete_graph",
    "cycle_graph",
    "distance2_coloring",
    "empty_graph",
    "gnp_block_graph",
    "gnp_random_graph",
    "graph_fingerprint",
    "graph_fingerprint_stream",
    "grid_graph",
    "hop_pattern",
    "hypercube_graph",
    "line_graph",
    "line_graph_size",
    "linial_coloring",
    "neighbor_min",
    "open_stored_graph",
    "path_graph",
    "power_law_graph",
    "random_bipartite_graph",
    "random_regular_graph",
    "random_tree",
    "read_edge_list",
    "segment_min",
    "segment_sum",
    "square_graph",
    "star_graph",
    "stream_blocks",
    "validate_coloring",
    "write_edge_list",
]
