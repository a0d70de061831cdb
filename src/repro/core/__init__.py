"""Core algorithms: the paper's contribution (Sections 3, 4 and 5)."""

from .derived import (
    ColoringViaMISResult,
    RulingSetResult,
    VertexCoverResult,
    deterministic_coloring,
    deterministic_ruling_set,
    deterministic_vertex_cover,
    is_ruling_set,
    is_vertex_cover,
)
from .good_nodes import (
    GoodNodesMatching,
    GoodNodesMIS,
    degree_class_of,
    good_nodes_matching,
    good_nodes_mis,
)
from .lowdeg import lowdeg_maximal_matching, lowdeg_mis, phases_per_stage
from .luby_step import LubyStepInfo, luby_matching_step, luby_mis_step
from .matching import deterministic_maximal_matching
from .mis import deterministic_mis
from .params import Params
from .records import (
    IterationRecord,
    MatchingResult,
    MISResult,
    StageRecord,
    result_from_payload,
    result_to_payload,
)
from .sparsify_edges import sparsify_edges
from .sparsify_nodes import sparsify_nodes
from .stage import SparsifyResult

__all__ = [
    "ColoringViaMISResult",
    "RulingSetResult",
    "VertexCoverResult",
    "deterministic_coloring",
    "deterministic_ruling_set",
    "deterministic_vertex_cover",
    "is_ruling_set",
    "is_vertex_cover",
    "GoodNodesMIS",
    "GoodNodesMatching",
    "IterationRecord",
    "LubyStepInfo",
    "MISResult",
    "MatchingResult",
    "Params",
    "SparsifyResult",
    "StageRecord",
    "degree_class_of",
    "deterministic_maximal_matching",
    "deterministic_mis",
    "good_nodes_matching",
    "lowdeg_maximal_matching",
    "lowdeg_mis",
    "phases_per_stage",
    "good_nodes_mis",
    "luby_matching_step",
    "luby_mis_step",
    "result_from_payload",
    "result_to_payload",
    "sparsify_edges",
    "sparsify_nodes",
]
