"""Portal-node indexes: distance maps, keyword maps, combined oracles."""

from repro.portals.distance_map import (
    PortalDistanceMap,
    all_pairs_portal_distances,
    combined_portal_maps,
    refine_portal_distances,
)
from repro.portals.keyword_map import (
    PortalKeywordDistanceMap,
    PortalKeywordEntry,
    VertexPortalDistanceMap,
    build_private_maps,
)
from repro.portals.oracle import (
    CombinedDistanceOracle,
    ExactPublicDistance,
    SketchPublicDistance,
)

__all__ = [
    "CombinedDistanceOracle",
    "ExactPublicDistance",
    "PortalDistanceMap",
    "PortalKeywordDistanceMap",
    "PortalKeywordEntry",
    "SketchPublicDistance",
    "VertexPortalDistanceMap",
    "all_pairs_portal_distances",
    "build_private_maps",
    "combined_portal_maps",
    "refine_portal_distances",
]
