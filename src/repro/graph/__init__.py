"""Graph substrate: labeled graphs, the public-private model, traversal.

This subpackage is self-contained (no dependency on the rest of
:mod:`repro`) so it can serve as a generic graph toolkit for the keyword
search semantics and the PPKWS framework built on top of it.
"""

from repro.graph.generators import (
    assign_zipf_labels,
    barabasi_albert_graph,
    community_graph,
    erdos_renyi_graph,
    watts_strogatz_graph,
    zipf_weights,
)
from repro.graph.frozen import FrozenGraph, freeze
from repro.graph.io import load_graph, save_graph
from repro.graph.labeled_graph import Edge, Label, LabeledGraph, Vertex, path_weight
from repro.graph.pagerank import pagerank, pagerank_csr, pagerank_pure
from repro.graph.protocol import GraphLike
from repro.graph.public_private import PublicPrivateNetwork, combine, portal_nodes
from repro.graph.metrics import (
    approximate_diameter,
    average_shortest_path_length,
    ball_coverage,
    clustering_coefficient,
    degree_distribution,
    degree_skew,
    structural_summary,
)
from repro.graph.views import CombinedView, combine_lazy
from repro.graph.traversal import (
    INF,
    bfs_hops,
    bounded_target_distances,
    dijkstra,
    dijkstra_ordered,
    dijkstra_with_paths,
    eccentricity,
    multi_source_dijkstra,
    nearest_vertices_with_label,
    shortest_distance,
    shortest_path,
    vertices_within_hops,
)

__all__ = [
    "CombinedView",
    "Edge",
    "FrozenGraph",
    "GraphLike",
    "approximate_diameter",
    "average_shortest_path_length",
    "ball_coverage",
    "clustering_coefficient",
    "degree_distribution",
    "degree_skew",
    "structural_summary",
    "INF",
    "Label",
    "LabeledGraph",
    "PublicPrivateNetwork",
    "Vertex",
    "assign_zipf_labels",
    "barabasi_albert_graph",
    "bfs_hops",
    "bounded_target_distances",
    "combine",
    "combine_lazy",
    "community_graph",
    "dijkstra",
    "dijkstra_ordered",
    "dijkstra_with_paths",
    "eccentricity",
    "erdos_renyi_graph",
    "freeze",
    "load_graph",
    "multi_source_dijkstra",
    "nearest_vertices_with_label",
    "pagerank",
    "pagerank_csr",
    "pagerank_pure",
    "path_weight",
    "portal_nodes",
    "save_graph",
    "shortest_distance",
    "shortest_path",
    "vertices_within_hops",
    "watts_strogatz_graph",
    "zipf_weights",
]
