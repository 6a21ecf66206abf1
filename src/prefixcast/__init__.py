"""Prefix-free multicast hierarchies, graph entropy, gossip, and fusion.

The package is organized by capability:

- :mod:`prefixcast.source_coding`: Kraft feasibility, canonical and Huffman
  prefix codes over D-ary alphabets.
- :mod:`prefixcast.graphs`: degree-distribution entropy measures and
  spanning-tree machinery on small graphs.
- :mod:`prefixcast.hierarchy`: leader placement in D-ary trees with
  prefix-freeness audits and path reliability under link failure.
- :mod:`prefixcast.multicast`: doubly optimal plans that marry a minimum
  spanning tree with an optimal leader placement.
- :mod:`prefixcast.gossip`: seeded simulation of level-controlled gossip on
  sensor networks.
- :mod:`prefixcast.fusion`: fault-tolerant fusion of sensor intervals.
- :mod:`prefixcast.fileio`: tiny text formats for the command line tool.
"""

__version__ = "0.1.0"

from .source_coding import (
    CodeLengthSet,
    Codeword,
    KraftViolation,
    PrefixCode,
    ProbabilityMassFunction,
    arithmetic_progression_satisfies_kraft,
    code_from_lengths,
    consecutive_lengths_sum,
    expected_length,
    huffman_code,
    huffman_lengths,
    kraft_alphabet_monotonicity,
    kraft_sum,
    prefix_violations,
    satisfies_kraft,
    shannon_entropy,
)
from .graphs import (
    DiGraph,
    Graph,
    InfiniteDivergence,
    VertexColoring,
    WeightedGraph,
    complete_graph,
    conditional_graph_entropy,
    degree_pmf,
    graph_entropy,
    graph_kl_divergence,
    graph_mutual_information,
    in_out_degree_pmfs,
    is_connected,
    is_regular,
    minimum_spanning_tree,
    mst_entropy_extrema,
    path_graph,
    petersen_graph,
    ring_graph,
    spanning_tree_entropy_extrema,
    star_graph,
    tsallis_graph_entropy,
)
from .hierarchy import (
    LeaderAssignment,
    LevelLeaderCounts,
    SecurityReport,
    assign_leaders,
    last_link_failure_probability,
    level_leader_probability,
    local_leader_probability,
    node_selection_probability,
    path_reliability,
    total_nodes,
    verify_secure,
)
from .multicast import (
    CapacityExceeded,
    EmbeddedDaryTree,
    MulticastPlan,
    PlanAudit,
    embed_dary_tree,
    plan_cost_audit,
    plan_multicast,
)
from .gossip import (
    GossipConfig,
    LeveledNetwork,
    SimResult,
    assign_levels,
    assign_sectors,
    simulate_gossip,
    summarize_trials,
    sweep_levels,
    trial_outcomes,
)
from .fusion import (
    FusionComparison,
    Inconsistent,
    Interval,
    IntervalSet,
    OverlapFunction,
    agreement_regions,
    fusion_compare,
    m_function,
    n_function,
    overlap_function,
    s_function,
)

__all__ = [
    "__version__",
    # source coding
    "CodeLengthSet",
    "Codeword",
    "KraftViolation",
    "PrefixCode",
    "ProbabilityMassFunction",
    "arithmetic_progression_satisfies_kraft",
    "code_from_lengths",
    "consecutive_lengths_sum",
    "expected_length",
    "huffman_code",
    "huffman_lengths",
    "kraft_alphabet_monotonicity",
    "kraft_sum",
    "prefix_violations",
    "satisfies_kraft",
    "shannon_entropy",
    # graphs
    "DiGraph",
    "Graph",
    "InfiniteDivergence",
    "VertexColoring",
    "WeightedGraph",
    "complete_graph",
    "conditional_graph_entropy",
    "degree_pmf",
    "graph_entropy",
    "graph_kl_divergence",
    "graph_mutual_information",
    "in_out_degree_pmfs",
    "is_connected",
    "is_regular",
    "minimum_spanning_tree",
    "mst_entropy_extrema",
    "path_graph",
    "petersen_graph",
    "ring_graph",
    "spanning_tree_entropy_extrema",
    "star_graph",
    "tsallis_graph_entropy",
    # hierarchy
    "LeaderAssignment",
    "LevelLeaderCounts",
    "SecurityReport",
    "assign_leaders",
    "last_link_failure_probability",
    "level_leader_probability",
    "local_leader_probability",
    "node_selection_probability",
    "path_reliability",
    "total_nodes",
    "verify_secure",
    # multicast
    "CapacityExceeded",
    "EmbeddedDaryTree",
    "MulticastPlan",
    "PlanAudit",
    "embed_dary_tree",
    "plan_cost_audit",
    "plan_multicast",
    # gossip
    "GossipConfig",
    "LeveledNetwork",
    "SimResult",
    "assign_levels",
    "assign_sectors",
    "simulate_gossip",
    "summarize_trials",
    "sweep_levels",
    "trial_outcomes",
    # fusion
    "FusionComparison",
    "Inconsistent",
    "Interval",
    "IntervalSet",
    "OverlapFunction",
    "agreement_regions",
    "fusion_compare",
    "m_function",
    "n_function",
    "overlap_function",
    "s_function",
]
