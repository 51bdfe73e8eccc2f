"""swk: exact Steiner distances, Steiner k-Wiener indices, and structure
recognition (modular, median, block graphs) for small graphs.

Conventions used across the package:

* vertex subsets travel as int bitmasks (bit i = vertex i); helpers live
  in :mod:`swk.bitset`,
* distance matrices are read-only numpy int32 arrays from
  :func:`swk.metric.all_pairs_distances`, computed once per graph and kept
  on it; functions that take a graph read its distances from there,
* all counts are Python ints and all averages exact fractions.
"""

from .blocks import (
    BlockDecomposition,
    block_decomposition,
    is_block_graph,
    n3_of_components,
    nm_block_graph,
    sw3_block_formula,
)
from .errors import ParseError, PreconditionError
from .families import (
    fibonacci,
    lucas,
    mu3_ratio,
    sw3_fibonacci_closed,
    sw3_lucas_closed,
    wiener_fibonacci_closed,
    wiener_lucas_closed,
)
from .graphs import (
    FamilySpec,
    Graph,
    cartesian_product,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    fibonacci_cube,
    hypercube,
    is_connected,
    lucas_cube,
    make_family,
    parse_edgelist,
    parse_graph6,
    path_graph,
    read_graph6_file,
    star_graph,
    write_graph6,
)
from .metric import all_pairs_distances, average_distance, interval, wiener_index
from .steiner import (
    BoundsReport,
    ModularBoundResult,
    check_bounds,
    check_sw3_modular_bound,
    jiang_f,
    mean_steiner,
    steiner_distance_3,
    steiner_distance_dw,
    steiner_distance_oracle,
    steiner_distance_table,
    steiner_wiener,
    sw3_product_modular,
)
from .structure import (
    TripleClassification,
    classify_triples,
    is_median,
    is_modular,
    is_modular_triple,
    median_set,
    steiner_via_2intersection,
)

__version__ = "0.1.0"

__all__ = [
    "BlockDecomposition",
    "BoundsReport",
    "FamilySpec",
    "Graph",
    "ModularBoundResult",
    "ParseError",
    "PreconditionError",
    "TripleClassification",
    "all_pairs_distances",
    "average_distance",
    "block_decomposition",
    "cartesian_product",
    "check_bounds",
    "check_sw3_modular_bound",
    "classify_triples",
    "complete_bipartite_graph",
    "complete_graph",
    "cycle_graph",
    "fibonacci",
    "fibonacci_cube",
    "hypercube",
    "interval",
    "is_block_graph",
    "is_connected",
    "is_median",
    "is_modular",
    "is_modular_triple",
    "jiang_f",
    "lucas",
    "lucas_cube",
    "make_family",
    "mean_steiner",
    "median_set",
    "mu3_ratio",
    "n3_of_components",
    "nm_block_graph",
    "parse_edgelist",
    "parse_graph6",
    "path_graph",
    "read_graph6_file",
    "star_graph",
    "steiner_distance_3",
    "steiner_distance_dw",
    "steiner_distance_oracle",
    "steiner_distance_table",
    "steiner_via_2intersection",
    "steiner_wiener",
    "sw3_block_formula",
    "sw3_fibonacci_closed",
    "sw3_lucas_closed",
    "sw3_product_modular",
    "wiener_fibonacci_closed",
    "wiener_index",
    "wiener_lucas_closed",
    "write_graph6",
]
