"""Exact extremal combinatorics of subcubes in the binary n-cube.

Counts q-dimensional subcubes contained in vertex subsets, constructs and
verifies the optimal initial-segment sets, certifies weight-monotone
bijections between integer intervals, evaluates the associated
max-recursion with its maximizer structure, and cross-checks everything
against an exhaustive brute-force oracle.
"""

from .bijection import (
    BijectionWitness,
    GInequalityCheck,
    Interval,
    ShiftedHqCheck,
    check_g_inequality,
    check_shifted_hq_inequality,
    find_special_bijection,
    intervals_overlap,
    verify_special,
)
from .cube import (
    DecompositionReport,
    DegenerateSplit,
    VertexFormatError,
    VertexSet,
    count_subcubes_bitparallel,
    count_subcubes_naive,
    initial_segment,
    load_vertex_set,
    parse_vertex_set,
    render_vertex_lines,
    save_vertex_set,
    split,
    three_term_report,
)
from .oracle import (
    DEFAULT_ARGMAX_CAP,
    DEFAULT_BUDGET,
    BudgetExceeded,
    OracleResult,
    brute_force_mq,
    is_optimal_set,
)
from .recursion import (
    OnlyIfCounterexample,
    RecursionTable,
    build_table,
    find_onlyif_counterexamples,
    hypercubic_partitions,
)
from .weights import prefix_hq, weight_histogram

__version__ = "0.1.0"

__all__ = [
    "BijectionWitness",
    "BudgetExceeded",
    "DEFAULT_ARGMAX_CAP",
    "DEFAULT_BUDGET",
    "DecompositionReport",
    "DegenerateSplit",
    "GInequalityCheck",
    "Interval",
    "OnlyIfCounterexample",
    "OracleResult",
    "RecursionTable",
    "ShiftedHqCheck",
    "VertexFormatError",
    "VertexSet",
    "brute_force_mq",
    "build_table",
    "check_g_inequality",
    "check_shifted_hq_inequality",
    "count_subcubes_bitparallel",
    "count_subcubes_naive",
    "find_onlyif_counterexamples",
    "find_special_bijection",
    "hypercubic_partitions",
    "initial_segment",
    "intervals_overlap",
    "is_optimal_set",
    "load_vertex_set",
    "parse_vertex_set",
    "prefix_hq",
    "render_vertex_lines",
    "save_vertex_set",
    "split",
    "three_term_report",
    "verify_special",
    "weight_histogram",
]
