"""Enumeration of s,t vertex separators in undirected graphs.

Provides minimal-separator enumeration with a size bound and bounded
delay, important-separator enumeration, minimum-cut machinery with
inclusion/exclusion constraints, ranked (by cardinality) enumeration,
and the chordless-path witness construction.
"""

from .errors import (
    AlreadySeparated,
    SepenumError,
    TerminalsAdjacent,
    UnknownLabel,
)
from .fpt import iter_small_minimal
from .graph import (
    Graph,
    Separator,
    Terminals,
    add_star,
    canonical,
    chordless_path_through,
    chordless_path_to_separator,
    close_separator,
    component_of,
    is_minimal_separator,
    is_separator,
    minimalize,
    parse_graph,
    saturate,
)
from .important import enumerate_important, is_important
from .mincut import (
    CutResult,
    FlowNetwork,
    flow_call_count,
    kappa,
    min_separator_containing,
    min_separator_excluding,
)
from .ranked import iter_minimum_separators, iter_ranked_separators
