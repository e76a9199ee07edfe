"""Enumeration of s,t vertex separators in undirected graphs.

Provides minimal-separator enumeration with a size bound and bounded
delay, important-separator enumeration, minimum-cut machinery with
inclusion/exclusion constraints, ranked (by cardinality) enumeration,
and brute-force oracles for validating all of the above at small scale.
"""

from .errors import (
    AlreadySeparated,
    MalformedLine,
    NotANeighbor,
    NotAPath,
    NotASeparator,
    NotChordless,
    NotMinimal,
    SelfLoop,
    SepenumError,
    SourceSinkAdjacent,
    TerminalInSet,
    TerminalsAdjacent,
    TooLarge,
    UnknownLabel,
    VertexNotOnPath,
    VertexRemoved,
)
from .fpt import iter_small_minimal, pop_key
from .graph import (
    Graph,
    Separator,
    Terminals,
    absorb,
    add_star,
    canonical,
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
    min_separator_between,
    min_separator_containing,
    min_separator_excluding,
)
from .oracle import (
    DIAMOND,
    FIXTURES,
    P4,
    THETA,
    Fixture,
    brute_chordless_paths_through,
    brute_important,
    brute_minimal_separators,
    brute_minimum_separators,
    random_graph,
)
from .ranked import iter_minimum_separators, iter_ranked_separators
