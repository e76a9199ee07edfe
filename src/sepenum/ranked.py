"""Lawler-style ranked enumeration of s,t-separators by cardinality.

After emitting a separator S, the remaining solution space is split into
one cell per vertex v_i of S (beyond the already-committed include-set):
the cell keeps v_1..v_{i-1}, drops v_i, and is represented by saturating
v_i's closed neighborhood in the cell's working graph, which filters out
every minimal separator through v_i.  The cheapest member of a cell is
the minimum cut of the working graph minus the include-set, plus the
include-set itself.

Each queued cell carries the disjoint paths of its own maximum flow, and
a child's flow starts from them.  The child's graph only gains edges, so
the parent's paths that avoid the child's include-set are still a flow
there.  Every parent path crosses S minus the parent's include-set in
exactly one vertex, so the child starts with |S| - |include-set| paths
and needs one augmenting search per path it lacks, plus the last, failed
one.  The working graphs share every neighbourhood `saturate` leaves
unchanged, so a queued cell costs one n-slot tuple plus the grown sets.

The ranked stream is sound (every emission separates the original graph),
duplicate-free, non-decreasing in size, and emits every *minimal*
separator; supersets of an emitted separator are pruned by construction,
so the stream is not the full separator family.  The minimum-only variant
gates each push on the include-set still being extendable to overall
minimum size, which makes it emit exactly the minimum separators.
"""

from heapq import heappop, heappush
from itertools import count as _counter
from typing import Iterator

from .graph import (
    Graph,
    Separator,
    Terminals,
    canonical,
    is_separator,
    saturate,
)
from .mincut import FlowNetwork, _min_cut, _terminal_flow


def _lawler(G: Graph, term: Terminals, root: FlowNetwork,
            size_gate: int | None) -> Iterator[Separator]:
    """Common queue loop; size_gate is the overall minimum (None = ranked)."""
    tick = _counter()
    first = root.closest_cut()
    queue = [((len(first), first), next(tick), G, frozenset(), frozenset(),
              root.disjoint_paths())]
    while queue:
        (_, S), _, H, include, excluded, paths = heappop(queue)
        yield S
        prefix: list[int] = []
        for v in S:
            if v in include:
                continue
            include_i = include | set(prefix)
            prefix.append(v)
            H_v = saturate(H, (v,))
            if H_v.has_edge(term.s, term.t):
                continue
            # the parent's flow minus its paths through include_i is feasible
            warm = [p for p in paths if include_i.isdisjoint(p)]
            net = _min_cut(H_v, (term.s,), term.t, removed=include_i, flow=warm)
            if net.value == 0:
                continue
            if size_gate is not None and net.value != size_gate - len(include_i):
                continue
            T = canonical(net.closest_cut() + tuple(include_i))
            excluded_v = excluded | {v}
            assert is_separator(G, term, T)
            assert include_i <= set(T) and not excluded_v & set(T)
            heappush(queue, ((len(T), T), next(tick), H_v, include_i, excluded_v,
                             net.disjoint_paths()))


def iter_ranked_separators(G: Graph, term: Terminals) -> Iterator[Separator]:
    """Yield s,t-separators in non-decreasing cardinality, no duplicates."""
    return _lawler(G, term, _terminal_flow(G, term), None)


def iter_minimum_separators(G: Graph, term: Terminals) -> Iterator[Separator]:
    """Yield exactly the minimum-cardinality s,t-separators, each once."""
    root = _terminal_flow(G, term)
    return _lawler(G, term, root, root.value)
