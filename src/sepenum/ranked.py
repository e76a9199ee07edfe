"""Lawler-style ranked enumeration of s,t-separators by cardinality.

After emitting a separator S, the remaining solution space is split into
one cell per vertex v_i of S (beyond the already-committed include-set):
the cell keeps v_1..v_{i-1}, drops v_i, and is represented by saturating
v_i's closed neighborhood in the cell's working graph, which filters out
every minimal separator through v_i.  The cheapest member of a cell is
the minimum cut of the working graph minus the include-set, plus the
include-set itself.

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
from .mincut import _min_cut, _terminal_flow


def _lawler(G: Graph, term: Terminals, first: Separator,
            size_gate: int | None) -> Iterator[Separator]:
    """Common queue loop; size_gate is the overall minimum (None = ranked)."""
    tick = _counter()
    queue = [((len(first), first), next(tick), G, frozenset(), frozenset())]
    while queue:
        (_, S), _, H, include, excluded = heappop(queue)
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
            net = _min_cut(H_v, (term.s,), term.t, removed=include_i)
            if net.value == 0:
                continue
            if size_gate is not None and net.value != size_gate - len(include_i):
                continue
            T = canonical(net.closest_cut() + tuple(include_i))
            excluded_v = excluded | {v}
            assert is_separator(G, term, T)
            assert include_i <= set(T) and not excluded_v & set(T)
            heappush(queue, ((len(T), T), next(tick), H_v, include_i, excluded_v))


def iter_ranked_separators(G: Graph, term: Terminals) -> Iterator[Separator]:
    """Yield s,t-separators in non-decreasing cardinality, no duplicates."""
    return _lawler(G, term, _terminal_flow(G, term).closest_cut(), None)


def iter_minimum_separators(G: Graph, term: Terminals) -> Iterator[Separator]:
    """Yield exactly the minimum-cardinality s,t-separators, each once."""
    first = _terminal_flow(G, term).closest_cut()
    return _lawler(G, term, first, len(first))
