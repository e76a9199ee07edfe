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
so the stream is not the full separator family.

The minimum-only stream splits its cells the same way but answers each
one on the root's residual graph: after one maximum flow, the minimum
separators that contain the include-set and avoid the excluded vertices
are the closed sets of that graph under the cell's constraints, and
`FlowNetwork.closest_cut_with` returns the closest of them or None.  A
cell is then just (S, include-set, excluded set): no working graph, no
paths and no further flow call, so each emission costs O(|S|·(n+m)).
In every cell both streams pick the minimum separator with the
inclusion-minimal s-side, so minimum-all emits the size-κ prefix of the
ranked stream in the same order.
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


def _split(S: Separator, include: frozenset) -> Iterator[tuple[int, frozenset]]:
    """Lawler's children of the cell that emitted S: for each v of S beyond
    the include-set, v is excluded and the members before it included."""
    prefix: list[int] = []
    for v in S:
        if v not in include:
            yield v, include | set(prefix)
            prefix.append(v)


def _lawler(G: Graph, term: Terminals, root: FlowNetwork) -> Iterator[Separator]:
    """The ranked queue loop: cells are saturated working graphs."""
    tick = _counter()
    first = root.closest_cut()
    queue = [((len(first), first), next(tick), G, frozenset(), frozenset(),
              root.disjoint_paths())]
    while queue:
        (_, S), _, H, include, excluded, paths = heappop(queue)
        yield S
        for v, include_i in _split(S, include):
            H_v = saturate(H, (v,))
            if H_v.has_edge(term.s, term.t):
                continue
            # the parent's flow minus its paths through include_i is feasible
            warm = [p for p in paths if include_i.isdisjoint(p)]
            net = _min_cut(H_v, (term.s,), term.t, removed=include_i, flow=warm)
            if net.value == 0:
                continue
            T = canonical(net.closest_cut() + tuple(include_i))
            excluded_v = excluded | {v}
            assert is_separator(G, term, T)
            assert include_i <= set(T) and not excluded_v & set(T)
            heappush(queue, ((len(T), T), next(tick), H_v, include_i, excluded_v,
                             net.disjoint_paths()))


def _minimum_cells(G: Graph, term: Terminals, root: FlowNetwork) -> Iterator[Separator]:
    """The Lawler split of `_lawler`, each cell a closure on root's residual
    graph.  All separators have size κ and are distinct, so the heap orders
    them by members alone."""
    queue = [(root.closest_cut(), frozenset(), frozenset())]
    while queue:
        S, include, excluded = heappop(queue)
        yield S
        for v, include_i in _split(S, include):
            excluded_v = excluded | {v}
            T = root.closest_cut_with(include_i, excluded_v)
            if T is None:
                continue
            assert is_separator(G, term, T)
            assert include_i <= set(T) and not excluded_v & set(T)
            heappush(queue, (T, include_i, excluded_v))


def iter_ranked_separators(G: Graph, term: Terminals) -> Iterator[Separator]:
    """Yield s,t-separators in non-decreasing cardinality, no duplicates."""
    return _lawler(G, term, _terminal_flow(G, term))


def iter_minimum_separators(G: Graph, term: Terminals) -> Iterator[Separator]:
    """Yield exactly the minimum-cardinality s,t-separators, each once, in
    the order of the ranked stream; one flow call in all."""
    return _minimum_cells(G, term, _terminal_flow(G, term))
