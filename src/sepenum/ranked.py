"""Lawler-style ranked enumeration of s,t-separators by cardinality.

A cell of Lawler's partition is two sets: its separators contain the
include-set and avoid the excluded set.  After emitting S, the minimum of
its cell, the rest of the cell splits into one child per vertex v_i of S
beyond the include-set, which includes v_1..v_{i-1} and also excludes
v_i.  Both streams share this queue loop and its root flow, and differ
only in what they do with a child that has no separator of size κ, the
s,t-connectivity.

After the root's maximum flow, the size-κ separators of a cell are the
closed sets of the root's residual graph under the cell's constraints,
and `FlowNetwork.closest_cut_with` returns the closest of them, or None,
with no further flow or search.  It starts from the parent's separator,
whose closed set the child's contains, and moves only the positions on
the root's κ flow paths that the child's constraints push, at O(κ)
each.  Only a child of a size-κ cell can have size κ, so each such child
asks that closure first, about v_i alone of its excluded set.  Every
vertex u excluded earlier was a member of an ancestor's separator, so it
lies on a root flow path, and the closure of the child that excluded it
stepped past it on that path.  Positions only rise from a cell to its
child, so the closure starts beyond every such u and never asks whether
it is excluded; the flow children still get the whole set.  minimum-all
drops every other child; the ranked stream answers it (I included, U
excluded) on G with I removed and U uncut (see `FlowNetwork`): its
minimum is I plus the closest minimum cut, as in saturate(G, U) - I,
which has the same minimum cuts and s-sides.  It is empty when U joins
s to t.

Besides its two sets, a queued cell keeps only the disjoint paths of its
maximum flow; a size-κ cell keeps the root's.  A child's flow starts
from them (see `FlowNetwork`), so it needs one augmenting search per
path it lacks, plus the last, failed one.

A flow child runs its flow when it is queued, but reading its cut, most
of its cost on a large graph, waits until it pops, which many never do.
Its size, |I| plus the flow value, is known without the cut, so it is
queued unresolved under (size, (), n), with n a sequence number: no two
keys tie, and () sorts before every separator, so the key pops after
every smaller size and before every (size, T).  When it pops, its cut is
read from its own paths, a maximum flow, with no search and no flow call
(see `mincut._closest_cut_of`), and it is queued again under (|T|, T).
The order is the one of reading every cut at once: when (|S|, S) is the
least key, every unresolved cell has more than |S| members, so (|S|, S)
is also the least key that reading them all would give.

The ranked stream is sound (every emission separates the original graph),
duplicate-free, non-decreasing in size, and emits every *minimal*
separator; supersets of an emitted separator are pruned by construction,
so the stream is not the full separator family.  minimum-all is its
size-κ prefix, in the same order, from one flow call.
"""

from collections.abc import Iterator
from heapq import heappop, heappush
from itertools import count

from .errors import TerminalsAdjacent
from .graph import (
    Graph,
    Separator,
    Terminals,
    canonical,
    is_separator,
    saturate,  # unused, but bench/test_bench.py patches it here
)
from .mincut import FlowNetwork, _closest_cut_of, _min_cut, _terminal_flow


def _split(S: Separator, include: frozenset) -> Iterator[tuple[int, frozenset]]:
    """Lawler's children of the cell that emitted S: for each v = S[i] beyond
    the include-set, v is excluded and S[:i] joins the include-set."""
    for i, v in enumerate(S):
        if v not in include:
            yield v, include.union(S[:i])


def _lawler(G: Graph, term: Terminals, root: FlowNetwork, flow) -> Iterator[Separator]:
    """The queue loop from the root's maximum flow.  A child of a size-κ
    cell, one that kept the root's paths, is the root's closure if it has
    one; any other child is flow(its parent's kept, include, excluded):
    its size and paths, queued unresolved, or None if it is empty.  The
    cells partition the separators, so no two share a key (|S|, S)."""
    queue, unresolved = [], count()

    def push(T, include, excluded, kept):
        assert is_separator(G, term, T)
        assert include <= set(T) and not excluded & set(T)
        heappush(queue, ((len(T), T), include, excluded, kept))

    paths = root.disjoint_paths()
    push(root.closest_cut(), frozenset(), frozenset(), paths)
    while queue:
        key, include, excluded, kept = heappop(queue)
        if len(key) == 3:  # an unresolved flow child: read its cut
            cut = _closest_cut_of(G, (term.s,), (term.t,), include, kept, excluded)
            push(canonical(cut + tuple(include)), include, excluded, kept)
            continue
        S = key[1]
        yield S
        for v, include_i in _split(S, include):
            excluded_v = excluded | {v}
            T = root.closest_cut_with(include_i, (v,), S) if kept is paths else None
            if T is not None:
                push(T, include_i, excluded_v, paths)
            elif (child := flow(kept, include_i, excluded_v)) is not None:
                size, kept_i = child
                heappush(queue, ((size, (), next(unresolved)), include_i, excluded_v, kept_i))


def iter_ranked_separators(G: Graph, term: Terminals) -> Iterator[Separator]:
    """Yield s,t-separators in non-decreasing cardinality, no duplicates."""

    def flow(paths, include, excluded):
        try:
            net = _min_cut(G, (term.s,), (term.t,), include, paths, excluded)
        except TerminalsAdjacent:  # the excluded set joins s to t
            return None
        # include, a proper subset of the parent cell's minimum, cannot separate
        assert net.value > 0, "the include-set alone separates s from t"
        return net.value + len(include), net.disjoint_paths()

    return _lawler(G, term, _terminal_flow(G, term), flow)


def iter_minimum_separators(G: Graph, term: Terminals) -> Iterator[Separator]:
    """Yield exactly the minimum-cardinality s,t-separators, each once, in
    the order of the ranked stream; one flow call in all."""
    return _lawler(G, term, _terminal_flow(G, term), lambda *cell: None)
