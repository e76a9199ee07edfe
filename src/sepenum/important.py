"""Important s,t-separators: importance test and bounded enumeration.

Importance here is taken toward the source: a minimal s,t-separator S is
important when no minimal separator with a strictly smaller s-side
component has size at most |S|.  (Some texts use the mirror convention,
extremal toward t; everything below follows the source-side reading.)

Equivalently, with R the t-side component of G minus S: S is important
exactly when S is the minimum (R, s)-cut whose R-side is inclusion-maximal.
That duality drives both the one-flow test and the branching below.

The branching runs from t toward s over the furthest minimum cut C of
each node.  The children where members of C join the separator inherit
C minus those members as their cut and run no flow; only the root and
the children that absorb a member of C into the source side run one,
each started from its parent's paths.
"""

from .errors import SepenumError
from .graph import (
    Graph,
    Separator,
    Terminals,
    _component,
    _require_separable,
    canonical,
    component_of,
    is_minimal_separator,
)
from .mincut import _min_cut


def is_important(G: Graph, term: Terminals, X) -> bool:
    """True iff X is an important separator (so, first, a minimal one).

    Decided without any enumeration, by one flow.
    """
    members = canonical(X)
    if not is_minimal_separator(G, term, members):
        return False
    R = component_of(G, members, term.t)
    return _min_cut(G, R, term.s).furthest_cut() == members


def _candidates(G: Graph, sources: set, sink: int, removed: frozenset,
                budget: int, out: set[frozenset], flow=()) -> None:
    """Two-way branching over the vertices of the furthest minimum cut C.

    Either a vertex of C joins the separator (budget shrinks) or it is
    absorbed into the source side (the cut must then move), for C[0],
    C[1], ... in turn.  Joining needs no flow: with v of C removed the
    value is one less and the furthest cut is C - {v}, since a cut D of
    G - v gives the cut D + {v} of G with the same source side, and C's
    source side holds every minimum cut's.  So the j-th absorb child has
    sources reach + {C[j]}, C[:j] removed, budget - j, and the chain of
    joins ends in the leaf removed + C: the removed vertices are exactly
    the ones the branch has put into the separator.  Each absorb child
    runs one flow, from `flow`: this node's paths minus those through
    C[:j], each cut to its suffix from its last vertex in the new source
    set.  The root yields the empty set when its sources are already cut
    off from the sink.
    """
    net = _min_cut(G, sources, sink, removed, flow)
    if net.value == 0:
        out.add(removed)
        return
    if net.value > budget:
        return
    cut = net.furthest_cut()
    reach = _component(G.adj, sources, removed.union(cut))
    at = {w: m for m, w in enumerate(cut)}
    # each path meets the cut once: (position in cut, index in path, path)
    crossings = sorted((at[w], i, p) for p in net.disjoint_paths()
                       for i, w in enumerate(p) if w in at)
    assert len(crossings) == len(cut)
    for j, v in enumerate(cut):
        if sink not in G.adj[v]:  # reach itself is never next to the sink
            warm = [p[i - (m > j):] for m, i, p in crossings[j:]]
            _candidates(G, reach | {v}, sink, removed.union(cut[:j]),
                        budget - j, out, warm)
    out.add(removed.union(cut))


def _important_candidates(G: Graph, term: Terminals, k: int) -> set[Separator]:
    """The branching's raw candidates as canonical separators: at most 4^k
    sets, not all of them minimal, that include every important separator
    of size at most k.  The terminals must be neither adjacent nor equal."""
    if k < 1:
        raise SepenumError(f"k must be at least 1, got {k}")
    raw: set[frozenset] = set()
    _candidates(G, {term.t}, term.s, frozenset(), k, raw)
    return {canonical(members) for members in raw}


def enumerate_important(G: Graph, term: Terminals, k: int) -> list[Separator]:
    """All important s,t-separators of size at most k, by (size, members).

    The branching (one flow at the root and one per absorb step, each warm
    from its parent's paths) gives at most 4^k candidates; the importance
    test, which checks minimality first, keeps the important ones.
    """
    _require_separable(G, term)
    found = []
    for cand in _important_candidates(G, term, k):
        assert len(cand) <= k
        if is_important(G, term, cand):
            found.append(cand)
    found.sort(key=lambda sep: (len(sep), sep))
    return found
