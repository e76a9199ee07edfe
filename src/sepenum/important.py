"""Important s,t-separators: importance test and bounded enumeration.

Importance here is taken toward the source: a minimal s,t-separator S is
important when no minimal separator with a strictly smaller s-side
component has size at most |S|.  (Some texts use the mirror convention,
extremal toward t; everything below follows the source-side reading.)

Equivalently, with R the t-side component of G minus S: S is important
exactly when S is the minimum (R, s)-cut whose R-side is inclusion-maximal.
That duality drives both the constant-time test and the branching below.
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
from .mincut import _min_cut, min_separator_between


def is_important(G: Graph, term: Terminals, X) -> bool:
    """True iff X is an important separator (so, first, a minimal one).

    Decided without any enumeration, by one flow.
    """
    members = canonical(X)
    if not is_minimal_separator(G, term, members):
        return False
    R = component_of(G, members, term.t)
    return min_separator_between(G, R, term.s, "furthest") == members


def _candidates(G: Graph, sources: frozenset, sink: int, removed: frozenset,
                budget: int, committed: frozenset, out: set[frozenset]) -> None:
    """Two-way branching over cut vertices of the extremal minimum cut.

    Either a vertex of the cut joins the separator (budget shrinks) or it
    is absorbed into the source side (the cut must then move).  Leaves
    where the source side is already disconnected from the sink yield the
    committed vertices as a candidate.
    """
    if not G.adj[sink].isdisjoint(sources - removed):
        return
    net = _min_cut(G, sources, sink, removed)
    if net.value == 0:
        out.add(committed)
        return
    if net.value > budget:
        return
    cut = net.furthest_cut()
    v = cut[0]
    _candidates(G, sources, sink, removed | {v}, budget - 1, committed | {v}, out)
    reach = _component(G.adj, sources - removed, removed.union(cut))
    _candidates(G, frozenset(reach | {v}), sink, removed, budget, committed, out)


def enumerate_important(G: Graph, term: Terminals, k: int) -> list[Separator]:
    """All important s,t-separators of size at most k, by (size, members).

    The branching produces a superset of at most 4^k candidates; the
    importance test, which checks minimality first, then makes the result
    exact.
    """
    if k < 1:
        raise SepenumError(f"k must be at least 1, got {k}")
    _require_separable(G, term)
    raw: set[frozenset] = set()
    _candidates(G, frozenset((term.t,)), term.s, frozenset(), k, frozenset(), raw)
    found = []
    for members in raw:
        cand = canonical(members)
        assert len(cand) <= k
        if is_important(G, term, cand):
            found.append(cand)
    found.sort(key=lambda sep: (len(sep), sep))
    return found
