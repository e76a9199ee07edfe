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
    _check_avoids_terminals,
    _component,
    _require_separable,
    canonical,
)
from .mincut import _min_cut


def is_important(G: Graph, term: Terminals, X) -> bool:
    """True iff X is an important separator (and so a minimal one).

    One BFS and one flow: with R the component of t in G - X, it holds iff
    s is not in R and X is the furthest minimum (R, s)-cut.  Such an X is
    minimal: |X| is the cut value, and N(R) and N(C_s), C_s the component
    of s, lie in X and are (R, s)-cuts, so both equal X.
    """
    members = canonical(X)
    _check_avoids_terminals(G, term, members)
    R = _component(G.adj, (term.t,), set(members))
    return term.s not in R and _min_cut(G, R, term.s).furthest_cut() == members


def _candidates(G: Graph, sources: set, sink: int, removed: frozenset,
                budget: int, out: set[frozenset], flow=()) -> list[list[int]]:
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
    runs one flow, started from this node's paths by `FlowNetwork`'s
    warm-start rule.  The root starts from `flow` and yields the empty set
    when its sources are already cut off.  Return the paths, or [] at
    value 0 or over budget.
    """
    net = _min_cut(G, sources, sink, removed, flow)
    if net.value == 0:
        out.add(removed)
    if not 0 < net.value <= budget:
        return []
    cut = net.furthest_cut()
    reach = _component(G.adj, sources, removed.union(cut))
    paths = net.disjoint_paths()
    for j, v in enumerate(cut):
        if sink not in G.adj[v]:  # reach itself is never next to the sink
            _candidates(G, reach | {v}, sink, removed.union(cut[:j]),
                        budget - j, out, paths)
    out.add(removed.union(cut))
    return paths


def _important_candidates(G: Graph, term: Terminals, k: int,
                          flow=()) -> tuple[set[Separator], list[list[int]]]:
    """The branching's raw candidates as canonical separators (at most 4^k
    sets, not all minimal, including every important separator of size at
    most k), and the root's paths.  The root starts from `flow`, such as the
    seed root's paths; the furthest cuts alone decide the candidates.  The
    terminals must be neither adjacent nor equal."""
    if k < 1:
        raise SepenumError(f"k must be at least 1, got {k}")
    raw: set[frozenset] = set()
    paths = _candidates(G, {term.t}, term.s, frozenset(), k, raw, flow)
    return {canonical(members) for members in raw}, paths


def enumerate_important(G: Graph, term: Terminals, k: int) -> list[Separator]:
    """All important s,t-separators of size at most k, by (size, members).

    The branching (one flow at the root and one per absorb step, each warm
    from its parent's paths) gives at most 4^k candidates, and
    `is_important` keeps the important ones.
    """
    _require_separable(G, term)
    found = []
    for cand in _important_candidates(G, term, k)[0]:
        assert len(cand) <= k
        if is_important(G, term, cand):
            found.append(cand)
    found.sort(key=lambda sep: (len(sep), sep))
    return found
