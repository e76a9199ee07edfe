"""Important s,t-separators: importance test and bounded enumeration.

Importance here is taken toward the source: a minimal s,t-separator S is
important when no minimal separator with a strictly smaller s-side
component has size at most |S|.  (Some texts use the mirror convention,
extremal toward t; everything below follows the source-side reading.)

Equivalently, with R the t-side component of G minus S: S is important
exactly when S is the minimum (R, s)-cut whose R-side is inclusion-maximal.
That duality drives both the one-flow test and the branching below.

The branching runs from t toward s, or a sink set holding s, over the
furthest minimum cut C of each node (Marx, TCS 2006).  A node with removed
set R and flow value lambda has the candidate R + C, of size |R| + lambda.
The children where members of C join the separator inherit C minus those
members as their cut and run no flow; only the root and the children that
absorb a member of C into the source side run one, from the parent's paths.
The j-th absorb child has value at least lambda - j + 1: a cut D of it of
size at most lambda - j would make D + C[:j] a minimum cut of the node
with C[j] on its source side, and C is the furthest minimum cut.  So a
node whose candidate has size k runs no child flow, since every absorb
child is over budget, and every child's candidates are larger than its
parent's.  The branching is best-first: it runs the children bucket by
bucket, by that bound, and once bucket j is done the candidates of size
j are final: the CLI's `important` streams them size by size, and
`enumerate_important` lists them all.  `_levels` is the one entry into
the branching, and its callers run the root flow: `_root` toward s for
both streams, and `list-minimal` toward each of its sink sets.

A candidate that a node with no removed vertex yields is important, and
needs no test.  Such a node has sources A and cut C, the furthest
minimum (A, s)-cut of G; let R = comp_t(G - C).  A lies in R, so the
(R, s)-connectivity is |C|, every minimum (R, s)-cut is a minimum
(A, s)-cut, and C's source side holds its source side: C is the
furthest minimum (R, s)-cut, which is what `is_important` tests.  The
branching marks these candidates, and the filter runs only on the rest.
It must: the branching is not exact, and an absorb child can yield a
candidate that a separator of the same size with a smaller s-side beats.
"""

from collections.abc import Iterator

from .errors import SepenumError
from .graph import (
    Graph,
    Separator,
    Terminals,
    _check_avoids_terminals,
    _require_separable,
    _walk,
    canonical,
)
from .mincut import FlowNetwork, _min_cut


def is_important(G: Graph, term: Terminals, X) -> bool:
    """True iff X is an important separator (and so a minimal one).

    One BFS and one flow: with R the component of t in G - X, it holds iff
    s is not in R and X is the furthest minimum (R, s)-cut.  Such an X is
    minimal: |X| is the cut value, and N(R) and N(C_s), C_s the component
    of s, lie in X and are (R, s)-cuts, so both equal X.
    """
    members = canonical(X)
    _check_avoids_terminals(G, term, members)
    side = _walk(G.adj, (term.t,), set(members), term.s)
    return side is not None and _min_cut(G, side[0], (term.s,)).furthest_cut() == members


def _root(G: Graph, term: Terminals, k: int) -> tuple[int, FlowNetwork]:
    """Check the input and run the root flow, t toward {s}, now; return k
    cut to n - 2, as no separator is larger, and the root's network."""
    _require_separable(G, term)
    if k < 1:
        raise SepenumError(f"k must be at least 1, got {k}")
    return min(k, G.n - 2), _min_cut(G, (term.t,), (term.s,))


def _levels(G: Graph, k: int, root: FlowNetwork) -> Iterator[dict[Separator, bool]]:
    """The branching's raw candidates of size 0, 1, ..., k as canonical
    separators, one dict each, best first from the root, whose flow from
    t toward its sinks has run from any start (no sink may be t or next to
    it).  They are at most 4^k sets, not all minimal, including every
    important separator of size at most k.  Each maps to True when a node
    with no removed vertex yields it, which certifies it important toward
    the sinks.

    Joining needs no flow: with v of C removed the value is one less and
    the furthest cut is C - {v}, since a cut D of G - v gives the cut
    D + {v} of G with the same source side, and C's source side holds
    every minimum cut's.  So the joins end in the candidate removed + C,
    and the j-th absorb child is queued as (the node's source side
    `above`, C, j, removed + C[:j], the node's paths), with sources
    above + {C[j]}, in the bucket of its bound |removed + C| + 1.
    N(above) lies in removed + C, so the child's source side is `above`
    plus what C reaches around `above`, the child's cut and its removed
    set.  The root, the only entry of bucket 0, has an empty `above`, its
    sources for C and no paths.  A bucket queues only into later ones, so
    once bucket b has run in order, the candidates of size b are final.
    The empty set is a candidate only of a root whose sources are already
    cut off.
    """
    sinks = root.sinks
    levels: list[dict[frozenset, bool]] = [{} for _ in range(k + 1)]
    queued: list[list] = [[] for _ in range(k + 1)]
    queued[0].append((frozenset(), tuple(root.sources), 0, frozenset(), ()))
    for b in range(k + 1):
        for above, start, j, removed, paths in queued[b]:
            net = _min_cut(G, above | {start[j]}, sinks, removed, paths) if paths else root
            size = len(removed) + net.value
            if size > k:
                continue
            cut = net.furthest_cut()
            T = removed.union(cut)
            levels[size][T] = levels[size].get(T, False) or not removed
            if size < k:  # else every absorb child is over budget
                reach = above | _walk(G.adj, start, above.union(removed, cut))[0]
                paths = net.disjoint_paths()
                for j, v in enumerate(cut):
                    if G.adj[v].isdisjoint(sinks):  # reach is never next to one
                        queued[size + 1].append(
                            (reach, cut, j, removed.union(cut[:j]), paths))
        queued[b].clear()  # release the processed children
        yield {canonical(T): marked for T, marked in levels[b].items()}


def _iter_important(G: Graph, term: Terminals, k: int) -> Iterator[Separator]:
    """Yield the important s,t-separators of size at most k by (size,
    members).  Once the branching has finished a size, its candidates are
    sorted and tested one by one, so each is yielded after its own test;
    a candidate the branching certifies needs none.
    Bad input raises here, and the root flow runs here, not at the first
    pull."""
    levels = _levels(G, *_root(G, term, k))
    return (X for level in levels for X in sorted(level)
            if level[X] or is_important(G, term, X))


def enumerate_important(G: Graph, term: Terminals, k: int) -> list[Separator]:
    """All important s,t-separators of size at most k, by (size, members).

    The branching (one flow at the root and one per absorb child of a
    node whose candidate is smaller than k, each warm from its parent's
    paths) gives the candidates, and `is_important` keeps the important
    ones among those the branching does not certify.
    """
    return list(_iter_important(G, term, k))
