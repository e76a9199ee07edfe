"""Streaming enumeration of all minimal s,t-separators of size at most k.

A priority queue pops separators in ascending (|s-side component|,
members) order.  It takes each unseen raw candidate of the important
branching on a graph H that is a minimal separator of H: for the seeds H
is G, and after S is emitted H is G with s joined to S and to N(v), for
each v of S not next to t.  Such a separator of G avoids S's s-side and
v, so its key is strictly larger than S's; the important ones make the
stream complete, and a seen-set makes each separator appear once.
Each rewired branching starts its root flow from the seed root's paths,
which are a flow of H since H contains G (see `FlowNetwork`'s warm start).
"""

from heapq import heappop, heappush
from typing import Iterator

from .graph import (
    Graph,
    Separator,
    Terminals,
    _require_separable,
    add_star,
    canonical,
    component_of,
    is_minimal_separator,
)
from .important import _important_candidates


def pop_key(G: Graph, s: int, S) -> tuple[int, Separator]:
    """Queue key of a separator: (size of s's component in G - S, members).

    Cardinality extends strict component inclusion, so this is a total
    order refining the enumeration order.  Keys are always computed in
    the original graph, even for separators discovered in rewired ones.
    """
    members = canonical(S)
    return (len(component_of(G, members, s)), members)


def iter_small_minimal(G: Graph, term: Terminals, k: int) -> Iterator[Separator]:
    """Yield every minimal s,t-separator of size at most k exactly once."""
    _require_separable(G, term)
    # eager, so a bad k raises here and not at the first pull
    seeds, root = _important_candidates(G, term, k)
    paths = root.disjoint_paths()

    def generate():
        queue: list[tuple[int, Separator]] = []
        seen: set[Separator] = set()
        comp_size, branched = 0, [(G, seeds)]
        while True:
            for H, candidates in branched:
                for T in candidates:
                    if T in seen or not is_minimal_separator(H, term, T):
                        continue
                    seen.add(T)
                    key = pop_key(G, term.s, T)
                    assert key[0] > comp_size
                    heappush(queue, key)
            if not queue:
                return
            comp_size, S = heappop(queue)
            assert len(S) <= k and is_minimal_separator(G, term, S)
            yield S
            rewired = (add_star(G, term.s, (set(S) | G.adj[v]) - {term.s})
                       for v in S if term.t not in G.adj[v])
            branched = ((H, _important_candidates(H, term, k, paths)[0])
                        for H in rewired)

    return generate()
