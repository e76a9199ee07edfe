"""Streaming enumeration of all minimal s,t-separators of size at most k.

A priority queue pops separators in ascending (|s-side component|,
members) order.  It takes each unseen raw candidate of the important
branching from t that is a minimal separator of G: toward s for the
seeds, and once S is emitted toward C_s + {v}, C_s the s-side component
of G - S, for each v of S not next to t.  That is the branching toward s
on G with s joined to S and N(v) and the set contracted into s; as the
set is connected and holds s, a candidate, which avoids it, is minimal
there iff it is minimal in G, so the filter runs on G.  Such a separator
avoids C_s and v, so its key is strictly larger than S's; the important
ones make the stream complete, and a seen-set makes each appear once.
The stream runs each branching's root flow itself, every one after the
seed's from the seed root's paths, and takes its candidates from
`important._levels`.
"""

from collections.abc import Iterator
from heapq import heappop, heappush

from .graph import (
    Graph,
    Separator,
    Terminals,
    _minimal_side,
    add_star,  # unused, but bench/test_bench.py patches it here
)
from .important import _levels, _root
from .mincut import _min_cut


def iter_small_minimal(G: Graph, term: Terminals, k: int) -> Iterator[Separator]:
    """Yield every minimal s,t-separator of size at most k exactly once."""
    # eager, so bad input raises here and not at the first pull
    k, root = _root(G, term, k)
    seeds = set().union(*_levels(G, k, root))
    paths = root.disjoint_paths()

    def generate():
        queue: list[tuple[int, Separator, set[int]]] = []
        seen: set[Separator] = set()
        comp_size, branched = 0, [seeds]
        while True:
            for candidates in branched:
                for T in candidates:  # one walk tests T and gives its s-side
                    if T in seen or (comp := _minimal_side(G.adj, set(T), *term)) is None:
                        continue
                    seen.add(T)
                    assert len(comp) > comp_size
                    heappush(queue, (len(comp), T, comp))  # T is unique: no set compares
            if not queue:
                return
            comp_size, S, side = heappop(queue)
            assert len(S) <= k
            yield S
            roots = (_min_cut(G, (term.t,), side | {v}, (), paths)
                     for v in S if term.t not in G.adj[v])
            branched = (set().union(*_levels(G, k, net)) for net in roots)

    return generate()
