"""Streaming enumeration of all minimal s,t-separators of size at most k.

A priority queue pops separators in ascending (|s-side component|,
members) order.  It takes each unseen raw candidate of the important
branching from t that is a minimal separator of G: toward s for the
seeds, and once S is emitted toward X = C_s + {v}, C_s the s-side
component of G - S, for each v of S not next to t.  That is the branching
toward s on G with s joined to S and N(v) and the set contracted into s;
as X is connected and holds s, a candidate, which avoids it, is minimal
there iff it is minimal in G, so the filter runs on G.  Such a separator
avoids C_s and v, so its key is strictly larger than S's; the important
ones make the stream complete, and a seen-set makes each appear once.

The rim N(X) = (S + N(v)) - X fixes X: X is connected and holds s, so
it is s's component of G - N(X).  A network's answer does not depend on
its warm start, so a branching's candidates and the filter's answers for
them depend only on G, t, k and X.  A repeated branching would offer
only candidates already queued or refused, so the stream reads each rim
before it builds any network and branches toward each sink set once.  An
emission with a new rim builds one unrun network toward C_s, warm from
the seed root's paths, and each new branching runs its root flow on a
copy with v added to the sinks (`FlowNetwork._with_sink`).  The filter
reads no neighbourhood inside X: s's component of G - T is X plus what
grows from N(X) - T (`graph._side_beyond`).  No t-side walk is needed,
as every raw candidate T = removed + C of `important._levels` has
N(comp_t(T)) = T.  A vertex of the node's cut C ends the prefix of its
flow path that avoids T, so it is next to the node's source side, which
is connected, holds t and avoids T; a removed vertex is next to the
source side of the ancestor whose cut held it, which lies inside the
node's sources.
"""

from collections.abc import Iterator
from heapq import heappop, heappush

from .graph import (
    Graph,
    Separator,
    Terminals,
    _side_beyond,
    add_star,  # unused, but bench/test_bench.py patches it here
)
from .important import _levels, _root
from .mincut import FlowNetwork


def iter_small_minimal(G: Graph, term: Terminals, k: int) -> Iterator[Separator]:
    """Yield every minimal s,t-separator of size at most k exactly once."""
    # eager, so bad input raises here and not at the first pull
    k, root = _root(G, term, k)
    s, t = term
    seeds = set().union(*_levels(G, k, root))
    paths = root.disjoint_paths()

    rims: set[frozenset[int]] = set()  # N(X) of each sink set X branched toward

    def branchings(S: Separator, side: set[int]):
        """Each branching toward a new X = side + {v}, v in S not next to
        t, as (its candidates, X, N(X)), every root a copy of one template."""
        template = None
        for v in S:
            if t in G.adj[v]:
                continue
            rim = set(S).union(G.adj[v]) - side - {v}  # N(X), as N(C_s) = S
            if (key := frozenset(rim)) in rims:
                continue
            rims.add(key)
            template = template or FlowNetwork(G, (t,), side, (), paths)
            net = template._with_sink(v)
            net.max_flow()
            yield set().union(*_levels(G, k, net)), net.sinks, rim

    def generate():
        queue: list[tuple[int, Separator, set[int], set[int]]] = []
        seen: set[Separator] = set()
        comp_size, branched = 0, [(seeds, {s}, G.adj[s])]
        while True:
            for candidates, inside, rim in branched:
                for T in candidates:  # T avoids X, so its s-side holds X
                    if T in seen or (grown := _side_beyond(G.adj, set(T), inside, rim, t)) is None:
                        continue
                    seen.add(T)
                    size = len(inside) + len(grown)
                    assert size > comp_size
                    heappush(queue, (size, T, inside, grown))  # T is unique: no set compares
            if not queue:
                return
            comp_size, S, inside, grown = heappop(queue)
            assert len(S) <= k
            yield S
            branched = branchings(S, inside | grown)

    return generate()
