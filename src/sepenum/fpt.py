"""Streaming enumeration of all minimal s,t-separators of size at most k.

A priority queue seeded with the important separators pops entries in
ascending (|s-side component|, members) order.  After emitting S, the
graph is rewired so that s neighbors all of S (which keeps exactly the
minimal separators confined to S and the t side), and each member of S is
absorbed in turn (which discards the separators containing it); the
important separators of each rewired graph are the next candidates.
Every candidate pushed this way has a strictly larger s-side component
than the entry being processed, so a global seen-set is enough to make
each separator appear exactly once, and the queue drains in bounded
delay.
"""

from heapq import heappop, heappush
from typing import Iterator

from .graph import (
    Graph,
    Separator,
    Terminals,
    _component,
    absorb,
    add_star,
    canonical,
    is_minimal_separator,
)
from .important import enumerate_important


def pop_key(G: Graph, s: int, S) -> tuple[int, Separator]:
    """Queue key of a separator: (size of s's component in G - S, members).

    Cardinality extends strict component inclusion, so this is a total
    order refining the enumeration order.  Keys are always computed in
    the original graph, even for separators discovered in rewired ones.
    """
    members = canonical(S)
    return (len(_component(G.adj, (s,), set(members))), members)


def iter_small_minimal(G: Graph, term: Terminals, k: int) -> Iterator[Separator]:
    """Yield every minimal s,t-separator of size at most k exactly once."""
    if term.s == term.t:
        raise ValueError("terminals must be distinct")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    seeds = enumerate_important(G, term, k)  # raises on adjacent/separated terminals

    def generate():
        queue: list[tuple[int, Separator]] = []
        seen: set[Separator] = set()
        for S in seeds:
            heappush(queue, pop_key(G, term.s, S))
            seen.add(S)
        while queue:
            comp_size, S = heappop(queue)
            assert len(S) <= k and is_minimal_separator(G, term, S)
            yield S
            H = add_star(G, term.s, S)
            for v in S:
                Hv = absorb(H, term.s, v)
                if Hv.has_edge(term.s, term.t):
                    continue
                for T in enumerate_important(Hv, term, k):
                    if T in seen:
                        continue
                    seen.add(T)
                    key = pop_key(G, term.s, T)
                    assert key[0] > comp_size
                    heappush(queue, key)

    return generate()

