"""Brute-force reference implementations.

Everything here is intentionally naive: exhaustive subset or path
enumeration guarded by hard size limits.  The oracles share no code with
the algorithms they validate beyond the Graph and Terminals types: each
one encodes the adjacency as one bitmask per vertex for itself (cheap at
the n <= 16 the guards allow) and runs its own reachability over them.
"""

from itertools import combinations

from sepenum.errors import SepenumError
from sepenum.graph import Graph, Separator, Terminals


def _guard(G: Graph, term: Terminals, limit: int, *vertices: int) -> None:
    if G.n > limit:
        raise SepenumError(f"n={G.n} exceeds oracle guard {limit}")
    for v in (*term, *vertices):
        if not 0 <= v < G.n:
            raise SepenumError(f"vertex id {v} out of range for n={G.n}")


def _mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reach_mask(masks, start_mask: int, blocked: int) -> int:
    """Vertices reachable from start_mask in the graph minus blocked."""
    comp = start_mask & ~blocked
    frontier = comp
    while frontier:
        grown = 0
        for v in _bits(frontier):
            grown |= masks[v]
        frontier = grown & ~blocked & ~comp
        comp |= frontier
    return comp


def _nbr_mask(masks, comp: int) -> int:
    """N(comp): union of neighborhoods of comp, minus comp itself."""
    m = 0
    for v in _bits(comp):
        m |= masks[v]
    return m & ~comp


def brute_minimal_separators(G: Graph, term: Terminals) -> set[Separator]:
    """All minimal s,t-separators, by exhaustive subset enumeration."""
    _guard(G, term, 16)
    masks = tuple(_mask(a) for a in G.adj)
    sbit, tbit = 1 << term.s, 1 << term.t
    free = [v for v in range(G.n) if v != term.s and v != term.t]
    found = set()
    for r in range(len(free) + 1):
        for combo in combinations(free, r):
            xmask = _mask(combo)
            comp_s = _reach_mask(masks, sbit, xmask)
            if comp_s & tbit:
                continue
            if _nbr_mask(masks, comp_s) != xmask:
                continue
            comp_t = _reach_mask(masks, tbit, xmask)
            if _nbr_mask(masks, comp_t) == xmask:
                found.add(combo)
    return found


def brute_important(G: Graph, term: Terminals, k: int) -> set[Separator]:
    """Important s,t-separators of size at most k, straight from the definition.

    S is important when every minimal separator with a strictly smaller
    s-side component is strictly larger than S.
    """
    _guard(G, term, 14)
    minimal = sorted(brute_minimal_separators(G, term))
    masks = tuple(_mask(a) for a in G.adj)
    sbit = 1 << term.s
    comp = {X: _reach_mask(masks, sbit, _mask(X)) for X in minimal}
    important = set()
    for X in minimal:
        if len(X) > k:
            continue
        cx = comp[X]
        dominated = any(
            len(Y) <= len(X) and comp[Y] != cx and comp[Y] & ~cx == 0
            for Y in minimal
        )
        if not dominated:
            important.add(X)
    return important


def brute_minimum_separators(G: Graph, term: Terminals) -> set[Separator]:
    """All s,t-separators of minimum cardinality.

    Works from the raw separation predicate only, ascending by size; every
    member is automatically a minimal separator.
    """
    _guard(G, term, 16)
    masks = tuple(_mask(a) for a in G.adj)
    sbit, tbit = 1 << term.s, 1 << term.t
    free = [v for v in range(G.n) if v != term.s and v != term.t]
    for r in range(len(free) + 1):
        found = {
            combo
            for combo in combinations(free, r)
            if not _reach_mask(masks, sbit, _mask(combo)) & tbit
        }
        if found:
            return found
    return set()


def brute_chordless_paths_through(
    G: Graph, term: Terminals, v: int, max_n: int = 14
) -> list[list[int]]:
    """All chordless s,t-paths through v, in lexicographic DFS order."""
    _guard(G, term, max_n, v)
    masks = tuple(_mask(a) for a in G.adj)
    paths: list[list[int]] = []
    target = term.t

    def extend(path: list[int], on_path: int, chord_blocked: int):
        last = path[-1]
        if last == target:
            if v in path:
                paths.append(list(path))
            return
        # a chordless extension may not touch any vertex before `last`
        for w in _bits(masks[last] & ~on_path & ~chord_blocked):
            path.append(w)
            extend(path, on_path | (1 << w), chord_blocked | masks[last] & ~(1 << w))
            path.pop()

    extend([term.s], 1 << term.s, 0)
    return paths
