"""Graph representation and the separator-oriented graph transformations.

Vertices are dense integer ids 0..n-1; every vertex carries a distinct
string label, and all user-facing output is in terms of labels.  Graphs
are simple (no self-loops, no parallel edges) and undirected.  Instances
are immutable: every transformation returns a new Graph, which shares
with its input every neighbourhood it leaves unchanged (neighbourhoods
are frozensets, so sharing them is safe).

Adjacency frozensets are the only representation.  Components and
neighbourhoods of G minus a vertex set, on which every separator
predicate and construction below rests, are set computations over them.
"""

from collections import namedtuple
from collections.abc import Iterable, Set as AbstractSet
from itertools import compress, count, repeat
from operator import eq

from .errors import AlreadySeparated, SepenumError, TerminalsAdjacent, UnknownLabel

# A separator is a canonical (strictly increasing, duplicate-free) tuple of
# vertex ids, always disjoint from the terminals of the operation at hand.
Separator = tuple[int, ...]


# Terminals checks its fields in a subclass of the plain named tuple.
_Pair = namedtuple("_Pair", "s t")


class Terminals(_Pair):
    """Source and target of a separator query; they must differ."""

    __slots__ = ()

    def __new__(cls, s: int, t: int):
        if s == t:
            raise TerminalsAdjacent("source and target are the same vertex")
        return super().__new__(cls, s, t)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)


class Graph:
    """Undirected simple graph with adjacency sets and a label table."""

    __slots__ = ("n", "labels", "adj", "_label_ids")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (), labels=None):
        if labels is None:
            labels = tuple(str(i) for i in range(n))
        else:
            labels = tuple(labels)
        if len(labels) != n or len(set(labels)) != n:
            raise SepenumError("labels must be distinct and one per vertex")
        edges = list(edges)
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise SepenumError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise SepenumError(f"self-loop at vertex {labels[u]!r}")
        self.n = n
        self.labels = labels
        self.adj = _frozen_adj(n, edges)
        self._label_ids = None

    @classmethod
    def _of(cls, labels: tuple, adj, label_ids) -> "Graph":
        """A graph over checked labels and frozen neighbourhoods."""
        g = cls.__new__(cls)
        g.n, g.labels, g.adj, g._label_ids = len(labels), labels, tuple(adj), label_ids
        return g

    def _with_adj(self, adj) -> "Graph":
        """This graph's labels over adj, a list of frozen neighbourhoods."""
        return Graph._of(self.labels, adj, self._label_ids)

    def vertex(self, label: str) -> int:
        if self._label_ids is None:
            self._label_ids = {lab: i for i, lab in enumerate(self.labels)}
        try:
            return self._label_ids[label]
        except KeyError:
            raise UnknownLabel(f"no vertex labeled {label!r}") from None

    def neighbors(self, v: int) -> frozenset:
        return self.adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self):
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def __eq__(self, other):
        if isinstance(other, Graph):
            return (
                self.n == other.n
                and self.labels == other.labels
                and self.adj == other.adj
            )
        return NotImplemented

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count()})"


# ---------------------------------------------------------------------------
# parsing

def _frozen_adj(n: int, edges: Iterable[tuple[int, int]]) -> tuple[frozenset, ...]:
    """The frozen neighbourhoods of vertices 0..n-1 under checked edges."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return tuple(map(frozenset, adj))


def parse_graph(text: str) -> Graph:
    """Parse edge-list text into a Graph.

    Each non-blank line holds exactly two whitespace-separated label
    tokens; lines starting with '#' are comments.  Labels are assigned
    dense ids in order of first appearance.  Repeated edges are silently
    deduplicated (set semantics); self-loops are an error.

    The text is checked, split and mapped to ids in whole-text passes, and
    only text with an error is read again line by line.  Error line numbers
    count every line, comments and blank lines included.
    """
    lines = text.splitlines()
    if "#" in text:  # blank the comment lines in place, keeping line numbers
        comments = map(str.startswith, map(str.lstrip, lines), repeat("#"))
        for i in compress(count(), comments):
            lines[i] = ""
        text = "\n".join(lines)
    tokens = text.split()  # every line break is whitespace to str.split
    ids = dict(zip(dict.fromkeys(tokens), count()))
    ends = list(map(ids.__getitem__, tokens))
    if (not {0, 2}.issuperset(map(len, map(str.split, lines)))
            or any(map(eq, ends[0::2], ends[1::2]))):
        for lineno, pair in enumerate(map(str.split, lines), start=1):
            if len(pair) not in (0, 2):
                raise SepenumError(f"line {lineno}: expected 2 tokens, got {len(pair)}")
            if pair and pair[0] == pair[1]:
                raise SepenumError(f"line {lineno}: self-loop at {pair[0]!r}")
    del lines, tokens  # ids holds the labels; free the rest before the build
    pairs = iter(ends)
    return Graph._of(tuple(ids), _frozen_adj(len(ids), zip(pairs, pairs)), ids)


# ---------------------------------------------------------------------------
# separator predicates and components

def canonical(vertices: Iterable[int]) -> Separator:
    return tuple(sorted(set(vertices)))


def _names(G: Graph, vertices: Iterable[int]) -> str:
    """The labels of vertices, comma-joined in id order, for messages."""
    return ",".join(G.labels[v] for v in sorted(vertices))


def _require_ids(G: Graph, vertices: Iterable[int]) -> None:
    for v in vertices:  # as an index, an id outside 0..n-1 fails or wraps
        if not 0 <= v < G.n:
            raise SepenumError(f"vertex id {v} out of range for n={G.n}")


def _check_avoids_terminals(G: Graph, terminals: tuple[int, ...], members) -> None:
    _require_ids(G, (*terminals, *members))
    if not set(terminals).isdisjoint(members):
        raise SepenumError(f"set {_names(G, members)} contains a terminal of "
                           f"{','.join(G.labels[v] for v in terminals)}")


def _component(adj, start: Iterable[int], blocked: AbstractSet[int]) -> set[int]:
    """Vertices reachable from start in the graph minus the set blocked."""
    comp = set(start) - blocked
    frontier = comp
    while frontier:
        frontier = set().union(*[adj[v] for v in frontier]) - comp - blocked
        comp |= frontier
    return comp


def _connected(adj, s: int, t: int, blocked: AbstractSet[int]) -> bool:
    """True iff s and t are joined in G minus blocked: grow, level by level,
    the component whose last frontier is the smaller (Pohl 1971), s's on a
    tie as in `mincut._search`, since `ranked` checks closest cuts, whose
    s-side is the smaller, until the two touch or one is whole."""
    comp_s, front_s, comp_t, front_t = {s}, {s}, {t}, {t}
    while front_s and front_t:
        if len(front_s) <= len(front_t):
            front_s = set().union(*[adj[v] for v in front_s]) - comp_s - blocked
            if not front_s.isdisjoint(comp_t):
                return True
            comp_s |= front_s
        else:
            front_t = set().union(*[adj[v] for v in front_t]) - comp_t - blocked
            if not front_t.isdisjoint(comp_s):
                return True
            comp_t |= front_t
    return False


def _boundary(adj, comp: AbstractSet[int]) -> set[int]:
    """N(comp): the neighbours of the set comp outside it."""
    return set().union(*[adj[v] for v in comp]) - comp


def component_of(G: Graph, removed: Iterable[int], v: int) -> frozenset:
    """Connected component of v in G minus the removed vertices."""
    removed = set(removed)
    _require_ids(G, (*removed, v))
    if v in removed:
        raise SepenumError(f"vertex {G.labels[v]!r} is removed")
    return frozenset(_component(G.adj, (v,), removed))


def is_separator(G: Graph, term: Terminals, X: Iterable[int]) -> bool:
    """True iff t is unreachable from s in G minus X, grown from both ends."""
    members = canonical(X)
    _check_avoids_terminals(G, term, members)
    return not _connected(G.adj, *term, set(members))


def _minimal_side(adj, xset: AbstractSet[int], s: int, t: int) -> set[int] | None:
    """s's component of G minus xset if xset is a minimal s,t-separator,
    that is if it and t's component both have N = xset; else None."""
    comp_s = _component(adj, (s,), xset)
    if t in comp_s or _boundary(adj, comp_s) != xset:
        return None
    return comp_s if _boundary(adj, _component(adj, (t,), xset)) == xset else None


def is_minimal_separator(G: Graph, term: Terminals, X: Iterable[int]) -> bool:
    """True iff X separates and both terminal components are full."""
    members = canonical(X)
    _check_avoids_terminals(G, term, members)
    return _minimal_side(G.adj, set(members), *term) is not None


# ---------------------------------------------------------------------------
# graph transformations

def saturate(G: Graph, U: Iterable[int]) -> Graph:
    """Smallest supergraph in which every u in U has a clique as its
    closed neighborhood.

    It is G with N_G[C] made a clique for every connected component C of
    G[U], built in one pass.  In any supergraph where every N[u], u in U,
    is a clique, all of C shares one closed neighborhood, so that clique
    holds N_G[C]; and a vertex of U next to C lies in C, so no other
    component's clique reaches N[u] for u in C.  The resulting graph has
    exactly the minimal separators of G that avoid U.  No query builds it:
    `FlowNetwork` leaves excluded vertices uncut; the tests compare with it.
    """
    members = set(U)
    _require_ids(G, sorted(members))
    adj = list(G.adj)
    while members:
        comp = frontier = {members.pop()}
        while frontier:  # the component of G[U], by a BFS inside U
            frontier = set().union(*[G.adj[v] for v in frontier]) & members
            members -= frontier
            comp |= frontier
        closed = _boundary(G.adj, comp) | comp
        for x in closed:
            grow = closed - {x} - adj[x]
            if grow:
                adj[x] = adj[x] | grow
    return G._with_adj(adj)


def add_star(G: Graph, s: int, S: Iterable[int]) -> Graph:
    """Add all edges from s to the members of S; no enumeration calls it.

    Only s and the members it was not yet joined to get a new
    neighbourhood; every other one is shared with G.
    """
    members = canonical(S)
    _require_ids(G, (s, *members))
    if s in members:
        raise SepenumError(f"vertex {G.labels[s]!r} cannot be joined to itself")
    adj = list(G.adj)
    new = set(members) - adj[s]
    if new:
        adj[s] = adj[s] | new
        for v in new:
            adj[v] = adj[v] | {s}
    return G._with_adj(adj)


def absorb(G: Graph, s: int, v: int) -> Graph:
    """Join s to every neighbor of v, which must neighbor s; then no minimal
    separator between s and another vertex contains v.  It is `add_star`
    on N(v) - {s}.  No enumeration calls it; it stays while
    bench/tracing.py names it."""
    if v not in G.adj[s]:
        raise SepenumError(f"vertex {G.labels[v]!r} is not adjacent to {G.labels[s]!r}")
    return add_star(G, s, G.adj[v] - {s})


# ---------------------------------------------------------------------------
# separator constructions

def _require_apart(G: Graph, sources: AbstractSet[int], sinks: AbstractSet[int]) -> None:
    """Raise TerminalsAdjacent when a sink is in the closed neighbourhood of
    the sources, which no set avoiding both cuts off; walks the smaller set."""
    _require_ids(G, (*sources, *sinks))
    small, large = (sources, sinks) if len(sources) < len(sinks) else (sinks, sources)
    for v in small:
        if v in large or not G.adj[v].isdisjoint(large):
            near = sinks & sources.union(*[G.adj[u] for u in sources])
            raise TerminalsAdjacent(f"{G.labels[min(near)]!r} is in the closed "
                                    f"neighbourhood of {_names(G, sources)}")


def _require_separable(G: Graph, term: Terminals) -> None:
    _require_apart(G, {term.s}, {term.t})
    if not _connected(G.adj, *term, set()):
        raise AlreadySeparated(
            f"terminals {G.labels[term.s]},{G.labels[term.t]} already separated")


def close_separator(G: Graph, term: Terminals) -> Separator:
    """The unique minimal s,t-separator contained in N(s).

    Computed as the neighborhood of t's component after removing N(s).
    """
    _require_separable(G, term)
    adj = G.adj
    return canonical(_boundary(adj, _component(adj, (term.t,), adj[term.s])))


def minimalize(G: Graph, term: Terminals, X: Iterable[int]) -> Separator:
    """Extract a minimal separator contained in X.

    Deterministic two-step rule: shrink to the boundary of s's component,
    then to the boundary of t's component of what remains.
    """
    members = canonical(X)
    if not is_separator(G, term, members):
        raise SepenumError(f"set {_names(G, members)} does not separate "
                           f"{G.labels[term.s]!r} from {G.labels[term.t]!r}")
    adj = G.adj
    side_s = _boundary(adj, _component(adj, (term.s,), set(members)))
    return canonical(_boundary(adj, _component(adj, (term.t,), side_s)))


def _validate_chordless_path(G: Graph, term: Terminals, path) -> None:
    if len(path) < 2 or path[0] != term.s or path[-1] != term.t:
        raise SepenumError("path must start at s and end at t")
    if len(set(path)) != len(path):
        raise SepenumError("path vertices must be distinct")
    for a, b in zip(path, path[1:]):
        if not G.has_edge(a, b):
            raise SepenumError(f"({G.labels[a]},{G.labels[b]}) is not an edge")
    for i in range(len(path)):
        for j in range(i + 2, len(path)):
            if G.has_edge(path[i], path[j]):
                raise SepenumError(f"chord ({G.labels[path[i]]},{G.labels[path[j]]})")


def chordless_path_through(G: Graph, term: Terminals, v: int) -> list[int] | None:
    """The first chordless s,t-path through v in depth-first order, or None.

    The search grows a path from s, trying the neighbours of its last
    vertex in ascending id order, and extends it only by a vertex off the
    path that is next to no path vertex before the last; so every path it
    builds is chordless.  It stops at the first path that reaches t with v
    on it.  Such a path exists iff some minimal s,t-separator contains v.
    """
    _require_ids(G, (*term, v))
    if v in term:
        raise SepenumError(f"vertex {G.labels[v]!r} is a terminal")
    s, t = term
    adj = G.adj
    path, on_path = [s], {s}
    near = [0] * G.n  # near[x]: the path vertices before the last next to x
    frames = [iter(sorted(adj[s]))]  # per path vertex, its untried neighbours
    while frames:
        w = next((w for w in frames[-1] if w not in on_path and not near[w]), None)
        if w is None:  # backtrack
            frames.pop()
            on_path.remove(path.pop())
            if path:
                for x in adj[path[-1]]:
                    near[x] -= 1
            continue
        for x in adj[path[-1]]:
            near[x] += 1
        path.append(w)
        on_path.add(w)
        if w == t and v in on_path:
            return path
        # a path ends at t, and a vertex next to an earlier one never joins it
        dead = w == t or near[t] or (v not in on_path and near[v])
        frames.append(iter(() if dead else sorted(adj[w])))
    return None


def chordless_path_to_separator(
    G: Graph, term: Terminals, path: list[int], v: int
) -> Separator:
    """Turn a chordless s,t-path through v into a minimal separator containing v.

    With P the part of the path before v and C the component of the part
    after v in G minus N(P), the result is N(C).  This is the close
    separator of the graph in which P is contracted into s and the rest
    of the path after v into t; it contains v, which neighbours both
    parts, and it is a minimal s,t-separator of G.
    """
    _require_ids(G, (*term, *path, v))
    _validate_chordless_path(G, term, path)
    if v == term.s or v == term.t:
        raise SepenumError(f"vertex {G.labels[v]!r} is a terminal")
    if v not in path:
        raise SepenumError(f"vertex {G.labels[v]!r} not on path")
    idx = path.index(v)
    adj = G.adj
    prefix_nbrs = _boundary(adj, set(path[:idx]))
    result = canonical(_boundary(adj, _component(adj, path[idx + 1:], prefix_nbrs)))
    assert v in result
    return result
