"""Vertex-capacity minimum cuts by augmenting paths on the adjacency.

Every vertex but the sources and the sink has capacity one, so a flow is
a family of internally vertex-disjoint paths, kept as one `pred` and one
`succ` per vertex.  The residual search walks implicit split states
in(v) = 2v and out(v) = 2v + 1 without building a network: out(v) reaches
in(w) of every live neighbour w, and in(v) when v is used; in(v) reaches
out(v) when v is free and out(pred[v]) when it is used.  The flow value is
the maximum number of internally vertex-disjoint paths, and the two
canonical minimum cuts fall out of residual reachability.

After a maximum flow, the minimum cuts are exactly the state sets C that
contain the sources' out-states, avoid in(sink) and are closed under
those residual arcs (Picard & Queyranne 1980); the cut is the vertices v
with in(v) in C and out(v) not.  `closest_cut_with(include, excluded)`
answers one constrained query on that family with one closure over the
same arcs, without a further flow: it seeds in(i) for every i in
`include`, adds the arc in(e) -> out(e) for every e in `excluded` (e is
not cut), and fails when the closure reaches in(sink) or an out(i).
Each constraint is an implication between states, so the feasible sets
still form a lattice and the least one is the closest feasible cut.

A module-level counter tracks max-flow invocations so that delay
bounds can be checked externally.
"""

from dataclasses import dataclass, field

from .errors import AlreadySeparated, SepenumError
from .graph import (
    Graph,
    Separator,
    Terminals,
    _check_avoids_terminals,
    _require_apart,
    canonical,
    saturate,
)

_flow_calls = 0


def flow_call_count() -> int:
    """Total max-flow computations performed so far in this process."""
    return _flow_calls


class FlowNetwork:
    """Flow state for one (source-set, sink) cut computation.

    Scratch structure: create, run max_flow once, then query cuts/paths.
    Vertices in `removed` are absent from the graph entirely.  Raises
    TerminalsAdjacent if a source is the sink or adjacent to it.

    `flow` is an optional starting flow: source-to-sink edge paths of G,
    each from one of the sources, that avoid the removed vertices and are
    internally vertex-disjoint, such as a subset of another network's
    `disjoint_paths()` on a subgraph.  max_flow then only augments from
    there; the value and both cuts are the same as from zero, since every
    maximum flow leaves the same vertices residual-reachable.
    """

    def __init__(self, G: Graph, sources, sink: int, removed=(), flow=()):
        self.adj = G.adj
        self.sink = sink
        removed = set(removed)
        source_set = set(sources) - removed
        _require_apart(G, source_set, sink)
        self.sources = sorted(source_set)
        # sources and removed vertices are never entered from a neighbour
        self.blocked = bytearray(G.n)
        for v in (*self.sources, *removed):
            self.blocked[v] = 1
        pred = self.pred = [-1] * G.n
        succ = self.succ = [-1] * G.n
        self.parent: dict[int, int] = {}  # of the last search: state -> state
        self.value = 0
        self._ran = False
        for path in flow:  # link every inner vertex to its path neighbours
            assert path[0] in self.sources and path[-1] == sink
            for u, w, x in zip(path, path[1:-1], path[2:]):
                assert not self.blocked[w] and pred[w] < 0 and w in self.adj[u]
                pred[w], succ[w] = u, x
            assert sink in self.adj[path[-2]]
            self.value += 1

    def _search(self) -> bool:
        """One residual BFS from the sources; True if it reached the sink."""
        adj, blocked, pred = self.adj, self.blocked, self.pred
        target = 2 * self.sink
        parent = self.parent = {2 * s + 1: -1 for s in self.sources}
        queue = list(parent)
        for x in queue:  # grows while it is read: a FIFO without pops
            v = x >> 1
            if x & 1:
                for w in adj[v]:
                    if not blocked[w] and 2 * w not in parent:
                        parent[2 * w] = x
                        queue.append(2 * w)
                if target in parent:
                    return True
                if pred[v] < 0:
                    continue
                y = x - 1
            else:
                u = pred[v]
                y = x + 1 if u < 0 else 2 * u + 1
            if y not in parent:
                parent[y] = x
                queue.append(y)
        return False

    def _augment(self) -> None:
        # Each out(u) -> in(w) step of the path sets the flow edge u -> w; a
        # step back from out(w) to in(w) frees w.  Every pred/succ slot the
        # path cancels is rewritten by exactly one step of the same path.
        pred, succ, parent = self.pred, self.succ, self.parent
        y = parent[2 * self.sink]
        succ[y >> 1] = self.sink
        x = parent[y]
        while x >= 0:
            y = parent[x]
            u, w = y >> 1, x >> 1
            if u == w:
                pred[w] = succ[w] = -1
            else:
                succ[u] = w
                pred[w] = u
            x = parent[y]

    def max_flow(self) -> int:
        """Augment along shortest residual paths until the sink is cut off."""
        global _flow_calls
        assert not self._ran
        self._ran = True
        _flow_calls += 1
        while self._search():
            self._augment()
            self.value += 1
        return self.value

    def closest_cut(self) -> Separator:
        """Minimum cut with inclusion-minimal source side.

        Read off the final, failed search: the vertices whose in-state it
        reached and whose out-state it did not.
        """
        reached = self.parent
        cut = sorted(x >> 1 for x in reached if not x & 1 and x + 1 not in reached)
        assert len(cut) == self.value
        return tuple(cut)

    def closest_cut_with(self, include=(), excluded=()) -> Separator | None:
        """Closest minimum cut that contains `include` and avoids
        `excluded`, or None when no minimum cut does.

        Run after max_flow.  One closure from the sources' out-states and
        every in(i), i in `include`, over the residual arcs of `_search`
        plus in(e) -> out(e) for every e in `excluded`; it is infeasible
        exactly when it reaches in(sink) or out(i) for some i in `include`.
        """
        assert self._ran
        adj, blocked, pred = self.adj, self.blocked, self.pred
        uncut = set(excluded)
        seen = {2 * s + 1 for s in self.sources}
        seen.update(2 * i for i in include)
        queue = list(seen)
        for x in queue:  # grows while it is read, as in _search
            v = x >> 1
            if x & 1:
                step = [2 * w for w in adj[v] if not blocked[w]]
                if pred[v] >= 0:
                    step.append(x - 1)
            else:
                u = pred[v]
                step = [x + 1 if u < 0 else 2 * u + 1]
                if v in uncut:
                    step.append(x + 1)
            for y in step:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        if 2 * self.sink in seen or any(2 * i + 1 in seen for i in include):
            return None
        cut = sorted(x >> 1 for x in queue if not x & 1 and x + 1 not in seen)
        assert len(cut) == self.value
        return tuple(cut)

    def furthest_cut(self) -> Separator:
        """Minimum cut with inclusion-maximal source side.

        One backward sweep from in(sink) over the residual arcs: the cut is
        the vertices whose out-state reaches the sink and in-state does not.
        """
        adj, blocked, pred, succ = self.adj, self.blocked, self.pred, self.succ
        seen = {2 * self.sink}
        queue = list(seen)
        for x in queue:
            v = x >> 1
            if x & 1:  # entered from in(v) if v is free, else from in(succ[v])
                y = x - 1 if pred[v] < 0 else 2 * succ[v]
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
                continue
            # in(v) is entered from out(u) of every live neighbour u, and
            # from out(v) if v is used
            for u in adj[v]:
                if not blocked[u] and 2 * u + 1 not in seen:
                    seen.add(2 * u + 1)
                    queue.append(2 * u + 1)
            if pred[v] >= 0 and x + 1 not in seen:
                seen.add(x + 1)
                queue.append(x + 1)
        cut = sorted(x >> 1 for x in queue if x & 1 and x - 1 not in seen)
        assert len(cut) == self.value
        return tuple(cut)

    def disjoint_paths(self) -> list[list[int]]:
        """The flow as internally vertex-disjoint source-to-sink paths."""
        pred, succ, sink = self.pred, self.succ, self.sink
        paths = []
        for s in self.sources:
            for w in sorted(self.adj[s]):
                if pred[w] == s:
                    path = [s, w]
                    while w != sink:
                        w = succ[w]
                        path.append(w)
                    paths.append(path)
        assert len(paths) == self.value
        return paths


@dataclass
class CutResult:
    kappa: int
    separator: Separator
    disjoint_paths: list[list[int]] = field(default_factory=list)


def _min_cut(G: Graph, sources, sink: int, removed=(), flow=()) -> FlowNetwork:
    net = FlowNetwork(G, sources, sink, removed, flow)
    net.max_flow()
    return net


def _terminal_flow(G: Graph, term: Terminals) -> FlowNetwork:
    """Maximum s,t-flow; the terminals must be neither adjacent nor separated."""
    net = _min_cut(G, (term.s,), term.t)
    if net.value == 0:
        raise AlreadySeparated(
            f"terminals {G.labels[term.s]},{G.labels[term.t]} already separated")
    return net


def kappa(G: Graph, term: Terminals) -> CutResult:
    """Connectivity between the terminals plus one canonical witness.

    The separator is the closest-to-s minimum cut (boundary of the
    residual-reachable set), fixed for determinism; the paths are a
    maximum family of internally vertex-disjoint s,t-paths.
    """
    net = _terminal_flow(G, term)
    return CutResult(net.value, net.closest_cut(), net.disjoint_paths())


def min_separator_between(G: Graph, A, t: int, side: str) -> Separator:
    """Minimum vertex separator between the set A and the vertex t.

    side="closest" gives the cut with inclusion-minimal A-side component,
    side="furthest" the inclusion-maximal one.  Raises TerminalsAdjacent
    when t lies in the closed neighborhood of A.
    """
    if side not in ("closest", "furthest"):
        raise SepenumError(f"side must be 'closest' or 'furthest', got {side!r}")
    sources = canonical(A)
    if not sources:
        raise SepenumError("source set A must be nonempty")
    net = _min_cut(G, sources, t)
    if net.value == 0:
        raise AlreadySeparated(f"{G.labels[t]!r} unreachable from the source set")
    return net.closest_cut() if side == "closest" else net.furthest_cut()


def min_separator_containing(G: Graph, term: Terminals, I) -> Separator | None:
    """A minimum s,t-separator containing I, or None if there is none.

    One maximum flow, then the closest minimum cut that contains I (see
    `FlowNetwork.closest_cut_with`).
    """
    members = canonical(I)
    _check_avoids_terminals(G, term, members)
    return _min_cut(G, (term.s,), term.t).closest_cut_with(members)


def min_separator_excluding(G: Graph, term: Terminals, U) -> Separator | None:
    """Smallest minimal s,t-separator avoiding U, or None if none exists.

    Saturating the closed neighborhood of every u in U leaves exactly the
    minimal separators disjoint from U, so the answer is the canonical
    minimum cut of the saturated graph.
    """
    members = canonical(U)
    _check_avoids_terminals(G, term, members)
    _require_apart(G, (term.s,), term.t)
    H = saturate(G, members)
    if H.has_edge(term.s, term.t):
        return None
    net = _min_cut(H, (term.s,), term.t)
    if net.value == 0:
        return None
    return net.closest_cut()
