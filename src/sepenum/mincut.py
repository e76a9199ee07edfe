"""Vertex-capacity minimum cuts by augmenting paths on the adjacency.

Both ends are vertex sets, and every other vertex has capacity one, so a
flow is a family of internally vertex-disjoint paths, kept as one `pred`
and one `succ` per vertex.  The residual graph lives on implicit split
states in(v) = 2v and out(v) = 2v + 1, with no network built: out(v)
reaches in(w) of every live neighbour w, and in(v) when v is used; in(v)
reaches out(pred[v]) when v is used and, its one arc, out(v) when v is
free, in the step that reaches in(v).  A vertex of `excluded` is never
used, so it is uncut; a run of them on a path is stored as one step, an
edge of `saturate(G, excluded)`.  Swap in- and out-states and read `succ`
for `pred`, and the same rules give the reversed residual graph.  So one
traversal, `_grow`, runs both ways: a forward side from the sources'
out-states and a backward side from the sinks' in-states, each in its own
coordinates and built by `_side`.

An augmenting search, `_search`, grows the side with the smaller frontier
until it is the larger one, and splices the two sides at the first state
both reach (Pohl 1971): on a sparse random graph with far-apart ends
they meet early, and on a band they reach what one side would.  `_cut`
reads a cut off a finished side: the vertices v with in(v) reached and
out(v) not, in the side's own coordinates.

After a maximum flow, the minimum cuts are exactly the state sets C that
contain the sources' out-states, avoid every in(sink) and are closed under
those residual arcs (Picard & Queyranne 1980).  The closest cut is the
least such set: the forward side of the final, failed search, finished.
The furthest cut is the least one of the reversed flow: the backward
side, finished, holds in(v) in its coordinates exactly when out(v)
reaches an in(sink).  The failed search ends when either side dies, and
each cut query finishes only the side it reads, at most O(n + m).
`closest_cut_with(include, excluded)` answers one constrained query with
one more, one-sided search and no further flow: it seeds in(i) for every
i in `include`, adds the arc in(e) -> out(e) for every e in `excluded`
(e is not cut), and fails when it reaches an in(sink) or an out(i).  Each
constraint is an implication between states, so the feasible sets still
form a lattice and the least one is the closest feasible cut.

A module-level counter tracks max-flow invocations so that delay
bounds can be checked externally.
"""

from collections import namedtuple
from itertools import compress, count, islice

from .errors import AlreadySeparated, SepenumError, TerminalsAdjacent
from .graph import (
    Graph,
    Separator,
    Terminals,
    _check_avoids_terminals,
    _require_apart,
    _require_ids,
    canonical,
)

_flow_calls = 0


def flow_call_count() -> int:
    """Total max-flow computations performed so far in this process."""
    return _flow_calls


class _Side:
    """One side of a residual search, in its own coordinates.

    seen[x] is -2 while state x is unseen, -3 for a state the side never
    enters, -1 for a seed and otherwise the state x was reached from.
    `queue` lists the reached states in BFS order, but a free vertex's
    in-state stands unqueued behind its out-state; the first `head` are
    expanded, and `rest` iterates over the others.  `link` is `pred`
    forward and `succ` backward; each search starts at `seeds`.
    """

    __slots__ = ("seen", "link", "seeds", "queue", "head", "rest")

    def __init__(self, seen: list[int], link: list[int], seeds: list[int]):
        self.seen, self.link, self.seeds, self.queue, self.head = seen, link, seeds, [], 0
        self.rest = iter(self.queue)

    def start(self, seeds) -> None:
        """Forget the last search, in O(states it reached), and seed anew."""
        seen = self.seen
        for x in self.queue:
            seen[x] = -2
            if x & 1 and seen[x - 1] >= -1:  # an in-state a hop left unqueued, never a -3
                seen[x - 1] = -2
        for x in seeds:
            seen[x] = -1
        self.queue, self.head = list(seeds), 0
        self.rest = iter(self.queue)


class FlowNetwork:
    """Flow state for one (source-set, sink-set) cut computation.

    Scratch structure: create, run max_flow once, then query cuts/paths.
    Vertices in `removed`, never a sink, are absent; those in `excluded`,
    never an end or removed, are uncut.  Raises TerminalsAdjacent if a
    sink is a source or next to one, or to an excluded vertex joined to one.

    `flow` is an optional starting flow, such as a parent's paths, passed
    unchanged.  The one warm-start rule drops each path through a removed
    vertex, starts each other one at its last leading source, ends it at
    its first sink and splices out the excluded vertices; the rest must be
    a flow of G with `excluded` saturated.  max_flow then only augments,
    to a cold start's value and cuts, since every maximum flow leaves the
    same vertices residual-reachable.
    """

    def __init__(self, G: Graph, sources, sinks, removed=(), flow=(), excluded=()):
        self.G, self.adj = G, G.adj
        removed = self._removed = set(removed)
        _require_ids(G, removed)
        sink_set = self.sinks = set(sinks)
        if not sink_set.isdisjoint(removed):
            raise SepenumError(f"vertex {G.labels[min(sink_set & removed)]!r} is removed")
        source_set = set(sources) - removed
        self.sources = sorted(source_set)
        excluded, joined = self._excluded, self._joined = set(excluded), set()
        if excluded:  # joined: those the sources reach through excluded vertices
            _check_avoids_terminals(G, (*self.sources, *sink_set, *removed), excluded)
            frontier = source_set
            while frontier:
                frontier = set().union(*[G.adj[v] for v in frontier]) & excluded - joined
                joined |= frontier
        _require_apart(G, source_set | joined, sink_set)
        pred = self.pred = [-1] * G.n
        succ = self.succ = [-1] * G.n
        # The backward side may step into out(source), where it meets the
        # forward side: one that dies has found no path, however early.
        self._fwd = self._side(self.sources, pred)
        self._bwd = self._side(sink_set, succ)
        self.value = 0
        self._ran = False
        is_sink = sink_set.__contains__
        for path in flow:  # the warm-start rule, then link the inner vertices
            if not removed.isdisjoint(path):
                continue
            i = 1  # path[i - 1] is the last leading source
            while path[i] in source_set:
                i += 1
            path = path[i - 1:next(compress(count(1), map(is_sink, path)))]
            path = [v for v in path if v not in excluded] if excluded else path
            assert path[0] in source_set
            for u, w, x in zip(path, path[1:-1], path[2:]):
                assert w not in source_set and pred[w] < 0
                assert w in G.adj[u] or self._is_spliced(u, w)
                pred[w], succ[w] = u, x
            assert path[-1] in G.adj[path[-2]] or self._is_spliced(path[-2], path[-1])
            self.value += 1

    def _is_spliced(self, u: int, w: int) -> bool:  # both ends touch an excluded vertex
        return bool(self._excluded & self.adj[u] and self._excluded & self.adj[w])

    def _side(self, ends, link: list[int]) -> _Side:
        """A new side from `ends`, in its own coordinates: it never enters
        the in-state of an end or a removed vertex, and seeds only the ends
        with a neighbour outside those.  Its searches cost a sink set's
        boundary; setting it up is linear in the set."""
        adj, blocked = self.adj, self._removed.union(ends)
        seen = [-2] * (2 * len(adj))
        for v in blocked:
            seen[2 * v] = -3
        return _Side(seen, link, [2 * v + 1 for v in ends if not adj[v] <= blocked])

    def _grow(self, side: _Side, theirs: list[int], limit=None, uncut=()) -> int:
        """The residual BFS: expand `side` over the arcs its `link` gives,
        in rounds, until its frontier holds more than `limit` states or it
        dies (only the latter when `limit` is None).  Return the first
        state it reaches that `theirs`, a `seen` list in the swapped
        coordinates, holds, or -1.

        A round expands as many states as the side holds, so it finishes
        the current BFS level, and a side that crosses a long, narrow graph
        does so in a logarithmic number of rounds.  A step into a free in(w)
        goes on to out(w) and queues out(w) alone.  It lets in(e) step to
        out(e) for every e in `uncut` even when e is used.
        """
        adj, link, seen, queue, rest = (
            self.adj, side.link, side.seen, side.queue, side.rest)
        head = side.head
        if limit is None:
            limit = len(seen)
        while head < len(queue):
            end = head + len(queue)
            for x in islice(rest, len(queue)):
                v = x >> 1
                if x & 1:
                    for w in adj[v]:
                        y = 2 * w
                        if seen[y] == -2:
                            seen[y] = x
                            if link[w] < 0:  # free: on to out(w), its one arc
                                seen[y + 1] = y
                                queue.append(y + 1)
                                if theirs[y] >= -1:
                                    return y + 1
                            else:
                                queue.append(y)
                            if theirs[y + 1] >= -1:
                                return y
                    if link[v] < 0:
                        continue
                    y = x - 1
                else:
                    u = link[v]
                    if u < 0:
                        y = x + 1
                    else:
                        if v in uncut and seen[x + 1] == -2:
                            seen[x + 1] = x
                            queue.append(x + 1)
                            if theirs[x] >= -1:
                                return x + 1
                        y = 2 * u + 1
                if seen[y] == -2:
                    seen[y] = x
                    queue.append(y)
                    if theirs[y ^ 1] >= -1:
                        return y
            head = min(end, len(queue))
            if len(queue) - head > limit:
                break
        side.head = head
        return -1

    def _search(self) -> int:
        """One augmenting search from both ends: the side with the smaller
        frontier grows until its frontier is the larger one, then the other
        side takes over, until the sides meet.  Return the meeting state,
        or -1 when a side dies, which leaves that side finished and the
        other one partial."""
        fwd, bwd = self._fwd, self._bwd
        fwd.start(fwd.seeds)
        bwd.start(bwd.seeds)
        while True:
            if len(fwd.queue) - fwd.head <= len(bwd.queue) - bwd.head:
                side, other = fwd, bwd
            else:
                side, other = bwd, fwd
            if side.head == len(side.queue):
                return -1
            met = self._grow(side, other.seen, len(other.queue) - other.head)
            if met >= 0:
                return met if side is fwd else met ^ 1

    def _cut(self, side: _Side) -> Separator:
        """The vertices whose in-state the finished side reached and whose
        out-state it did not, in the side's coordinates: never a free one."""
        seen = side.seen
        cut = sorted(x >> 1 for x in side.queue if not x & 1 and seen[x + 1] == -2)
        assert len(cut) == self.value
        return tuple(cut)

    def _augment(self, met: int) -> None:
        # The path runs from a seed out(source) along the forward side's
        # parents to `met`, then along the backward side's to in(sink), so
        # its states alternate out, in, out, ..., in.  Each out(u) -> in(w)
        # step sets the flow edge u -> w, and one from out(w) back to in(w)
        # frees w.  Every pred/succ slot the path cancels is rewritten by
        # exactly one such step; pred[sink] is never read.
        fseen, bseen = self._fwd.seen, self._bwd.seen
        path, x = [], met
        while x >= 0:
            path.append(x)
            x = fseen[x]
        path.reverse()
        x = bseen[met ^ 1]
        while x >= 0:
            path.append(x ^ 1)
            x = bseen[x]
        if excluded := self._excluded:  # always free: in(e), out(e) in a row
            path = [x for x in path if x >> 1 not in excluded]
        pred, succ = self.pred, self.succ
        steps = iter(path)
        for x, y in zip(steps, steps):
            u, w = x >> 1, y >> 1
            if u == w:
                pred[w] = succ[w] = -1
            else:
                succ[u] = w
                pred[w] = u

    def max_flow(self) -> int:
        """Augment along paths from searches grown from both ends until
        the sinks are cut off; the final, failed search stays for the cuts."""
        global _flow_calls
        assert not self._ran
        self._ran = True
        _flow_calls += 1
        while (met := self._search()) >= 0:
            self._augment(met)
            self.value += 1
        return self.value

    def closest_cut(self) -> Separator:
        """Minimum cut with inclusion-minimal source side: the forward side
        of max_flow's final, failed search, finished."""
        assert self._ran
        self._grow(self._fwd, self._bwd.seen)
        return self._cut(self._fwd)

    def closest_cut_with(self, include=(), excluded=()) -> Separator | None:
        """Closest minimum cut that contains `include` and avoids
        `excluded`, or None when no minimum cut does.

        Run after max_flow.  One forward search from the sources'
        out-states and every in(i), i in `include`, that may also step from
        in(e) to out(e) for every e in `excluded`; it is infeasible exactly
        when it reaches an in(sink) or out(i) for some i in `include`,
        which it marks as the states of an unmoving other side.
        """
        assert self._ran
        _check_avoids_terminals(self.G, (*self.sources, *self.sinks), include)
        _require_ids(self.G, excluded)
        include = set(include)  # in(i) is seeded once, so `_cut` reads i once
        side = self._side(self.sources, self.pred)
        side.start([*side.seeds, *(2 * i for i in include)])
        infeasible = [-2] * len(side.seen)  # in the swapped coordinates
        for x in (*self._bwd.seeds, *(2 * i for i in include)):
            infeasible[x] = -1
        if self._grow(side, infeasible, uncut=set(excluded)) >= 0:
            return None
        return self._cut(side)

    def furthest_cut(self) -> Separator:
        """Minimum cut with inclusion-maximal source side.

        The closest cut of the reversed flow: the backward side of
        max_flow's final, failed search, finished, reaches in(v) in its
        swapped coordinates exactly when out(v) reaches an in(sink) in the
        flow.
        """
        assert self._ran
        self._grow(self._bwd, self._fwd.seen)
        return self._cut(self._bwd)

    def disjoint_paths(self) -> list[list[int]]:
        """The flow as internally vertex-disjoint source-to-sink paths,
        each ending at its first sink; a spliced first step ends next to
        a joined excluded vertex."""
        pred, succ, sinks = self.pred, self.succ, self.sinks
        paths = []
        for s in self.sources:
            for w in sorted(self.adj[s].union(*[self.adj[e] for e in self._joined])):
                if pred[w] == s:
                    path = [s, w]
                    while w not in sinks:
                        w = succ[w]
                        path.append(w)
                    paths.append(path)
        assert len(paths) == self.value
        return paths


# The s,t-connectivity, a minimum separator and a maximum family of
# internally vertex-disjoint s,t-paths, as lists of vertex ids.
CutResult = namedtuple("CutResult", "kappa separator disjoint_paths")


def _min_cut(G: Graph, sources, sinks, removed=(), flow=(), excluded=()) -> FlowNetwork:
    net = FlowNetwork(G, sources, sinks, removed, flow, excluded)
    net.max_flow()
    return net


def _terminal_flow(G: Graph, term: Terminals) -> FlowNetwork:
    """Maximum s,t-flow; the terminals must be neither adjacent nor separated."""
    net = _min_cut(G, (term.s,), (term.t,))
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


def min_separator_containing(G: Graph, term: Terminals, I) -> Separator | None:
    """A minimum s,t-separator containing I, or None if there is none.

    One maximum flow, then the closest minimum cut that contains I (see
    `FlowNetwork.closest_cut_with`).
    """
    members = canonical(I)
    _check_avoids_terminals(G, term, members)
    return _min_cut(G, (term.s,), (term.t,)).closest_cut_with(members)


def min_separator_excluding(G: Graph, term: Terminals, U) -> Separator | None:
    """Smallest minimal s,t-separator avoiding U, or None when U joins s to
    t: the closest minimum cut of G with U uncut (see `FlowNetwork`)."""
    _require_apart(G, {term.s}, {term.t})
    try:
        return _min_cut(G, (term.s,), (term.t,), excluded=U).closest_cut()
    except TerminalsAdjacent:
        return None
