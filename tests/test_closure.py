"""`FlowNetwork.closest_cut_with` against a plain residual BFS.

The reference below is written from the definition of the residual graph
of a vertex-capacity flow, with named states and no reach vectors: after a
maximum flow, the minimum cuts are the closed sets of the residual graph
that hold the sources' out-states and no in(sink) (Picard & Queyranne
1980), and a constraint is one more seed or arc.
"""

import random
from collections import deque

from sepenum.errors import TerminalsAdjacent
from sepenum.mincut import FlowNetwork

from conftest import band, grid, random_graph


def residual_closure(net: FlowNetwork, include=(), excluded=()):
    """The closest minimum cut of `net`, after max_flow, that contains
    `include` and avoids `excluded`, or None.  It is read off the least
    state set that holds out(s) for every source and in(i) for every i in
    `include` and is closed under the residual arcs and in(e) -> out(e)
    for every e in `excluded`; there is none when that set holds an
    in(sink) or an out(i)."""
    adj, pred, sinks = net.adj, net.pred, net.sinks
    sources = set(net.sources)
    no_in_state = sources | net._removed  # a source's in-state is never entered
    used = {v for v in range(len(adj))
            if pred[v] >= 0 and v not in sources and v not in sinks}
    uncut = set(excluded)

    def arcs(state):
        kind, v = state
        if kind == "out":
            yield from (("in", w) for w in adj[v] if w not in no_in_state)
            if v in used:  # the reverse of its saturated in -> out arc
                yield "in", v
        else:
            if v in used:  # the reverse of the flow edge into v
                yield "out", pred[v]
            if v not in used or v in uncut:
                yield "out", v

    seeds = [("out", s) for s in sources] + [("in", i) for i in include]
    reached, queue = set(seeds), deque(seeds)
    while queue:
        for y in arcs(queue.popleft()):
            if y not in reached:
                reached.add(y)
                queue.append(y)
    if any(("in", t) in reached for t in sinks) or any(("out", i) in reached for i in include):
        return None
    return tuple(sorted(v for kind, v in reached if kind == "in" and ("out", v) not in reached))


def _networks(seed_base: int, count: int):
    """Seeded networks after max_flow, n up to 300: bands, grids and sparse
    random graphs, from one or several sources to one or several sinks,
    some with removed and some with excluded vertices."""
    rng = random.Random(seed_base)
    made = 0
    while made < count:
        shape = rng.randrange(4)
        if shape == 0:
            g, term = band(rng.randint(2, 5), rng.randint(3, 60))
        elif shape == 1:
            g, term = grid(rng.randint(3, 17))
        else:
            n = rng.randint(10, 300)
            g = random_graph(n, rng.uniform(2.0, 5.0) / n, rng.randrange(10**6))
            term = None
        vertices = list(range(g.n))
        rng.shuffle(vertices)
        if term is not None and rng.random() < 0.5:
            sources, sinks = [term.s], [term.t]
        else:
            sources, sinks = vertices[:rng.randint(1, 3)], vertices[3:3 + rng.randint(1, 3)]
        rest = [v for v in vertices[6:] if v not in sources and v not in sinks]
        removed = rest[:rng.randint(0, g.n // 10)] if rng.random() < 0.4 else []
        rest = rest[len(removed):]
        network_excluded = rest[:rng.randint(1, g.n // 8 + 1)] if rng.random() < 0.4 else []
        try:
            net = FlowNetwork(g, sources, sinks, removed, excluded=network_excluded)
        except TerminalsAdjacent:
            continue
        if net.max_flow() == 0:
            continue
        made += 1
        yield net, rng


def _constraints(net: FlowNetwork, rng: random.Random):
    """Include and excluded sets drawn from the flow paths, the two
    canonical cuts and the whole graph, a few of each."""
    ends = set(net.sources) | net.sinks
    on_paths = [v for path in net.disjoint_paths() for v in path[1:-1]]
    cuts = [*net.closest_cut(), *net.furthest_cut()]
    anywhere = [v for v in range(len(net.adj)) if v not in ends]
    for _ in range(4):
        pool = rng.choice((on_paths, cuts, on_paths + cuts, anywhere))
        include = set(rng.sample(pool, min(len(pool), rng.randint(0, 3))))
        pool = rng.choice((on_paths, cuts, anywhere))
        excluded = set(rng.sample(pool, min(len(pool), rng.randint(0, 6)))) - include
        yield include, excluded


def test_closest_cut_with_matches_a_residual_bfs_from_the_definition():
    answers = feasible = restarted = 0
    for net, rng in _networks(2501, 320):
        assert net.closest_cut_with() == residual_closure(net) == net.closest_cut()
        for include, excluded in _constraints(net, rng):
            want = residual_closure(net, include, excluded)
            assert net.closest_cut_with(include, excluded) == want
            answers += 1
            feasible += want is not None
            # started from the answer to a subset of the constraints
            fewer_in = set(rng.sample(sorted(include), rng.randint(0, len(include))))
            fewer_ex = set(rng.sample(sorted(excluded), rng.randint(0, len(excluded))))
            start = net.closest_cut_with(fewer_in, fewer_ex)
            if start is not None:
                assert net.closest_cut_with(include, excluded, start) == want
                restarted += 1
    assert answers > 1200 and 200 < feasible < answers - 200 and restarted > 400


def residual_arcs(net: FlowNetwork):
    """The residual graph of `net` after max_flow, by the arc rules of
    `residual_closure` with nothing uncut, as a map from each named state
    to the states it steps to.  Removed vertices have no states, no arc
    enters a source's out-state, which every closed set holds, and none
    leaves an in(sink), which no feasible one holds."""
    adj, pred, sinks, removed = net.adj, net.pred, net.sinks, net._removed
    sources = set(net.sources)
    used = {v for v in range(len(adj))
            if pred[v] >= 0 and v not in sources and v not in sinks}
    arcs = {}
    for v in range(len(adj)):
        if v in removed:
            continue
        arcs["out", v] = [("in", w) for w in adj[v] if w not in sources and w not in removed]
        if v in used:
            arcs["out", v].append(("in", v))
        step = pred[v] if v in used else v  # back along the flow, or on to out(v)
        arcs["in", v] = [] if v in sinks or step in sources else [("out", step)]
    return arcs, used


def test_reach_vectors_match_a_named_state_bfs():
    # reach[j][x] is the deepest position k of flow path j such that x
    # reaches in(path_j[k]), 0 when there is none, and so the sink's
    # position on every path when x reaches an in(sink).  Checked for both
    # states of every vertex but the ends and the removed ones, on every
    # path: a free vertex's out-state too, which the sweeps reach only
    # through a hop that queues its in-state.
    checked = sinks_reached = free = 0
    for net, _ in _networks(2601, 100):
        net.closest_cut_with()  # sets up the reach vectors
        paths = net.disjoint_paths()
        assert paths == net._paths
        arcs, used = residual_arcs(net)
        ends = set(net.sources) | net.sinks
        positions = {("in", v): [(j, k)] for j, path in enumerate(paths)
                     for k, v in enumerate(path[1:-1], 1)}
        positions.update((("in", t), [(j, len(path) - 1) for j, path in enumerate(paths)])
                         for t in net.sinks)
        for x in range(2 * len(net.adj)):  # in(v) = 2v and out(v) = 2v + 1
            kind, v = ("in", "out")[x & 1], x >> 1
            if v in ends or v in net._removed:
                continue
            reached, queue = {(kind, v)}, deque([(kind, v)])
            while queue:
                for y in arcs[queue.popleft()]:
                    if y not in reached:
                        reached.add(y)
                        queue.append(y)
            want = [0] * len(paths)
            for state in reached:
                for j, k in positions.get(state, ()):
                    want[j] = max(want[j], k)
            assert [R[x] for R in net._reach] == want
            sinks_reached += want[0] == len(paths[0]) - 1
            free += kind == "out" and v not in used
            checked += 1
    assert checked > 25000 and 9000 < sinks_reached < checked - 9000 and free > 9000
