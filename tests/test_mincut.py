import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sepenum as sp
from sepenum.errors import AlreadySeparated, TerminalsAdjacent
from sepenum.graph import Graph, Terminals, parse_graph
from sepenum.mincut import FlowNetwork, flow_call_count

from conftest import (
    DIAMOND,
    P4,
    THETA,
    band,
    nonadjacent_pairs,
    random_connected_graph,
    random_graph,
)


def test_kappa_examples():
    cut = sp.kappa(P4.graph, P4.terminals)
    assert (cut.kappa, cut.separator) == (1, (1,))
    cut = sp.kappa(DIAMOND.graph, DIAMOND.terminals)
    assert (cut.kappa, cut.separator) == (2, (1, 2))
    cut = sp.kappa(THETA.graph, THETA.terminals)
    assert (cut.kappa, cut.separator) == (2, (1, 3))


def test_kappa_errors():
    with pytest.raises(TerminalsAdjacent):
        sp.kappa(parse_graph("s t"), Terminals(0, 1))
    with pytest.raises(AlreadySeparated):
        sp.kappa(parse_graph("s a\nt b"), Terminals(0, 2))


def test_kappa_menger_on_random_graphs():
    for seed in range(40):
        g = random_connected_graph(5 + seed % 6, (0.2, 0.35, 0.5)[seed % 3], 500 + seed)
        for term in nonadjacent_pairs(g):
            cut = sp.kappa(g, term)
            brute_min = sp.brute_minimum_separators(g, term)
            assert cut.kappa == min(len(X) for X in brute_min)
            assert len(cut.separator) == cut.kappa == len(cut.disjoint_paths)
            assert sp.is_minimal_separator(g, term, cut.separator)
            for path in cut.disjoint_paths:
                assert path[0] == term.s and path[-1] == term.t
                assert all(g.has_edge(a, b) for a, b in zip(path, path[1:]))
            for p1, p2 in itertools.combinations(cut.disjoint_paths, 2):
                assert not set(p1[1:-1]) & set(p2[1:-1])


def _cuts(g, sources, sink):
    """The closest and the furthest minimum cut, after _check_flow."""
    net = _check_flow(g, set(sources), sink, set())
    return net.closest_cut(), net.furthest_cut()


def test_flow_network_cut_examples():
    assert _cuts(P4.graph, (0,), 3) == ((1,), (2,))
    assert _cuts(THETA.graph, (0,), 2)[1] == (1, 4)


def test_flow_network_adjacent_sink_and_value_zero():
    with pytest.raises(TerminalsAdjacent, match="'a' is in the closed neighbourhood of s"):
        FlowNetwork(P4.graph, (0,), 1)
    net = _check_flow(parse_graph("s a\nt b"), {0}, 2, set())
    assert (net.value, net.closest_cut(), net.furthest_cut()) == (0, (), ())


def test_flow_network_rejects_a_sink_in_the_sources_closed_neighbourhood():
    g = THETA.graph  # s-a-t and s-b-c-t: s=0, a=1, t=2, b=3, c=4
    with pytest.raises(TerminalsAdjacent, match="'t' is in the closed neighbourhood of s,c"):
        FlowNetwork(g, (0, 4), 2)
    with pytest.raises(TerminalsAdjacent, match="'t' is in the closed neighbourhood of t,b"):
        FlowNetwork(g, (3, 2), 2)
    # a removed source is no source: without c, {s} and t are apart
    assert FlowNetwork(g, (0, 4), 2, removed=(4,)).max_flow() == 1


def test_both_cut_sides_are_minimal_and_minimum():
    for seed in range(25):
        g = random_connected_graph(5 + seed % 5, 0.4, 600 + seed)
        for term in nonadjacent_pairs(g):
            k = sp.kappa(g, term).kappa
            for cut in _cuts(g, (term.s,), term.t):
                assert len(cut) == k
                assert sp.is_minimal_separator(g, term, cut)


def test_flow_network_set_source_cuts_match_brute():
    for seed in range(12):
        g = random_connected_graph(7, 0.35, 2000 + seed)
        t = g.n - 1
        for A in itertools.combinations(range(g.n - 1), 2):
            amask = set(A) | set().union(*(g.neighbors(a) for a in A))
            if t in amask:
                continue
            free = [v for v in range(g.n) if v != t and v not in A]
            best = None
            for r in range(len(free) + 1):
                cuts = [
                    X
                    for X in itertools.combinations(free, r)
                    if all(
                        t not in sp.component_of(g, X, a) for a in A
                    )
                ]
                if cuts:
                    best = cuts
                    break
            assert best is not None  # g is connected, so some cut exists
            closest, furthest = _cuts(g, A, t)
            assert closest in best and furthest in best
            # the two sides bracket every minimum cut's A-side component
            def a_side(X):
                reach = set()
                for a in A:
                    reach |= sp.component_of(g, X, a)
                return reach
            lo, hi = a_side(closest), a_side(furthest)
            for X in best:
                assert lo <= a_side(X) <= hi


def test_min_separator_containing_examples():
    d = DIAMOND.graph
    assert sp.min_separator_containing(d, DIAMOND.terminals, (1,)) == (1, 2)
    assert sp.min_separator_containing(P4.graph, P4.terminals, (1, 2)) is None
    assert sp.min_separator_containing(P4.graph, P4.terminals, ()) == (1,)
    assert sp.min_separator_containing(THETA.graph, THETA.terminals, ()) == (1, 3)
    apart = parse_graph("s a\nt b")
    assert sp.min_separator_containing(apart, Terminals(0, 2), ()) == ()
    assert sp.min_separator_containing(apart, Terminals(0, 2), (1,)) is None


@pytest.mark.parametrize("fixture", [THETA, DIAMOND], ids=lambda f: f.name)
def test_min_separator_containing_runs_one_flow(fixture):
    g, term = fixture.graph, fixture.terminals
    inner = [v for v in range(g.n) if v not in term]
    for r in (0, 1, 2):
        for I in itertools.combinations(inner, r):
            before = flow_call_count()
            sp.min_separator_containing(g, term, I)
            assert flow_call_count() == before + 1


def test_vertex_include_characterization():
    # a vertex lies in some minimum separator exactly when removing it
    # drops the connectivity by one
    for seed in range(25):
        g = random_connected_graph(5 + seed % 6, 0.35, 700 + seed)
        for term in nonadjacent_pairs(g):
            minimum = sp.brute_minimum_separators(g, term)
            for v in range(g.n):
                if v in term:
                    continue
                got = sp.min_separator_containing(g, term, (v,))
                assert (got is not None) == any(v in X for X in minimum)
                if got is not None:
                    assert v in got and got in minimum


def test_min_separator_excluding_examples():
    assert sp.min_separator_excluding(P4.graph, P4.terminals, (1,)) == (2,)
    assert sp.min_separator_excluding(DIAMOND.graph, DIAMOND.terminals, (1,)) is None
    assert sp.min_separator_excluding(P4.graph, P4.terminals, ()) == (1,)
    separated = parse_graph("s a\nt b")
    assert sp.min_separator_excluding(separated, Terminals(0, 2), ()) == ()
    with pytest.raises(TerminalsAdjacent):
        sp.min_separator_excluding(parse_graph("s t\ns a\na t"), Terminals(0, 1), ())


def test_min_separator_excluding_against_brute():
    for seed in range(25):
        g = random_connected_graph(5 + seed % 5, 0.35, 800 + seed)
        for term in nonadjacent_pairs(g):
            family = sp.brute_minimal_separators(g, term)
            for r in (0, 1, 2):
                for U in itertools.combinations(
                    [v for v in range(g.n) if v not in term], r
                ):
                    viable = {X for X in family if not set(X) & set(U)}
                    got = sp.min_separator_excluding(g, term, U)
                    if viable:
                        assert got in viable
                        assert len(got) == min(len(X) for X in viable)
                    else:
                        assert got is None


def test_no_minimal_separator_contains_a_simplicial_vertex():
    # after saturating u, its closed neighborhood is a clique and u can
    # no longer appear in any minimal separator
    for seed in range(15):
        g = random_connected_graph(7, 0.4, 900 + seed)
        for term in nonadjacent_pairs(g):
            for u in range(g.n):
                if u in term:
                    continue
                sat = sp.saturate(g, (u,))
                assert all(
                    u not in X for X in sp.brute_minimal_separators(sat, term)
                )


def test_flow_network_counter_increments():
    before = flow_call_count()
    net = FlowNetwork(P4.graph, (0,), 3)
    assert net.max_flow() == 1
    assert flow_call_count() == before + 1
    assert net.closest_cut() == (1,) and net.furthest_cut() == (2,)


def _check_flow(g, sources, sink, removed, flow=()) -> FlowNetwork:
    """Run the kernel and check its cuts and paths against each other."""
    net = FlowNetwork(g, sources, sink, removed, flow)
    value = net.max_flow()
    closest, furthest = net.closest_cut(), net.furthest_cut()
    paths = net.disjoint_paths()
    assert value == len(closest) == len(furthest) == len(paths)

    def source_side(cut):
        side = set()
        for s in sources:
            side |= sp.component_of(g, removed | set(cut), s)
        return side

    # each cut separates, so with as many disjoint paths both are minimum
    for cut in (closest, furthest):
        assert not set(cut) & (removed | sources | {sink})
        assert sink not in source_side(cut)
    assert source_side(closest) <= source_side(furthest)
    for path in paths:
        assert path[0] in sources and path[-1] == sink
        assert len(set(path)) == len(path)
        assert all(g.has_edge(a, b) for a, b in zip(path, path[1:]))
        assert not set(path) & removed
    for p1, p2 in itertools.combinations(paths, 2):
        assert not set(p1[1:-1]) & set(p2[1:-1])
    return net


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_flow_network_on_source_and_removed_sets(data):
    n = data.draw(st.integers(2, 12), label="n")
    p = data.draw(st.sampled_from((0.15, 0.3, 0.5)), label="p")
    g = random_graph(n, p, data.draw(st.integers(0, 10_000), label="seed"))
    sink = data.draw(st.integers(0, n - 1), label="sink")
    far = [v for v in range(n) if v != sink and v not in g.adj[sink]]
    if not far:
        return
    sources = data.draw(st.sets(st.sampled_from(far), min_size=1), label="sources")
    rest = [v for v in range(n) if v != sink and v not in sources]
    removed = data.draw(st.sets(st.sampled_from(rest)) if rest else st.just(set()),
                        label="removed")
    _check_flow(g, sources, sink, removed)


def test_flow_network_frees_a_vertex_a_later_path_crosses_backwards():
    # In this adjacency order the first path is 0-5-8-17-20-13-21; the
    # second runs 0-12-11-15-10-2-13, back through 20 to 17, then on to
    # 19-6-21, and so takes 20 out of the flow.  Random graphs this small
    # rarely do that.
    g = Graph(22, [(0, 5), (0, 12), (1, 20), (2, 10), (2, 13), (2, 14), (4, 8),
                   (5, 8), (6, 19), (6, 21), (8, 14), (8, 17), (9, 15), (10, 15),
                   (11, 12), (11, 15), (13, 20), (13, 21), (14, 20), (16, 19),
                   (17, 19), (17, 20), (18, 21)])
    net = FlowNetwork(g, (0,), 21)
    used = []
    augment = net._augment
    def recording_augment(met):
        augment(met)
        used.append(net.pred[20] >= 0)
    net._augment = recording_augment
    assert net.max_flow() == 2 and used == [True, False]
    assert _check_flow(g, {0}, 21, set()).disjoint_paths() == [
        [0, 5, 8, 17, 19, 6, 21], [0, 12, 11, 15, 10, 2, 13, 21]]


def test_a_backward_side_that_dies_first_still_meets_a_source():
    # From in(5) the backward side reaches out(1), in(1) and then out(4), a
    # source's out-state that the forward side holds as a seed before it
    # has grown at all.  A backward side that could not enter out(4) would
    # die there and report no path, value 0.
    g = Graph(6, [(0, 2), (1, 4), (1, 5), (2, 4)])
    net = _check_flow(g, {2, 4}, 5, set())
    assert net.value == 1
    assert net.closest_cut() == net.furthest_cut() == (1,)
    assert net.disjoint_paths() == [[4, 1, 5]]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_flow_network_from_part_of_a_max_flow(data):
    # Start from some of the paths of a cold maximum flow, in the same graph
    # or in one with extra edges and extra removed vertices, dropping the
    # paths through those: the value and both cuts are the cold start's.
    n = data.draw(st.integers(3, 12), label="n")
    p = data.draw(st.sampled_from((0.15, 0.3, 0.5)), label="p")
    g = random_graph(n, p, data.draw(st.integers(0, 10_000), label="seed"))
    sink = data.draw(st.integers(0, n - 1), label="sink")
    far = [v for v in range(n) if v != sink and v not in g.adj[sink]]
    if not far:
        return
    sources = data.draw(st.sets(st.sampled_from(far), min_size=1), label="sources")
    base = FlowNetwork(g, sources, sink)
    base.max_flow()
    paths = base.disjoint_paths()
    kept = data.draw(st.sets(st.sampled_from(range(len(paths))))
                     if paths else st.just(set()), label="kept")
    inner = [v for v in range(n) if v != sink and v not in sources]
    removed = data.draw(st.sets(st.sampled_from(inner)) if inner else st.just(set()),
                        label="removed")
    pairs = list(itertools.combinations(range(n), 2))
    extra = data.draw(st.lists(st.sampled_from(pairs), max_size=4), label="edges")
    h = Graph(n, [*g.edges(), *extra], g.labels)
    if not h.adj[sink].isdisjoint(sources):
        return
    start = [paths[i] for i in sorted(kept) if removed.isdisjoint(paths[i])]
    warm = _check_flow(h, sources, sink, removed, start)
    cold = FlowNetwork(h, sources, sink, removed)
    assert warm.value == cold.max_flow()
    assert warm.closest_cut() == cold.closest_cut()
    assert warm.furthest_cut() == cold.furthest_cut()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_removing_a_furthest_cut_vertex_leaves_the_rest_of_the_cut(data):
    # The lemma behind the flow-free "join" branch of important._candidates:
    # for v in the furthest minimum cut C, the network with v removed too has
    # value one less and furthest cut exactly C minus v.
    n = data.draw(st.integers(2, 12), label="n")
    p = data.draw(st.sampled_from((0.15, 0.3, 0.5)), label="p")
    g = random_graph(n, p, data.draw(st.integers(0, 10_000), label="seed"))
    sink = data.draw(st.integers(0, n - 1), label="sink")
    far = [v for v in range(n) if v != sink and v not in g.adj[sink]]
    if not far:
        return
    sources = data.draw(st.sets(st.sampled_from(far), min_size=1), label="sources")
    rest = [v for v in range(n) if v != sink and v not in sources]
    removed = data.draw(st.sets(st.sampled_from(rest)) if rest else st.just(set()),
                        label="removed")
    net = FlowNetwork(g, sources, sink, removed)
    value = net.max_flow()
    cut = net.furthest_cut()
    for v in cut:
        smaller = FlowNetwork(g, sources, sink, removed | {v})
        assert smaller.max_flow() == value - 1
        assert smaller.furthest_cut() == tuple(w for w in cut if w != v)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_closest_cut_with_is_the_closest_constrained_minimum_separator(data):
    # Against the oracle: None exactly when no minimum separator contains
    # `include` and avoids `excluded`, else one that does and whose s-side
    # lies inside the s-side of every other that does.
    n = data.draw(st.integers(3, 11), label="n")
    p = data.draw(st.sampled_from((0.25, 0.4, 0.6)), label="p")
    g = random_graph(n, p, data.draw(st.integers(0, 10_000), label="seed"))
    pairs = nonadjacent_pairs(g)
    if not pairs:
        return
    term = data.draw(st.sampled_from(pairs), label="term")
    net = FlowNetwork(g, (term.s,), term.t)
    if net.max_flow() == 0:
        return
    assert net.closest_cut_with() == net.closest_cut()
    inner = [v for v in range(n) if v not in term]
    include = data.draw(st.sets(st.sampled_from(inner), max_size=3), label="include")
    rest = [v for v in inner if v not in include]
    excluded = data.draw(st.sets(st.sampled_from(rest), max_size=4)
                         if rest else st.just(set()), label="excluded")
    feasible = [X for X in sp.brute_minimum_separators(g, term)
                if include <= set(X) and excluded.isdisjoint(X)]
    closest, furthest = net.closest_cut(), net.furthest_cut()
    got = net.closest_cut_with(include, excluded)
    assert net.closest_cut() == closest and net.furthest_cut() == furthest
    if not feasible:
        assert got is None
        return
    assert got in feasible
    side = sp.component_of(g, got, term.s)
    assert all(side <= sp.component_of(g, X, term.s) for X in feasible)


def test_a_maximum_starting_flow_needs_no_augmenting_search():
    g, term = band(4, 12)
    cold = FlowNetwork(g, (term.s,), term.t)
    assert cold.max_flow() == 4
    warm = FlowNetwork(g, (term.s,), term.t, flow=cold.disjoint_paths())
    found = []
    search = warm._search
    def counted_search():
        found.append(search())
        return found[-1]
    warm._search = counted_search
    assert warm.max_flow() == 4
    assert found == [-1] and warm._fwd.seen[2 * term.t] == -2
    assert warm.closest_cut() == cold.closest_cut()
    assert warm.furthest_cut() == cold.furthest_cut()
    assert warm.disjoint_paths() == cold.disjoint_paths()


def _two_hamiltonian_cycles(n: int, seed: int) -> tuple[Graph, Terminals]:
    """A random 4-regular graph, the union of two random Hamiltonian cycles
    that share no edge, with s a random vertex and t the vertex farthest
    from it."""
    rng = random.Random(seed)
    while True:
        edges = set()
        for _ in range(2):
            order = rng.sample(range(n), n)
            edges.update((min(u, v), max(u, v)) for u, v in zip(order, order[1:] + order[:1]))
        if len(edges) == 2 * n:
            break
    g = Graph(n, edges)
    s = rng.randrange(n)
    dist, frontier, d = {s: 0}, [s], 0
    while frontier:
        d += 1
        frontier = [w for v in frontier for w in g.adj[v] if w not in dist]
        dist.update(dict.fromkeys(frontier, d))
    return g, Terminals(s, max(range(n), key=lambda v: (dist[v], -v)))


def test_augmenting_searches_reach_a_small_part_of_a_sparse_random_graph():
    # With t as far from s as it gets, a search grown from s alone fills
    # nearly all 2n split states before it reaches t, about 7.9 n over the
    # whole flow.  Grown from both ends, the two sides meet early.
    n = 20_000
    g, term = _two_hamiltonian_cycles(n, 7)
    net = FlowNetwork(g, (term.s,), term.t)
    reached = []
    search = net._search
    def counted_search():
        met = search()
        reached.append(len(net._fwd.queue) + len(net._bwd.queue))
        return met
    net._search = counted_search
    assert net.max_flow() == 4 and len(reached) == 5
    assert sum(reached) < n
    assert net.closest_cut() == tuple(sorted(g.adj[term.s]))
    assert net.furthest_cut() == tuple(sorted(g.adj[term.t]))


def test_kappa_on_a_long_cycle():
    n = 3000
    g = Graph(n, [(v, (v + 1) % n) for v in range(n)])
    cut = sp.kappa(g, Terminals(0, n // 2))
    assert cut.kappa == 2 and len(cut.disjoint_paths) == 2
    assert set().union(*cut.disjoint_paths) == set(range(n))


def test_flow_and_both_cuts_agree_with_networkx_past_the_oracles():
    # Random 4-regular graphs far beyond the n <= 16 of the oracles: the
    # flow value is networkx's local vertex connectivity, both canonical
    # cuts separate, and the closest cut's s-side lies in the furthest's.
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.connectivity import (
        build_auxiliary_node_connectivity,
        local_node_connectivity,
    )
    for n, pairs in ((50, 12), (500, 8), (5000, 6)):
        nxg = nx.random_regular_graph(4, n, seed=n)
        g = Graph(n, nxg.edges())
        aux = build_auxiliary_node_connectivity(nxg)
        rng = random.Random(n)
        for _ in range(pairs):
            s, t = rng.sample(range(n), 2)
            while t in g.adj[s]:
                s, t = rng.sample(range(n), 2)
            term = Terminals(s, t)
            net = FlowNetwork(g, (s,), t)
            assert net.max_flow() == local_node_connectivity(nxg, s, t, auxiliary=aux)
            closest, furthest = net.closest_cut(), net.furthest_cut()
            assert sp.is_separator(g, term, closest) and sp.is_separator(g, term, furthest)
            assert sp.component_of(g, closest, s) <= sp.component_of(g, furthest, s)


def _networkx_flow_and_cuts(nx, g: Graph, s: int, t: int):
    """The flow value and both canonical cuts from networkx's own maximum
    flow on the split digraph: (v, 0) -> (v, 1) of capacity one for every
    inner v, (u, 1) -> (v, 0) uncapacitated for every edge uv, and the cuts
    read off its residual network."""
    from networkx.algorithms.flow import edmonds_karp
    D = nx.DiGraph()
    for v in range(g.n):
        D.add_edge((v, 0), (v, 1), **({} if v in (s, t) else {"capacity": 1}))
    for u, v in g.edges():
        D.add_edge((u, 1), (v, 0))
        D.add_edge((v, 1), (u, 0))
    R = edmonds_karp(D, (s, 1), (t, 0))
    H = nx.DiGraph((a, b) for a, b, arc in R.edges(data=True)
                   if arc["flow"] < arc["capacity"])
    H.add_nodes_from(D)
    near = nx.descendants(H, (s, 1)) | {(s, 1)}
    far = nx.ancestors(H, (t, 0)) | {(t, 0)}
    closest = tuple(v for v in range(g.n) if (v, 0) in near and (v, 1) not in near)
    furthest = tuple(v for v in range(g.n) if (v, 1) in far and (v, 0) not in far)
    return R.graph["flow_value"], closest, furthest


def _mixed_degree_graph(n: int, seed: int) -> Graph:
    """Connected, with degrees from 1 up: each vertex joins one to six
    random earlier ones."""
    rng = random.Random(seed)
    edges = [(u, v) for v in range(1, n)
             for u in rng.sample(range(v), min(v, rng.choice((1, 1, 2, 3, 4, 5, 6))))]
    return Graph(n, edges)


def test_flow_cuts_and_paths_agree_with_networkx_at_varied_connectivity():
    # Bands B(w, L) with w = 1..6 at n close to 5,000, and graphs of mixed
    # degree up to n = 5,000: the value, both canonical cuts and the paths
    # (checked by _check_flow) against networkx's flow on the split graph.
    nx = pytest.importorskip("networkx")
    cases = []
    for w in range(1, 7):
        g, term = band(w, 4998 // w)
        cases.append((g, term.s, term.t))
    for n, pairs in ((60, 6), (600, 4), (5000, 3)):
        g = _mixed_degree_graph(n, n)
        rng = random.Random(n)
        for _ in range(pairs):
            s, t = rng.sample(range(n), 2)
            while t in g.adj[s]:
                s, t = rng.sample(range(n), 2)
            cases.append((g, s, t))
    values = set()
    for g, s, t in cases:
        net = _check_flow(g, {s}, t, set())
        assert (net.value, net.closest_cut(), net.furthest_cut()) == \
            _networkx_flow_and_cuts(nx, g, s, t)
        values.add(net.value)
    assert values >= set(range(1, 7))
