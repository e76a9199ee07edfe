import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sepenum as sp
from sepenum.errors import AlreadySeparated, SepenumError, TerminalsAdjacent
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


def test_min_separator_between_examples():
    g = P4.graph
    assert sp.min_separator_between(g, (0,), 3, "closest") == (1,)
    assert sp.min_separator_between(g, (0,), 3, "furthest") == (2,)
    assert sp.min_separator_between(THETA.graph, (0,), 2, "furthest") == (1, 4)


def test_min_separator_between_errors():
    with pytest.raises(TerminalsAdjacent, match="'a' is in the closed neighbourhood of s"):
        sp.min_separator_between(P4.graph, (0,), 1, "closest")
    with pytest.raises(AlreadySeparated):
        sp.min_separator_between(parse_graph("s a\nt b"), (0,), 2, "closest")
    with pytest.raises(SepenumError, match="side must be 'closest' or 'furthest'"):
        sp.min_separator_between(P4.graph, (0,), 3, "nearest")


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
            for side in ("closest", "furthest"):
                cut = sp.min_separator_between(g, (term.s,), term.t, side)
                assert len(cut) == k
                assert sp.is_minimal_separator(g, term, cut)


def test_min_separator_between_set_source_matches_brute():
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
            for side in ("closest", "furthest"):
                got = sp.min_separator_between(g, A, t, side)
                assert got in best
            # the two sides bracket every minimum cut's A-side component
            def a_side(X):
                reach = set()
                for a in A:
                    reach |= sp.component_of(g, X, a)
                return reach
            lo = a_side(sp.min_separator_between(g, A, t, "closest"))
            hi = a_side(sp.min_separator_between(g, A, t, "furthest"))
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
    # In this adjacency order the first path is 29-19-10-2-39; the second
    # runs 29-3-8-2, back through 10 to 19, then on to 15-9-39, and so
    # takes 10 out of the flow.  Random graphs this small rarely do that.
    g = Graph(40, [(0, 4), (0, 35), (2, 8), (2, 10), (2, 30), (2, 39), (3, 8),
                   (3, 29), (4, 8), (5, 30), (5, 37), (9, 15), (9, 39), (10, 19),
                   (15, 19), (15, 35), (19, 29), (29, 37)])
    assert _check_flow(g, {29}, 39, set()).value == 2


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
    h = g.with_edges(data.draw(st.lists(st.sampled_from(pairs), max_size=4),
                               label="edges"))
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
    reach = warm._reach
    def counted_reach(*args):
        found.append(reach(*args))
        return found[-1]
    warm._reach = counted_reach
    assert warm.max_flow() == 4
    assert len(found) == 1 and 2 * term.t not in found[0]
    assert warm.closest_cut() == cold.closest_cut()
    assert warm.furthest_cut() == cold.furthest_cut()
    assert warm.disjoint_paths() == cold.disjoint_paths()


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
