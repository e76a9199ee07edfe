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
    two_hamiltonian_cycles,
)
from oracle import brute_minimal_separators, brute_minimum_separators


def test_kappa_examples():
    cut = sp.kappa(P4.graph, P4.terminals)
    assert (cut.kappa, cut.separator) == (1, (1,))
    cut = sp.kappa(DIAMOND.graph, DIAMOND.terminals)
    assert (cut.kappa, cut.separator) == (2, (1, 2))
    cut = sp.kappa(THETA.graph, THETA.terminals)
    assert (cut.kappa, cut.separator) == (2, (1, 3))


def test_kappa_returns_an_immutable_cut_result():
    cut = sp.kappa(DIAMOND.graph, DIAMOND.terminals)
    assert type(cut) is sp.CutResult
    assert cut._fields == ("kappa", "separator", "disjoint_paths")
    value, separator, paths = cut
    assert (value, separator, paths) == (cut.kappa, cut.separator, cut.disjoint_paths)
    assert (value, separator) == (2, (1, 2)) and sorted(paths) == [[0, 1, 3], [0, 2, 3]]
    with pytest.raises(AttributeError):
        cut.kappa = 3


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
            brute_min = brute_minimum_separators(g, term)
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
    net = _check_flow(g, set(sources), {sink}, set())
    return net.closest_cut(), net.furthest_cut()


def test_flow_network_cut_examples():
    assert _cuts(P4.graph, (0,), 3) == ((1,), (2,))
    assert _cuts(THETA.graph, (0,), 2)[1] == (1, 4)


def test_flow_network_adjacent_sink_and_value_zero():
    with pytest.raises(TerminalsAdjacent, match="'a' is in the closed neighbourhood of s"):
        FlowNetwork(P4.graph, (0,), (1,))
    net = _check_flow(parse_graph("s a\nt b"), {0}, {2}, set())
    assert (net.value, net.closest_cut(), net.furthest_cut()) == (0, (), ())


def test_flow_network_rejects_a_sink_in_the_sources_closed_neighbourhood():
    g = THETA.graph  # s-a-t and s-b-c-t: s=0, a=1, t=2, b=3, c=4
    with pytest.raises(TerminalsAdjacent, match="'t' is in the closed neighbourhood of s,c"):
        FlowNetwork(g, (0, 4), (2,))
    with pytest.raises(TerminalsAdjacent, match="'t' is in the closed neighbourhood of t,b"):
        FlowNetwork(g, (3, 2), (2,))
    # a removed source is no source: without c, {s} and t are apart
    assert FlowNetwork(g, (0, 4), (2,), removed=(4,)).max_flow() == 1


def test_flow_network_range_checks_its_vertex_arguments():
    g = parse_graph("s a\na b\nb t\ns c\nc t")  # s=0, a=1, b=2, t=3, c=4
    net = FlowNetwork(g, (0,), (3,))
    assert net.max_flow() == 2
    for include, excluded in (((-1,), ()), ((5,), ()), ((), (-1,)), ((), (9,))):
        with pytest.raises(SepenumError, match="out of range"):
            net.closest_cut_with(include, excluded)
    for include in ((0,), (3,), (1, 0)):
        with pytest.raises(SepenumError, match="contains a terminal"):
            net.closest_cut_with(include)
    assert net.closest_cut_with((2,)) == (2, 4)
    for removed in ((-1,), (9,)):
        with pytest.raises(SepenumError, match="out of range"):
            FlowNetwork(P4.graph, (0,), (3,), removed=removed)


def test_closest_cut_with_reads_a_repeated_include_vertex_once():
    net = FlowNetwork(THETA.graph, (0,), (2,))  # s=0, a=1, t=2, b=3, c=4
    net.max_flow()
    assert net.closest_cut_with((1,)) == net.closest_cut_with((1, 1)) == (1, 3)
    assert net.closest_cut_with((4, 1, 4), (3, 3)) == (1, 4)


@pytest.mark.skipif(not __debug__, reason="the guard is an assert")
def test_cuts_are_read_only_after_max_flow():
    for g, term in ((THETA.graph, THETA.terminals), band(3, 4)):
        cold = FlowNetwork(g, (term.s,), (term.t,))
        warm = FlowNetwork(g, (term.s,), (term.t,), flow=sp.kappa(g, term).disjoint_paths)
        for net in (cold, warm):
            for read in (net.closest_cut, net.furthest_cut, net.closest_cut_with):
                with pytest.raises(AssertionError):
                    read()


def test_flow_network_rejects_a_removed_sink():
    g, term = THETA.graph, THETA.terminals  # s=0, a=1, t=2, b=3, c=4
    for removed in ((term.t,), (1, term.t)):
        with pytest.raises(SepenumError, match="^vertex 't' is removed$"):
            FlowNetwork(g, (term.s,), (term.t,), removed=removed)
    assert FlowNetwork(g, (term.s,), (term.t,), removed=(1,)).max_flow() == 1


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
            minimum = brute_minimum_separators(g, term)
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
            family = brute_minimal_separators(g, term)
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


def test_flow_network_checks_its_excluded_set():
    g = parse_graph("s a\na b\nb t\ns c\nc t")  # s=0, a=1, b=2, t=3, c=4
    # an excluded vertex must be in range, and no source, sink or removed one
    for excluded, match in (((-1,), "out of range"), ((5,), "out of range"),
                            ((0,), "set s contains"), ((1, 3), "set a,t contains"),
                            ((2,), "set b contains a terminal of s,t,b")):
        with pytest.raises(SepenumError, match=match) as raised:
            FlowNetwork(g, (0,), (3,), removed=(2,), excluded=excluded)
        assert raised.type is SepenumError
    with pytest.raises(SepenumError, match="set b contains"):
        FlowNetwork(g, (0,), (2, 3), excluded=(2,))
    with pytest.raises(TerminalsAdjacent, match="'t' is in the closed neighbourhood of s,a,b"):
        FlowNetwork(g, (0,), (3,), excluded=(1, 2))
    net = FlowNetwork(g, (0,), (3,), excluded=(1,))
    assert net.max_flow() == 2 and net.closest_cut() == net.furthest_cut() == (2, 4)
    assert net.disjoint_paths() == [[0, 2, 3], [0, 4, 3]]  # s -> b is spliced


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_an_excluded_set_is_uncut_as_in_the_saturated_graph(data):
    # With I removed and U excluded, a network on G has the value and both
    # cuts of a cold one on saturate(G, U) with I removed, and raises
    # TerminalsAdjacent exactly when s and t are adjacent there.  Its warm
    # flow comes from a parent with fewer removed and excluded vertices, so
    # those paths may run through U; its own paths are paths of the
    # saturated graph that avoid U and I.
    n = data.draw(st.integers(3, 12), label="n")
    p = data.draw(st.sampled_from((0.2, 0.35, 0.5)), label="p")
    g = random_graph(n, p, data.draw(st.integers(0, 10_000), label="seed"))
    pairs = nonadjacent_pairs(g)
    if not pairs:
        return
    s, t = term = data.draw(st.sampled_from(pairs), label="term")
    inner = [v for v in range(n) if v not in term]
    U = data.draw(st.sets(st.sampled_from(inner), max_size=5) if inner else st.just(set()),
                  label="U")
    rest = [v for v in inner if v not in U]
    I = data.draw(st.sets(st.sampled_from(rest), max_size=3) if rest else st.just(set()),
                  label="I")
    U0 = {u for u in U if data.draw(st.booleans(), label=f"parent excludes {u}")}
    I0 = {i for i in I if data.draw(st.booleans(), label=f"parent removes {i}")}
    try:
        parent = FlowNetwork(g, (s,), (t,), I0, excluded=U0)
    except TerminalsAdjacent:
        paths = []
    else:
        parent.max_flow()
        paths = parent.disjoint_paths()
        paths = paths[:data.draw(st.integers(0, len(paths)), label="kept")]
    h = sp.saturate(g, U)
    if h.has_edge(s, t):
        with pytest.raises(TerminalsAdjacent):
            FlowNetwork(g, (s,), (t,), I, paths, U)
        return
    net, cold = FlowNetwork(g, (s,), (t,), I, paths, U), FlowNetwork(h, (s,), (t,), I)
    assert net.max_flow() == cold.max_flow()
    assert net.closest_cut() == cold.closest_cut()
    assert net.furthest_cut() == cold.furthest_cut()
    for path in net.disjoint_paths():
        assert path[0] == s and path[-1] == t and (U | I).isdisjoint(path)
        assert all(h.has_edge(a, b) for a, b in zip(path, path[1:]))


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
                    u not in X for X in brute_minimal_separators(sat, term)
                )


def test_flow_network_counter_increments():
    before = flow_call_count()
    net = FlowNetwork(P4.graph, (0,), (3,))
    assert net.max_flow() == 1
    assert flow_call_count() == before + 1
    assert net.closest_cut() == (1,) and net.furthest_cut() == (2,)


def _check_flow(g, sources, sinks, removed, flow=()) -> FlowNetwork:
    """Run the kernel and check its cuts and paths against each other."""
    net = FlowNetwork(g, sources, sinks, removed, flow)
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
        assert not set(cut) & (removed | sources | sinks)
        assert sinks.isdisjoint(source_side(cut))
    assert source_side(closest) <= source_side(furthest)
    for path in paths:
        assert path[0] in sources and path[-1] in sinks
        assert sinks.isdisjoint(path[:-1])  # each path ends at its first sink
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
    _check_flow(g, sources, {sink}, removed)


def _sink_set_draw(data):
    """A random graph, a non-empty sink set, sources apart from it and
    removed vertices outside both; None when the draw leaves no sources."""
    n = data.draw(st.integers(2, 12), label="n")
    p = data.draw(st.sampled_from((0.15, 0.3, 0.5)), label="p")
    g = random_graph(n, p, data.draw(st.integers(0, 10_000), label="seed"))
    sinks = data.draw(st.sets(st.sampled_from(range(n)), min_size=1, max_size=n - 1),
                      label="sinks")
    far = [v for v in range(n) if v not in sinks and g.adj[v].isdisjoint(sinks)]
    if not far:
        return None
    sources = data.draw(st.sets(st.sampled_from(far), min_size=1), label="sources")
    rest = [v for v in range(n) if v not in sinks and v not in sources]
    removed = data.draw(st.sets(st.sampled_from(rest)) if rest else st.just(set()),
                        label="removed")
    return g, sources, sinks, removed


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_sink_set_has_the_value_and_cuts_of_its_contraction(data):
    # Contract the sink set into its least member x: x is joined to every
    # neighbour of the set, and the other members keep no edge.
    drawn = _sink_set_draw(data)
    if drawn is None:
        return
    g, sources, sinks, removed = drawn
    x = min(sinks)
    outside = [(u, w) for u, w in g.edges() if u not in sinks and w not in sinks]
    boundary = set().union(*(g.adj[y] for y in sinks)) - sinks
    h = Graph(g.n, [*outside, *((x, w) for w in boundary)], g.labels)
    net = _check_flow(g, sources, sinks, removed)
    contracted = _check_flow(h, sources, {x}, removed)
    assert net.value == contracted.value
    assert net.closest_cut() == contracted.closest_cut()
    assert net.furthest_cut() == contracted.furthest_cut()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_warm_start_through_the_sink_set_ends_at_its_first_sink(data):
    # The paths of a flow toward one sink in the set run on through the
    # set; the network keeps each up to its first sink, then augments to
    # the cold start's value and cuts.
    drawn = _sink_set_draw(data)
    if drawn is None:
        return
    g, sources, sinks, removed = drawn
    base = FlowNetwork(g, sources, (min(sinks),))
    base.max_flow()
    paths = base.disjoint_paths()
    kept = [path for path in paths if removed.isdisjoint(path)]
    warm = FlowNetwork(g, sources, sinks, removed, paths)
    trimmed = [path[:next(i for i, v in enumerate(path) if v in sinks) + 1] for path in kept]
    assert warm.disjoint_paths() == trimmed
    warm = _check_flow(g, sources, sinks, removed, paths)
    cold = FlowNetwork(g, sources, sinks, removed)
    assert warm.value == cold.max_flow()
    assert warm.closest_cut() == cold.closest_cut()
    assert warm.furthest_cut() == cold.furthest_cut()


def test_flow_network_checks_a_sink_set_like_a_single_sink():
    g = THETA.graph  # s-a-t and s-b-c-t: s=0, a=1, t=2, b=3, c=4
    with pytest.raises(TerminalsAdjacent, match="'a' is in the closed neighbourhood of s"):
        FlowNetwork(g, (0,), (2, 1))
    for sinks in ((4,), (2, 4), (0, 4)):  # c is a source, t and b its neighbours
        with pytest.raises(TerminalsAdjacent, match="is in the closed neighbourhood of c$"):
            FlowNetwork(g, (4,), sinks)
    with pytest.raises(SepenumError, match="^vertex 'c' is removed$"):
        FlowNetwork(g, (0,), (2, 4), removed=(4, 1))
    with pytest.raises(SepenumError, match="out of range"):
        FlowNetwork(g, (0,), (2, 5))
    net = _check_flow(g, {0}, {2, 4}, set())
    assert (net.value, net.closest_cut(), net.furthest_cut()) == (2, (1, 3), (1, 3))
    assert net.disjoint_paths() == [[0, 1, 2], [0, 3, 4]]


def test_flow_network_frees_a_vertex_a_later_path_crosses_backwards():
    # In this adjacency order the first path is 0-14-13-10-15; the second
    # runs 0-8-5-10, back through 13 to 14, then on to 9-6-12-15, and so
    # takes 13 out of the flow.  Random graphs this small rarely do that.
    g = Graph(16, [(0, 8), (0, 14), (1, 6), (2, 4), (2, 11), (4, 8), (5, 8),
                   (5, 10), (6, 9), (6, 10), (6, 12), (9, 14), (10, 13), (10, 15),
                   (12, 15), (13, 14)])
    net = FlowNetwork(g, (0,), (15,))
    used = []
    augment = net._augment
    def recording_augment(met):
        augment(met)
        used.append(net.pred[13] >= 0)
    net._augment = recording_augment
    assert net.max_flow() == 2 and used == [True, False]
    assert _check_flow(g, {0}, {15}, set()).disjoint_paths() == [
        [0, 8, 5, 10, 15], [0, 14, 9, 6, 12, 15]]


def test_a_backward_side_that_dies_first_still_meets_a_source():
    # From in(5) the backward side reaches out(1), in(1) and then out(4), a
    # source's out-state that the forward side holds as a seed before it
    # has grown at all.  A backward side that could not enter out(4) would
    # die there and report no path, value 0.
    g = Graph(6, [(0, 2), (1, 4), (1, 5), (2, 4)])
    net = _check_flow(g, {2, 4}, {5}, set())
    assert net.value == 1
    assert net.closest_cut() == net.furthest_cut() == (1,)
    assert net.disjoint_paths() == [[4, 1, 5]]


def _networks_with_excluded_and_include_sets(seed_base: int):
    """Seeded random networks from s to t, after max_flow, some with an
    excluded set, each with an include set and an excluded set for a
    constrained closure."""
    rng = random.Random(seed_base)
    for seed in range(60):
        g = random_connected_graph(8 + seed % 23, (0.15, 0.25, 0.4)[seed % 3], seed_base + seed)
        for term in nonadjacent_pairs(g)[:3]:
            inner = [v for v in range(g.n) if v not in term]
            excluded = rng.sample(inner, rng.randint(0, len(inner) // 3))
            try:
                net = FlowNetwork(g, (term.s,), (term.t,), excluded=excluded)
            except TerminalsAdjacent:  # the excluded set joins s to t
                continue
            net.max_flow()
            yield net, rng.sample(inner, rng.randint(0, 3)), rng.sample(inner, rng.randint(0, 4))


def test_no_free_vertex_in_state_is_queued(monkeypatch):
    # A free vertex's in-state has one residual arc, to its out-state, and
    # `_grow` takes it in the step that reaches the in-state; only a seed,
    # such as in(i) for an included i, is queued while its vertex is free.
    grow, grown = FlowNetwork._grow, []

    def checked_grow(self, side, theirs, limit=None, uncut=()):
        met = grow(self, side, theirs, limit, uncut)
        assert all(x & 1 or side.link[x >> 1] >= 0 or side.seen[x] == -1
                   for x in side.queue)
        grown.append(len(side.queue))
        return met

    monkeypatch.setattr(FlowNetwork, "_grow", checked_grow)
    answers = []
    for net, include, excluded in _networks_with_excluded_and_include_sets(2310):
        grown.clear()
        net.closest_cut()
        net.furthest_cut()
        answers.append(net.closest_cut_with(include, excluded))
        assert len(grown) == 3
    nones = answers.count(None)
    assert len(answers) > 100 and 10 < nones < len(answers) - 10


def test_a_new_search_leaves_no_state_of_the_last_one():
    # `start` forgets every state the last search marked, the in-states its
    # hops left unqueued too, and keeps each -3: a side restarted after
    # both cut reads looks like a side that never searched.
    restarted = 0
    for net, _, _ in _networks_with_excluded_and_include_sets(2320):
        net.closest_cut()
        net.furthest_cut()
        for side, ends, link in ((net._fwd, net.sources, net.pred),
                                 (net._bwd, net.sinks, net.succ)):
            side.start(side.seeds)
            fresh = net._side(ends, link)
            fresh.start(fresh.seeds)
            assert side.seen == fresh.seen
            assert all(mark in (-2, -3) or x in side.seeds for x, mark in enumerate(side.seen))
            restarted += 1
    assert restarted > 200


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_flow_network_from_part_of_a_max_flow(data):
    # Start from some of the paths of a cold maximum flow, passed unfiltered,
    # in the same graph or in one with extra edges, extra removed vertices
    # and more sources: the source side A of a minimum cut C, plus some of C.
    # Every path runs through A up to its one vertex of C and never returns,
    # so the network drops the paths through removed vertices, starts each
    # other one at its last leading source, and ends at the cold start's
    # value and cuts.
    n = data.draw(st.integers(3, 12), label="n")
    p = data.draw(st.sampled_from((0.15, 0.3, 0.5)), label="p")
    g = random_graph(n, p, data.draw(st.integers(0, 10_000), label="seed"))
    sink = data.draw(st.integers(0, n - 1), label="sink")
    far = [v for v in range(n) if v != sink and v not in g.adj[sink]]
    if not far:
        return
    sources = data.draw(st.sets(st.sampled_from(far), min_size=1), label="sources")
    base = FlowNetwork(g, sources, (sink,))
    base.max_flow()
    paths = base.disjoint_paths()
    kept = data.draw(st.sets(st.sampled_from(range(len(paths))), min_size=1)
                     if paths else st.just(set()), label="kept")
    grown = set(sources)
    side = data.draw(st.sampled_from(("furthest", "closest", "none")), label="side")
    if side != "none":
        cut = base.closest_cut() if side == "closest" else base.furthest_cut()
        for s in sources:
            grown |= sp.component_of(g, cut, s)
        near = [v for v in cut if v not in g.adj[sink]]
        grown |= data.draw(st.sets(st.sampled_from(near), min_size=1) if near
                           else st.just(set()), label="cut sources")
    inner = [v for v in range(n) if v != sink and v not in grown]
    removed = data.draw(st.sets(st.sampled_from(inner)) if inner else st.just(set()),
                        label="removed")
    pairs = list(itertools.combinations(range(n), 2))
    extra = data.draw(st.lists(st.sampled_from(pairs), max_size=4), label="edges")
    h = Graph(n, [*g.edges(), *extra], g.labels)
    if not h.adj[sink].isdisjoint(grown):
        return
    start = [paths[i] for i in sorted(kept)]
    assert FlowNetwork(h, grown, (sink,), removed, start).value == sum(
        removed.isdisjoint(path) for path in start)
    warm = _check_flow(h, grown, {sink}, removed, start)
    cold = FlowNetwork(h, grown, (sink,), removed)
    assert warm.value == cold.max_flow()
    assert warm.closest_cut() == cold.closest_cut()
    assert warm.furthest_cut() == cold.furthest_cut()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_removing_a_furthest_cut_vertex_leaves_the_rest_of_the_cut(data):
    # The lemma behind the flow-free "join" branch of important._levels:
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
    net = FlowNetwork(g, sources, (sink,), removed)
    value = net.max_flow()
    cut = net.furthest_cut()
    for v in cut:
        smaller = FlowNetwork(g, sources, (sink,), removed | {v})
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
    net = FlowNetwork(g, (term.s,), (term.t,))
    if net.max_flow() == 0:
        return
    assert net.closest_cut_with() == net.closest_cut()
    inner = [v for v in range(n) if v not in term]
    include = data.draw(st.sets(st.sampled_from(inner), max_size=3), label="include")
    rest = [v for v in inner if v not in include]
    excluded = data.draw(st.sets(st.sampled_from(rest), max_size=4)
                         if rest else st.just(set()), label="excluded")
    feasible = [X for X in brute_minimum_separators(g, term)
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
    cold = FlowNetwork(g, (term.s,), (term.t,))
    assert cold.max_flow() == 4
    warm = FlowNetwork(g, (term.s,), (term.t,), flow=cold.disjoint_paths())
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


def test_augmenting_searches_reach_a_small_part_of_a_sparse_random_graph():
    # With t as far from s as it gets, a search grown from s alone fills
    # nearly all 2n split states before it reaches t, about 7.9 n over the
    # whole flow.  Grown from both ends, the two sides meet early.
    n = 20_000
    g, term = two_hamiltonian_cycles(n, 7)
    net = FlowNetwork(g, (term.s,), (term.t,))
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
            net = FlowNetwork(g, (s,), (t,))
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
        net = _check_flow(g, {s}, {t}, set())
        assert (net.value, net.closest_cut(), net.furthest_cut()) == \
            _networkx_flow_and_cuts(nx, g, s, t)
        values.add(net.value)
    assert values >= set(range(1, 7))
