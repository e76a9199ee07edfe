import random

import pytest

import sepenum as sp
from sepenum import fpt, important, mincut
from sepenum.errors import AlreadySeparated, SepenumError, TerminalsAdjacent
from sepenum.graph import Graph, Terminals, _boundary, _component, parse_graph
from sepenum.mincut import _min_cut, flow_call_count

from conftest import (
    DIAMOND,
    P4,
    THETA,
    band,
    grid,
    nonadjacent_pairs,
    pop_key,
    random_connected_graph,
    random_graph,
)
from oracle import brute_minimal_separators


def test_trace_p4():
    assert list(sp.iter_small_minimal(P4.graph, P4.terminals, 1)) == [(1,), (2,)]


def test_trace_theta():
    assert list(sp.iter_small_minimal(THETA.graph, THETA.terminals, 2)) == [(1, 3), (1, 4)]


def test_trace_diamond_k1_empty():
    assert list(sp.iter_small_minimal(DIAMOND.graph, DIAMOND.terminals, 1)) == []


def test_adjacent_terminals_signal_bottom():
    with pytest.raises(TerminalsAdjacent):
        list(sp.iter_small_minimal(parse_graph("s t\ns a\na t"), Terminals(0, 1), 2))


def test_already_separated():
    with pytest.raises(AlreadySeparated):
        list(sp.iter_small_minimal(parse_graph("s a\nt b"), Terminals(0, 2), 1))


def test_invalid_k_and_terminals():
    with pytest.raises(SepenumError, match="k must be at least 1, got 0"):
        sp.iter_small_minimal(P4.graph, P4.terminals, 0)
    with pytest.raises(TerminalsAdjacent, match="same vertex"):
        sp.iter_small_minimal(P4.graph, Terminals(1, 1), 1)


def test_pop_key_examples():
    th = THETA.graph
    assert pop_key(th, 0, (1, 3)) == (1, (1, 3))
    assert pop_key(th, 0, (1, 4)) == (2, (1, 4))
    assert pop_key(P4.graph, 0, (2,)) == (2, (2,))


def test_pop_key_range_checks_its_arguments():
    for s, S in ((-1, (1,)), (9, (1,)), (0, (-1,)), (0, (1, 4))):
        with pytest.raises(SepenumError, match="out of range"):
            pop_key(P4.graph, s, S)
    with pytest.raises(SepenumError, match="'s' is removed"):
        pop_key(P4.graph, 0, (0, 2))


def test_matches_brute_force_each_exactly_once():
    for seed in range(30):
        n = 5 + seed % 6
        g = random_connected_graph(n, (0.2, 0.35, 0.5)[seed % 3], 1300 + seed)
        for term in nonadjacent_pairs(g):
            minimal = brute_minimal_separators(g, term)
            for k in (1, (n + 1) // 2, n):
                got = list(sp.iter_small_minimal(g, term, k))
                assert len(got) == len(set(got))
                assert set(got) == {X for X in minimal if len(X) <= k}
                comp_sizes = [pop_key(g, term.s, X)[0] for X in got]
                assert comp_sizes == sorted(comp_sizes)


def test_delay_bounded_by_flow_calls():
    for seed in range(8):
        n = 5 + seed % 4
        g = random_connected_graph(n, 0.35, 1400 + seed)
        for term in nonadjacent_pairs(g):
            for k in (1, n):
                marks = [flow_call_count()]
                for _ in sp.iter_small_minimal(g, term, k):
                    marks.append(flow_call_count())
                bound = 4 * n * k * 4 ** k
                gaps = [b - a for a, b in zip(marks, marks[1:])]
                assert all(gap <= bound for gap in gaps)


def test_rewired_graphs_have_only_minimal_separators_of_g_with_larger_keys():
    # the rule that feeds the queue: for a minimal S of G and v in S with
    # t not next to v, every minimal separator of G with s joined to S and
    # N(v) is one of G, avoids v and has a strictly larger s-side
    checked = 0
    for seed in range(20):
        n = 5 + seed % 8
        g = random_graph(n, (0.25, 0.35, 0.5)[seed % 3], 1500 + seed)
        for term in nonadjacent_pairs(g):
            minimal = brute_minimal_separators(g, term)
            for S in minimal:
                comp_size = pop_key(g, term.s, S)[0]
                for v in S:
                    if term.t in g.adj[v]:
                        continue
                    h = sp.add_star(g, term.s, (set(S) | g.adj[v]) - {term.s})
                    for T in brute_minimal_separators(h, term):
                        assert T in minimal and v not in T
                        assert pop_key(g, term.s, T)[0] > comp_size
                        checked += 1
    assert checked > 1000


def test_list_minimal_tests_minimality_only_for_unseen_candidates(monkeypatch):
    g, term = band(3, 30)
    seen, tested, offered = set(), [], []
    side_beyond, levels = fpt._side_beyond, fpt._levels

    def spy(adj, T, inside, rim, t):
        assert adj is g.adj and t == term.t
        T = tuple(sorted(T))
        assert T not in seen  # no emission is tested again
        grown = side_beyond(adj, set(T), inside, rim, t)
        assert (grown is not None) == sp.is_minimal_separator(g, term, T)
        tested.append(T)
        if grown is not None:
            seen.add(T)
        return grown

    def counted_levels(H, k, root):
        for level in levels(H, k, root):
            offered.extend(level)
            yield level

    def refuse(*args):
        raise AssertionError("list-minimal runs no importance test")

    monkeypatch.setattr(fpt, "_side_beyond", spy)
    monkeypatch.setattr(fpt, "_levels", counted_levels)
    monkeypatch.setattr(important, "is_important", refuse)
    monkeypatch.setattr(important, "enumerate_important", refuse)
    emitted = list(fpt.iter_small_minimal(g, term, 3))
    assert len(emitted) == 260 and set(emitted) == seen
    # most candidates of the sink-set branchings were seen before and not tested
    assert 0 < len(tested) < len(offered) / 2


def test_sink_set_branchings_give_the_candidates_of_the_star_rewired_graph():
    # G with the sink set C_s + {v} is G with s joined to S and N(v), the
    # graph H = add_star(...) the stream used to build, with the set
    # contracted into s: for every emission S and v of S not next to t, the
    # branching toward the set, warm from the seed root's paths, finds
    # exactly the candidates and root value of a cold branching toward s
    # on H
    cases = [band(3, 8), band(4, 6)]
    for seed in range(18):
        g = random_connected_graph(8 + seed % 9, (0.2, 0.3, 0.45)[seed % 3], 1600 + seed)
        cases += [(g, term) for term in nonadjacent_pairs(g)][::7]

    def candidates(H, t, sinks, k, flow=()):  # and the root's value
        root = _min_cut(H, (t,), sinks, (), flow)
        return set().union(*important._levels(H, k, root)), root.value

    checked = 0
    for g, term in cases:
        for k in range(1, 5):
            paths = _min_cut(g, (term.t,), (term.s,)).disjoint_paths()
            for S in fpt.iter_small_minimal(g, term, k):
                side = sp.component_of(g, S, term.s)
                for v in S:
                    if term.t in g.adj[v]:
                        continue
                    h = sp.add_star(g, term.s, (set(S) | g.adj[v]) - {term.s})
                    assert (candidates(g, term.t, side | {v}, k, paths)
                            == candidates(h, term.t, {term.s}, k))
                    checked += 1
    assert checked > 1500


def test_sink_set_branchings_run_on_g_and_start_from_the_seed_flow(monkeypatch):
    # every network is built on G, and each sink-set network is a copy of
    # its emission's template, which starts from the seed root's paths
    g, term = band(3, 30)
    searches, copies, cold = [0], [0], []
    init, search = mincut.FlowNetwork.__init__, mincut.FlowNetwork._search
    with_sink = mincut.FlowNetwork._with_sink

    def recording_init(self, G, sources, sinks, removed=(), flow=(), excluded=()):
        assert G is g
        if set(sinks) != {term.s} and not flow:
            cold.append(sorted(sources))
        init(self, G, sources, sinks, removed, flow, excluded)

    def counted_with_sink(self, v):
        copies[0] += 1
        assert self.G is g and self.value == len(self.disjoint_paths()) > 0
        return with_sink(self, v)

    def counted_search(self):
        searches[0] += 1
        return search(self)

    monkeypatch.setattr(mincut.FlowNetwork, "__init__", recording_init)
    monkeypatch.setattr(mincut.FlowNetwork, "_with_sink", counted_with_sink)
    monkeypatch.setattr(mincut.FlowNetwork, "_search", counted_search)
    before = flow_call_count()
    assert len(list(fpt.iter_small_minimal(g, term, 3))) == 260
    flows = flow_call_count() - before
    assert copies[0] == flows - 1 and cold == []
    # a cold root pays one search per path plus the failed one
    assert searches[0] <= 1.25 * flows


def test_no_backward_side_enters_the_s_side_of_an_emission(monkeypatch):
    # After S is emitted, every branching toward C_s + {v} must cost the
    # boundary of that set, not its interior: no backward side of the
    # networks that run a flow reaches a state of a vertex of C_s beyond
    # its seeds.  The stream builds no graph on the way.
    interior, networks = [set()], []
    max_flow, grow = mincut.FlowNetwork.max_flow, mincut.FlowNetwork._grow

    def recording_max_flow(self):
        networks.append(self)
        self.interior = interior[0]
        return max_flow(self)

    def checked_grow(self, side, *args, **kwargs):
        met = grow(self, side, *args, **kwargs)
        if side is self._bwd:
            assert not any(x >> 1 in self.interior for x in side.queue if side.seen[x] >= 0)
        return met

    def refuse(*args):
        raise AssertionError("list-minimal builds no graph")

    monkeypatch.setattr(mincut.FlowNetwork, "max_flow", recording_max_flow)
    monkeypatch.setattr(mincut.FlowNetwork, "_grow", checked_grow)
    for module, name in ((sp.graph, "add_star"), (fpt, "add_star"),
                         (sp.graph, "saturate")):
        monkeypatch.setattr(module, name, refuse)
    emitted = []
    for (g, term), k in ((band(3, 30), 3), (band(4, 12), 4)):
        interior[0] = set()  # the seed root's backward side may go anywhere
        emitted.append(0)
        for S in fpt.iter_small_minimal(g, term, k):
            interior[0] = sp.component_of(g, S, term.s)
            emitted[-1] += 1
    assert emitted == [260, 284] and len(networks) > 1200
    assert max(len(net.interior) for net in networks) > 80


def test_list_minimal_builds_one_network_per_emission_and_filters_on_the_boundary(monkeypatch):
    # On B(3,30) with k = 3 no node has room for an absorb child, so the
    # only networks the constructor builds are the seed root and at most
    # one template per emission; the filter reads no neighbourhood of the
    # sink set X it grows from
    g, term = band(3, 30)
    built, read, read_inside = [0], [], []
    init, side_beyond = mincut.FlowNetwork.__init__, fpt._side_beyond

    def counted_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    class Reads:
        def __init__(self, inside):
            self.inside = inside

        def __getitem__(self, v):
            read.append(v)
            if v in self.inside:
                read_inside.append(v)
            return g.adj[v]

    def spy(adj, T, inside, rim, t):
        return side_beyond(Reads(inside), T, inside, rim, t)

    monkeypatch.setattr(mincut.FlowNetwork, "__init__", counted_init)
    monkeypatch.setattr(fpt, "_side_beyond", spy)
    emitted = len(list(fpt.iter_small_minimal(g, term, 3)))
    assert emitted == 260 and built[0] <= emitted + 1
    assert len(read) > emitted and read_inside == []


def _tree(n: int, seed: int) -> tuple[Graph, Terminals]:
    """A random tree, each vertex joined to an earlier one; s = 0 and t
    the last vertex."""
    rng = random.Random(seed)
    return Graph(n, [(v, rng.randrange(v)) for v in range(1, n)]), Terminals(0, n - 1)


def test_every_raw_candidate_is_the_boundary_of_its_t_side(monkeypatch):
    # The stream filters candidates on the s-side alone.  For a raw
    # candidate T = removed + C of the branching from t, N(comp_t(T)) = T:
    # each vertex of C is next to its node's source side, which is
    # connected, holds t and avoids T, and each removed vertex is next to
    # an ancestor's source side, which lies inside the node's sources.
    cases = [band(2, 40), band(3, 30), band(4, 12), band(4, 20), grid(6), grid(9)]
    cases += [_tree(n, 1900 + n) for n in (12, 40, 120)]
    for seed in range(48):
        g = random_connected_graph(12 + 6 * (seed % 8), (0.25, 0.15, 0.1)[seed % 3], 1800 + seed)
        cases += [(g, term) for term in nonadjacent_pairs(g)[seed::37][:3]]
    checked, absorbed = [0], [0]
    levels, min_cut = fpt._levels, important._min_cut

    def counted_min_cut(*args):  # an absorb child: its candidates have removed vertices
        absorbed[0] += 1
        return min_cut(*args)

    def checked_levels(H, k, root):
        for level in levels(H, k, root):
            for T in level:
                blocked = set(T)
                assert _boundary(H.adj, _component(H.adj, (term.t,), blocked)) == blocked
                checked[0] += 1
            yield level

    monkeypatch.setattr(fpt, "_levels", checked_levels)
    monkeypatch.setattr(important, "_min_cut", counted_min_cut)
    for g, term in cases:
        assert g.n <= 120
        for k in range(2, 5):
            for _ in fpt.iter_small_minimal(g, term, k):
                pass
    assert checked[0] > 6000 and absorbed[0] > 500


def test_only_the_seed_root_decomposes_its_flow_into_paths(monkeypatch):
    # every rewired branching starts from the seed root's paths, and on
    # B(3,30) with k = 3 = kappa no node has room for an absorb child, so
    # the seed root's are the only paths the stream builds
    g, term = band(3, 30)
    calls = []
    disjoint_paths = mincut.FlowNetwork.disjoint_paths

    def counted(self):
        calls.append(self.G is g)
        return disjoint_paths(self)

    monkeypatch.setattr(mincut.FlowNetwork, "disjoint_paths", counted)
    assert len(list(fpt.iter_small_minimal(g, term, 3))) == 260
    assert calls == [True]


def test_list_minimal_branches_each_sink_set_once(monkeypatch):
    # N(X) = (S + N(v)) - X fixes the sink set X = C_s + {v}: X is
    # connected and holds s, so it is s's component of G - N(X).  A
    # branching's candidates and their filter answers depend on X alone, so
    # the stream runs none toward a sink set it has branched toward before.
    cases = [(band(3, 30), 3), (band(4, 12), 4), (grid(9), 3), (grid(10), 4)]
    cases += [(_tree(n, 2000 + n), k) for n in (40, 120) for k in (2, 4)]
    for seed in range(40):
        n = 20 + 10 * (seed % 11)
        g = random_connected_graph(n, (3.0, 3.5, 4.0)[seed % 3] / n, 2100 + seed)
        cases += [((g, term), 3 + seed % 3) for term in nonadjacent_pairs(g)[seed::97][:2]]
    sink_sets, rims = [], []
    with_sink, side_beyond = mincut.FlowNetwork._with_sink, fpt._side_beyond

    def recorded_with_sink(self, v):
        net = with_sink(self, v)
        sink_sets.append(frozenset(net.sinks))
        return net

    def checked_side_beyond(adj, T, inside, rim, t):
        assert sp.component_of(g, rim, term.s) == inside
        assert _boundary(adj, inside) == rim
        rims.append(rim)
        return side_beyond(adj, T, inside, rim, t)

    monkeypatch.setattr(mincut.FlowNetwork, "_with_sink", recorded_with_sink)
    monkeypatch.setattr(fpt, "_side_beyond", checked_side_beyond)
    copies = []
    for (g, term), k in cases:
        assert g.n <= 120
        sink_sets.clear()
        emitted = list(fpt.iter_small_minimal(g, term, k))
        assert len(set(sink_sets)) == len(sink_sets)
        for X in sink_sets:
            assert sp.component_of(g, _boundary(g.adj, X), term.s) == X
        copies.append(len(sink_sets))
        if len(copies) == 1:
            assert len(emitted) == 260 and copies == [565]  # 766 with repeats
    assert sum(copies) > 2000 and len(rims) > 900
