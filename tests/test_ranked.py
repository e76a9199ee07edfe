import sys
import tracemalloc
from heapq import heappop, heappush
from itertools import islice, takewhile

import pytest

import sepenum as sp
import sepenum.graph
import sepenum.mincut
import sepenum.ranked
from sepenum.errors import AlreadySeparated, TerminalsAdjacent
from sepenum.graph import Graph, Terminals, canonical, parse_graph, saturate
from sepenum.important import _iter_important
from sepenum.mincut import FlowNetwork, _min_cut, _terminal_flow, flow_call_count

from conftest import (
    DIAMOND,
    P4,
    THETA,
    band,
    grid,
    grow_caller,
    nonadjacent_pairs,
    random_connected_graph,
    two_hamiltonian_cycles,
)
from golden import inputs
from oracle import brute_minimal_separators, brute_minimum_separators


def test_ranked_traces():
    assert list(sp.iter_ranked_separators(P4.graph, P4.terminals)) == [(1,), (2,)]
    assert list(sp.iter_ranked_separators(DIAMOND.graph, DIAMOND.terminals)) == [(1, 2)]
    assert list(sp.iter_ranked_separators(THETA.graph, THETA.terminals)) == [(1, 3), (1, 4)]


def test_minimum_traces():
    assert set(sp.iter_minimum_separators(THETA.graph, THETA.terminals)) == {(1, 3), (1, 4)}
    assert set(sp.iter_minimum_separators(P4.graph, P4.terminals)) == {(1,), (2,)}
    assert set(sp.iter_minimum_separators(DIAMOND.graph, DIAMOND.terminals)) == {(1, 2)}


def test_errors_raised_eagerly():
    with pytest.raises(TerminalsAdjacent):
        sp.iter_ranked_separators(parse_graph("s t"), Terminals(0, 1))
    with pytest.raises(AlreadySeparated):
        sp.iter_minimum_separators(parse_graph("s a\nt b"), Terminals(0, 2))


def test_ranked_contract_on_random_graphs():
    for seed in range(30):
        n = 5 + seed % 4  # ranked runs to exhaustion; keep the family small
        g = random_connected_graph(n, (0.2, 0.35, 0.5)[seed % 3], 1500 + seed)
        for term in nonadjacent_pairs(g):
            got = list(sp.iter_ranked_separators(g, term))
            assert len(got) == len(set(got))
            assert all(sp.is_separator(g, term, X) for X in got)
            sizes = [len(X) for X in got]
            assert sizes == sorted(sizes)
            assert set(got) >= brute_minimal_separators(g, term)
            minimum = brute_minimum_separators(g, term)
            assert set(got[: len(minimum)]) == minimum


def test_minimum_matches_brute_on_random_graphs():
    for seed in range(30):
        n = 5 + seed % 6
        g = random_connected_graph(n, (0.2, 0.35, 0.5)[seed % 3], 1600 + seed)
        for term in nonadjacent_pairs(g):
            got = list(sp.iter_minimum_separators(g, term))
            minimum = brute_minimum_separators(g, term)
            assert len(got) == len(set(got))
            assert set(got) == minimum
            k = min(len(X) for X in minimum)
            assert all(len(X) == k for X in got)


def test_ranked_queue_keeps_no_graphs():
    # A queued cell is its two sets and its flow paths.  A saturated working
    # graph per cell took about 4 MiB over these 100 emissions.
    g, term = band(3, 30)
    tracemalloc.start()
    try:
        list(islice(sp.iter_ranked_separators(g, term), 100))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_minimum_stream_is_the_ranked_streams_minimum_prefix():
    # No oracle past n = 16: the minimum-only stream must be the size-κ
    # prefix of the ranked stream, in the same order.
    cycle = Graph(3000, [(v, (v + 1) % 3000) for v in range(3000)])
    cases = [(*band(3, 30), None), (*band(4, 12), None), (*grid(15), None),
             (cycle, Terminals(0, 1500), 200)]
    for n, p, seed, sinks in ((100, 0.035, 4402, range(1, 100)),
                              (200, 0.02, 4400, range(1, 200)),
                              (300, 0.015, 4402, (299,))):
        g = random_connected_graph(n, p, seed)
        cases += [(g, Terminals(0, t), None) for t in sinks if t not in g.adj[0]]
    for g, term, limit in cases:
        got = list(islice(sp.iter_minimum_separators(g, term), limit))
        k = len(got[0])
        ranked = takewhile(lambda S: len(S) == k, sp.iter_ranked_separators(g, term))
        assert got == list(islice(ranked, limit))


def test_minimum_stream_runs_one_flow_and_no_rewrites(monkeypatch):
    rewrites = []
    def spy(G, U):
        rewrites.append(U)
        return saturate(G, U)
    for module in (sepenum.graph, sepenum.ranked):
        monkeypatch.setattr(module, "saturate", spy)
    cases = [band(3, 30)]
    for seed in range(10):
        g = random_connected_graph(6 + seed % 5, (0.3, 0.45)[seed % 2], 4300 + seed)
        cases += [(g, term) for term in nonadjacent_pairs(g)]
    emitted = []
    for g, term in cases:
        before = flow_call_count()
        emitted.append(len(list(sp.iter_minimum_separators(g, term))))
        assert flow_call_count() == before + 1
    assert rewrites == [] and emitted[0] == 260


def test_minimum_stream_runs_no_residual_search_per_emission(monkeypatch):
    # After its one flow, minimum-all reads the closest cut once and sets
    # up the closure once, in κ sweeps, each with a `seen` list of its own.
    # Every emission after that is answered from the reach vectors with no
    # residual search, so the sweeps are the same on a band four times as
    # long and do not grow with the emissions.  The cut read is named by the
    # side it finishes, forward for the closest cut.
    grow, calls = FlowNetwork._grow, []

    def counted_grow(self, side, theirs, limit=None):
        queued = len(side.queue)
        met = grow(self, side, theirs, limit)
        calls.append((grow_caller(self, side), side.seen, len(side.queue) - queued))
        return met

    monkeypatch.setattr(FlowNetwork, "_grow", counted_grow)
    for length in (100, 400):
        g, term = band(3, length)
        stream = sp.iter_minimum_separators(g, term)  # runs the root flow
        calls.clear()
        assert len(list(islice(stream, 300))) == 300  # the first 300 emissions
        callers = [caller for caller, _, _ in calls]
        setup = [seen for caller, seen, _ in calls if caller == "_reach_vectors"]
        assert callers[:len(setup) + 1] == ["forward"] + ["_reach_vectors"] * len(setup)
        assert len({id(seen) for seen in setup}) == 3
        assert all(queued == 0 for _, _, queued in calls[len(setup) + 1:])
        calls.clear()
        assert len(list(islice(stream, 300))) == 300  # then 300 more
        assert calls == []


def test_a_minimum_cells_child_asks_the_closure_about_its_new_exclusion_alone(monkeypatch):
    # A child of a size-κ cell asks the root's closure about the one vertex
    # v it newly excludes.  Every vertex its cell excluded before lies on a
    # root flow path behind the positions the closure starts from, so the
    # answer is the one for the whole set, the cell's plus v.
    closure, pop = FlowNetwork.closest_cut_with, heappop
    popped, answers = [], []

    def recording_pop(queue):
        item = pop(queue)
        popped.append(item[2])  # the cell's excluded set
        return item

    def checked_closure(self, include=(), excluded=(), beyond=None):
        T = closure(self, include, excluded, beyond)
        assert len(excluded) == 1
        assert T == closure(self, include, popped[-1] | set(excluded), beyond)
        answers.append(T is not None)
        return T

    monkeypatch.setattr(FlowNetwork, "closest_cut_with", checked_closure)
    monkeypatch.setattr(sepenum.ranked, "heappop", recording_pop)
    cases = [band(3, 30), band(4, 12), band(2, 40), grid(7), grid(10)]
    for n, p, seed in ((60, 0.06, 4800), (120, 0.03, 4801), (200, 0.02, 4802)):
        g = random_connected_graph(n, p, seed)
        cases += [(g, term) for term in nonadjacent_pairs(g)[:2]]
    deep = 0
    for g, term in cases:
        for stream in (sp.iter_minimum_separators, sp.iter_ranked_separators):
            popped.clear()
            list(islice(stream(g, term), 300))
            deep += sum(len(excluded) > 1 for excluded in popped)
    assert answers.count(True) > 1000 and answers.count(False) > 1000 and deep > 5000


def test_ranked_cells_and_min_separator_excluding_build_no_graph(monkeypatch):
    # Every cell is answered on G with its excluded set uncut: no module
    # saturates, joins a star or makes a graph with new neighbourhoods.
    def refuse(*args):
        raise AssertionError("a query built a graph")

    for module in [m for name, m in sys.modules.items() if name.startswith("sepenum")]:
        for name in ("saturate", "add_star"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(Graph, "_of", refuse)
    cases = [band(3, 30), band(4, 12)]
    for seed in range(12):
        g = random_connected_graph(8 + seed % 6, (0.3, 0.45)[seed % 2], 4500 + seed)
        cases += [(g, term) for term in nonadjacent_pairs(g)[:4]]
    emitted = empty = 0
    for g, term in cases:
        emitted += len(list(islice(sp.iter_ranked_separators(g, term), 300)))
        inner = [v for v in range(g.n) if v not in term]
        for U in (inner[::2], inner[1::3], inner[:g.n // 2]):
            empty += sp.min_separator_excluding(g, term, U) is None
    assert emitted > 700 and empty > 50


def test_every_child_flow_starts_from_its_parents_paths(monkeypatch):
    # The children of an emitted S run their flows while the stream
    # computes its next item.  A child that has a minimum separator is the
    # root's closure and builds no network.  Any other child i removes
    # include_i and is handed all the parent's paths; the network keeps
    # those that avoid include_i, and each path crosses S - include in one
    # vertex.  Its cut is read when it pops, on a network that runs no
    # max_flow and starts from the child's own full flow: its value is
    # |T| - |include| for the T queued right after it.
    events, ran, closed = [], set(), []
    build, run = FlowNetwork.__init__, FlowNetwork.max_flow
    closure = FlowNetwork.closest_cut_with

    def spy(self, G, sources, sink, removed=(), flow=(), excluded=()):
        build(self, G, sources, sink, removed, flow, excluded)
        events.append((self, len(set(removed)), self.value))

    def run_spy(self):
        ran.add(self)
        return run(self)

    def closure_spy(self, include=(), excluded=(), beyond=None):
        T = closure(self, include, excluded, beyond)
        closed.append(T is not None)
        return T

    def recording_push(queue, item):
        key, include = item[:2]
        if len(key) == 2:  # (|T|, T), not an unresolved (size, (), n)
            events.append((None, len(include), key[1]))
        heappush(queue, item)

    monkeypatch.setattr(FlowNetwork, "__init__", spy)
    monkeypatch.setattr(FlowNetwork, "max_flow", run_spy)
    monkeypatch.setattr(FlowNetwork, "closest_cut_with", closure_spy)
    monkeypatch.setattr(sepenum.ranked, "heappush", recording_push)
    cases = [(*band(3, 30), 200)]
    for seed in range(12):
        g = random_connected_graph(6 + seed % 4, (0.3, 0.45)[seed % 2], 4100 + seed)
        cases += [(g, term, None) for term in nonadjacent_pairs(g)]
    flows = closures = reads = 0
    for g, term, limit in cases:
        events.clear()
        stream = islice(sp.iter_ranked_separators(g, term), limit)
        # the terminal flow starts from zero
        assert [(net in ran, *start) for net, *start in events] == [(True, 0, 0)]
        parent = next(stream)
        events.clear()
        while parent is not None:
            S = next(stream, None)  # runs the flows of parent's children
            for i, (net, include, warm) in enumerate(events):
                if net is None:
                    continue
                if net in ran:
                    assert warm == len(parent) - include
                    flows += 1
                else:
                    assert events[i + 1][:2] == (None, include)
                    assert warm == len(events[i + 1][2]) - include
                    reads += 1
            closures += sum(closed)
            events.clear()
            closed.clear()
            parent = S
    assert flows + closures > 500 and flows > 250 and reads > 50


def test_children_of_minimum_cells_run_a_flow_only_past_kappa(monkeypatch):
    # A child of a size-κ cell that has a size-κ separator is answered by
    # the root's closure, so every network built under such a cell finds
    # a larger minimum.
    built = []
    build = FlowNetwork.__init__

    def spy(self, G, sources, sink, removed=(), flow=(), excluded=()):
        build(self, G, sources, sink, removed, flow, excluded)
        built.append((self, len(set(removed))))

    monkeypatch.setattr(FlowNetwork, "__init__", spy)
    for g, term in (band(3, 30), band(4, 12)):
        stream = sp.iter_ranked_separators(g, term)
        parent = next(stream)
        kappa = len(parent)
        built.clear()
        flows = 0
        while len(parent) == kappa:
            parent = next(stream)  # answers the children of the last size-κ cell
            assert all(net.value + include > kappa for net, include in built)
            flows += len(built)
            built.clear()
        assert flows > 0


@pytest.mark.skipif(not __debug__, reason="the soundness check is an assert")
def test_every_pushed_child_is_checked_to_separate(monkeypatch):
    # `_lawler` asserts that each separator it queues under a resolved key
    # (|T|, T) separates s from t in G, once and on that very separator: a
    # closure child's when it is pushed, a flow child's when its cut is
    # read.  Every emission is among them.
    checked, pushed = [], []

    def checked_separator(G, term, X):
        checked.append(X)
        return sepenum.graph.is_separator(G, term, X)

    def recording_push(queue, item):
        if len(item[0]) == 2:  # (|T|, T), not an unresolved (size, (), n)
            pushed.append(item[0][1])
        heappush(queue, item)

    monkeypatch.setattr(sepenum.ranked, "is_separator", checked_separator)
    monkeypatch.setattr(sepenum.ranked, "heappush", recording_push)
    for g, term in (band(3, 30), band(4, 12)):
        checked.clear()
        pushed.clear()
        emitted = list(islice(sp.iter_ranked_separators(g, term), 400))
        assert len(emitted) == 400
        assert checked == pushed and len(pushed) > 400
        assert set(emitted) <= set(checked)


def test_ranked_reads_a_flow_childs_cut_only_when_it_pops(monkeypatch):
    # A flow child runs its flow when it is queued and has its cut read
    # when it pops.  The first 100 emissions on B(3,30) all have size
    # κ = 3, so no flow child pops and the root's is the only cut read;
    # reading each flow child's cut when it was queued took 111.
    reads, popped = [], []
    closest, pop = FlowNetwork.closest_cut, heappop

    def counted_cut(self):
        reads.append(self)
        return closest(self)

    def recording_pop(queue):
        item = pop(queue)
        popped.append(len(item[0]) == 3)  # an unresolved (size, (), n)
        return item

    monkeypatch.setattr(FlowNetwork, "closest_cut", counted_cut)
    monkeypatch.setattr(sepenum.ranked, "heappop", recording_pop)
    g, term = band(3, 30)
    assert len(list(islice(sp.iter_ranked_separators(g, term), 100))) == 100
    assert len(reads) == 1
    flows = total = 0
    for n, p, seed in ((60, 0.06, 4700), (90, 0.04, 4701), (120, 0.03, 4702)):
        g = random_connected_graph(n, p, seed)
        for term in nonadjacent_pairs(g)[:3]:
            reads.clear()
            popped.clear()
            before = flow_call_count()
            list(islice(sp.iter_ranked_separators(g, term), 100))
            assert len(reads) <= sum(popped) + 1
            flows += flow_call_count() - before
            total += len(reads)
    assert total < flows / 2


def _eager_ranked(G, term):
    """The Lawler loop of `ranked` as it was before the deferral: every
    flow child's cut is read when the child is queued."""
    root = _terminal_flow(G, term)
    S, paths = root.closest_cut(), root.disjoint_paths()
    queue = [((len(S), S), frozenset(), frozenset(), paths)]
    while queue:
        (_, S), include, excluded, kept = heappop(queue)
        yield S
        prefix = []
        for v in S:
            if v in include:
                continue
            include_i, excluded_v = include | set(prefix), excluded | {v}
            prefix.append(v)
            T = root.closest_cut_with(include_i, excluded_v, S) if kept is paths else None
            kept_i = paths
            if T is None:
                try:
                    net = _min_cut(G, (term.s,), (term.t,), include_i, kept, excluded_v)
                except TerminalsAdjacent:
                    continue
                T = canonical(net.closest_cut() + tuple(include_i))
                kept_i = net.disjoint_paths()
            heappush(queue, ((len(T), T), include_i, excluded_v, kept_i))


def _emissions_and_flows(make_stream, limit):
    """Each emission with the flow calls made since the one before it, or
    since the stream was made."""
    out, before = [], flow_call_count()
    for S in islice(make_stream(), limit):
        out.append((S, flow_call_count() - before))
        before = flow_call_count()
    return out


def test_ranked_equals_the_eager_loop_past_the_oracles():
    # No oracle past n = 16: the stream must be the eager loop's, item for
    # item, with the same flow calls before each emission.
    cases = [(*band(3, 30), 300), (*band(4, 12), 400)]
    for n, p, seed in ((100, 0.035, 4402), (200, 0.02, 4400), (300, 0.015, 4402)):
        g = random_connected_graph(n, p, seed)
        cases.append((g, Terminals(0, n - 1), 300))
    emitted = 0
    for g, term, limit in cases:
        eager = _emissions_and_flows(lambda: _eager_ranked(g, term), limit)
        assert _emissions_and_flows(lambda: sp.iter_ranked_separators(g, term), limit) == eager
        emitted += len(eager)
    assert emitted > 1500


def test_ranked_runs_one_flow_before_its_first_emission_and_at_most_s_after_s():
    # The delay contract in flow calls: the root flow, then after emitting
    # S at most one flow per child of S's cell, at most |S| of them; a
    # child's cut is read when it pops, with no flow.
    cases = [band(3, 30), band(4, 12), band(2, 200), grid(12), two_hamiltonian_cycles(1000, 5)]
    g = random_connected_graph(300, 0.015, 4402)
    cases.append((g, Terminals(0, g.n - 1)))
    for g, term in cases:
        stream = _emissions_and_flows(lambda: sp.iter_ranked_separators(g, term), 300)
        assert len(stream) == 300 and stream[0][1] == 1
        for (S, _), (_, flows) in zip(stream, stream[1:]):
            assert flows <= len(S)


@pytest.mark.parametrize("stream", [
    sp.iter_ranked_separators,
    sp.iter_minimum_separators,
    lambda g, term: sp.iter_small_minimal(g, term, 3),
    lambda g, term: _iter_important(g, term, 3),
], ids=["ranked", "minimum-all", "list-minimal-k3", "important-k3"])
def test_two_generators_pulled_in_turn_each_give_the_stream_pulled_alone(stream):
    # Two running generators of one stream on one graph share no state.
    texts = inputs()
    for name in ("band_3_30", "band_2_40", "grid_6", "tree_5", "sparse_100_6"):
        g = parse_graph(texts[name])
        term = Terminals(g.vertex("s"), g.vertex("t"))
        alone = list(islice(stream(g, term), 200))
        assert alone
        assert list(islice(zip(stream(g, term), stream(g, term)), 200)) == [(S, S) for S in alone]
