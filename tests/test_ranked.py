import sys
import tracemalloc
from heapq import heappush
from itertools import islice, takewhile

import pytest

import sepenum as sp
import sepenum.graph
import sepenum.mincut
import sepenum.ranked
from sepenum.errors import AlreadySeparated, TerminalsAdjacent
from sepenum.graph import Graph, Terminals, parse_graph, saturate
from sepenum.mincut import FlowNetwork, flow_call_count

from conftest import (
    DIAMOND,
    P4,
    THETA,
    band,
    grid,
    nonadjacent_pairs,
    random_connected_graph,
)
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
    # up the closure once, in κ + 1 sweeps.  Every emission after that is
    # answered from the reach vectors with no residual search, so the
    # searches are the same on a band four times as long and do not grow
    # with the emissions.
    grow, callers = FlowNetwork._grow, []

    def counted_grow(self, *args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return grow(self, *args, **kwargs)

    monkeypatch.setattr(FlowNetwork, "_grow", counted_grow)
    for length in (100, 400):
        g, term = band(3, length)
        stream = sp.iter_minimum_separators(g, term)  # runs the root flow
        callers.clear()
        for _ in range(2):  # the first 300 emissions, then 300 more
            assert len(list(islice(stream, 300))) == 300
            assert callers == ["closest_cut"] + ["_reach_vectors"] * (3 + 1)


def test_ranked_cells_and_min_separator_excluding_build_no_graph(monkeypatch):
    # Every cell is answered on G with its excluded set uncut: no module
    # saturates, joins a star or makes a graph with new neighbourhoods.
    def refuse(*args):
        raise AssertionError("a query built a graph")

    for module in [m for name, m in sys.modules.items() if name.startswith("sepenum")]:
        for name in ("saturate", "add_star"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(Graph, "_with_adj", refuse)
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
    # The children of an emitted S are answered while the stream computes
    # its next item.  A child that has a minimum separator is the root's
    # closure and builds no network.  Any other child i removes include_i
    # and is handed all the parent's paths; the network keeps those that
    # avoid include_i, and each path crosses S - include in one vertex.
    starts, closed = [], []
    build, closure = FlowNetwork.__init__, FlowNetwork.closest_cut_with

    def spy(self, G, sources, sink, removed=(), flow=(), excluded=()):
        build(self, G, sources, sink, removed, flow, excluded)
        starts.append((len(set(removed)), self.value))

    def closure_spy(self, include=(), excluded=(), beyond=None):
        T = closure(self, include, excluded, beyond)
        closed.append(T is not None)
        return T

    monkeypatch.setattr(FlowNetwork, "__init__", spy)
    monkeypatch.setattr(FlowNetwork, "closest_cut_with", closure_spy)
    cases = [(*band(3, 30), 200)]
    for seed in range(12):
        g = random_connected_graph(6 + seed % 4, (0.3, 0.45)[seed % 2], 4100 + seed)
        cases += [(g, term, None) for term in nonadjacent_pairs(g)]
    flows = children = 0
    for g, term, limit in cases:
        starts.clear()
        stream = islice(sp.iter_ranked_separators(g, term), limit)
        assert starts == [(0, 0)]  # the terminal flow starts from zero
        starts.clear()
        parent = next(stream)
        while parent is not None:
            S = next(stream, None)  # answers the children of parent
            assert all(warm == len(parent) - include for include, warm in starts)
            flows += len(starts)
            children += len(starts) + sum(closed)
            starts.clear()
            closed.clear()
            parent = S
    assert children > 500 and flows > 250


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
    # `_lawler` asserts that each child it queues separates s from t in G,
    # once per child and on the very separator it pushes.
    checked, pushed = [], []

    def checked_separator(G, term, X):
        checked.append(X)
        return sepenum.graph.is_separator(G, term, X)

    def recording_push(queue, item):
        pushed.append(item[0][1])
        heappush(queue, item)

    monkeypatch.setattr(sepenum.ranked, "is_separator", checked_separator)
    monkeypatch.setattr(sepenum.ranked, "heappush", recording_push)
    for g, term in (band(3, 30), band(4, 12)):
        checked.clear()
        pushed.clear()
        assert len(list(islice(sp.iter_ranked_separators(g, term), 400))) == 400
        assert checked == pushed and len(pushed) > 400
