import itertools
import tracemalloc

import pytest

import sepenum as sp
from sepenum import mincut
from sepenum.errors import AlreadySeparated, SepenumError, TerminalsAdjacent
from sepenum.graph import Graph, Terminals, _component, canonical, parse_graph
from sepenum.important import _important_candidates
from sepenum.mincut import _min_cut

from conftest import (
    DIAMOND,
    P4,
    THETA,
    band,
    nonadjacent_pairs,
    random_connected_graph,
    random_graph,
)


def test_is_important_examples():
    g, term = P4.graph, P4.terminals
    assert sp.is_important(g, term, (1,))        # {a}: nothing shrinks C_s = {s}
    assert not sp.is_important(g, term, (2,))    # {b} loses to {a}
    assert not sp.is_important(THETA.graph, THETA.terminals, (1, 4))  # {a,c}


def test_is_important_requires_minimal():
    assert not sp.is_important(P4.graph, P4.terminals, (1, 2))  # {a,b} separates
    assert not sp.is_important(DIAMOND.graph, DIAMOND.terminals, (1,))  # {a} does not


def test_is_important_with_the_terminals_already_separated():
    g, term = parse_graph("s a\nt b"), Terminals(0, 2)
    assert sp.brute_important(g, term, 1) == {()}
    assert sp.is_important(g, term, ())
    assert not sp.is_important(g, term, (1,))  # {a}: t's side does not reach it
    cases = 0
    for seed in range(40):
        g = random_graph(4 + seed % 4, (0.15, 0.25, 0.4)[seed % 3], 1400 + seed)
        for term in nonadjacent_pairs(g):
            want = sp.brute_important(g, term, g.n)
            inner = [v for v in range(g.n) if v not in term]
            for r in range(len(inner) + 1):
                for X in itertools.combinations(inner, r):
                    assert sp.is_important(g, term, X) == (X in want)
                    cases += 1
    assert cases > 2000


def test_enumerate_important_examples():
    assert list(sp.enumerate_important(P4.graph, P4.terminals, 1)) == [(1,)]
    assert list(sp.enumerate_important(THETA.graph, THETA.terminals, 2)) == [(1, 3)]
    assert list(sp.enumerate_important(DIAMOND.graph, DIAMOND.terminals, 1)) == []


def test_enumerate_important_errors():
    with pytest.raises(TerminalsAdjacent):
        sp.enumerate_important(parse_graph("s t"), Terminals(0, 1), 1)
    with pytest.raises(AlreadySeparated):
        sp.enumerate_important(parse_graph("s a\nt b"), Terminals(0, 2), 1)
    with pytest.raises(SepenumError, match="k must be at least 1, got 0"):
        sp.enumerate_important(P4.graph, P4.terminals, 0)


def test_enumerate_important_matches_brute_everywhere():
    for seed in range(30):
        n = 5 + seed % 6
        g = random_connected_graph(n, (0.2, 0.35, 0.5)[seed % 3], 1000 + seed)
        for term in nonadjacent_pairs(g):
            for k in range(1, n + 1):
                got = sp.enumerate_important(g, term, k)
                assert set(got) == sp.brute_important(g, term, k)
                assert len(got) <= 4 ** k
                assert got == sorted(got, key=lambda s: (len(s), s))
                for X in got:
                    assert len(X) <= k
                    assert sp.is_minimal_separator(g, term, X)


def test_exactly_one_minimum_important():
    for seed in range(30):
        g = random_connected_graph(5 + seed % 6, 0.4, 1100 + seed)
        for term in nonadjacent_pairs(g):
            k = sp.kappa(g, term).kappa
            smallest = [X for X in sp.enumerate_important(g, term, g.n) if len(X) == k]
            assert len(smallest) == 1
            assert sp.kappa(g, term).separator == smallest[0]


def test_close_separator_is_always_important():
    for seed in range(30):
        g = random_connected_graph(5 + seed % 6, 0.35, 1200 + seed)
        for term in nonadjacent_pairs(g):
            assert sp.is_important(g, term, sp.close_separator(g, term))


def test_enumerate_important_on_a_long_cycle_stays_linear_in_memory():
    # One bitmask per vertex would take Theta(n^2) bytes, about 26 MiB here.
    n = 20_000
    g = Graph(n, [(v, (v + 1) % n) for v in range(n)])
    tracemalloc.start()
    try:
        got = sp.enumerate_important(g, Terminals(0, n // 2), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert got == [(1, n - 1)]


def _two_way_candidates(G: Graph, sources: frozenset, sink: int, removed: frozenset,
                        budget: int, committed: frozenset, out: set[frozenset]) -> None:
    """The plain two-way branching, one cold flow per node, as a reference.

    Either a vertex of the cut joins the separator (budget shrinks) or it
    is absorbed into the source side (the cut must then move).  Leaves
    where the source side is already disconnected from the sink yield the
    committed vertices as a candidate.
    """
    if not G.adj[sink].isdisjoint(sources - removed):
        return
    net = _min_cut(G, sources, sink, removed)
    if net.value == 0:
        out.add(committed)
        return
    if net.value > budget:
        return
    cut = net.furthest_cut()
    v = cut[0]
    _two_way_candidates(G, sources, sink, removed | {v}, budget - 1, committed | {v}, out)
    reach = _component(G.adj, sources - removed, removed.union(cut))
    _two_way_candidates(G, frozenset(reach | {v}), sink, removed, budget, committed, out)


def test_branching_gives_the_two_way_recursions_candidates():
    cases = 0
    for seed in range(60):
        n = 4 + seed % 11
        g = random_graph(n, (0.15, 0.25, 0.4, 0.6)[seed % 4], 1300 + seed)
        for term in nonadjacent_pairs(g):
            for k in range(1, 5):
                raw: set[frozenset] = set()
                _two_way_candidates(g, frozenset((term.t,)), term.s, frozenset(), k,
                                    frozenset(), raw)
                assert _important_candidates(g, term, k) == {canonical(X) for X in raw}
                cases += 1
    assert cases > 5000


def test_every_absorb_branch_starts_from_its_parents_paths(monkeypatch):
    starts = []
    init = mincut.FlowNetwork.__init__

    def recording_init(self, G, sources, sink, removed=(), flow=()):
        starts.append(list(flow))
        init(self, G, sources, sink, removed, flow)

    monkeypatch.setattr(mincut.FlowNetwork, "__init__", recording_init)
    children = 0
    cases = [band(3, 8), band(4, 6)]
    for seed in range(20):
        g = random_connected_graph(8 + seed % 5, 0.35, 1400 + seed)
        cases += [(g, term) for term in nonadjacent_pairs(g)]
    for g, term in cases:
        for k in range(1, 5):
            starts.clear()
            _important_candidates(g, term, k)
            assert starts[0] == []  # the root starts cold
            assert all(starts[1:])
            children += len(starts) - 1
    assert children > 300

