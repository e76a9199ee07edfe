from itertools import islice

import pytest

import sepenum as sp
from sepenum.errors import AlreadySeparated, TerminalsAdjacent
from sepenum.graph import Terminals, parse_graph
from sepenum.mincut import FlowNetwork

from conftest import DIAMOND, P4, THETA, band, nonadjacent_pairs, random_connected_graph


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
            assert set(got) >= sp.brute_minimal_separators(g, term)
            minimum = sp.brute_minimum_separators(g, term)
            assert set(got[: len(minimum)]) == minimum


def test_minimum_matches_brute_on_random_graphs():
    for seed in range(30):
        n = 5 + seed % 6
        g = random_connected_graph(n, (0.2, 0.35, 0.5)[seed % 3], 1600 + seed)
        for term in nonadjacent_pairs(g):
            got = list(sp.iter_minimum_separators(g, term))
            minimum = sp.brute_minimum_separators(g, term)
            assert len(got) == len(set(got))
            assert set(got) == minimum
            k = min(len(X) for X in minimum)
            assert all(len(X) == k for X in got)


def test_every_child_flow_starts_from_its_parents_paths(monkeypatch):
    # The children of an emitted S are built while the stream computes its
    # next item.  Child i removes include_i and starts from the parent's
    # paths that avoid it: each path crosses S - include in one vertex.
    starts = []
    build = FlowNetwork.__init__

    def spy(self, G, sources, sink, removed=(), flow=()):
        flow = list(flow)
        starts.append((len(set(removed)), len(flow)))
        build(self, G, sources, sink, removed, flow)

    monkeypatch.setattr(FlowNetwork, "__init__", spy)
    cases = [(*band(3, 30), 100)]
    for seed in range(12):
        g = random_connected_graph(6 + seed % 4, (0.3, 0.45)[seed % 2], 4100 + seed)
        cases += [(g, term, None) for term in nonadjacent_pairs(g)]
    children = 0
    for g, term, limit in cases:
        for enumerate_ in (sp.iter_ranked_separators, sp.iter_minimum_separators):
            starts.clear()
            stream = islice(enumerate_(g, term), limit)
            assert starts == [(0, 0)]  # the terminal flow starts from zero
            starts.clear()
            parent = next(stream)
            while parent is not None:
                S = next(stream, None)  # builds the children of parent
                assert all(warm == len(parent) - include for include, warm in starts)
                children += len(starts)
                starts.clear()
                parent = S
    assert children > 500
