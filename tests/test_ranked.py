import pytest

import sepenum as sp
from sepenum.errors import AlreadySeparated, TerminalsAdjacent
from sepenum.graph import Terminals, parse_graph
from sepenum.oracle import DIAMOND, P4, THETA

from conftest import nonadjacent_pairs, random_connected_graph


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
