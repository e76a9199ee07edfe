import pytest

import sepenum as sp
from sepenum.errors import SepenumError

from conftest import DIAMOND, FIXTURES, P4, THETA, is_connected, random_graph


def test_fixture_shapes():
    assert set(FIXTURES) == {"P4", "DIAMOND", "THETA"}
    assert P4.graph.labels == ("s", "a", "b", "t") and P4.terminals == (0, 3)
    assert DIAMOND.graph.edge_count() == 4
    assert THETA.graph.edge_count() == 5 and THETA.terminals == (0, 2)


def test_brute_minimal_separators_fixtures():
    assert sp.brute_minimal_separators(P4.graph, P4.terminals) == {(1,), (2,)}
    assert sp.brute_minimal_separators(DIAMOND.graph, DIAMOND.terminals) == {(1, 2)}
    assert sp.brute_minimal_separators(THETA.graph, THETA.terminals) == {(1, 3), (1, 4)}


def test_brute_important_fixtures():
    assert sp.brute_important(P4.graph, P4.terminals, 1) == {(1,)}
    assert sp.brute_important(P4.graph, P4.terminals, 2) == {(1,)}
    assert sp.brute_important(THETA.graph, THETA.terminals, 2) == {(1, 3)}


def test_brute_minimum_separators_fixtures():
    assert sp.brute_minimum_separators(P4.graph, P4.terminals) == {(1,), (2,)}
    assert sp.brute_minimum_separators(DIAMOND.graph, DIAMOND.terminals) == {(1, 2)}
    assert sp.brute_minimum_separators(THETA.graph, THETA.terminals) == {(1, 3), (1, 4)}


def test_brute_chordless_paths_fixtures():
    assert sp.brute_chordless_paths_through(P4.graph, P4.terminals, 1) == [[0, 1, 2, 3]]
    assert sp.brute_chordless_paths_through(THETA.graph, THETA.terminals, 4) == [[0, 3, 4, 2]]
    assert sp.brute_chordless_paths_through(DIAMOND.graph, DIAMOND.terminals, 1) == [[0, 1, 3]]


def test_size_guards_hard_fail():
    big = random_graph(17, 0.2, 1)
    term = sp.Terminals(0, 16)
    with pytest.raises(SepenumError, match="n=17 exceeds oracle guard 16"):
        sp.brute_minimal_separators(big, term)
    with pytest.raises(SepenumError, match="n=17 exceeds oracle guard 16"):
        sp.brute_minimum_separators(big, term)
    mid = random_graph(15, 0.2, 1)
    with pytest.raises(SepenumError, match="n=15 exceeds oracle guard 14"):
        sp.brute_important(mid, sp.Terminals(0, 14), 3)
    with pytest.raises(SepenumError, match="n=15 exceeds oracle guard 14"):
        sp.brute_chordless_paths_through(mid, sp.Terminals(0, 14), 1)
    # the guard of the path oracle is adjustable
    assert sp.brute_chordless_paths_through(mid, sp.Terminals(0, 14), 1, max_n=15) is not None


def test_random_graph_determinism():
    a = random_graph(8, 0.35, 42)
    b = random_graph(8, 0.35, 42)
    assert a == b
    assert random_graph(4, 1.0, 7).edge_count() == 6
    assert random_graph(3, 0.0, 7).edge_count() == 0
    with pytest.raises(ValueError):
        random_graph(3, 1.5, 7)


def test_random_graph_seed42_frozen():
    # pin the exact edge set so cross-run reproducibility breaks loudly
    g = random_graph(8, 0.35, 42)
    assert sorted(g.edges()) == [
        (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (1, 5), (1, 7),
        (2, 3), (2, 6), (3, 5), (4, 5), (4, 6), (5, 6), (5, 7), (6, 7),
    ]
    assert is_connected(g)


def test_oracle_outputs_are_canonical():
    for fam in (
        sp.brute_minimal_separators(THETA.graph, THETA.terminals),
        sp.brute_minimum_separators(THETA.graph, THETA.terminals),
        sp.brute_important(THETA.graph, THETA.terminals, 3),
    ):
        for X in fam:
            assert list(X) == sorted(set(X))
