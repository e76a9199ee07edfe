import tracemalloc

import pytest

import sepenum as sp
from sepenum.errors import AlreadySeparated, SepenumError, TerminalsAdjacent
from sepenum.graph import Graph, Terminals, parse_graph

from conftest import DIAMOND, P4, THETA, nonadjacent_pairs, random_connected_graph


def test_is_important_examples():
    g, term = P4.graph, P4.terminals
    assert sp.is_important(g, term, (1,))        # {a}: nothing shrinks C_s = {s}
    assert not sp.is_important(g, term, (2,))    # {b} loses to {a}
    assert not sp.is_important(THETA.graph, THETA.terminals, (1, 4))  # {a,c}


def test_is_important_requires_minimal():
    assert not sp.is_important(P4.graph, P4.terminals, (1, 2))  # {a,b} separates
    assert not sp.is_important(DIAMOND.graph, DIAMOND.terminals, (1,))  # {a} does not


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
