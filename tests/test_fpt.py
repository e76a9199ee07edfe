import pytest

import sepenum as sp
from sepenum.errors import AlreadySeparated, SepenumError, TerminalsAdjacent
from sepenum.graph import Terminals, parse_graph
from sepenum.mincut import flow_call_count

from conftest import DIAMOND, P4, THETA, nonadjacent_pairs, random_connected_graph


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
    assert sp.pop_key(th, 0, (1, 3)) == (1, (1, 3))
    assert sp.pop_key(th, 0, (1, 4)) == (2, (1, 4))
    assert sp.pop_key(P4.graph, 0, (2,)) == (2, (2,))


def test_matches_brute_force_each_exactly_once():
    for seed in range(30):
        n = 5 + seed % 6
        g = random_connected_graph(n, (0.2, 0.35, 0.5)[seed % 3], 1300 + seed)
        for term in nonadjacent_pairs(g):
            minimal = sp.brute_minimal_separators(g, term)
            for k in (1, (n + 1) // 2, n):
                got = list(sp.iter_small_minimal(g, term, k))
                assert len(got) == len(set(got))
                assert set(got) == {X for X in minimal if len(X) <= k}
                comp_sizes = [sp.pop_key(g, term.s, X)[0] for X in got]
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
