import pytest

import sepenum as sp
from sepenum import fpt, important
from sepenum.errors import AlreadySeparated, SepenumError, TerminalsAdjacent
from sepenum.graph import Terminals, parse_graph
from sepenum.mincut import flow_call_count

from conftest import (
    DIAMOND,
    P4,
    THETA,
    band,
    nonadjacent_pairs,
    random_connected_graph,
    random_graph,
)


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


def test_rewired_graphs_have_only_minimal_separators_of_g_with_larger_keys():
    # the rule that feeds the queue: for a minimal S of G and v in S with
    # t not next to v, every minimal separator of G with s joined to S and
    # N(v) is one of G, avoids v and has a strictly larger s-side
    checked = 0
    for seed in range(20):
        n = 5 + seed % 8
        g = random_graph(n, (0.25, 0.35, 0.5)[seed % 3], 1500 + seed)
        for term in nonadjacent_pairs(g):
            minimal = sp.brute_minimal_separators(g, term)
            for S in minimal:
                comp_size = sp.pop_key(g, term.s, S)[0]
                for v in S:
                    if term.t in g.adj[v]:
                        continue
                    h = sp.add_star(g, term.s, (set(S) | g.adj[v]) - {term.s})
                    for T in sp.brute_minimal_separators(h, term):
                        assert T in minimal and v not in T
                        assert sp.pop_key(g, term.s, T)[0] > comp_size
                        checked += 1
    assert checked > 1000


def test_list_minimal_tests_minimality_only_for_unseen_candidates(monkeypatch):
    g, term = band(3, 30)
    seen, tested, offered, popped = set(), [], [], []
    is_minimal, candidates = fpt.is_minimal_separator, fpt._important_candidates

    def spy(H, term_, T):
        result = is_minimal(H, term_, T)
        if T in seen:  # only the pop-time check of a queued separator
            assert H is g and T not in popped
            popped.append(T)
        else:
            tested.append(T)
            if result:
                seen.add(T)
        return result

    def counted_candidates(H, term_, k):
        found = candidates(H, term_, k)
        offered.extend(found)
        return found

    def refuse(*args):
        raise AssertionError("list-minimal runs no importance test")

    monkeypatch.setattr(fpt, "is_minimal_separator", spy)
    monkeypatch.setattr(fpt, "_important_candidates", counted_candidates)
    monkeypatch.setattr(important, "is_important", refuse)
    monkeypatch.setattr(important, "enumerate_important", refuse)
    emitted = list(fpt.iter_small_minimal(g, term, 3))
    assert len(emitted) == 260 and set(emitted) == seen
    assert popped in ([], emitted)  # asserts run unless python -O
    # most candidates of the rewired graphs were seen before and not tested
    assert 0 < len(tested) < len(offered) / 2
