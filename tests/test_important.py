import io
import itertools
import sys
import tracemalloc

import pytest

import sepenum as sp
from sepenum import important, mincut
from sepenum.cli import main
from sepenum.errors import AlreadySeparated, SepenumError, TerminalsAdjacent
from sepenum.graph import Graph, Terminals, _component, canonical, parse_graph
from sepenum.important import _iter_important, _levels
from sepenum.mincut import _min_cut, flow_call_count

from conftest import (
    DIAMOND,
    P4,
    THETA,
    band,
    nonadjacent_pairs,
    random_connected_graph,
    random_graph,
)
from oracle import brute_important


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
    assert brute_important(g, term, 1) == {()}
    assert sp.is_important(g, term, ())
    assert not sp.is_important(g, term, (1,))  # {a}: t's side does not reach it
    cases = 0
    for seed in range(40):
        g = random_graph(4 + seed % 4, (0.15, 0.25, 0.4)[seed % 3], 1400 + seed)
        for term in nonadjacent_pairs(g):
            want = brute_important(g, term, g.n)
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
                assert set(got) == brute_important(g, term, k)
                assert list(_iter_important(g, term, k)) == got
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


def test_a_huge_k_is_cut_down_to_the_largest_separator_size():
    # no separator has more than n - 2 vertices, so nothing may be sized by k
    g, term = THETA.graph, THETA.terminals
    small = (sp.enumerate_important(g, term, 3), list(sp.iter_small_minimal(g, term, 3)))
    tracemalloc.start()
    try:
        huge = (sp.enumerate_important(g, term, 10**5),
                list(sp.iter_small_minimal(g, term, 10**5)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert huge == small
    assert peak < 2**20


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
    net = _min_cut(G, sources, (sink,), removed)
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
                root = _min_cut(g, (term.t,), (term.s,))
                assert set().union(*_levels(g, k, root)) == {canonical(X) for X in raw}
                cases += 1
    assert cases > 5000


def test_every_absorb_branch_starts_from_its_parents_paths(monkeypatch):
    starts = []
    init = mincut.FlowNetwork.__init__

    def recording_init(self, G, sources, sink, removed=(), flow=(), excluded=()):
        init(self, G, sources, sink, removed, flow, excluded)
        starts.append(self.value)  # the paths the network kept

    monkeypatch.setattr(mincut.FlowNetwork, "__init__", recording_init)
    children = 0
    cases = [band(3, 8), band(4, 6)]
    for seed in range(20):
        g = random_connected_graph(8 + seed % 5, 0.35, 1400 + seed)
        cases += [(g, term) for term in nonadjacent_pairs(g)]
    for g, term in cases:
        for k in range(1, 6):
            starts.clear()
            list(_levels(g, k, _min_cut(g, (term.t,), (term.s,))))
            assert starts[0] == 0  # the root starts cold
            assert all(starts[1:])
            children += len(starts) - 1
    assert children > 300


def _check_absorb_children(G: Graph, sources, sink: int, removed: frozenset,
                           cap: int) -> int:
    """Run every absorb child of the branching's nodes whose candidate has
    at most cap vertices, and assert that the j-th child of a node with
    value lam has value at least lam - j + 1; return how many ran."""
    net = _min_cut(G, sources, (sink,), removed)
    lam = net.value
    if not 0 < lam <= cap - len(removed):
        return 0
    cut = net.furthest_cut()
    reach = _component(G.adj, sources, removed.union(cut))
    checked = 0
    for j, v in enumerate(cut):
        if sink in G.adj[v]:
            continue
        child = reach | {v}, sink, removed.union(cut[:j])
        assert _min_cut(G, child[0], (sink,), child[2]).value >= lam - j + 1
        checked += 1 + _check_absorb_children(G, *child, cap)
    return checked


def test_absorb_children_of_a_node_at_its_budget_are_over_budget():
    # The lemma behind the prune and the best-first order of the branching.
    # At k = |removed| + lam a node's budget is lam, so these are the flows
    # the prune skips: the j-th child's budget, lam - j, is below its value.
    checked = 0
    for seed in range(80):
        n = 8 + seed % 9
        g = random_graph(n, (0.15, 0.25, 0.35)[seed % 3], 1700 + seed)
        for term in nonadjacent_pairs(g):
            checked += _check_absorb_children(g, (term.t,), term.s, frozenset(), 5)
    assert checked > 1500


def _binary_tree(depth: int) -> str:
    """Edge list of the complete binary tree of the given depth, root n0,
    with a vertex s joined to every leaf."""
    size = 2 ** (depth + 1) - 1
    lines = [f"n{(v - 1) // 2} n{v}" for v in range(1, size)]
    lines += [f"s n{leaf}" for leaf in range(2 ** depth - 1, size)]
    return "\n".join(lines) + "\n"


class _FlowMarks(io.StringIO):
    """Standard output that records the flow-call count at every line end."""

    def __init__(self):
        super().__init__()
        self.marks: list[int] = []

    def write(self, text: str) -> int:
        self.marks += [flow_call_count()] * text.count("\n")
        return super().write(text)


def test_important_streams_a_deep_tree_by_size(tmp_path, monkeypatch):
    path = tmp_path / "tree.edges"
    path.write_text(_binary_tree(7))
    out = _FlowMarks()
    monkeypatch.setattr(sys, "stdout", out)
    before = flow_call_count()
    assert main(["important", str(path), "-s", "s", "-t", "n0", "-k", "5"]) == 0
    sizes = [len(line.split(",")) for line in out.getvalue().splitlines()]
    assert sizes == sorted(sizes) and len(sizes) == 22
    gaps = [b - a for a, b in zip([before, *out.marks], out.marks)]
    assert gaps[0] <= 2  # the root flow and one importance test
    assert max(gaps) <= 16
    assert flow_call_count() - before <= 44


def test_list_minimal_on_a_band_runs_no_over_budget_flow():
    g, term = band(3, 30)
    before = flow_call_count()
    assert len(list(sp.iter_small_minimal(g, term, 3))) == 260
    assert flow_call_count() - before <= 767


def test_the_important_stream_checks_its_input_when_called():
    with pytest.raises(TerminalsAdjacent):
        _iter_important(parse_graph("s t"), Terminals(0, 1), 1)
    with pytest.raises(AlreadySeparated):
        _iter_important(parse_graph("s a\nt b"), Terminals(0, 2), 1)
    with pytest.raises(SepenumError, match="k must be at least 1, got 0"):
        _iter_important(P4.graph, P4.terminals, 0)
    g, term = band(3, 8)
    before = flow_call_count()
    stream = _iter_important(g, term, 4)
    assert flow_call_count() - before == 1  # the root flow, and nothing more
    assert next(stream) == sp.kappa(g, term).separator


def test_important_tests_only_candidates_the_branching_cannot_certify(monkeypatch):
    # A node with no removed vertex, sources A and cut C, the furthest
    # minimum (A, s)-cut, yields C.  With R = comp_t(G - C), A lies in R,
    # so C is also the furthest minimum (R, s)-cut: important, and the
    # stream runs no flow to test it.
    certified = uncertified = 0
    for seed in range(200):
        n = 8 + seed % 53
        g = random_connected_graph(n, (2.5, 3.5, 5.0)[seed % 3] / n + 0.05, 2200 + seed)
        for term in nonadjacent_pairs(g)[seed::41][:3]:
            for k in range(2, 6):
                for level in _levels(g, k, _min_cut(g, (term.t,), (term.s,))):
                    for X, marked in level.items():
                        assert not marked or sp.is_important(g, term, X)
                        certified += marked
                        uncertified += not marked
    assert certified > 900 and uncertified > 100
    g = parse_graph(_binary_tree(7))
    term = Terminals(g.vertex("s"), g.vertex("n0"))
    tested = []
    is_important = important.is_important

    def counted(*args):
        tested.append(args[2])
        return is_important(*args)

    monkeypatch.setattr(important, "is_important", counted)
    assert len(list(_iter_important(g, term, 5))) == 22
    assert len(tested) == 18  # and 22 at k = 5 without the certificate


def test_the_branching_is_not_exact_so_the_filter_stays():
    # The root's cut from t is (0, 5).  Its second absorb child removes 0,
    # moves 5 to t's side and cuts (1, 4), so it yields (0, 1, 4) unmarked.
    # That is no important separator: N(s) = (1, 4, 6) has the same size
    # and the smaller s-side {s}.  Only the filter drops it.
    g = Graph(7, [(0, 3), (0, 4), (0, 6), (1, 2), (1, 4), (1, 5), (2, 4), (2, 6), (3, 5),
                  (4, 5), (4, 6)])
    term = Terminals(2, 3)
    levels = list(_levels(g, 3, _min_cut(g, (term.t,), (term.s,))))
    assert levels == [{}, {}, {(0, 5): True}, {(1, 4, 6): True, (0, 1, 4): False}]
    assert sp.component_of(g, (1, 4, 6), term.s) < sp.component_of(g, (0, 1, 4), term.s)
    assert not sp.is_important(g, term, (0, 1, 4))
    assert brute_important(g, term, 3) == {(0, 5), (1, 4, 6)}
    assert list(_iter_important(g, term, 3)) == [(0, 5), (1, 4, 6)]
