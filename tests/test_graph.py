import ast
import gc
import inspect
import platform
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sepenum as sp
from sepenum.errors import AlreadySeparated, SepenumError, TerminalsAdjacent
from sepenum.graph import Graph, Terminals, _require_separable, _walk, absorb, parse_graph

from conftest import (
    DIAMOND,
    P4,
    THETA,
    band,
    bfs_side,
    grid,
    nonadjacent_pairs,
    random_connected_graph,
    random_graph,
    two_hamiltonian_cycles,
)
import oracle
from oracle import (
    brute_chordless_paths_through,
    brute_important,
    brute_minimal_separators,
    brute_minimum_separators,
)


def ids(G, labels: str):
    return tuple(sorted(G.vertex(lab) for lab in labels.split())) if labels else ()


def edge_set(G):
    return {(G.labels[u], G.labels[v]) for u, v in G.edges()}


# ---------------------------------------------------------------------------
# parsing

def test_parse_p4():
    g = parse_graph("s a\na b\nb t")
    assert g.n == 4 and g.edge_count() == 3
    assert g.labels == ("s", "a", "b", "t")


def test_parse_empty():
    g = parse_graph("")
    assert g.n == 0 and g.edge_count() == 0


def test_parse_dedups_repeated_edges():
    g = parse_graph("s a\ns a")
    assert g.n == 2 and g.edge_count() == 1


def test_parse_comments_and_blanks():
    g = parse_graph("# header\n\ns a\n   \n# tail\na t\n")
    assert g.n == 3 and g.edge_count() == 2
    g = parse_graph("a#b c\n\t# c d\n")  # a '#' inside a label starts no comment
    assert g.labels == ("a#b", "c") and g.edge_count() == 1


def test_parse_malformed_line():
    with pytest.raises(SepenumError, match="line 1: expected 2 tokens, got 3"):
        parse_graph("s a b")
    with pytest.raises(SepenumError, match="line 1: expected 2 tokens, got 1"):
        parse_graph("s")


def test_parse_self_loop():
    with pytest.raises(SepenumError, match="line 1: self-loop at 's'"):
        parse_graph("s s")


@pytest.mark.parametrize("text, message", [
    ("a b\nc c\nd e f", "line 2: self-loop at 'c'"),
    ("a b\nd e f\nc c", "line 2: expected 2 tokens, got 3"),
    ("# x\n\na b c", "line 3: expected 2 tokens, got 3"),
    ("a b\r\n  # c d e\r\n\r\nx\r\n", "line 4: expected 2 tokens, got 1"),
    ("a b\x1cb d\u2028c c", "line 3: self-loop at 'c'"),
])
def test_parse_reports_first_error_with_its_line(text, message):
    with pytest.raises(SepenumError) as err:
        parse_graph(text)
    assert str(err.value) == message


def _line_by_line_parse(text: str) -> Graph:
    """The reference parser: one pass over the lines, one edge at a time."""
    labels: list[str] = []
    ids: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise SepenumError(f"line {lineno}: expected 2 tokens, got {len(tokens)}")
        u_lab, v_lab = tokens
        if u_lab == v_lab:
            raise SepenumError(f"line {lineno}: self-loop at {u_lab!r}")
        for lab in (u_lab, v_lab):
            if lab not in ids:
                ids[lab] = len(labels)
                labels.append(lab)
        edges.append((ids[u_lab], ids[v_lab]))
    return Graph(len(labels), edges, labels)


def _parse_outcome(parse, text):
    """(labels, adj) of the parsed text, or the message of its error."""
    try:
        g = parse(text)
    except SepenumError as exc:
        return str(exc)
    assert [g.vertex(lab) for lab in g.labels] == list(range(g.n))
    return g.labels, g.adj


LABELS = ("a", "b", "c", "a#b", "#", "#c", "10")
SPACES = (" ", "  ", "\t", "\x1f", "\u3000")
BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x85", "\u2028", "\u2029")


def _random_text(rng) -> str:
    lines = []
    for _ in range(rng.randrange(8)):
        count = rng.choice((0, 2, 2, 2, 2, 1, 3))
        tokens = [rng.choice(LABELS) for _ in range(count)]
        if rng.random() < 0.15:
            tokens.insert(0, "#")
        line = rng.choice(SPACES).join(tokens)
        lines.append(rng.choice(("", "", " ", "\t")) + line)
    text = "".join(line + rng.choice(BREAKS) for line in lines)
    return text[:-1] if text and rng.random() < 0.5 else text


@pytest.mark.parametrize("text", [
    "", "\n", "  \n\t\n", "# only a comment", "  # indented\na b", "a#b c\nc a#b",
    "a b\nb a\na b", "a b\r\nb c\r\n", "a b\x1cb c\x85c d\u2028d e", "a\tb\n\t\nc d",
    "a b\nc c\nd e f", "a b\nd e f\nc c", "# x\n\na b c", "a b\n#\nb", "x\r\n",
])
def test_parse_matches_line_by_line_reference_on_cases(text):
    assert _parse_outcome(parse_graph, text) == _parse_outcome(_line_by_line_parse, text)


def test_parse_matches_line_by_line_reference_on_seeded_texts():
    rng = random.Random(11)
    for _ in range(2_000):
        text = _random_text(rng)
        assert (_parse_outcome(parse_graph, text)
                == _parse_outcome(_line_by_line_parse, text)), repr(text)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(LABELS + SPACES + BREAKS), max_size=40).map("".join))
def test_parse_matches_line_by_line_reference(text):
    assert _parse_outcome(parse_graph, text) == _parse_outcome(_line_by_line_parse, text)


def _large_edge_list(rng, n: int) -> list[tuple[int, int]]:
    """A shuffled edge list on ids 0..n-1, numbered by first appearance: a
    random tree, as many random edges again, and repeats of a fifth of them,
    every other repeat reversed."""
    edges = [(v, rng.randrange(v)) for v in range(1, n)]
    while len(edges) < 2 * (n - 1):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v))
    repeats = rng.sample(edges, len(edges) // 5)
    edges += [(v, u) if i % 2 else (u, v) for i, (u, v) in enumerate(repeats)]
    rng.shuffle(edges)
    first: dict[int, int] = {}
    for u, v in edges:
        for x in (u, v):
            if x not in first:
                first[x] = len(first)
    return [(first[u], first[v]) for u, v in edges]


def test_parse_matches_line_by_line_reference_at_scale():
    """Over 2·10⁴ lines and 10⁴ labels, so the label dict resizes many times
    while the one-pass numbering runs; then one bad line near the end."""
    rng = random.Random(34)
    n = 12_000
    labels = [f"a#{i}" if i % 5 == 0 else f"v{i}" for i in range(n)]
    lines = [[labels[u], labels[v]] for u, v in _large_edge_list(rng, n)]
    for _ in range(n // 5):
        lines.insert(rng.randrange(len(lines)), rng.choice((
            [], ["#"], ["#", "v1", "v2"], ["#v3", "v4", "v5"], ["#v6"])))
    spaces, breaks, raw = [], [], []
    for tokens in lines:
        spaces.append(rng.choice(SPACES))
        breaks.append(rng.choice(BREAKS))
        raw.append(rng.choice(("", "", " ", "\t")) + spaces[-1].join(tokens) + breaks[-1])
    assert len(raw) >= 20_000 and set(spaces) == set(SPACES) and set(breaks) == set(BREAKS)
    text = "".join(raw)
    outcome = _parse_outcome(parse_graph, text)
    assert outcome == _parse_outcome(_line_by_line_parse, text)
    assert len(outcome[0]) == n
    at = len(raw) - 40
    lineno = len("".join(raw[:at]).splitlines()) + 1
    for bad, message in [("v1 v2 v3", "expected 2 tokens, got 3"),
                         ("v7\t v7", "self-loop at 'v7'")]:
        text = "".join(raw[:at] + [bad + "\n"] + raw[at:])
        outcome = _parse_outcome(parse_graph, text)
        assert outcome == _parse_outcome(_line_by_line_parse, text)
        assert outcome == f"line {lineno}: {message}"


@pytest.mark.skipif(platform.python_implementation() != "CPython",
                    reason="counts the runs of CPython's cyclic collector")
def test_a_large_parse_runs_few_young_collections():
    """The build makes one list per vertex and replaces each by its frozenset
    as it goes, so at most n tracked containers are live at once and the
    young generation fills about once per 700 vertices.  Keeping every list
    until all the sets were made ran it twice as often on CPython 3.10 and
    3.11 (85 runs on this text under 3.11); 3.12 and later count the
    collector's work differently, and pass whether or not the lists are kept."""
    rng = random.Random(7)
    n = 30_000
    order = [*rng.sample(range(n), n), *rng.sample(range(n), n)]
    text = "\n".join(f"v{order[i - 1]} v{order[i]}" for i in range(2 * n)
                     if order[i - 1] != order[i])
    runs = [0, 0, 0]

    def count_runs(phase, info):
        if phase == "start":
            runs[info["generation"]] += 1

    thresholds = gc.get_threshold()
    gc.set_threshold(700, 10, 10)
    gc.collect()
    gc.callbacks.append(count_runs)
    try:
        g = parse_graph(text)
    finally:
        gc.callbacks.remove(count_runs)
        gc.set_threshold(*thresholds)
    assert g.n == n and text.count("\n") >= 2 * n - 3
    assert runs[0] + runs[1] <= n // 700 + 5, runs  # a generation-1 run collects 0 too


def test_graph_init_equals_the_parse_of_the_same_edges():
    rng = random.Random(35)
    n = 5_000
    labels = [f"u{rng.randrange(10**9)}-{i}" for i in range(n)]
    edges = _large_edge_list(rng, n)
    g = Graph(n, edges, labels)
    h = parse_graph("\n".join(f"{labels[u]} {labels[v]}" for u, v in edges))
    assert g.labels == h.labels == tuple(labels)
    assert g.adj == h.adj
    assert [g.vertex(lab) for lab in labels] == [h.vertex(lab) for lab in labels] == list(range(n))
    around = [set() for _ in range(n)]
    for u, v in edges:
        around[u].add(v)
        around[v].add(u)
    assert list(g.adj) == around


@pytest.mark.parametrize("args, message", [
    ((2, [], ("a", "a")), "labels must be distinct and one per vertex"),
    ((2, [], ("a",)), "labels must be distinct and one per vertex"),
    ((2, [(0, 1), (0, 2)]), r"edge (0,2) out of range for n=2"),
    ((2, [(-1, 0)]), r"edge (-1,0) out of range for n=2"),
    ((3, [(0, 1), (2, 2), (0, 5)], ("x", "y", "z")), "self-loop at vertex 'z'"),
])
def test_graph_init_errors(args, message):
    with pytest.raises(SepenumError) as err:
        Graph(*args)
    assert str(err.value) == message


def test_graph_init_builds_symmetric_neighbourhoods():
    g = Graph(4, [(0, 1), (1, 0), (2, 1), (3, 2)], "wxyz")
    assert g.adj == (frozenset({1}), frozenset({0, 2}), frozenset({1, 3}), frozenset({2}))
    assert g.labels == ("w", "x", "y", "z") and g == parse_graph("w x\ny x\nz y")


# ---------------------------------------------------------------------------
# components and separator predicates

def test_component_of_examples():
    g, term = P4.graph, P4.terminals
    assert sp.component_of(g, ids(g, "a"), term.s) == {term.s}
    assert sp.component_of(g, (), term.s) == {0, 1, 2, 3}
    th = THETA.graph
    assert sp.component_of(th, ids(th, "a c"), 0) == set(ids(th, "s b"))


def test_component_of_removed_vertex():
    with pytest.raises(SepenumError, match="vertex 'a' is removed"):
        sp.component_of(P4.graph, (1,), 1)


def test_is_separator_examples():
    g, term = P4.graph, P4.terminals
    assert sp.is_separator(g, term, ids(g, "a"))
    assert sp.is_separator(g, term, ids(g, "a b"))
    d = DIAMOND.graph
    assert not sp.is_separator(d, DIAMOND.terminals, ids(d, "a"))


def test_is_separator_rejects_terminal():
    with pytest.raises(SepenumError, match="set s,a contains a terminal of s,t"):
        sp.is_separator(P4.graph, P4.terminals, (0, 1))


def test_is_separator_agrees_with_a_one_sided_search():
    # The search grown from both terminals gives the answer of one grown
    # from s alone, on connected and disconnected graphs, for random sets,
    # each terminal's neighbourhood and sets that meet both.
    rng = random.Random(2300)
    answers = []
    for seed in range(120):
        n = 3 + seed % 58
        if seed % 2:
            g = random_graph(n, rng.choice((0.02, 0.05, 0.1, 0.3)), 2300 + seed)
        else:
            g = random_connected_graph(n, max(0.15, 3 / n), 2300 + seed)
        for _ in range(3):
            s, t = rng.sample(range(n), 2)
            inner = [v for v in range(n) if v not in (s, t)]
            near_s, near_t = sorted(g.adj[s] - {t}), sorted(g.adj[t] - {s})
            both = rng.sample(near_s, len(near_s) // 2) + rng.sample(near_t, len(near_t) // 2)
            for X in (rng.sample(inner, rng.randint(0, len(inner))), near_s, near_t, both):
                expected = t not in bfs_side(g.adj, (s,), set(X))[0]
                assert sp.is_separator(g, Terminals(s, t), X) == expected
                answers.append(expected)
    assert answers.count(True) > 300 and answers.count(False) > 300


_VERTEX_SETS = st.sets(st.integers(0, 15), max_size=8)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10_000), start=_VERTEX_SETS, blocked=_VERTEX_SETS,
       inside=_VERTEX_SETS, stop=st.none() | st.integers(0, 15))
# start meets blocked at 1, and inside keeps the walk off 4 and 5, so it
# never reaches 7 and 15 and 3 stays off the rim; 14 it reaches
@example(seed=1, start={0, 1}, blocked={1, 2, 3}, inside={4, 5}, stop=7)
@example(seed=1, start={0, 1}, blocked={1, 2, 3}, inside={4, 5}, stop=14)
def test_walk_agrees_with_a_plain_bfs(seed, start, blocked, inside, stop):
    g = random_graph(16, (0.1, 0.2, 0.35)[seed % 3], seed)
    comp, rim = bfs_side(g.adj, start, blocked, inside)
    expected = None if stop in comp else (comp, rim)
    assert _walk(g.adj, sorted(start), blocked, stop, inside) == expected


class _CountingAdj(tuple):
    """Neighbourhoods that count how many of them are read."""

    def __getitem__(self, v):
        self.reads += 1
        return super().__getitem__(v)


def test_is_separator_reads_about_the_smaller_side():
    # With X = N(t), t's side is t alone, while s's side is all the rest:
    # a search from s alone reads about n neighbourhoods, and one from t
    # alone does so with the terminals swapped.  A 30-vertex path hung from
    # a vertex a of that graph, with X = {a}, is a small side 30 levels deep:
    # growing both sides in turn would read most of the graph.  On B(3,30)
    # with X its twelfth column, both frontiers hold 3 vertices from the
    # second level on and s has the smaller side, 34 vertices: growing both
    # in turn would read 68 neighbourhoods.
    n = 20_000
    g, term = two_hamiltonian_cycles(n, 23)
    a = min(g.adj[term.s])
    tail = Graph(n + 30, [(u, w) for u in range(n) for w in g.adj[u] if u < w]
                 + [(v, v + 1) for v in range(n, n + 29)] + [(n + 29, a)])
    for g, term, X in ((g, term, g.adj[term.t]), (g, Terminals(*term[::-1]), g.adj[term.t]),
                       (tail, Terminals(term.t, n), {a}), (tail, Terminals(n, term.t), {a}),
                       (*band(3, 30), range(35, 38))):
        g.adj = _CountingAdj(g.adj)
        g.adj.reads = 0
        assert sp.is_separator(g, term, X)
        assert g.adj.reads <= 50


def test_the_minimality_test_and_minimalize_walk_each_side_of_g_minus_x_once():
    # On B(3,400) the column 200 steps from s splits G - X into s's side of
    # 598 vertices and t's of 601.  is_minimal_separator grows each side
    # once from its terminal and reads n - 3 neighbourhoods; so does
    # minimalize, which takes each side's boundary from the walk that grows
    # it, and close_separator adds its separability check.  Reading a side
    # a second time for its boundary, or a separate is_separator walk
    # before s's component, reads about n/2 more.  Along row 0 with v at
    # column 200, chordless_path_to_separator reads the path, the prefix
    # before v and the component after it once each.
    g, term = band(3, 400)
    X = tuple(range(2 + 3 * 199, 2 + 3 * 200))
    g.adj = _CountingAdj(g.adj)
    for flip in (term, Terminals(*term[::-1])):
        g.adj.reads = 0
        assert sp.is_minimal_separator(g, flip, X)
        assert g.adj.reads <= g.n
        g.adj.reads = 0
        assert sp.minimalize(g, flip, X) == X
        assert g.adj.reads <= g.n
        g.adj.reads = 0
        assert sp.close_separator(g, flip) == tuple(sorted(g.adj[flip.s]))
        assert g.adj.reads <= 2 * g.n
    row = [term.s, *range(2, 2 + 3 * 400, 3), term.t]
    v = 2 + 3 * 200
    g.adj.reads = 0
    S = sp.chordless_path_to_separator(g, term, row, v)
    assert g.adj.reads <= 2_000
    assert sp.is_minimal_separator(g, term, S) and v in S


def test_already_separated_terminals_raise_whichever_side_is_larger():
    path = [(v, v + 1) for v in range(2, 11)]
    for edges in ([(0, 2), *path], [(1, 2), *path], [(0, 2), (1, 3)]):
        g = Graph(12, edges)
        with pytest.raises(AlreadySeparated):
            _require_separable(g, Terminals(0, 1))
        with pytest.raises(AlreadySeparated):
            sp.close_separator(g, Terminals(1, 0))


def test_is_minimal_separator_examples():
    g, term = P4.graph, P4.terminals
    assert sp.is_minimal_separator(g, term, ids(g, "a"))
    assert not sp.is_minimal_separator(g, term, ids(g, "a b"))
    d = DIAMOND.graph
    assert sp.is_minimal_separator(d, DIAMOND.terminals, ids(d, "a b"))


# ---------------------------------------------------------------------------
# saturation

def test_saturate_examples():
    g = P4.graph
    assert edge_set(sp.saturate(g, ids(g, "b"))) - edge_set(g) == {("a", "t")}
    assert sp.saturate(g, ()) == g
    d = DIAMOND.graph
    assert edge_set(sp.saturate(d, ids(d, "a"))) - edge_set(d) == {("s", "t")}


def test_saturate_idempotent_per_vertex():
    g = THETA.graph
    once = sp.saturate(g, (3,))
    assert sp.saturate(once, (3,)) == once


def test_saturate_order_independent():
    g = random_connected_graph(8, 0.5, 203)
    U = (1, 5)
    assert sp.saturate(g, U) == sp.saturate(g, tuple(reversed(U)))


def test_saturate_fixpoint_filters_overlapping_neighborhoods():
    # Regression: saturating 5 adds edges incident to 1, so a single
    # simultaneous pass over the original neighborhoods leaves N[1]
    # non-clique and {1,4,5,6} survives as a minimal separator meeting U.
    g = random_connected_graph(8, 0.5, 203)
    term = Terminals(0, 2)
    U = (1, 5)
    extra = [(x, y) for u in U for x in g.adj[u] | {u} for y in g.adj[u] | {u} if x < y]
    one_pass = Graph(g.n, [*g.edges(), *extra], g.labels)
    assert (1, 4, 5, 6) in brute_minimal_separators(one_pass, term)
    fixed = sp.saturate(g, U)
    want = {X for X in brute_minimal_separators(g, term) if not set(X) & set(U)}
    assert brute_minimal_separators(fixed, term) == want


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_saturate_family_matches_filtered_family(seed):
    g = random_connected_graph(7, 0.4, seed)
    term = Terminals(0, g.n - 1)
    if g.has_edge(*term):
        return
    U = tuple(v for v in range(1, g.n - 1) if (seed >> v) & 1)
    got = brute_minimal_separators(sp.saturate(g, U), term)
    want = {X for X in brute_minimal_separators(g, term) if not set(X) & set(U)}
    assert got == want


def test_saturation_composes():
    # The ranked stream builds each Lawler cell's graph from G at the whole
    # excluded set, not from its parent's graph at one more vertex.  The
    # cases include V meeting U, and V next to a component of G[U] with
    # more than one vertex, whose closed neighbourhood V's clique takes in.
    overlapping = touching = 0
    for seed in range(200):
        rng = random.Random(seed)
        g = random_graph(10, 0.3, 5200 + seed)
        U = {v for v in range(g.n) if rng.random() < 0.4}
        V = {v for v in range(g.n) if rng.random() < 0.25}
        assert sp.saturate(sp.saturate(g, U), V) == sp.saturate(g, U | V)
        rest = set(range(g.n)) - U
        near_V = set().union(*(g.adj[v] for v in V)) - V
        overlapping += bool(U & V)
        touching += any(len(sp.component_of(g, rest, u)) > 1 for u in near_V & U)
    assert overlapping > 50 and touching > 50


# ---------------------------------------------------------------------------
# star addition and absorption

def test_add_star_examples():
    th = THETA.graph
    assert edge_set(sp.add_star(th, 0, ids(th, "a c"))) - edge_set(th) == {("s", "c")}
    assert sp.add_star(th, 0, ()) == th
    g = P4.graph
    assert edge_set(sp.add_star(g, 0, ids(g, "b"))) - edge_set(g) == {("s", "b")}


def test_absorb_examples():
    g = P4.graph
    assert edge_set(absorb(g, 0, 1)) - edge_set(g) == {("s", "b")}
    d = DIAMOND.graph
    assert edge_set(absorb(d, 0, 1)) - edge_set(d) == {("s", "t")}
    g2 = sp.add_star(g, 0, (2,))
    assert edge_set(absorb(g2, 0, 2)) - edge_set(g2) == {("s", "t")}


def test_absorb_requires_neighbor():
    with pytest.raises(SepenumError, match="vertex 'b' is not adjacent to 's'"):
        absorb(P4.graph, 0, 2)


def test_absorb_never_removes_edges():
    g = THETA.graph
    assert edge_set(g) <= edge_set(absorb(g, 0, 1))


def _saturate_by_full_copy(g, U):
    adj = [set(a) for a in g.adj]
    changed = True
    while changed:
        changed = False
        for u in sorted(set(U)):
            closed = adj[u] | {u}
            for x in closed:
                grow = closed - {x} - adj[x]
                if grow:
                    adj[x] |= grow
                    changed = True
    return Graph(g.n, [(u, v) for u in range(g.n) for v in adj[u] if u < v], g.labels)


def _shares_what_it_leaves(g, h):
    for before, after in zip(g.adj, h.adj):
        assert isinstance(after, frozenset)
        assert (after is before) == (after == before)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_rewrites_equal_a_full_copy_and_share_untouched_neighbourhoods(data):
    n = data.draw(st.integers(2, 12), label="n")
    g = random_graph(n, data.draw(st.sampled_from((0.15, 0.3, 0.5)), label="p"),
                     data.draw(st.integers(0, 10_000), label="seed"))
    vertex = st.integers(0, n - 1)
    U = data.draw(st.sets(vertex), label="U")
    h = sp.saturate(g, U)
    assert h == _saturate_by_full_copy(g, U)
    _shares_what_it_leaves(g, h)
    V = data.draw(st.sets(vertex), label="V")
    assert sp.saturate(h, V) == sp.saturate(g, U | V)
    s = data.draw(vertex, label="s")
    S = data.draw(st.sets(vertex.filter(lambda v: v != s)), label="S")
    h = sp.add_star(g, s, S)
    assert h == Graph(n, [*g.edges(), *((s, v) for v in S)], g.labels)
    _shares_what_it_leaves(g, h)
    for v in g.adj[s]:
        h = absorb(g, s, v)
        assert h == Graph(n, [*g.edges(), *((s, y) for y in g.adj[v] if y != s)],
                          g.labels)
        _shares_what_it_leaves(g, h)


# ---------------------------------------------------------------------------
# close separator and minimalization

def test_close_separator_examples():
    g = P4.graph
    assert sp.close_separator(g, P4.terminals) == ids(g, "a")
    assert sp.close_separator(THETA.graph, THETA.terminals) == ids(THETA.graph, "a b")
    assert sp.close_separator(DIAMOND.graph, DIAMOND.terminals) == ids(DIAMOND.graph, "a b")


# every public function that takes Terminals, called on THETA with the given ones
_TERMINAL_QUERIES = {
    "is_separator": lambda g, term: sp.is_separator(g, term, ()),
    "is_minimal_separator": lambda g, term: sp.is_minimal_separator(g, term, ()),
    "close_separator": sp.close_separator,
    "minimalize": lambda g, term: sp.minimalize(g, term, (1, 3)),
    "chordless_path_through": lambda g, term: sp.chordless_path_through(g, term, 1),
    "chordless_path_to_separator":
        lambda g, term: sp.chordless_path_to_separator(g, term, [0, 1, 2], 1),
    "kappa": sp.kappa,
    "min_separator_containing": lambda g, term: sp.min_separator_containing(g, term, ()),
    "min_separator_excluding": lambda g, term: sp.min_separator_excluding(g, term, ()),
    "is_important": lambda g, term: sp.is_important(g, term, (1, 3)),
    "enumerate_important": lambda g, term: sp.enumerate_important(g, term, 2),
    "iter_small_minimal": lambda g, term: sp.iter_small_minimal(g, term, 2),
    "iter_ranked_separators": sp.iter_ranked_separators,
    "iter_minimum_separators": sp.iter_minimum_separators,
}
# the oracles in tests/oracle.py, the references the queries are checked against
_ORACLE_QUERIES = {
    "brute_minimal_separators": brute_minimal_separators,
    "brute_important": lambda g, term: brute_important(g, term, 2),
    "brute_minimum_separators": brute_minimum_separators,
    "brute_chordless_paths_through":
        lambda g, term: brute_chordless_paths_through(g, term, 1),
}
_QUERIES = {**_TERMINAL_QUERIES, **_ORACLE_QUERIES}


def _takes_terminals(module) -> set[str]:
    return {
        name for name in dir(module)
        if inspect.isfunction(getattr(module, name)) and not name.startswith("_")
        and any(p.annotation is Terminals
                for p in inspect.signature(getattr(module, name)).parameters.values())
    }


def test_terminal_queries_cover_every_public_function_that_takes_terminals():
    assert _takes_terminals(sp) == set(_TERMINAL_QUERIES)
    assert _takes_terminals(oracle) == set(_ORACLE_QUERIES)


def test_every_private_function_in_src_is_referenced_there():
    # A private function or method that no module of the package names is
    # left over from a deletion.  Terminals._make overrides the named
    # tuple's and is reached through _replace, which names it nowhere.
    modules = sorted(Path(sp.__file__).parent.glob("*.py"))
    nodes = [node for path in modules for node in ast.walk(ast.parse(path.read_text()))]
    private = {node.name for node in nodes
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name.startswith("_")
               and not (node.name.startswith("__") and node.name.endswith("__"))}
    named = {node.id for node in nodes if isinstance(node, ast.Name)}
    named |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    assert len(modules) > 5 and len(private) > 20
    assert private - named - {"_make"} == set()


def test_the_package_exports_only_the_engine():
    public = sorted(name for name, value in vars(sp).items()
                    if not name.startswith("_") and not inspect.ismodule(value))
    assert public == [
        "AlreadySeparated", "CutResult", "FlowNetwork", "Graph", "Separator",
        "SepenumError", "Terminals", "TerminalsAdjacent", "UnknownLabel",
        "add_star", "canonical", "chordless_path_through",
        "chordless_path_to_separator", "close_separator", "component_of",
        "enumerate_important", "flow_call_count", "is_important",
        "is_minimal_separator", "is_separator", "iter_minimum_separators",
        "iter_ranked_separators", "iter_small_minimal", "kappa",
        "min_separator_containing", "min_separator_excluding", "minimalize",
        "parse_graph", "saturate",
    ]


@pytest.mark.parametrize("name", sorted(_QUERIES))
def test_equal_terminals_raise_terminals_adjacent(name):
    query = _QUERIES[name]
    query(THETA.graph, THETA.terminals)  # the call itself is well formed
    for make in (lambda: Terminals(0, 0), lambda: Terminals(1, 1),
                 lambda: THETA.terminals._replace(t=0)):
        with pytest.raises(TerminalsAdjacent, match="source and target are the same vertex"):
            query(THETA.graph, make())


@pytest.mark.parametrize("name", sorted(_QUERIES))
def test_out_of_range_terminals_raise(name):
    query, n = _QUERIES[name], THETA.graph.n
    for s, t, bad in ((0, n, n), (0, -1, -1), (n, 2, n), (-1, 2, -1)):
        with pytest.raises(SepenumError, match=f"vertex id {bad} out of range for n={n}"):
            query(THETA.graph, Terminals(s, t))


@pytest.mark.parametrize("bad", (P4.graph.n, -1), ids=("n", "-1"))
def test_out_of_range_vertex_arguments_raise(bad):
    g, term = P4.graph, P4.terminals
    for query in (
        lambda: sp.min_separator_containing(g, term, (bad,)),
        lambda: sp.min_separator_excluding(g, term, (bad,)),
        lambda: sp.component_of(g, (bad,), 0),
        lambda: sp.component_of(g, (), bad),
        lambda: sp.saturate(g, (bad,)),
        lambda: sp.add_star(g, bad, (1,)),
        lambda: sp.add_star(g, 0, (bad,)),
        lambda: sp.chordless_path_to_separator(g, term, [0, bad, 2, 3], 2),
        lambda: sp.chordless_path_to_separator(g, term, [0, 1, 2, 3], bad),
        lambda: sp.chordless_path_through(g, term, bad),
    ):
        with pytest.raises(SepenumError, match=f"vertex id {bad} out of range for n=4"):
            query()


def test_close_separator_errors():
    with pytest.raises(TerminalsAdjacent, match="'t' is in the closed neighbourhood of s"):
        sp.close_separator(parse_graph("s t"), Terminals(0, 1))
    with pytest.raises(AlreadySeparated, match="terminals s,t already separated"):
        sp.close_separator(parse_graph("s a\nt b"), Terminals(0, 2))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_close_separator_is_unique_minimal_inside_ns(seed):
    g = random_connected_graph(4 + seed % 7, 0.35, seed)
    for term in nonadjacent_pairs(g):
        close = sp.close_separator(g, term)
        assert set(close) <= set(g.adj[term.s])
        assert sp.is_minimal_separator(g, term, close)
        inside = {
            X
            for X in brute_minimal_separators(g, term)
            if set(X) <= set(g.adj[term.s])
        }
        assert inside == {close}


def test_minimalize_examples():
    g = P4.graph
    assert sp.minimalize(g, P4.terminals, ids(g, "a b")) == ids(g, "a")
    assert sp.minimalize(g, P4.terminals, ids(g, "a")) == ids(g, "a")
    th = THETA.graph
    assert sp.minimalize(th, THETA.terminals, ids(th, "a b c")) == ids(th, "a b")


def test_minimalize_rejects_non_separator():
    with pytest.raises(SepenumError, match="set a does not separate 's' from 't'"):
        sp.minimalize(DIAMOND.graph, DIAMOND.terminals, (1,))


def test_minimalize_returns_minimal_subset():
    g = random_connected_graph(9, 0.35, 7)
    for term in nonadjacent_pairs(g):
        for X in brute_minimal_separators(g, term):
            for extra in range(g.n):
                if extra in term or extra in X:
                    continue
                fat = tuple(sorted(set(X) | {extra}))
                if not sp.is_separator(g, term, fat):
                    continue
                got = sp.minimalize(g, term, fat)
                assert set(got) <= set(fat)
                assert sp.is_minimal_separator(g, term, got)


# ---------------------------------------------------------------------------
# chordless-path witness construction

def test_chordless_path_to_separator_examples():
    g = P4.graph
    assert sp.chordless_path_to_separator(g, P4.terminals, [0, 1, 2, 3], 1) == (1,)
    assert sp.chordless_path_to_separator(g, P4.terminals, [0, 1, 2, 3], 2) == (2,)
    th = THETA.graph
    path = [0, th.vertex("b"), th.vertex("c"), 2]
    assert sp.chordless_path_to_separator(th, THETA.terminals, path, th.vertex("c")) == ids(th, "a c")


def test_a_vertex_with_a_clique_neighbourhood_has_no_witness_and_no_search():
    # A chordless path through v joins two non-adjacent neighbours of v.
    # On the 8x8 grid a pendant vertex at the middle, or one next to both
    # ends of a grid edge, has none; a depth-first search for one there
    # runs for seconds, so the neighbourhoods fail after a few reads.
    reads = []

    class Counted(tuple):
        def __getitem__(self, v):
            reads.append(v)
            assert len(reads) <= 20, "the path search ran"
            return tuple.__getitem__(self, v)

    g, term = grid(8)
    for ends in ((27,), (27, 28)):
        reads.clear()
        h = Graph(65, [*g.edges(), *((u, 64) for u in ends)])
        assert sp.chordless_path_through(h, term, 27) is not None
        h.adj = Counted(h.adj)
        assert sp.chordless_path_through(h, term, 64) is None


def test_chordless_path_validation():
    g, term = P4.graph, P4.terminals
    for path in ([1, 2, 3], [0, 1, 2], [0]):
        with pytest.raises(SepenumError, match="path must start at s and end at t"):
            sp.chordless_path_to_separator(g, term, path, 1)
    with pytest.raises(SepenumError, match="path vertices must be distinct"):
        sp.chordless_path_to_separator(g, term, [0, 1, 2, 1, 2, 3], 1)
    with pytest.raises(SepenumError, match=r"\(s,b\) is not an edge"):
        sp.chordless_path_to_separator(g, term, [0, 2, 3], 2)
    with pytest.raises(SepenumError, match="vertex 's' is a terminal"):
        sp.chordless_path_to_separator(g, term, [0, 1, 2, 3], 0)
    for v in term:
        with pytest.raises(SepenumError, match="is a terminal"):
            sp.chordless_path_through(g, term, v)
    th = THETA.graph
    with pytest.raises(SepenumError, match="vertex 'b' not on path"):
        sp.chordless_path_to_separator(th, THETA.terminals, [0, 1, 2], th.vertex("b"))
    with_chord = sp.add_star(DIAMOND.graph, 1, (2,))  # diamond plus (a,b)
    with pytest.raises(SepenumError, match=r"chord \(s,b\)"):
        sp.chordless_path_to_separator(
            with_chord, DIAMOND.terminals, [0, 1, 2, 3], 1
        )


def test_the_chord_check_reads_each_path_vertex_once():
    # Each path vertex's neighbours are looked up in a map of positions, and
    # the first chord in (i, j) order is reported.  On an n-vertex path the
    # witness reads about 4n neighbourhoods, two per vertex for the checks
    # and two for the walk to the separator; testing every pair read n²/2.
    n = 4000
    g = Graph(n, [(v, v + 1) for v in range(n - 1)])
    g.adj = _CountingAdj(g.adj)
    g.adj.reads = 0
    assert sp.chordless_path_to_separator(g, Terminals(0, n - 1), list(range(n)), 7) == (7,)
    assert g.adj.reads <= 5 * n
    path = list(range(6))
    for chords, first in (([(1, 5), (1, 3), (0, 4)], "0,4"), ([(1, 5), (2, 4), (1, 3)], "1,3")):
        with pytest.raises(SepenumError, match=rf"chord \({first}\)"):
            sp.chordless_path_to_separator(Graph(6, list(zip(path, path[1:])) + chords),
                                           Terminals(0, 5), path, 2)


def test_chordless_equivalence_small_random():
    # both directions: a chordless s,t-path through v exists exactly when
    # some minimal separator contains v, and the construction witnesses it
    for seed in range(30):
        g = random_connected_graph(5 + seed % 6, (0.2, 0.35, 0.5)[seed % 3], 40 + seed)
        for term in nonadjacent_pairs(g):
            minimal = brute_minimal_separators(g, term)
            for v in range(g.n):
                if v in term:
                    continue
                ref = brute_chordless_paths_through(g, term, v)
                path = sp.chordless_path_through(g, term, v)
                assert path == (ref[0] if ref else None)
                assert (path is not None) == any(v in X for X in minimal)
                if path:
                    sep = sp.chordless_path_to_separator(g, term, path, v)
                    assert v in sep
                    assert sp.is_minimal_separator(g, term, sep)
