"""Shared fixtures, corpora and cached brute-force data for the test suite."""

import itertools
import random
from dataclasses import dataclass

import pytest

from sepenum.graph import Graph, Separator, Terminals, canonical, component_of, parse_graph

from oracle import brute_important, brute_minimal_separators, brute_minimum_separators


@dataclass(frozen=True)
class Fixture:
    name: str
    graph: Graph
    terminals: Terminals


def _fixture(name: str, text: str) -> Fixture:
    g = parse_graph(text)
    return Fixture(name, g, Terminals(g.vertex("s"), g.vertex("t")))


P4 = _fixture("P4", "s a\na b\nb t")
DIAMOND = _fixture("DIAMOND", "s a\ns b\na t\nb t")
THETA = _fixture("THETA", "s a\na t\ns b\nb c\nc t")

FIXTURES = {f.name: f for f in (P4, DIAMOND, THETA)}


def random_graph(n: int, edge_probability: float, seed: int) -> Graph:
    """Erdos-Renyi simple graph, reproducible for a given seed."""
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge_probability must be in [0, 1]")
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < edge_probability
    ]
    return Graph(n, edges)


def is_connected(G: Graph) -> bool:
    return G.n == 0 or len(component_of(G, (), 0)) == G.n


def random_connected_graph(n: int, p: float, seed: int) -> Graph:
    """Draw seeded ER graphs (bumping the seed) until one is connected."""
    for attempt in itertools.count():
        G = random_graph(n, p, seed + 1_000_003 * attempt)
        if is_connected(G):
            return G
    raise AssertionError("unreachable")


def band(width: int, length: int) -> tuple[Graph, Terminals]:
    """B(w, L): a w-by-L grid, s (vertex 0) joined to its first column and
    t (vertex 1) to its last; its connectivity is w."""

    def cell(r, c):
        return 2 + c * width + r

    edges = [(0, cell(r, 0)) for r in range(width)]
    edges += [(cell(r, length - 1), 1) for r in range(width)]
    for c in range(length):
        for r in range(width):
            if r + 1 < width:
                edges.append((cell(r, c), cell(r + 1, c)))
            if c + 1 < length:
                edges.append((cell(r, c), cell(r, c + 1)))
    return Graph(2 + width * length, edges), Terminals(0, 1)


def two_hamiltonian_cycles(n: int, seed: int) -> tuple[Graph, Terminals]:
    """A random 4-regular graph, the union of two random Hamiltonian cycles
    that share no edge, with s a random vertex and t the vertex farthest
    from it."""
    rng = random.Random(seed)
    while True:
        edges = set()
        for _ in range(2):
            order = rng.sample(range(n), n)
            edges.update((min(u, v), max(u, v)) for u, v in zip(order, order[1:] + order[:1]))
        if len(edges) == 2 * n:
            break
    g = Graph(n, edges)
    s = rng.randrange(n)
    dist, frontier, d = {s: 0}, [s], 0
    while frontier:
        d += 1
        frontier = [w for v in frontier for w in g.adj[v] if w not in dist]
        dist.update(dict.fromkeys(frontier, d))
    return g, Terminals(s, max(range(n), key=lambda v: (dist[v], -v)))


def grid(side: int) -> tuple[Graph, Terminals]:
    """The side-by-side square grid, terminals at opposite corners."""
    edges = [(r * side + c, r * side + c + 1) for r in range(side) for c in range(side - 1)]
    edges += [(r * side + c, (r + 1) * side + c) for r in range(side - 1) for c in range(side)]
    return Graph(side * side, edges), Terminals(0, side * side - 1)


def pop_key(G: Graph, s: int, S) -> tuple[int, Separator]:
    """Queue key of a separator: (size of s's component in G - S, members).

    Cardinality extends strict component inclusion, so this is a total
    order refining the order in which `iter_small_minimal` emits.
    """
    members = canonical(S)
    return (len(component_of(G, members, s)), members)


def nonadjacent_pairs(G: Graph):
    return [
        Terminals(s, t)
        for s, t in itertools.combinations(range(G.n), 2)
        if not G.has_edge(s, t)
    ]


# graphs per n for the 200-graph acceptance corpus, cycling p per graph
_CORPUS_SIZES = {5: 40, 6: 40, 7: 36, 8: 32, 9: 28, 10: 24}
_CORPUS_PS = (0.2, 0.35, 0.5)


def build_corpus() -> list[Graph]:
    graphs = []
    seed = 0
    for n, count in _CORPUS_SIZES.items():
        for i in range(count):
            graphs.append(random_connected_graph(n, _CORPUS_PS[i % 3], seed))
            seed += 1
    assert len(graphs) == 200
    return graphs


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


class PairCache:
    """Brute-force families, computed once per (graph, terminal pair)."""

    def __init__(self):
        self._minimal = {}
        self._minimum = {}
        self._important = {}

    def minimal(self, G, term):
        key = (id(G), term)
        if key not in self._minimal:
            self._minimal[key] = brute_minimal_separators(G, term)
        return self._minimal[key]

    def minimum(self, G, term):
        key = (id(G), term)
        if key not in self._minimum:
            self._minimum[key] = brute_minimum_separators(G, term)
        return self._minimum[key]

    def important(self, G, term, k):
        # importance of a separator does not depend on k; filter by size
        key = (id(G), term)
        if key not in self._important:
            self._important[key] = brute_important(G, term, G.n)
        return {X for X in self._important[key] if len(X) <= k}


@pytest.fixture(scope="session")
def cache():
    return PairCache()
