"""Seeded input families for the benchmark, written as edge-list files.

Every generator returns a `Family`: labels, an edge list and the two
terminal labels.  The structured families (band, grid, cycle, tree) do
not depend on the seed, so their CLI output is the same for every seed
and can be compared against committed digests.  Random graphs draw
everything from a `random.Random(seed)`, so one seed gives byte-identical
files.  The program under test only ever sees the written files.
"""

import random
from collections import deque
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Family:
    name: str
    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    s: str
    t: str

    def text(self) -> str:
        lab = self.labels
        return "".join(f"{lab[u]} {lab[v]}\n" for u, v in self.edges)

    def write(self, directory: Path) -> Path:
        path = directory / f"{self.name}.edges"
        path.write_text(self.text())
        return path


def random_connected(name: str, n: int, seed: int) -> Family:
    """Sparse connected random graph of average degree 4: the union of two
    uniformly random Hamiltonian cycles, redrawn until they share no edge.

    Every vertex has degree 4, so s,t-connectivity is 4 for almost every
    draw.  s is a seeded random vertex and t the vertex farthest from it
    (lowest id on ties), so each augmenting-path search covers nearly the
    whole graph and the flow work per query stays steady across seeds.
    """
    rng = random.Random(f"{name}:{seed}")
    while True:
        edges: set[tuple[int, int]] = set()
        for _ in range(2):
            order = list(range(n))
            rng.shuffle(order)
            edges.update((min(u, v), max(u, v)) for u, v in zip(order, order[1:] + order[:1]))
        if len(edges) == 2 * n:
            break
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    s = rng.randrange(n)
    dist = _bfs_distances(adj, s)
    t = max(range(n), key=lambda v: (dist[v], -v))
    edge_list = sorted(edges)
    rng.shuffle(edge_list)
    return Family(name, tuple(str(v) for v in range(n)), tuple(edge_list),
                  str(s), str(t))


def _bfs_distances(adj, source: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def band(width: int, length: int) -> Family:
    """B(w, L): a w-by-L grid, s joined to its first column, t to its last."""
    labels = ["s", "t"] + [f"r{r}c{c}" for c in range(length) for r in range(width)]

    def cell(r, c):
        return 2 + c * width + r

    edges = []
    for c in range(length):
        for r in range(width):
            if r + 1 < width:
                edges.append((cell(r, c), cell(r + 1, c)))
            if c + 1 < length:
                edges.append((cell(r, c), cell(r, c + 1)))
    edges += [(0, cell(r, 0)) for r in range(width)]
    edges += [(cell(r, length - 1), 1) for r in range(width)]
    return Family(f"band_{width}x{length}", tuple(labels), tuple(edges), "s", "t")


def grid(side: int) -> Family:
    """The side-by-side square grid, terminals at opposite corners."""
    labels = [f"r{r}c{c}" for r in range(side) for c in range(side)]
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                edges.append((v, v + 1))
            if r + 1 < side:
                edges.append((v, v + side))
    return Family(f"grid_{side}", tuple(labels), tuple(edges),
                  labels[0], labels[-1])


def cycle(n: int) -> Family:
    """The cycle C_n with antipodal terminals."""
    edges = tuple((v, (v + 1) % n) for v in range(n))
    return Family(f"cycle_{n}", tuple(str(v) for v in range(n)), edges,
                  "0", str(n // 2))


def binary_tree(depth: int) -> Family:
    """Complete binary tree of the given depth; t is the root and s is a
    new vertex joined to every leaf."""
    size = 2 ** (depth + 1) - 1
    labels = [f"n{v}" for v in range(size)] + ["s"]
    edges = [((v - 1) // 2, v) for v in range(1, size)]
    first_leaf = 2 ** depth - 1
    edges += [(size, leaf) for leaf in range(first_leaf, size)]
    return Family(f"tree_{depth}", tuple(labels), tuple(edges), "s", "n0")
