"""Output checks that use no `sepenum` function as their reference.

The checker reads the same edge-list file the program read, with its own
parser, and verifies every printed separator with its own breadth-first
search.  The connectivity printed by `minsep` and the sizes printed by
`minimum-all` are compared with κ from the checker's own augmenting-path
search; when networkx is importable, that κ is cross-checked against
`networkx.algorithms.connectivity.local_node_connectivity`.  Answers are
cached per input file because they take seconds on the large inputs.
"""

import hashlib
import json
from collections import deque
from pathlib import Path

from .workloads import Query


class InputGraph:
    """Adjacency sets keyed by label, read from an edge-list file."""

    def __init__(self, text: str):
        self.adj: dict[str, set[str]] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            u, v = line.split()
            self.adj.setdefault(u, set()).add(v)
            self.adj.setdefault(v, set()).add(u)

    def component(self, start: str, removed: frozenset) -> set[str]:
        comp = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in self.adj[u]:
                if w not in comp and w not in removed:
                    comp.add(w)
                    queue.append(w)
        return comp

    def boundary(self, comp: set[str]) -> set[str]:
        return {w for u in comp for w in self.adj[u]} - comp

    def kappa(self, s: str, t: str) -> int:
        """Most internally vertex-disjoint s,t-paths, which for non-adjacent
        terminals is the size of a minimum s,t-separator (Menger).  Augmenting
        paths by breadth-first search in the unit-capacity network where
        vertex v becomes an arc (v, IN) -> (v, OUT)."""
        IN, OUT = 0, 1
        used: set[tuple] = set()  # arcs carrying one unit of flow
        paths = 0
        while True:
            parent = {(s, OUT): None}
            queue = deque([(s, OUT)])
            while queue and (t, IN) not in parent:
                node = queue.popleft()
                v, side = node
                if side == IN:
                    steps = [(w, OUT) for w in self.adj[v] if ((w, OUT), node) in used]
                    if v != t and (node, (v, OUT)) not in used:
                        steps.append((v, OUT))
                else:
                    steps = [(w, IN) for w in self.adj[v] if (node, (w, IN)) not in used]
                    if ((v, IN), node) in used:
                        steps.append((v, IN))
                for step in steps:
                    if step not in parent:
                        parent[step] = node
                        queue.append(step)
            if (t, IN) not in parent:
                return paths
            node = (t, IN)
            while parent[node] is not None:
                arc = (parent[node], node)
                if arc[::-1] in used:
                    used.remove(arc[::-1])
                else:
                    used.add(arc)
                node = parent[node]
            paths += 1


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_query(query: Query, graph: InputGraph, lines: list[str],
                kappa: int | None) -> list[str]:
    """Every error found in one query's output lines; empty when it passes.

    `kappa` is an independently computed s,t-connectivity, or None when
    no reference is available.
    """
    s, t = query.family.s, query.family.t
    errors = []
    if query.command == "minsep":
        if len(lines) != 2 or not lines[0].startswith("kappa "):
            return [f"expected 'kappa <k>' and one separator, got {lines[:3]!r}"]
        printed = int(lines[0].split()[1])
        if kappa is not None and printed != kappa:
            errors.append(f"kappa {printed} but the reference says {kappa}")
        kappa = printed
        lines = lines[1:]
    if query.command == "minimum-all" and kappa is None and lines:
        kappa = len(lines[0].split(","))
    bound = query.option("-k")
    limit = query.option("--limit")
    if limit is not None and len(lines) > limit:
        errors.append(f"{len(lines)} lines exceed --limit {limit}")
    seen = set()
    last_size = last_side = 0
    for i, line in enumerate(lines):
        members = frozenset(line.split(","))
        where = f"line {i + 1} ({line})"
        if members in seen:
            errors.append(f"{where}: duplicate emission")
        seen.add(members)
        unknown = members - graph.adj.keys()
        if unknown or s in members or t in members:
            errors.append(f"{where}: not a set of non-terminal vertices")
            continue
        comp_s = graph.component(s, members)
        if t in comp_s:
            errors.append(f"{where}: does not separate {s} from {t}")
            continue
        # ranked may emit non-minimal separators by design (see sepenum.ranked)
        if query.command != "ranked" and not (
                graph.boundary(comp_s) == members
                == graph.boundary(graph.component(t, members))):
            errors.append(f"{where}: not minimal")
        if bound is not None and len(members) > bound:
            errors.append(f"{where}: size {len(members)} exceeds k={bound}")
        if query.command in ("ranked", "minimum-all") and len(members) < last_size:
            errors.append(f"{where}: size decreased")
        if query.command in ("minsep", "minimum-all") and kappa is not None \
                and len(members) != kappa:
            errors.append(f"{where}: size {len(members)} but kappa is {kappa}")
        if query.command == "list-minimal" and len(comp_s) < last_side:
            errors.append(f"{where}: s-side component shrank")
        last_size, last_side = len(members), len(comp_s)
    if query.command in ("list-minimal", "ranked", "minimum-all") and not lines:
        errors.append("no separator printed")
    return errors


class KappaReference:
    """s,t-connectivity per input, cached in a JSON file by content: the
    checker's own `InputGraph.kappa`, cross-checked against networkx when
    it is importable."""

    def __init__(self, cache_path: Path):
        self.cache_path = cache_path
        try:
            import networkx
            from networkx.algorithms.connectivity import local_node_connectivity
        except ImportError:
            self.nx = None
        else:
            self.nx = networkx
            self.local_node_connectivity = local_node_connectivity
        try:
            self.cache = json.loads(cache_path.read_text())
        except (OSError, ValueError):
            self.cache = {}

    def kappa(self, query: Query, text: str) -> int | None:
        if query.command not in ("minsep", "minimum-all"):
            return None
        s, t = query.family.s, query.family.t
        key = f"{digest(text)}:{s}:{t}"
        if key not in self.cache:
            kappa = InputGraph(text).kappa(s, t)
            if self.nx is not None:
                graph = self.nx.parse_edgelist(text.splitlines())
                other = self.local_node_connectivity(graph, s, t)
                if other != kappa:
                    raise RuntimeError(f"kappa references disagree on {query.name}: "
                                       f"augmenting paths {kappa}, networkx {other}")
            self.cache[key] = kappa
            self.cache_path.write_text(json.dumps(self.cache, indent=1))
        return self.cache[key]
