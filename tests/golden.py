"""The differential corpus: what the CLI answers, frozen into a file.

Run `PYTHONPATH=src python tests/golden.py` to rebuild every input, run
every query through `sepenum.cli.main` in-process and write
`tests/data/golden.json`.  For each query the file keeps its argv (the
input's name stands in the file position, and the input is fed on
standard input), the sha256 of stdout and of stderr, the exit code and
the number of flow calls the query ran.  `tests/test_golden.py` replays
it: digests and exit codes must match exactly, and no query may run
more flows than it did when the file was written.  A change that lowers
a count writes the file again and says so.

The inputs are built here, deterministically: bands B(w, L), grids,
cycles, binary trees, bands with a hub, seeded sparse random graphs and
small fixtures, some with n >= 1,000, plus inputs whose terminals are
adjacent or already separated.  The check queries' sets are chosen when
the file is written, with the library, and stored in their argv.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from itertools import islice
from pathlib import Path

from sepenum.cli import main
from sepenum.fpt import iter_small_minimal
from sepenum.graph import Terminals, canonical, is_minimal_separator, is_separator, parse_graph
from sepenum.important import is_important
from sepenum.mincut import flow_call_count, kappa

GOLDEN = Path(__file__).parent / "data" / "golden.json"


def _text(edges) -> str:
    return "".join(f"{u} {v}\n" for u, v in edges)


def _band(width: int, length: int, hub: bool = False) -> list:
    """B(w, L): s joined to the first column of a w-by-L grid, t to its
    last; with `hub`, one more vertex h next to every grid vertex."""
    def cell(r, c):
        return f"r{r}c{c}"

    edges = [("s", cell(r, 0)) for r in range(width)]
    edges += [(cell(r, length - 1), "t") for r in range(width)]
    for c in range(length):
        for r in range(width):
            if r + 1 < width:
                edges.append((cell(r, c), cell(r + 1, c)))
            if c + 1 < length:
                edges.append((cell(r, c), cell(r, c + 1)))
            if hub:
                edges.append(("h", cell(r, c)))
    return edges


def _grid(side: int) -> list:
    """The side-by-side grid, s and t at opposite corners."""
    def cell(r, c):
        return "s" if r == c == 0 else "t" if r == c == side - 1 else f"r{r}c{c}"

    edges = [(cell(r, c), cell(r, c + 1)) for r in range(side) for c in range(side - 1)]
    edges += [(cell(r, c), cell(r + 1, c)) for r in range(side - 1) for c in range(side)]
    return edges


def _cycle(n: int) -> list:
    """C_n with antipodal terminals."""
    def name(v):
        return "s" if v == 0 else "t" if v == n // 2 else str(v)

    return [(name(v), name((v + 1) % n)) for v in range(n)]


def _tree(depth: int) -> list:
    """A complete binary tree with t at its root and s next to every leaf."""
    size = 2 ** (depth + 1) - 1
    def name(v):
        return "t" if v == 0 else f"n{v}"

    edges = [(name((v - 1) // 2), name(v)) for v in range(1, size)]
    return edges + [("s", name(leaf)) for leaf in range(2 ** depth - 1, size)]


def _sparse(n: int, extra: int, seed: int) -> list:
    """A random tree on n vertices plus `extra` random chords, with s the
    vertex 0 and t the lowest vertex farthest from it."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + extra:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist, frontier = {0: 0}, [0]
    while frontier:
        level = dist[frontier[0]] + 1
        frontier = [w for v in frontier for w in adj[v] if w not in dist]
        dist.update(dict.fromkeys(frontier, level))
    t = max(range(n), key=lambda v: (dist[v], -v))

    def name(v):
        return "s" if v == 0 else "t" if v == t else str(v)

    return [(name(u), name(v)) for u, v in sorted(edges)]


def inputs() -> dict[str, str]:
    """Every input's edge-list text, by name; terminals are s and t."""
    built = {
        "p4": [("s", "a"), ("a", "b"), ("b", "t")],
        "diamond": [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")],
        "theta": [("s", "a"), ("a", "t"), ("s", "b"), ("b", "c"), ("c", "t")],
        "pendant": [("s", "a"), ("a", "t"), ("a", "d")],
        "adjacent": [("s", "t"), ("s", "a"), ("a", "t"), ("a", "b"), ("b", "t")],
        "separated": [("s", "a"), ("a", "b"), ("t", "c"), ("c", "d")],
    }
    for width, length in ((2, 6), (2, 40), (2, 500), (3, 5), (3, 30), (3, 100),
                          (3, 400), (4, 4), (4, 12), (4, 250)):
        built[f"band_{width}_{length}"] = _band(width, length)
    for length in (4, 30, 100):
        built[f"hub_band_{length}"] = _band(3, length, hub=True)
    for side in (4, 6, 15, 32):
        built[f"grid_{side}"] = _grid(side)
    for n in (6, 11, 60, 1500):
        built[f"cycle_{n}"] = _cycle(n)
    for depth in (2, 3, 5, 7):
        built[f"tree_{depth}"] = _tree(depth)
    for n, extra, seed in ((12, 6, 1), (16, 10, 2), (18, 8, 3), (20, 14, 4),
                           (40, 25, 5), (100, 60, 6), (300, 150, 7), (2000, 1000, 8)):
        built[f"sparse_{n}_{seed}"] = _sparse(n, extra, seed)
    return {name: _text(edges) for name, edges in built.items()}


def _labels(G, vertices) -> str:
    return ",".join(sorted(G.labels[v] for v in vertices))


def _check_sets(G, term) -> list[str]:
    """Sets of five kinds, as --set values, of those this input has: a
    minimum separator, a minimal one that is not important, a separator
    that is not minimal, a set that does not separate, and (when the
    terminals are already separated) any vertex."""
    inner = [v for v in range(G.n) if v not in term]
    if is_separator(G, term, ()):  # already separated
        return [_labels(G, inner[:1])]
    minimum = kappa(G, term).separator
    minimal = islice(iter_small_minimal(G, term, len(minimum) + 1), 40)
    extra = next((v for v in inner if v not in minimum), None)
    sets = [minimum, next((S for S in minimal if not is_important(G, term, S)), None),
            None if extra is None else canonical((*minimum, extra)),
            next(((v,) for v in inner if not is_separator(G, term, (v,))), None)]
    assert sets[2] is None or not is_minimal_separator(G, term, sets[2])
    return [_labels(G, S) for S in sets if S is not None]


def queries(texts: dict[str, str]) -> list[list[str]]:
    """Every query, as argv with the input's name in the file position."""
    found = []

    def ask(command, name, *extra, terminals=("s", "t"), json_too=True):
        argv = [command, name, "-s", terminals[0], "-t", terminals[1], *extra]
        found.append(argv)
        if json_too:
            found.append(argv + ["--json"])

    for name, text in texts.items():
        G = parse_graph(text)
        n = G.n
        term = Terminals(G.vertex("s"), G.vertex("t"))
        if name in ("adjacent", "separated"):  # exit codes 2 and 3
            for command, *extra in (("minsep",), ("ranked", "--limit", "5"), ("minimum-all",),
                                    ("list-minimal", "-k", "2", "--limit", "5"),
                                    ("important", "-k", "2"), ("check", "--set", "a"),
                                    ("witness", "-v", "a")):
                ask(command, name, *extra)
            continue
        large = n >= 1000
        ask("minsep", name)
        ask("ranked", name, "--limit", "8" if large else "40")
        if not large:  # with asserts on, each emission walks the graph once
            ask("minimum-all", name)
        k = "2" if large else "3"
        ask("list-minimal", name, "-k", k, "--limit", "10" if large else "40")
        ask("important", name, "-k", k)
        for members in _check_sets(G, term):
            ask("check", name, "--set", members)
        if n <= 20:
            for v in range(n):
                if v not in term:
                    ask("witness", name, "-v", G.labels[v], json_too=v % 3 == 0)
        else:
            ask("witness", name, "-v", G.labels[2], json_too=False)  # over --max-n
    for terminals in (("s", "zz"), ("zz", "t"), ("s", "s")):  # exit code 2
        ask("minsep", "p4", terminals=terminals, json_too=False)
    for extra in (("check", "--set", "a,zz"), ("check", "--set", "a,t"),
                  ("witness", "-v", "s"), ("witness", "-v", "zz"),
                  ("list-minimal", "-k", "0"), ("important", "-k", "0"),
                  ("ranked", "--limit", "-1")):
        ask(extra[0], "p4", *extra[1:], json_too=False)
    return found


def run(argv: list[str], text: str) -> dict:
    """One query through `cli.main`, its input on standard input."""
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    before = flow_call_count()
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], "-", *argv[2:]])
    finally:
        sys.stdin = stdin
    return {"stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
            "exit": code, "flows": flow_call_count() - before}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def write() -> None:
    texts = inputs()
    records = [{"argv": argv, **run(argv, texts[argv[1]])} for argv in queries(texts)]
    lines = ['{"inputs": ' + json.dumps({name: digest(t) for name, t in texts.items()}) + ",",
             ' "queries": [']
    lines += [" " + json.dumps(r) + "," for r in records]
    lines[-1] = lines[-1].rstrip(",")
    lines.append("]}")
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"{len(texts)} inputs, {len(records)} queries -> {GOLDEN}")


if __name__ == "__main__":
    write()
