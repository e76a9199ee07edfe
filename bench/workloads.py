"""The benchmark's workloads: fixed query lists over generated inputs.

Each workload is a function of the seed that returns its queries in run
order.  `tiny=True` shrinks every input so the test suite can smoke-run a
workload in well under a second; the shapes and commands stay the same.
"""

from dataclasses import dataclass

from . import gen


@dataclass(frozen=True)
class Query:
    family: gen.Family
    command: str
    options: tuple[str, ...] = ()
    seeded: bool = False  # True when the input depends on the seed

    @property
    def name(self) -> str:
        return ":".join((self.command, self.family.name) + self.options)

    def argv(self, path) -> list[str]:
        return [self.command, str(path), "-s", self.family.s, "-t", self.family.t,
                *self.options]

    def option(self, flag: str) -> int | None:
        if flag not in self.options:
            return None
        return int(self.options[self.options.index(flag) + 1])


def minsep_large(seed: int, tiny: bool = False) -> list[Query]:
    """One flow call per query on a large input: parse, network build,
    augmentation, cut extraction and path decomposition, with no rewrites,
    queue or branching.  The cycle stresses path decomposition."""
    n_small, n_large, cyc = (200, 600, 60) if tiny else (10_000, 30_000, 3_000)
    return [
        Query(gen.random_connected("random_a", n_small, seed), "minsep", seeded=True),
        Query(gen.random_connected("random_b", n_large, seed), "minsep", seeded=True),
        Query(gen.cycle(cyc), "minsep"),
    ]


def ranked_stream(seed: int, tiny: bool = False) -> list[Query]:
    """Hundreds of flow calls on small graphs that `saturate` makes denser;
    every queued Lawler cell holds a whole graph."""
    n, length, limit, band_limit = (40, 6, 10, 10) if tiny else (300, 30, 150, 100)
    band = gen.band(3, length)
    return [
        Query(gen.random_connected("random_r", n, seed), "ranked",
              ("--limit", str(limit)), seeded=True),
        Query(band, "ranked", ("--limit", str(band_limit))),
        Query(band, "minimum-all"),
    ]


def minimal_stream(seed: int, tiny: bool = False) -> list[Query]:
    """Thousands of tiny flow calls from the important-separator branching
    and its post-hoc filter, with `add_star`/`absorb` copies and the
    seen-set; no `saturate` and no big graphs.  The inputs are structured
    and do not depend on the seed."""
    length, side, depth = (6, 5, 3) if tiny else (30, 15, 7)
    return [
        Query(gen.band(3, length), "list-minimal", ("-k", "3")),
        Query(gen.grid(side), "list-minimal", ("-k", "3")),
        Query(gen.binary_tree(depth), "important", ("-k", "5")),
    ]


WORKLOADS = {
    "minsep-large": minsep_large,
    "ranked-stream": ranked_stream,
    "minimal-stream": minimal_stream,
}
