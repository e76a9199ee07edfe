"""Important s,t-separators: importance test, bounded enumeration, minimum.

Importance here is taken toward the source: a minimal s,t-separator S is
important when no minimal separator with a strictly smaller s-side
component has size at most |S|.  (Some texts use the mirror convention,
extremal toward t; everything below follows the source-side reading.)

Equivalently, with R the t-side component of G minus S: S is important
exactly when S is the minimum (R, s)-cut whose R-side is inclusion-maximal.
That duality drives both the constant-time test and the branching below.
"""

from dataclasses import dataclass

from .errors import AlreadySeparated, NotMinimal, TerminalsAdjacent
from .graph import (
    Graph,
    Separator,
    Terminals,
    _bits,
    _mask,
    _nbr_mask,
    _reach_mask,
    canonical,
    component_of,
    is_minimal_separator,
)
from .mincut import _min_cut, kappa, min_separator_between


@dataclass
class ImportantSet:
    """Important separators of size at most k, sorted by (size, members)."""

    separators: list[Separator]
    k: int

    def __iter__(self):
        return iter(self.separators)

    def __len__(self):
        return len(self.separators)

    def __contains__(self, item):
        return tuple(item) in self.separators


def is_important(G: Graph, term: Terminals, X) -> bool:
    """Test importance of a minimal separator without any enumeration."""
    members = canonical(X)
    if not is_minimal_separator(G, term, members):
        raise NotMinimal(f"{members} is not a minimal separator")
    R = component_of(G, members, term.t)
    return min_separator_between(G, R, term.s, "furthest") == members


def _candidates(G: Graph, src_mask: int, sink: int, removed: int, budget: int,
                committed: int, out: set[int]) -> None:
    """Two-way branching over cut vertices of the extremal minimum cut.

    Either a vertex of the cut joins the separator (budget shrinks) or it
    is absorbed into the source side (the cut must then move).  Leaves
    where the source side is already disconnected from the sink yield the
    committed vertices as a candidate.
    """
    masks = G.masks
    if _nbr_mask(masks, src_mask & ~removed) & ~removed & (1 << sink):
        return
    net = _min_cut(G, _bits(src_mask), sink, _bits(removed))
    if net.value == 0:
        out.add(committed)
        return
    if net.value > budget:
        return
    cut = net.furthest_cut()
    v = cut[0]
    _candidates(G, src_mask, sink, removed | (1 << v), budget - 1,
                committed | (1 << v), out)
    reach = _reach_mask(masks, src_mask & ~removed, removed | _mask(cut))
    _candidates(G, reach | (1 << v), sink, removed, budget, committed, out)


def enumerate_important(G: Graph, term: Terminals, k: int) -> ImportantSet:
    """All important s,t-separators of size at most k.

    The branching produces a superset of at most 4^k candidates; a
    minimality-plus-importance filter then makes the result exact.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if G.has_edge(term.s, term.t):
        raise TerminalsAdjacent(f"terminals {term.s},{term.t} are adjacent")
    if not _reach_mask(G.masks, 1 << term.s, 0) & (1 << term.t):
        raise AlreadySeparated(f"terminals {term.s},{term.t} already separated")
    raw: set[int] = set()
    _candidates(G, 1 << term.t, term.s, 0, k, 0, raw)
    found = []
    for cand_mask in raw:
        cand = canonical(_bits(cand_mask))
        assert len(cand) <= k
        if is_minimal_separator(G, term, cand) and is_important(G, term, cand):
            found.append(cand)
    found.sort(key=lambda sep: (len(sep), sep))
    return ImportantSet(found, k)


def min_important(G: Graph, term: Terminals) -> Separator:
    """The unique important separator of minimum size.

    Coincides with the closest-to-s minimum cut under the source-side
    importance convention.
    """
    return kappa(G, term).separator
