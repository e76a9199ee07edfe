"""Exception types shared across the package."""


class SepenumError(Exception):
    """Base class for all errors raised by sepenum."""


class MalformedLine(SepenumError):
    """An edge-list line does not consist of exactly two tokens."""


class SelfLoop(SepenumError):
    """An edge joins a vertex to itself."""


class UnknownLabel(SepenumError):
    """A vertex label does not occur in the graph."""


class VertexRemoved(SepenumError):
    """The queried vertex is part of the removed set."""


class TerminalInSet(SepenumError):
    """A vertex set that must avoid the terminals contains one of them."""


class TerminalsAdjacent(SepenumError):
    """The two terminals are joined by an edge; no separator exists."""


class AlreadySeparated(SepenumError):
    """The terminals are in different components; the empty set separates."""


class NotANeighbor(SepenumError):
    """The vertex to absorb is not adjacent to the absorbing vertex."""


class NotASeparator(SepenumError):
    """The given set does not separate the terminals."""


class NotAPath(SepenumError):
    """The vertex sequence is not a simple path between the terminals."""


class NotChordless(SepenumError):
    """The path has an edge between non-consecutive vertices."""


class VertexNotOnPath(SepenumError):
    """The distinguished vertex does not lie on the given path."""


class NotMinimal(SepenumError):
    """The given set is not a minimal separator."""


class SourceSinkAdjacent(SepenumError):
    """The sink lies in the closed neighborhood of the source set."""


class TooLarge(SepenumError):
    """Input exceeds the hard size guard of a brute-force oracle."""
