"""Exception types shared across the package: one per CLI outcome.

Every error is bad input, so each is a ValueError.  The subclasses are the
outcomes the command line reports with their own exit codes.
"""


class SepenumError(ValueError):
    """Bad input: a malformed graph, vertex set, path or parameter."""


class UnknownLabel(SepenumError):
    """A vertex label does not occur in the graph."""


class TerminalsAdjacent(SepenumError):
    """The sink lies in the closed neighbourhood of the source (or of a
    source set): the terminals are equal or adjacent, so no separator
    exists."""


class AlreadySeparated(SepenumError):
    """The terminals are in different components; the empty set separates."""
