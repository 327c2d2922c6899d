"""Exception types shared across the package."""


class GraphError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GraphError):
    """Malformed input text: bad directive, duplicate edge, undeclared vertex."""


class BipartitenessViolation(ParseError):
    """An edge joins two vertices on the same side, or a vertex is declared on both."""


class UnknownVertex(GraphError):
    """A vertex label or index was referenced but never declared."""


class IllegalEdge(GraphError):
    """Requested edge already present or not between opposite sides."""


class InvariantViolation(GraphError):
    """The solver broke one of its own invariants: a bug, never bad input."""


def check(ok: bool, what: str) -> None:
    """An invariant check that python -O keeps."""
    if not ok:
        raise InvariantViolation(what)


class NoCrossPair(GraphError):
    """No matching-certified pendant pair exists across the requested split."""


class NoBiconnector(GraphError):
    """The graph admits no bipartiteness preserving biconnecting augmentation."""


class ClingPartitionViolation(GraphError):
    """Two-critical layout does not split the pendant blocks into equal halves."""


class CapExceeded(GraphError):
    """Exhaustive search aborted: optimum exceeds the configured cap."""
