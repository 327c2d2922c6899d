"""Exception types shared across the package.

A fault of the solver itself, a broken invariant, raises
InvariantViolation and nothing else, by a plain raise that python -O
keeps, never by assert.  check() takes a constant message; a message
that carries values, or a check on a per step path, is an inline raise,
so nothing is formatted or called while the invariant holds.
"""


class GraphError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GraphError):
    """Malformed input text: bad directive, duplicate edge, undeclared vertex."""


class BipartitenessViolation(ParseError):
    """An edge joins two vertices on the same side, or a vertex is declared on both."""


class IllegalEdge(GraphError):
    """Edge already present, within one side, or with an end outside the graph."""


class InvariantViolation(GraphError):
    """The solver broke one of its own invariants: a bug, never bad input."""


def check(ok: bool, what: str) -> None:
    """An invariant check with a constant message."""
    if not ok:
        raise InvariantViolation(what)


class NoBiconnector(GraphError):
    """The graph admits no bipartiteness preserving biconnecting augmentation."""


class CapExceeded(GraphError):
    """Exhaustive search aborted: optimum exceeds the configured cap."""
