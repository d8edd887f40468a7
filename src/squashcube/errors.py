"""Exception types shared across the package."""


class DisconnectedGraphError(ValueError):
    """Raised when an operation needs a connected graph.

    Carries one separated pair (u, v) as evidence.
    """

    def __init__(self, u, v):
        self.pair = (u, v)
        super().__init__(f"graph is disconnected: no path between {u} and {v}")


class Graph6ParseError(ValueError):
    """Malformed graph6 input; `offset` is the byte position of the problem."""

    def __init__(self, message, offset):
        self.offset = offset
        super().__init__(f"{message} (byte offset {offset})")


class CapabilityError(RuntimeError):
    """Input is beyond a configured brute-force cap."""


class PreconditionError(RuntimeError):
    """A documented precondition of a construction does not hold."""


class SelfCheckError(RuntimeError):
    """A result failed the library's own re-verification: a bug, not bad input.

    Deliberately not a ValueError, so it is never reported as a bad input.
    """
