"""Exception types shared by every specalc module."""


class SpecalcError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SpecalcError):
    """An argument is outside the domain an operation is defined on."""


class CompositionError(SpecalcError):
    """Substitution attempted with a nonzero constant / weight-0 term inside."""


class ZeroConstantRequired(SpecalcError):
    """An arithmetic-product operand has a nonzero constant (weight-0) term."""


class UnknownAtom(SpecalcError):
    """Request for a named atom this layer does not provide."""


class PreconditionViolated(SpecalcError):
    """An expression node violates an evaluation precondition.

    ``path`` locates the offending node as a tuple of child indices from
    the root, rendered as ``/0/1`` style in the message.
    """

    def __init__(self, path, message):
        self.path = tuple(path)
        super().__init__(f"{message} (node at {path_str(self.path)})")


class UnsupportedForCycleIndex(PreconditionViolated):
    """The cycle-index evaluator cannot handle this node."""


class IncompleteData(SpecalcError):
    """A reconstruction is missing required input values."""


class ScaleLimit(SpecalcError):
    """A brute-force operation was asked to run beyond its documented size limit."""


class UnsupportedAtom(SpecalcError):
    """The oracle cannot enumerate structures for this atom/parameters."""


class DomainMismatch(SpecalcError):
    """A bijection does not cover the labels of the structure being transported."""


class ParseError(SpecalcError):
    """Syntax error in the expression language, with position and expectations."""

    def __init__(self, message, line, col, expected=()):
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        hint = f" (expected {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"line {line}, column {col}: {message}{hint}")


def path_str(path):
    """Render a node path tuple as ``/0/1``; the root is ``/``."""
    return "/" + "/".join(str(i) for i in path)
