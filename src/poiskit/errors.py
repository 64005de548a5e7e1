"""Exception hierarchy shared across the toolkit.

ValidationError covers bad arguments, malformed input files, and data that
violates a method's preconditions (maps to CLI exit code 2). Its subclass
ArgumentError marks a bad argument value, which no input file is at fault
for. Anything else raised at runtime is treated as an execution failure
(exit code 1).
"""

from contextlib import contextmanager


class PoiskitError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(PoiskitError):
    """Invalid arguments, malformed files, or violated data preconditions."""


class ArgumentError(ValidationError):
    """An invalid argument value, such as a negative beta or an empty rho grid."""


class ParseError(ValidationError):
    """Malformed input file; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@contextmanager
def in_file(path):
    """Prefix ``<path>: `` to the message of a ValidationError raised in the block.

    The error keeps its class, line and traceback. An ArgumentError is
    about no file, and passes unchanged.
    """
    try:
        yield
    except ArgumentError:
        raise
    except ValidationError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
