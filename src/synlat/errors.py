"""Shared exception types and CLI exit codes."""

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_INCONSISTENT = 4
EXIT_OUTPUT = 5


class SynlatError(Exception):
    pass


class InputError(SynlatError, ValueError):
    """Invalid user input outside the pattern syntax: budgets, formats, alphabets."""


class RegexSyntaxError(SynlatError):
    """Malformed pattern; carries the offending position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class TermSyntaxError(SynlatError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class SignatureError(SynlatError):
    """Term uses an operation outside the requested signature."""


class BudgetError(SynlatError):
    """A configured size cap was exceeded."""

    def __init__(self, what, limit, needed=None):
        needs = "" if needed is None else f" (needs {needed})"
        super().__init__(f"{what} exceeded budget of {limit}{needs}")
        self.what = what
        self.limit = limit
        self.needed = needed


class InconsistencyError(SynlatError):
    """Two independent methods disagreed; indicates an implementation bug."""
