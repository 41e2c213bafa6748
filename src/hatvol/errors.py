"""Exception types shared across the library, mapped to CLI exit codes."""

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_INVARIANT = 4


class HatvolError(Exception):
    """Base error. Carries a machine-readable code and a CLI exit code."""

    code = "error"
    exit_code = EXIT_VALIDATION

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = details

    def payload(self):
        out = {"error": self.code, "message": str(self)}
        out.update(self.details)
        return out


class ValidationError(HatvolError):
    """Bad input or violated precondition. Exit code 2."""

    exit_code = EXIT_VALIDATION

    def __init__(self, code, message, **details):
        super().__init__(message, **details)
        self.code = code


class BudgetExceededError(HatvolError):
    """A fixed work budget would be exceeded. Exit code 3."""

    code = "enumeration-budget-exceeded"
    exit_code = EXIT_BUDGET


class NonConvergedError(HatvolError):
    """Numeric optimization did not converge; carries best-so-far. Exit code 3."""

    code = "non-converged"
    exit_code = EXIT_BUDGET


class InvariantViolationError(HatvolError):
    """An internal mathematical invariant failed; always a bug. Exit code 4."""

    exit_code = EXIT_INVARIANT

    def __init__(self, code, message, **details):
        super().__init__(message, **details)
        self.code = code
