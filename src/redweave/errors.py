"""Exception types and global limits shared across the package."""

# Refuse enumerations that would visit more reduced words than this.
WORD_BUDGET_DEFAULT = 10**8

# enumerate_sn refuses S_n above this size.
SN_CAP_DEFAULT = 8

# scan refuses to run in more processes than this (--threads): its own and workers.
THREADS_CAP = 64


class InputError(ValueError):
    """Malformed input: bad permutation, bad word, invalid move, ..."""


class BudgetExceeded(RuntimeError):
    """An enumeration would exceed the configured budget; refused."""


class InvariantViolation(RuntimeError):
    """An internal structural guarantee failed; this signals a bug."""
