"""Exception hierarchy shared by all modules, and their one integer rule.

Every error carries an exit code for the command-line front end:
2 = invalid input, 3 = numerical failure, 4 = I/O failure.
"""

import numbers


class ToolkitError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class ValidationError(ToolkitError):
    """Physically or structurally invalid input, rejected before computation."""

    exit_code = 2


def _integer(name: str, value) -> int:
    """value as a plain int; ValidationError unless an integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, not {value!r}")
    return int(value)


class DegenerateInputError(ValidationError):
    """Input is formally valid but puts a formula at a removable singularity."""


class GridError(ValidationError):
    """Frequency or time grid fails a resolution/coverage precondition."""


class DegenerateDataError(ValidationError):
    """Data set carries no usable signal (empty or all-zero)."""


class NumericalError(ToolkitError):
    """Numerical computation failed (non-convergence, singular system)."""

    exit_code = 3


class OutputError(ToolkitError):
    """Reading or writing a data file failed."""

    exit_code = 4
