"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: usage problems exit 1, DataError
exits 2, NumericalError exits 3.
"""


class LabelForgeError(Exception):
    """Base class for all labelforge errors."""


class DataError(LabelForgeError, ValueError):
    """Malformed input data: bad values, shape mismatches, unparseable files."""


class NumericalError(LabelForgeError, ArithmeticError):
    """Optimization or probability computation produced a non-finite result."""
