"""Exception types raised by the library.

Precondition violations are ValueError subclasses so callers that do not
care about the fine-grained class can catch one base. Budget overruns are
RuntimeError: the inputs are valid, the requested computation is just too
large for the configured limit.
"""


class EmptyDomain(ValueError):
    """A distribution was built over zero cells."""


class ZeroCell(ValueError):
    """A multiplicity below 1 was supplied; zero-probability cells are rejected."""


class InvalidSpec(ValueError):
    """An enumeration request with total < cells or cells < 1."""


class DomainMismatch(ValueError):
    """Two distributions with different numbers of cells were compared."""


class QuantumMismatch(ValueError):
    """Two distributions with different totals were compared without rescaling."""


class DegenerateInput(ValueError):
    """A correlation was requested on vectors it is undefined for."""


class NonUniformCapable(ValueError):
    """A uniform-background study was requested where cells do not divide dots."""


class BudgetExceeded(RuntimeError):
    """An exhaustive computation would exceed the configured budget."""
