"""Exception types raised by the library, and its size limits.

Precondition violations are ValueError subclasses so callers that do not
care about the fine-grained class can catch one base. Budget overruns are
RuntimeError: the inputs are valid, the requested computation is just too
large for its limit.

Every size limit is here, one per unit of work, checked by check_budget
before the work is allocated. The units cost too differently to share one
number: a pairwise pair is memory-bound, a verify pair one scalar kl call,
a study multiplicity a few microseconds of kernel and property work. The
dots of one total are bounded by the batched kernel's int64 arithmetic.
"""

# pairs scored: N*N by pairwise and the verify sweep, N by brute_force_max_kl
PAIR_BUDGET = 2 * 10**6
# multiplicities (distributions times cells) a uniform study enumerates
STUDY_BUDGET = 2 * 10**6
# big-integer additions of count_ordered's table (a few tenths of a second)
COUNT_BUDGET = 4 * 10**6
# cells of one enumerated distribution
CELLS_BUDGET = 10**4
# dots of a total the kernel's int64 arithmetic holds: the jaccard denominator 2 * total must fit
INT64_DOTS_BUDGET = (2**63 - 1) // 2


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
    """An exhaustive computation would exceed its budget."""


def check_budget(size: int, budget: int, unit: str) -> None:
    """Raise BudgetExceeded when size units of work pass budget."""
    if size > budget:
        raise BudgetExceeded(f"{size} {unit} exceed the budget of {budget}")
