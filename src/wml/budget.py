"""Budget guards shared by the enumeration engines.

Every exhaustive enumeration in this package is watched by an explicit
budget so that accidental combinatorial blowups fail fast instead of
hanging.  The evaluation budget is the caller's (``None`` for
``DEFAULT_EVAL_BUDGET``); each stage charges it in its own unit of work.
"""

from __future__ import annotations

# Default ceilings.  An "evaluation" is one unit of the charging stage's work.
DEFAULT_EVAL_BUDGET = 10**7
DEFAULT_GROUP_ELEMENT_BUDGET = 10**5
DEFAULT_WORD_LENGTH_BOUND = 16
DEFAULT_WHITEHEAD_RANK_BOUND = 4


class BudgetError(Exception):
    """An enumeration would exceed its configured budget."""

    def __init__(self, what: str, needed: int, budget: int):
        self.what = what
        self.needed = needed
        self.budget = budget
        super().__init__(f"{what}: needs {needed} > budget {budget}")


class ValidationError(Exception):
    """Malformed input (bad word syntax, bad group table, bad flags)."""


class InvariantError(Exception):
    """A mathematical invariant failed: a bug, not bad input.  Raised
    explicitly so that the check survives ``python -O``."""


def eval_budget(override: int | None = None) -> int:
    return DEFAULT_EVAL_BUDGET if override is None else override


def check(what: str, needed: int, budget: int) -> None:
    if needed > budget:
        raise BudgetError(what, needed, budget)
