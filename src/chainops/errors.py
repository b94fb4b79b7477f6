"""Error types and the global term-count guard.

All computations are exact; the only runtime limits are combinatorial.
Formal sums can blow up exponentially (multidiagonals, table reduction,
operad compositions), so element construction is metered by a global
term guard, a positive integer set by `set_term_guard`, else by the
CHAINOPS_TERM_GUARD environment variable, else DEFAULT_TERM_GUARD.  The
variable is read and checked on the guard's first use, not on import.
"""

import os

DEFAULT_TERM_GUARD = 10**7


class ChainopsError(Exception):
    pass


class InvalidInput(ChainopsError):
    """Malformed generator, ring/complex mismatch, bad CLI argument."""


class GuardExceeded(ChainopsError):
    """A formal sum grew past the configured term guard."""


_term_guard = None


def term_guard():
    if _term_guard is None:
        raw = os.environ.get("CHAINOPS_TERM_GUARD")
        try:
            set_term_guard(int(raw) if raw else DEFAULT_TERM_GUARD)
        except (ValueError, InvalidInput):
            raise InvalidInput(
                f"CHAINOPS_TERM_GUARD={raw!r} is not a positive integer"
            ) from None
    return _term_guard


def set_term_guard(limit):
    global _term_guard
    if limit <= 0:
        raise InvalidInput("term guard must be positive")
    _term_guard = limit


def check_guard(n_terms):
    # the cached guard once it is set; term_guard() reads the variable once
    if n_terms > (_term_guard or term_guard()):
        raise GuardExceeded(
            f"formal sum holds {n_terms} terms, above the guard {_term_guard}"
        )
