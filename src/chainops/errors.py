"""Error types and the global term-count guard.

All computations are exact; the only runtime limits are combinatorial.
Formal sums can blow up exponentially (multidiagonals, table reduction,
operad compositions), so element construction is metered by a global
term guard, overridable via the CHAINOPS_TERM_GUARD environment
variable or `set_term_guard`.
"""

import os

DEFAULT_TERM_GUARD = 10**7


class ChainopsError(Exception):
    pass


class InvalidInput(ChainopsError):
    """Malformed generator, ring/complex mismatch, bad CLI argument."""


class GuardExceeded(ChainopsError):
    """A formal sum grew past the configured term guard."""


def _initial_guard():
    raw = os.environ.get("CHAINOPS_TERM_GUARD")
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise InvalidInput(f"CHAINOPS_TERM_GUARD={raw!r} is not an integer")
    return DEFAULT_TERM_GUARD


_term_guard = _initial_guard()


def term_guard():
    return _term_guard


def set_term_guard(limit):
    global _term_guard
    if limit <= 0:
        raise InvalidInput("term guard must be positive")
    _term_guard = limit


def check_guard(n_terms):
    if n_terms > _term_guard:
        raise GuardExceeded(
            f"formal sum holds {n_terms} terms, above the guard {_term_guard}"
        )
