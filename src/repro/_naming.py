"""Shared name-resolution helpers for the workload and target registries.

Both registries (and the CLIs built on them) report unknown names the same
way: the full list of registered names plus a closest-match suggestion.
"""

from __future__ import annotations

import difflib
from typing import List, Sequence

__all__ = ["UnknownNameError", "closest_names", "unknown_name_message"]


class UnknownNameError(KeyError):
    """An unresolvable registry name, with closest-match suggestions."""

    def __init__(self, message: str, suggestions: Sequence[str] = ()) -> None:
        super().__init__(message)
        self.message = message
        self.suggestions = list(suggestions)

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.message


def closest_names(name: str, candidates: Sequence[str], limit: int = 3) -> List[str]:
    """Registered names most similar to ``name`` (best first, may be empty)."""
    return difflib.get_close_matches(name.lower(), list(candidates), n=limit, cutoff=0.5)


def unknown_name_message(kind: str, name: str, candidates: Sequence[str]) -> str:
    """A did-you-mean error message for an unknown registry name."""
    message = f"unknown {kind} {name!r}"
    suggestions = closest_names(name, candidates)
    if suggestions:
        message += f"; did you mean {suggestions[0]!r}?"
    ordered = ", ".join(candidates)
    message += f" (available: {ordered or 'none registered'})"
    return message
