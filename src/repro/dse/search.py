"""Search strategies: which points of a space a budgeted run evaluates.

HIDA's own optimizer is deterministic (Algorithm 4); a search here only
decides *which* design points :func:`repro.dse.runner.explore` evaluates
when ``budget`` is smaller than the space.  Two strategies exist, in one
fixed table, :data:`STRATEGIES`:

* ``exhaustive`` — the space in generation order;
* ``random`` — a ``random.Random(seed)`` shuffle of the space.

Either one picks its whole budget up front, so a search is one batch: the
same cache-aware fan-out and promotion pass as a full sweep, plus one
``ExplorationResult.generations`` row.  Budget semantics: ``budget``
bounds the number of *distinct design points evaluated*; cache hits count,
so cold and warm runs evaluate the same points.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from .space import DesignPoint

__all__ = ["STRATEGIES", "check_strategy", "search_points"]

#: The search strategies and their ``--list-strategies`` descriptions.
STRATEGIES: Dict[str, str] = {
    "exhaustive": "The whole space in generation order; the budget simply truncates.",
    "random": "A seeded shuffle of the space, evaluated until the budget runs out.",
}


def check_strategy(name: str) -> None:
    """Refuse a name that is not in :data:`STRATEGIES`."""
    if name not in STRATEGIES:
        raise ValueError(
            f"unknown search strategy {name!r}; options: {', '.join(STRATEGIES)}"
        )


def search_points(
    points: Sequence[DesignPoint],
    strategy: str,
    budget: Optional[int] = None,
    seed: int = 0,
) -> List[DesignPoint]:
    """The first ``budget`` (default: all) of ``points`` in ``strategy``'s
    order.  ``points`` are expected unique, as ``explore`` passes them."""
    check_strategy(strategy)
    order = list(points)
    if strategy == "random":
        random.Random(int(seed)).shuffle(order)
    return order if budget is None else order[:budget]
