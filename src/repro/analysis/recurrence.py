"""Recurrence-constrained minimum initiation interval (rec-MII).

A pipelined loop cannot issue iterations faster than its loop-carried
recurrences allow: a RAW dependence whose value chain takes ``latency``
cycles and recurs every ``distance`` iterations bounds the initiation
interval from below by ``ceil(latency / distance)``.  This module derives
that bound from the dependence engine and a small per-op latency table
(the same coarse scale the QoR model uses), so the analytic estimator and
the ``loop-carried-race`` lint rule share one definition of "achievable
II".

The bound is computed where a loop is pipelined: the hida parallelize pass
clamps each directive to it (through ``legal_pipeline_ii``) and the
``parallelize`` stage records it per loop on the compilation state.  The
``estimate`` stage hands that record to
:func:`repro.estimation.qor.estimate_band`, which clamps its analytic II
with it and asks :func:`pipeline_rec_mii` afresh only for a loop the record
does not name (a hand-set directive, the ``pipeline-innermost`` baseline, a
direct call).  The record is dropped after any stage other than a check, so
a stage that reshapes a loop cannot leave a stale bound behind.

The bound is *sound by construction* against the repo's own simulator:
the estimator never prices a pipelined band below it, and
``simulate_dataflow`` never reports a node interval below the estimator's
per-band II.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from ..dialects.affine import AffineForOp
from ..ir.core import Operation, Value
from .dependence import Dependence, NestAccesses, loop_carried_dependences

__all__ = [
    "op_latency",
    "dependence_chain_latency",
    "binding_recurrences",
    "pipeline_rec_mii",
]

#: Per-op pipeline latencies (cycles) for recurrence chains.  Deliberately
#: modest: rec-MII must stay a *lower* bound on what any schedule achieves.
_OP_LATENCY: Dict[str, float] = {
    "arith.addf": 2.0,
    "arith.subf": 2.0,
    "arith.mulf": 2.0,
    "arith.divf": 8.0,
    "arith.maxf": 2.0,
    "math.sqrt": 10.0,
}

#: Store-to-load forwarding takes at least one cycle.
_FORWARD_LATENCY = 1.0


def op_latency(op: Operation) -> float:
    """Recurrence-chain latency contribution of one op (cycles)."""
    return _OP_LATENCY.get(op.name, 1.0)


def dependence_chain_latency(dep: Dependence) -> Optional[float]:
    """Cycles around the value chain of a carried RAW dependence.

    Follows def-use edges from the sink load's result to the source
    store's stored value and returns the longest path latency (plus the
    store-to-load forwarding cycle).  None when the dependence is not a
    RAW recurrence or the load does not feed the store.
    """
    if dep.kind != "RAW":
        return None
    store, load = dep.source, dep.sink
    if not load.results:
        return None
    stored_value = store.operands[0] if store.operands else None
    if stored_value is None:
        return None

    path = _longest_path(load.results[0], store, stored_value, {})
    if path is None:
        return None
    return path + _FORWARD_LATENCY


def _longest_path(
    value: Value, store: Operation, stored_value: Value, memo: Dict[int, Optional[float]]
) -> Optional[float]:
    """Latency of the longest def-use path from ``value`` into ``store``'s
    stored operand, None when there is none."""
    key = id(value)
    if key in memo:
        return memo[key]
    memo[key] = None  # cycle guard (SSA is acyclic; applies stay safe)
    best: Optional[float] = None
    for user in value.users:
        if user is store and value is stored_value:
            best = 0.0 if best is None else max(best, 0.0)
            continue
        for result in user.results:
            sub = _longest_path(result, store, stored_value, memo)
            if sub is not None:
                candidate = op_latency(user) + sub
                best = candidate if best is None else max(best, candidate)
    memo[key] = best
    return best


def pipeline_rec_mii(
    loop: AffineForOp, accesses: Optional[NestAccesses] = None
) -> int:
    """Recurrence-constrained minimum II of pipelining ``loop``.

    ``max(ceil(chain latency / distance))`` over the RAW dependences the
    loop carries; 1 when the loop carries no value recurrence.  A plain
    function of the IR as it stands: nothing is memoized on the loop.  The
    parallelize pass asks once per loop it pipelines and the estimator
    reuses that answer (see the module docstring); ``accesses`` lets a
    caller that has already walked the nest share its collection.
    """
    rec_mii = 1
    for dep in loop_carried_dependences(loop, accesses):
        chain = dependence_chain_latency(dep)
        if chain is None:
            continue
        distance = dep.min_distance_at(0)
        rec_mii = max(rec_mii, math.ceil(chain / max(distance, 1)))
    return rec_mii


def binding_recurrences(
    loop: AffineForOp, target_ii: int, accesses: Optional[NestAccesses] = None
) -> List[Dependence]:
    """Carried RAW dependences whose rec-MII exceeds ``target_ii``."""
    binding = []
    for dep in loop_carried_dependences(loop, accesses):
        chain = dependence_chain_latency(dep)
        if chain is None:
            continue
        if math.ceil(chain / max(dep.min_distance_at(0), 1)) > target_ii:
            binding.append(dep)
    return binding

