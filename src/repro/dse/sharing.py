"""The compilation prefixes a DSE prefix group's points share, held in memory.

HIDA splits a design space by hierarchy: the functional-level stages
(construct, fuse, lower) are decided once and shared by every node-level
variant (tile, parallelize).  With the IR snapshot cache off, a group would
still trace the frontend and run that shared prefix once per point.

Before a group compiles, :class:`SharedPrefixes` plans each point once:
its compiler, workload handle and prefix hashes (a :class:`PointPlan`),
which the point's compile then reuses.  From them it keys every
boundary each point can resume from — the frontend module (boundary 0) and
the state after each snapshot-safe stage — by workload, platform and the
canonical spec up to it.  A prefix two or more points share is held where
their compiles part ways: one point stops there or goes on alone, or they
go on to different stages.  (Where all of them go on to the same next
stage, the next prefix is held instead.)  The first point to cross a held
boundary leaves a clone of its state; every later point resumes from the
deepest state held for it, a clone while another pending point can still
use that state and the held state itself for the last one, which releases
it.  So each shared prefix runs once per group, and a prefix no other point
shares costs no clone.

The object speaks the ``load``/``store`` protocol of
:class:`~repro.compiler.ircache.IRSnapshotCache`, so points resume through
:meth:`Compiler.run_stages <repro.compiler.driver.Compiler.run_stages>`'s
own snapshot loop.  As on an IR-cache resume, skipped stages emit no
diagnostics and no stage spans.  The runs' counters land under ``dse.*``:
``snapshots_stored`` (prefixes held), ``prefix_hits``, ``stages_skipped``,
``stages_run`` and ``frontend_traces``.  Keys are strings and the plan
iterates lists and insertion-ordered dicts, so no order depends on hashing.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..compiler.driver import Compiler
from ..compiler.ircache import _collect_schedules
from ..compiler.stages import CompilationState
from ..workloads.registry import Workload
from .space import DesignPoint

__all__ = ["PointPlan", "SharedPrefixes"]

#: ``(workload key, platform, prefix hash)``: what the driver passes to
#: ``load`` / ``store``.
Key = Tuple[str, str, str]


class PointPlan(NamedTuple):
    """What a point compiles with: its compiler, its bound workload and the
    ``keys`` :meth:`Compiler.run_stages
    <repro.compiler.driver.Compiler.run_stages>` takes, ``(workload key,
    prefix hashes)``."""

    compiler: Compiler
    workload: Workload
    keys: Tuple[str, List[str]]


def _plan(point: DesignPoint) -> Optional[PointPlan]:
    """``point``'s plan, or None when its workload or spec does not resolve
    (its own evaluation reports that)."""
    try:
        compiler = point.compiler()
        workload = point.workload_spec()
    except (KeyError, TypeError, ValueError):  # unknown workload, bad spec
        return None
    # A bound handle's id is its workload_cache_key.
    return PointPlan(compiler, workload, (workload.workload_id, compiler.prefix_hashes()))


def _prefix_keys(point: DesignPoint, plan: Optional[PointPlan]) -> List[Key]:
    """The keys of every boundary ``point``'s compile can resume from:
    boundary 0 (the frontend module), then each snapshot-safe boundary;
    empty without a plan."""
    if plan is None:
        return []
    workload_key, hashes = plan.keys
    boundaries = (0, *plan.compiler.snapshot_boundaries())
    return [(workload_key, point.platform, hashes[i]) for i in boundaries]


class SharedPrefixes:
    """The plans and held states of one prefix group; see the module
    docstring."""

    first_boundary = 0
    counters = "dse"
    #: Held states are never refused: they are live clones, not text.
    refused = 0

    def __init__(self, points: Sequence[DesignPoint]) -> None:
        #: Point key -> its plan (None: unresolvable), until the point is done.
        self._plans: Dict[str, Optional[PointPlan]] = {}
        chains: Dict[str, List[Key]] = {}
        for point in points:
            plan = self._plans[point.key()] = _plan(point)
            chains[point.key()] = _prefix_keys(point, plan)
        sharing = Counter(key for chain in chains.values() for key in chain)
        # Hold a shared prefix where the points through it part ways.  Where
        # all of them go on to the same next prefix, holding that one saves
        # the same work and more.
        wanted = set()
        for chain in chains.values():
            for key, deeper in zip(chain, chain[1:] + [None]):
                parting = deeper is None or sharing[deeper] < sharing[key]
                if sharing[key] > 1 and parting:
                    wanted.add(key)
        #: Point key -> the wanted keys on its chain, shallowest first.
        self._chains: Dict[str, List[Key]] = {
            point: [key for key in chain if key in wanted]
            for point, chain in chains.items()
        }
        #: Wanted key -> points not yet done that can resume from it.
        self._pending = Counter(
            key for chain in self._chains.values() for key in chain
        )
        #: Wanted key -> ``(module, balance report, misalignments)``.
        self._held: Dict[Key, tuple] = {}

    def planned(self, point: DesignPoint) -> Optional[PointPlan]:
        """``point``'s plan, None if it does not resolve."""
        return self._plans.get(point.key())

    def order(self, point: DesignPoint) -> tuple:
        """Sort key running points that share prefixes back to back, so a
        held state is released as early as possible; a point the plan does
        not hold (no prefix it shares, or an unresolvable spec) sorts first."""
        return (self._chains.get(point.key(), []), point.key())

    def covers(self, point: DesignPoint) -> bool:
        """Whether ``point`` can resume from, or fill, a held state."""
        return bool(self._chains.get(point.key()))

    def done(self, point: DesignPoint) -> None:
        """``point`` is evaluated: drop its plan and the states no pending
        point needs."""
        self._plans.pop(point.key(), None)
        for key in self._chains.get(point.key(), ()):
            self._pending[key] -= 1
            if not self._pending[key]:
                del self._pending[key]
                held = self._held.pop(key, None)
                if held is not None:  # no point took the held module itself
                    held[0].drop_all_references()

    # ------------------------------------------------- the store protocol
    def store(
        self,
        workload_key: str,
        platform: str,
        prefix_hash: str,
        state: CompilationState,
    ) -> bool:
        """Hold a clone of ``state`` if a later point can resume from it."""
        key = (workload_key, platform, prefix_hash)
        if self._pending[key] < 2 or key in self._held:
            return False
        self._held[key] = (
            state.module.clone(),
            dataclasses.replace(state.balance_report),
            state.misalignments,
        )
        return True

    def load(self, workload_key: str, platform: str, prefix_hash: str):
        """``(module, schedules, balance report, misalignments)`` or None.

        The last pending point takes the held module; earlier ones a clone.
        """
        key = (workload_key, platform, prefix_hash)
        held = self._held.get(key)
        if held is None:
            return None
        module, balance, misalignments = held
        if self._pending[key] == 1:
            del self._held[key]
        else:
            module = module.clone()
        return (
            module,
            _collect_schedules(module),
            dataclasses.replace(balance),
            misalignments,
        )
