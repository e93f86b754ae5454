"""Result records of the HIDA compilation pipeline.

The driver lives in :mod:`repro.compiler`: every Figure-3 phase is a
registered :class:`~repro.compiler.stages.CompilationStage`, composed by a
textual pipeline spec (or :func:`~repro.compiler.default_stages`) and
executed by a :class:`~repro.compiler.driver.Compiler`::

    from repro.compiler import Compiler

    result = Compiler.from_spec(
        "construct-dataflow,fuse-tasks,lower-linalg,lower-structural,"
        "eliminate-multi-producers,balance,tile,parallelize,estimate",
        platform="zu3eg",
    ).run(workload="2mm")

This module holds what such a run produces: the :class:`CompileResult`
every downstream consumer (baselines, DSE, benchmark harnesses, the HLS
emitter) reads.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from ..dialects.dataflow import ScheduleOp
from ..estimation.platform import Platform, get_platform
from ..estimation.qor import DesignEstimate, SimulationGraph
from ..ir.builtin import ModuleOp
from .dataflow_opt import BalanceReport
from .parallelize import ParallelizationResult

__all__ = ["CompileOptions", "CompileResult"]


@dataclasses.dataclass(frozen=True)
class CompileOptions:
    """What a :class:`~repro.compiler.driver.Compiler` is bound to besides
    its stages (everything else is in the pipeline spec)."""

    platform: str = "vu9p-slr"
    #: Whether the IR was verified after every stage.
    verify: bool = False


@dataclasses.dataclass
class CompileResult:
    """Everything produced by one HIDA compilation."""

    module: ModuleOp
    schedules: List[ScheduleOp]
    estimate: DesignEstimate
    parallelization: Optional[ParallelizationResult]
    balance_report: Optional[BalanceReport]
    options: CompileOptions
    compile_seconds: float
    #: ``(stage name, wall-clock seconds)`` per executed stage, in run order
    #: (stages skipped by an IR-cache resume do not appear).
    stage_timings: List[Tuple[str, float]] = dataclasses.field(default_factory=list)
    misalignments: int = 0
    #: The estimate stage's simulation graphs, one per schedule.
    graphs: List[SimulationGraph] = dataclasses.field(default_factory=list)

    @property
    def throughput(self) -> float:
        return self.estimate.throughput

    @property
    def platform(self) -> Platform:
        return get_platform(self.options.platform)

    def utilization(self) -> Dict[str, float]:
        return self.estimate.utilization(self.platform)

    def max_utilization(self) -> float:
        return self.estimate.max_utilization(self.platform)

    def summary(self) -> Dict[str, float]:
        """Flat summary used by the benchmark harnesses."""
        resources = self.estimate.resources
        return {
            "throughput": self.throughput,
            "latency_cycles": self.estimate.latency,
            "interval_cycles": self.estimate.interval,
            "lut": resources.lut,
            "ff": resources.ff,
            "dsp": resources.dsp,
            "bram": resources.bram,
            "max_utilization": self.max_utilization(),
            "compile_seconds": self.compile_seconds,
            "num_nodes": sum(len(s.nodes) for s in self.schedules),
            "misalignments": float(self.misalignments),
        }
