"""Result and workload records of the HIDA compilation pipeline.

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

This module holds what such a run consumes and produces: the picklable
:class:`WorkloadSpec` that names *what* to compile across process
boundaries, and the :class:`CompileResult` every downstream consumer
(baselines, DSE, benchmark harnesses, the HLS emitter) reads.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from ..dialects.dataflow import ScheduleOp
from ..estimation.platform import Platform, get_platform
from ..estimation.qor import DesignEstimate
from ..ir.builtin import ModuleOp
from .dataflow_opt import BalanceReport
from .parallelize import ParallelizationResult

__all__ = ["CompileOptions", "CompileResult", "WorkloadSpec"]


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


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """A picklable description of *what to compile*.

    Design-space exploration fans compilations out to worker processes, and
    IR modules do not pickle (they are densely linked object graphs).  A
    workload spec is the thin serialization of a :mod:`repro.workloads`
    registry handle: it carries only the recipe — frontend kind, registered
    workload name and parameter bindings — and each worker rebuilds the
    module locally with :meth:`build`, which resolves through the registry
    and is deterministic and cheap relative to the pipeline itself.
    """

    #: ``"kernel"`` (PolyBench C++ frontend) or ``"model"`` (nn frontend).
    kind: str
    #: Registered workload name (see :func:`repro.workloads.list_workloads`).
    name: str
    #: Batch size (models only).
    batch: int = 1
    #: Extra registry parameter bindings beyond ``batch`` (e.g. a kernel's
    #: problem size), as sorted (name, value) pairs so specs stay hashable.
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        # Normalize JSON-decoded lists back into hashable tuple form.
        if not isinstance(self.params, tuple):
            object.__setattr__(
                self, "params", tuple((k, v) for k, v in self.params)
            )

    def workload(self):
        """The bound :class:`repro.workloads.Workload` handle of this spec."""
        if self.kind not in ("kernel", "model"):
            raise ValueError(f"unknown workload kind {self.kind!r}")
        from ..workloads import get_workload

        return get_workload(self)

    def build(self) -> ModuleOp:
        return self.workload().build_module()

    def label(self) -> str:
        suffix = "".join(f"+{k}{v}" for k, v in self.params)
        if self.kind == "model" and self.batch != 1:
            return f"{self.name}@b{self.batch}{suffix}"
        return f"{self.name}{suffix}"
