"""repro.compiler — the composable compilation front door.

Three layers:

* :mod:`repro.compiler.spec` — MLIR-style textual pipeline specs
  (``"construct-dataflow,fuse-tasks{patterns=elementwise,init},..."``),
  round-trippable through parse/print and content-hashable for the QoR
  cache;
* :mod:`repro.compiler.stages` — the :class:`CompilationStage` protocol, a
  global stage registry, and the Figure-3 phases registered by name with
  typed per-stage options;
* :mod:`repro.compiler.driver` — the :class:`Compiler` object
  (``Compiler.from_spec(spec, platform=...)``, ``.run(module)``) with
  per-stage timings, observer hooks for IR snapshots and structured
  diagnostics, and :func:`default_stages` for "the default pipeline with
  these stages dropped or reconfigured".

``python -m repro.compiler`` exposes the same front door on the command
line (``--print-default-pipeline``, ``--list-stages``, ``--spec``).

Quickstart::

    from repro.compiler import Compiler, default_stages

    compiler = Compiler.from_spec(
        "construct-dataflow,lower-structural,balance,"
        "parallelize{factor=16},estimate",
        platform="zu3eg",
    )
    result = compiler.run(workload="2mm")
    print(compiler.spec_text(), result.summary(), result.stage_timings)

    ablated = Compiler(
        default_stages(drop=["fuse-tasks"], parallelize={"factor": 16}),
        platform="zu3eg",
    )
"""

from .driver import (
    DEFAULT_PIPELINE,
    Compiler,
    DiagnosticsObserver,
    PipelineObserver,
    SnapshotObserver,
    default_pipeline_spec,
    default_stages,
)
from .spec import PipelineSpec, PipelineSpecError, StageSpec, parse_pipeline
from .stages import (
    CompilationStage,
    CompilationState,
    Diagnostic,
    StageOption,
    available_stages,
    build_stages,
    get_stage_class,
    register_stage,
    stage_registry,
)

__all__ = [
    "DEFAULT_PIPELINE",
    "Compiler",
    "DiagnosticsObserver",
    "PipelineObserver",
    "SnapshotObserver",
    "default_pipeline_spec",
    "default_stages",
    "PipelineSpec",
    "PipelineSpecError",
    "StageSpec",
    "parse_pipeline",
    "CompilationStage",
    "CompilationState",
    "Diagnostic",
    "StageOption",
    "available_stages",
    "build_stages",
    "get_stage_class",
    "register_stage",
    "stage_registry",
]
