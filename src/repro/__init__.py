"""HIDA: a hierarchical dataflow compiler for high-level synthesis.

A from-scratch Python reproduction of the ASPLOS 2024 paper *HIDA: A
Hierarchical Dataflow Compiler for High-Level Synthesis* (Ye, Jun, Chen).

The package layers:

* :mod:`repro.ir` — a compact SSA IR kernel (the MLIR substrate);
* :mod:`repro.dialects` — affine/arith/memref/linalg dialects plus the
  HIDA Functional/Structural dataflow dialect;
* :mod:`repro.frontend` — PyTorch-like model tracing and a C++-style loop
  kernel builder (the Torch-MLIR / Polygeist substitutes);
* :mod:`repro.transforms` — bufferization, loop transforms, array partition;
* :mod:`repro.hida` — the HIDA-OPT optimizer;
* :mod:`repro.compiler` — the pipeline-spec front door that drives it;
* :mod:`repro.estimation` — the Vitis-HLS-style QoR model, platform specs and
  the coarse-grained dataflow simulator;
* :mod:`repro.baselines` — ScaleHLS / Vitis / DNNBuilder / SOFF baselines and
  the IA/CA ablation modes;
* :mod:`repro.backend` — the HLS C++ emitter;
* :mod:`repro.evaluation` — the experiment harnesses behind every table and
  figure of the paper.

Quickstart — one front door (:mod:`repro.compiler`); the workload registry
and the platform table name *what* to compile and *for which hardware*::

    from repro import Compiler

    result = Compiler.from_spec(
        "construct-dataflow,fuse-tasks,lower-linalg,lower-structural,"
        "eliminate-multi-producers,balance,tile,parallelize{factor=64},estimate",
        platform="vu9p-slr",
    ).run(workload="resnet18@batch=4")  # or .run(module)
    print(result.summary(), result.stage_timings)
"""

from .backend import emit_hls_cpp
from .compiler import (
    DEFAULT_PIPELINE,
    CompilationState,
    Compiler,
    PipelineSpec,
    default_stages,
    parse_pipeline,
)
from .estimation import Platform, QoREstimator, get_platform, list_platforms
from .workloads import Workload, get_workload, list_workloads

__version__ = "2.0.0"

__all__ = [
    "CompilationState",
    "Compiler",
    "DEFAULT_PIPELINE",
    "PipelineSpec",
    "default_stages",
    "parse_pipeline",
    "emit_hls_cpp",
    "Platform",
    "QoREstimator",
    "get_platform",
    "list_platforms",
    "Workload",
    "get_workload",
    "list_workloads",
    "__version__",
]
