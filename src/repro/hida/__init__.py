"""repro.hida — the HIDA-OPT hierarchical dataflow optimizer.

The paper's primary contribution: Functional dataflow construction and task
fusion, Structural lowering, multi-producer elimination, data-path
balancing, intensity/connection analysis, IA+CA parallelization, and the
result/workload records of a compilation (the driver itself is
:mod:`repro.compiler`).
"""

from .analysis import (
    BandAccess,
    BandInfo,
    Connection,
    band_info_of,
    collect_band_infos,
    collect_connections,
    connection_table,
    is_parallel_loop,
    node_intensity,
)
from .dataflow_opt import (
    BalanceReport,
    balance_data_paths,
    eliminate_multiple_producers,
    node_depths,
)
from .functional import (
    ElementwiseFusionPattern,
    FusionPattern,
    InitializationFusionPattern,
    construct_functional_dataflow,
    default_fusion_patterns,
    fuse_dataflow_tasks,
    fuse_tasks,
    task_intensity,
    wrap_block_in_dispatch,
    wrap_ops_in_task,
)
from .parallelize import (
    ParallelizationOptions,
    ParallelizationResult,
    count_misalignments,
    generate_parallel_factors,
    parallelize_band,
    parallelize_schedule,
    proposal_cost,
    search_unroll_factors,
    sort_bands,
)
from .pipeline import CompileOptions, CompileResult
from .structural import (
    analyze_memory_effects,
    convert_allocs_to_buffers,
    convert_dispatch_to_schedule,
    convert_task_to_node,
    lower_to_structural_dataflow,
)

__all__ = [
    "BandAccess",
    "BandInfo",
    "Connection",
    "band_info_of",
    "collect_band_infos",
    "collect_connections",
    "connection_table",
    "is_parallel_loop",
    "node_intensity",
    "BalanceReport",
    "balance_data_paths",
    "eliminate_multiple_producers",
    "node_depths",
    "ElementwiseFusionPattern",
    "FusionPattern",
    "InitializationFusionPattern",
    "construct_functional_dataflow",
    "default_fusion_patterns",
    "fuse_dataflow_tasks",
    "fuse_tasks",
    "task_intensity",
    "wrap_block_in_dispatch",
    "wrap_ops_in_task",
    "ParallelizationOptions",
    "ParallelizationResult",
    "count_misalignments",
    "generate_parallel_factors",
    "parallelize_band",
    "parallelize_schedule",
    "proposal_cost",
    "search_unroll_factors",
    "sort_bands",
    "CompileOptions",
    "CompileResult",
    "analyze_memory_effects",
    "convert_allocs_to_buffers",
    "convert_dispatch_to_schedule",
    "convert_task_to_node",
    "lower_to_structural_dataflow",
]
