"""repro.hida — the HIDA-OPT hierarchical dataflow optimizer.

The paper's primary contribution: Functional dataflow construction and task
fusion, Structural lowering, multi-producer elimination, data-path
balancing, intensity/connection analysis and IA+CA parallelization (the
driver and its compile record are :mod:`repro.compiler`).
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
)
from .functional import (
    FUSION_PATTERNS,
    construct_functional_dataflow,
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
from .structural import (
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
    "FUSION_PATTERNS",
    "construct_functional_dataflow",
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
    "convert_dispatch_to_schedule",
    "convert_task_to_node",
    "lower_to_structural_dataflow",
]
