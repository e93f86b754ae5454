"""repro.transforms — generic loop and bufferization transforms."""

from .array_partition import (
    partition_buffers_in,
    partition_factors_of_value,
    partition_for_accesses,
)
from .canonicalize import (
    eliminate_dead_code,
    simplify_dispatch_hierarchy,
)
from .linalg_to_affine import lower_linalg_to_affine
from .loop_transforms import (
    annotate_unroll,
    innermost_loops_of,
    loop_bands_of,
    normalize_band_unroll,
    pipeline_innermost_loops,
    pipeline_loop,
    tile_band,
    tile_loop,
    unroll_loop,
)

__all__ = [
    "partition_buffers_in",
    "partition_factors_of_value",
    "partition_for_accesses",
    "eliminate_dead_code",
    "simplify_dispatch_hierarchy",
    "lower_linalg_to_affine",
    "annotate_unroll",
    "innermost_loops_of",
    "loop_bands_of",
    "normalize_band_unroll",
    "pipeline_innermost_loops",
    "pipeline_loop",
    "tile_band",
    "tile_loop",
    "unroll_loop",
]
