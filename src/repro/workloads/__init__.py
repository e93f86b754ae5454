"""repro.workloads — the unified workload registry (*what to compile*).

See :mod:`repro.workloads.registry` for the full API; the common surface::

    from repro.workloads import get_workload, list_workloads

    list_workloads(kind="model")          # the Table-8 DNN zoo
    wl = get_workload("resnet18@batch=4")
    module = wl.build_module()            # lazy linalg-level IR
"""

from .registry import (
    ParamDecl,
    UnknownWorkloadError,
    Workload,
    WorkloadDef,
    as_module,
    get_workload,
    iter_workloads,
    list_workloads,
    parse_workload_id,
    register_workload,
    source_modules,
)

__all__ = [
    "ParamDecl",
    "UnknownWorkloadError",
    "Workload",
    "WorkloadDef",
    "as_module",
    "get_workload",
    "iter_workloads",
    "list_workloads",
    "parse_workload_id",
    "register_workload",
    "source_modules",
]
