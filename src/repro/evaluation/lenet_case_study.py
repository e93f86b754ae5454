"""The LeNet accelerator case study of Section 2 (Tables 1-2, Figure 1).

The paper's motivating experiment: an exhaustive sweep over the six parallel
factors of Table 1 (plus the batch size), under both dataflow and
non-dataflow settings, on a PYNQ-Z2 budget — compared with a hand-tuned
expert design and the automatically generated HIDA design.

Evaluating 2.4e4 Vitis HLS runs took the paper hundreds of CPU hours; here
each design point is evaluated with the same analytical QoR model the rest
of the reproduction uses (per-task latency from MACs and parallelism, DSP /
BRAM / LUT resource costs, max-utilization metric), so the full sweep takes
seconds.  The HIDA point is produced by the real compilation pipeline.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..compiler import CompilationState, Compiler, default_stages
from ..estimation.platform import PYNQ_Z2, Platform
from ..workloads import get_workload

__all__ = [
    "FACTOR_RANGES",
    "LeNetDesignPoint",
    "LeNetEvaluation",
    "evaluate_design_point",
    "exhaustive_search",
    "pareto_frontier",
    "expert_design_point",
    "best_design",
    "compile_hida_lenet",
]

#: Parameter ranges of Table 1.  CPF / KPF denote channel / kernel parallel
#: factors; the batch factor applies to all layers.
FACTOR_RANGES: Dict[str, Sequence[int]] = {
    "batch": (1, 5, 10, 15, 20),
    "kpf_task1": (1, 2, 3, 6),
    "kpf_task2": (1, 2, 4, 8, 16),
    "cpf_task2": (1, 2, 3, 6),
    "kpf_task3": (1, 2, 3, 4, 6, 8),
    "cpf_task3": (1, 2, 4, 8, 16),
}

# Per-task workload of the LeNet accelerator (MAC counts for one image),
# following the task decomposition of Table 1:
#   Task1: conv1 (1->6, 5x5, 28x28 out) + ReLU + pool
#   Task2: conv2 (6->16, 5x5, 10x10 out) + ReLU + pool
#   Task3: conv3 (16->120, 5x5, 1x1 out) + ReLU
#   Task4: linear (120 -> 10)
_TASK_MACS = {
    "task1": 6 * 1 * 5 * 5 * 28 * 28,
    "task2": 16 * 6 * 5 * 5 * 10 * 10,
    "task3": 120 * 16 * 5 * 5,
    "task4": 120 * 10,
}

# Inter-task activation buffer sizes in elements (8-bit activations).
_TASK_BUFFER_ELEMENTS = {
    "input": 1 * 28 * 28,
    "task1": 6 * 14 * 14,
    "task2": 16 * 5 * 5,
    "task3": 120,
    "task4": 10,
}

# Weight footprints in elements.
_WEIGHT_ELEMENTS = 6 * 25 + 16 * 6 * 25 + 120 * 16 * 25 + 120 * 10

_PIPELINE_DEPTH = 12
_LUT_BASE = 4500
_LUT_PER_PARALLEL = 145
_BRAM_BITS = 18 * 1024


@dataclasses.dataclass(frozen=True)
class LeNetDesignPoint:
    """One configuration of the exhaustive search."""

    batch: int
    kpf_task1: int
    kpf_task2: int
    cpf_task2: int
    kpf_task3: int
    cpf_task3: int
    dataflow: bool

    def parallelism(self) -> Dict[str, int]:
        return {
            "task1": self.kpf_task1,
            "task2": self.kpf_task2 * self.cpf_task2,
            "task3": self.kpf_task3 * self.cpf_task3,
            "task4": 1,
        }


@dataclasses.dataclass
class LeNetEvaluation:
    """Evaluated metrics of one design point."""

    point: LeNetDesignPoint
    throughput: float  # images per second
    utilization: float  # max(BRAM%, DSP%, LUT%)
    dsp: float
    bram: float
    lut: float

    @property
    def fits(self) -> bool:
        return self.utilization <= 1.0


def evaluate_design_point(
    point: LeNetDesignPoint, platform: Platform = PYNQ_Z2
) -> LeNetEvaluation:
    """Analytically evaluate one LeNet configuration."""
    parallelism = point.parallelism()

    # Per-task latency for a batch of images.
    latencies = {}
    for task, macs in _TASK_MACS.items():
        factor = max(parallelism[task], 1)
        latencies[task] = point.batch * macs / factor + _PIPELINE_DEPTH

    if point.dataflow:
        # Tasks overlap through ping-pong buffers: the interval is set by the
        # slowest task; double buffering doubles the activation storage.
        interval = max(latencies.values())
        buffer_copies = 2
    else:
        interval = sum(latencies.values())
        buffer_copies = 1

    throughput = point.batch * platform.clock_hz / interval

    # Resources.
    total_parallelism = sum(parallelism.values())
    dsp = float(total_parallelism)
    activation_bits = sum(_TASK_BUFFER_ELEMENTS.values()) * 8 * point.batch
    weight_bits = _WEIGHT_ELEMENTS * 8
    bram = (activation_bits * buffer_copies + weight_bits) / _BRAM_BITS
    # Array partitioning for parallel access adds bank fragmentation.
    bram += 0.5 * sum(math.sqrt(f) for f in parallelism.values())
    lut = _LUT_BASE + _LUT_PER_PARALLEL * total_parallelism
    if point.dataflow:
        lut += 900  # dataflow FIFO / handshake control

    utilization = platform.max_utilization({"dsp": dsp, "bram": bram, "lut": lut})
    return LeNetEvaluation(
        point=point,
        throughput=throughput,
        utilization=utilization,
        dsp=dsp,
        bram=bram,
        lut=lut,
    )


def exhaustive_search(
    platform: Platform = PYNQ_Z2,
    dataflow_settings: Sequence[bool] = (True, False),
    limit: Optional[int] = None,
) -> List[LeNetEvaluation]:
    """Evaluate the full Table 1 configuration space (both dataflow settings)."""
    results: List[LeNetEvaluation] = []
    combos = itertools.product(
        FACTOR_RANGES["batch"],
        FACTOR_RANGES["kpf_task1"],
        FACTOR_RANGES["kpf_task2"],
        FACTOR_RANGES["cpf_task2"],
        FACTOR_RANGES["kpf_task3"],
        FACTOR_RANGES["cpf_task3"],
        dataflow_settings,
    )
    for batch, k1, k2, c2, k3, c3, dataflow in combos:
        point = LeNetDesignPoint(batch, k1, k2, c2, k3, c3, dataflow)
        results.append(evaluate_design_point(point, platform))
        if limit is not None and len(results) >= limit:
            break
    return results


def pareto_frontier(results: Iterable[LeNetEvaluation]) -> List[LeNetEvaluation]:
    """Designs not dominated in the (utilization, throughput) plane."""
    feasible = sorted(
        (r for r in results if r.fits), key=lambda r: (r.utilization, -r.throughput)
    )
    frontier: List[LeNetEvaluation] = []
    best = -1.0
    for result in feasible:
        if result.throughput > best:
            frontier.append(result)
            best = result.throughput
    return frontier


def expert_design_point() -> LeNetDesignPoint:
    """The hand-tuned expert configuration (heuristic CPF/KPF selection).

    Mirrors the heuristics of [76]: parallelism roughly proportional to each
    layer's compute, restricted to the Table 1 factor values.
    """
    return LeNetDesignPoint(
        batch=10,
        kpf_task1=6,
        kpf_task2=16,
        cpf_task2=6,
        kpf_task3=4,
        cpf_task3=16,
        dataflow=True,
    )


def best_design(results: Iterable[LeNetEvaluation]) -> LeNetEvaluation:
    """The feasible design with the highest throughput."""
    feasible = [r for r in results if r.fits]
    if not feasible:
        raise ValueError("no feasible design point")
    return max(feasible, key=lambda r: r.throughput)


def compile_hida_lenet(
    parallel_factors: Sequence[int] = (16, 32, 64),
    batches: Sequence[int] = (10, 20),
    platform_name: str = "pynq-z2",
    workload: str = "lenet",
) -> Tuple[float, float, CompilationState]:
    """Compile LeNet with the real HIDA pipeline; pick the best fitting design.

    ``workload`` is resolved through the :mod:`repro.workloads` registry, so
    the same sweep can be pointed at any registered model.  Returns
    (throughput in images/s, utilization, compile result).
    """
    handle = get_workload(workload, kind="model")
    best: Optional[Tuple[float, float, CompilationState]] = None
    for batch in batches:
        for factor in parallel_factors:
            result = Compiler(
                default_stages(drop=["tile"], parallelize={"factor": factor}),
                platform=platform_name,
            ).run(workload=handle.at(batch=batch))
            utilization = result.max_utilization()
            throughput = result.throughput * batch
            if utilization > 1.0:
                continue
            if best is None or throughput > best[0]:
                best = (throughput, utilization, result)
    if best is None:
        raise RuntimeError("no HIDA LeNet configuration fits the platform")
    return best
