"""repro.estimation — the Vitis-HLS-style QoR estimation substrate.

Platform specifications, an analytical latency/resource model, a
coarse-grained dataflow simulator and the evaluation metrics used in the
paper (DSP efficiency, throughput, memory reduction).
"""

from .dataflow_sim import ChannelSpec, build_channels, simulate_dataflow
from .metrics import (
    dsp_efficiency,
    geometric_mean,
    memory_reduction,
    speedup,
    throughput_samples_per_second,
)
from .platform import (
    PYNQ_Z2,
    VU9P_SLR,
    ZU3EG,
    Platform,
    UnknownTargetError,
    get_platform,
    iter_platforms,
    list_platforms,
)
from .qor import (
    SIMULATION_FRAMES,
    DesignEstimate,
    NodeEstimate,
    QoREstimator,
    ResourceUsage,
    SimulationGraph,
    dsp_cost_of_op,
    estimate_band,
    estimate_buffer,
    estimate_node,
    simulate_design,
    simulate_graphs,
    simulate_node,
)

__all__ = [
    "ChannelSpec",
    "build_channels",
    "simulate_dataflow",
    "dsp_efficiency",
    "geometric_mean",
    "memory_reduction",
    "speedup",
    "throughput_samples_per_second",
    "PYNQ_Z2",
    "VU9P_SLR",
    "ZU3EG",
    "Platform",
    "UnknownTargetError",
    "get_platform",
    "iter_platforms",
    "list_platforms",
    "DesignEstimate",
    "NodeEstimate",
    "QoREstimator",
    "ResourceUsage",
    "SimulationGraph",
    "dsp_cost_of_op",
    "estimate_band",
    "estimate_buffer",
    "estimate_node",
    "simulate_design",
    "simulate_graphs",
    "simulate_node",
    "SIMULATION_FRAMES",
]
