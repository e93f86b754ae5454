"""Quality-of-results (QoR) estimation: latency and resource models.

This module is the stand-in for AMD Vitis HLS synthesis reports.  HIDA's
optimizer (like ScaleHLS, whose estimator it reuses) drives its DSE with an
analytical QoR model of exactly this form, so the reproduction exercises the
same code path the paper describes; only the calibration constants differ
from a real device.

The model captures the effects that drive the paper's comparisons:

* loop pipelining and unrolling shrink iteration latency;
* the initiation interval (II) is limited by memory ports — an unrolled body
  that needs more elements per cycle than the buffer partition provides
  stalls, which is what makes connection-aware (CA) parallelization matter;
* external (DRAM) accesses are limited by AXI bandwidth and burst length —
  small tiles hurt both bandwidth and DSP count (address generation), which
  is what the tile-size ablation of Figure 10 measures;
* multipliers consume DSPs proportionally to the unroll product, buffers
  consume BRAM proportionally to partition banks and ping-pong depth.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Sequence, Tuple

from .. import obs
from ..dialects.affine import AffineForOp, AffineLoadOp, AffineStoreOp
from ..dialects.arith import is_compute_op
from ..dialects.dataflow import BufferOp, NodeOp, ScheduleOp
from ..dialects.hls import partition_of
from ..dialects.linalg import LinalgOp
from ..dialects.memref import AllocOp
from ..ir.core import Operation, Value
from ..ir.types import MemRefType
from ..transforms.array_partition import partition_factors_of_value
from ..transforms.linalg_to_affine import unlowered_op_error
from ..transforms.loop_transforms import loop_bands_of
from .dataflow_sim import ChannelSpec, build_channels, dataflow_timeline, simulate_dataflow
from .platform import Platform

__all__ = [
    "ResourceUsage",
    "NodeEstimate",
    "DesignEstimate",
    "SimulationGraph",
    "dsp_cost_of_op",
    "node_intensity",
    "estimate_band",
    "estimate_node",
    "estimate_buffer",
    "simulate_graphs",
    "simulate_design",
    "QoREstimator",
]

#: Pipeline fill depth added to every pipelined loop's latency.
_PIPELINE_DEPTH = 12
#: Approximate latency of one non-pipelined loop iteration, per body op.
_SEQ_CYCLES_PER_OP = 1.5
#: Base LUT cost of a dataflow node's control logic (FSM, counters).
_NODE_BASE_LUT = 250
#: LUT cost per operator instance.
_LUT_PER_OP = 35
#: LUT cost per memory bank (multiplexing and address decode).
_LUT_PER_BANK = 18
#: Extra DSPs used for address calculation per external port when bursts are
#: short (fine-grained memory access control; see Figure 10 discussion).
_ADDR_DSP_PER_PORT = 4
#: Burst length (elements) below which external accesses lose efficiency.
_SHORT_BURST = 16


@dataclasses.dataclass
class ResourceUsage:
    """FPGA resource usage (BRAM in 18Kb blocks)."""

    lut: float = 0.0
    ff: float = 0.0
    dsp: float = 0.0
    bram: float = 0.0

    def __add__(self, other: "ResourceUsage") -> "ResourceUsage":
        return ResourceUsage(
            lut=self.lut + other.lut,
            ff=self.ff + other.ff,
            dsp=self.dsp + other.dsp,
            bram=self.bram + other.bram,
        )

    def as_dict(self) -> Dict[str, float]:
        return {"lut": self.lut, "ff": self.ff, "dsp": self.dsp, "bram": self.bram}

    def __repr__(self) -> str:
        return (
            f"ResourceUsage(lut={self.lut:.0f}, ff={self.ff:.0f}, "
            f"dsp={self.dsp:.0f}, bram={self.bram:.0f})"
        )


@dataclasses.dataclass
class NodeEstimate:
    """Latency/interval/resources of one dataflow node."""

    label: str
    latency: float
    interval: float
    resources: ResourceUsage
    intensity: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "latency": self.latency,
            "interval": self.interval,
            "resources": self.resources.as_dict(),
            "intensity": self.intensity,
        }

    def __repr__(self) -> str:
        return (
            f"NodeEstimate({self.label!r}, latency={self.latency:.0f}, "
            f"interval={self.interval:.0f}, {self.resources})"
        )


@dataclasses.dataclass
class DesignEstimate:
    """Whole-design estimate: resources, latency, steady-state interval."""

    resources: ResourceUsage
    latency: float
    interval: float
    clock_mhz: float
    node_estimates: List[NodeEstimate] = dataclasses.field(default_factory=list)
    dataflow: bool = True

    @property
    def throughput(self) -> float:
        """Samples (frames) per second at the design clock."""
        if self.interval <= 0:
            return 0.0
        return self.clock_mhz * 1e6 / self.interval

    def utilization(self, platform: Platform) -> Dict[str, float]:
        return platform.utilization(self.resources.as_dict())

    def max_utilization(self, platform: Platform) -> float:
        return platform.max_utilization(self.resources.as_dict())

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe serialization, the ``estimate`` the QoR cache stores."""
        return {
            "resources": self.resources.as_dict(),
            "latency": self.latency,
            "interval": self.interval,
            "clock_mhz": self.clock_mhz,
            "node_estimates": [n.to_dict() for n in self.node_estimates],
            "dataflow": self.dataflow,
        }

    def __repr__(self) -> str:
        return (
            f"DesignEstimate(throughput={self.throughput:.2f}/s, "
            f"latency={self.latency:.0f}cyc, interval={self.interval:.0f}cyc, "
            f"{self.resources})"
        )


def dsp_cost_of_op(op: Operation) -> float:
    """DSP blocks consumed by one instance of a scalar operator."""
    element = op.results[0].type if op.results else None
    width = getattr(element, "width", 32)
    if op.name in ("arith.mulf", "arith.divf"):
        return 3.0 if width >= 32 else 1.0
    if op.name in ("arith.addf", "arith.subf"):
        return 2.0 if width >= 32 else 0.0
    if op.name == "math.sqrt":
        return 6.0
    return 0.0


def _body_op_stats(loop: AffineForOp) -> Tuple[int, int, float, int, int]:
    """Statistics of one innermost loop body.

    Returns (compute ops, memory accesses, dsp per iteration, loads, stores).
    """
    compute = 0
    mem = 0
    dsp = 0.0
    loads = 0
    stores = 0
    for op in loop.body.operations:
        if isinstance(op, AffineForOp):
            continue
        if is_compute_op(op):
            compute += 1
            dsp += dsp_cost_of_op(op)
        if isinstance(op, AffineLoadOp):
            mem += 1
            loads += 1
        if isinstance(op, AffineStoreOp):
            mem += 1
            stores += 1
    return compute, mem, dsp, loads, stores


def _memory_port_ii(loop: AffineForOp) -> float:
    """II contribution of on-chip memory-port limits.

    External (DRAM) buffers are handled separately as streaming transfers
    overlapped with compute (``traffic`` in :func:`estimate_band`): HIDA's
    tiling creates local tile buffers with double buffering, so the external
    accesses do not appear on the compute loop's critical path.
    """
    worst = 1.0
    # Distinct addresses touched per cycle, per buffer: unrolled copies that
    # read the same address broadcast from one port, so only the unroll
    # factors of loops actually driving the access's subscripts multiply the
    # port demand.
    per_buffer: Dict[int, Tuple[Value, float]] = {}
    for op in loop.body.operations:
        if not isinstance(op, (AffineLoadOp, AffineStoreOp)):
            continue
        buffer = op.memref
        memref_type = buffer.type
        if isinstance(memref_type, MemRefType) and not memref_type.is_on_chip:
            continue
        distinct = 1.0
        drivers = {id(loop): loop for loop, _ in filter(None, op.driving_loops())}
        for loop in drivers.values():
            distinct *= max(1, loop.unroll_factor)
        key = id(buffer)
        previous = per_buffer.get(key, (buffer, 0.0))[1]
        per_buffer[key] = (buffer, previous + distinct)
    for buffer, accesses in per_buffer.values():
        banks = 1
        factors = partition_factors_of_value(buffer)
        for factor in factors:
            banks *= max(1, factor)
        ports = banks * 2  # true dual-port BRAM
        worst = max(worst, accesses / ports)
    return worst


def estimate_band(
    band: Sequence[AffineForOp], platform: Platform
) -> Tuple[float, float, ResourceUsage]:
    """Latency, interval and resources of one perfectly nested loop band.

    One post-order walk of ``band[0]`` gathers every term.  Its first loop
    is the innermost loop the band leads to (the band may stop short of it
    in an imperfect nest), whose body statistics are inspected; every loop
    contributes its (trip / unroll) iteration count to ``iterations`` and
    its unroll factor to ``unroll_product``; every external buffer its
    full footprint, once, to ``traffic``.
    """
    if not band:
        return 1.0, 1.0, ResourceUsage()
    target = None
    iterations = 1
    unroll_product = 1
    pipelined: List[AffineForOp] = []
    # Bytes moved to/from external memory by one execution of the band,
    # assuming streaming with perfect on-chip reuse: every external buffer
    # the band touches is transferred once (its full footprint), which
    # models HIDA's tile-load / tile-compute / tile-store sub-node structure.
    traffic = 0.0
    external = set()
    for op in band[0].walk():
        if isinstance(op, AffineForOp):
            if target is None:
                target = op
            trip = max(op.trip_count, 1)
            unroll = max(1, min(op.unroll_factor, trip))
            iterations *= max(1, math.ceil(trip / unroll))
            unroll_product *= unroll
            if op.is_pipelined:
                pipelined.append(op)
        elif isinstance(op, (AffineLoadOp, AffineStoreOp)):
            buffer = op.memref
            memref_type = buffer.type
            if (
                isinstance(memref_type, MemRefType)
                and not memref_type.is_on_chip
                and id(buffer) not in external
            ):
                external.add(id(buffer))
                traffic += memref_type.num_elements * (
                    memref_type.element_type.bitwidth / 8.0
                )
    compute, mem, dsp_per_iter, loads, stores = _body_op_stats(target)

    if pipelined:
        # Recurrence bound: a carried dependence chain caps the achievable
        # II regardless of the directive, exactly like scheduling would.
        from ..analysis.recurrence import pipeline_rec_mii

        target_ii = max(loop.target_ii for loop in pipelined)
        rec_mii = max(pipeline_rec_mii(loop) for loop in pipelined)
        ii = max(float(target_ii), float(rec_mii), _memory_port_ii(target))
        latency = iterations * ii + _PIPELINE_DEPTH
    else:
        per_iter = max(2.0, (compute + mem) * _SEQ_CYCLES_PER_OP)
        latency = iterations * per_iter

    # External memory traffic streams concurrently with compute (tile-level
    # double buffering); the band is bound by whichever is slower.
    if traffic:
        transfer_cycles = traffic / platform.dram_bytes_per_cycle + platform.dram_latency_cycles
        latency = max(latency, transfer_cycles)

    dsp = dsp_per_iter * unroll_product
    lut = _LUT_PER_OP * (compute + mem) * max(1.0, unroll_product ** 0.85)
    ff = 1.1 * lut
    resources = ResourceUsage(lut=lut, ff=ff, dsp=dsp, bram=0.0)
    return latency, latency, resources


def node_intensity(node: Operation) -> int:
    """Computation intensity of a node (Table 5 definition).

    The number of scalar compute operations executed per invocation; nodes
    that only move data fall back to the number of elements they store
    (Table 5: Node0 = 512, Node1 = 256, Node2 = 4096).
    """
    compute = stored = 0
    pending = [(node, 1)]  # (op, iterations of the loops around it)
    while pending:
        op, iterations = pending.pop()
        if is_compute_op(op):
            compute += iterations
        elif isinstance(op, AffineStoreOp):
            stored += iterations
        if isinstance(op, AffineForOp):
            iterations *= max(op.trip_count, 1)
        for region in op.regions:
            for block in region.blocks:
                for child in block.operations:
                    pending.append((child, iterations))
    return compute or stored


def estimate_buffer(buffer_op: Operation, platform: Platform) -> ResourceUsage:
    """BRAM usage of an on-chip buffer (hida.buffer or memref.alloc)."""
    if isinstance(buffer_op, BufferOp):
        memref_type = buffer_op.memref_type
        if buffer_op.is_external:
            if buffer_op.get_attr("tiled", False):
                # Tiled external buffer: only a small double-buffered tile
                # cache remains on-chip; its banks are tiny and map to
                # LUTRAM, so the BRAM cost is the tile footprint itself.
                tile_elements = int(buffer_op.get_attr("tile_elements", 256))
                tile_bits = tile_elements * memref_type.element_type.bitwidth
                stages = max(buffer_op.depth, 2)
                return ResourceUsage(
                    bram=stages * max(1.0, math.ceil(tile_bits / (18 * 1024))),
                    lut=buffer_op.partition.banks * 8.0,
                )
            return ResourceUsage()
        banks = buffer_op.partition.banks
        depth = buffer_op.depth
    elif isinstance(buffer_op, AllocOp):
        memref_type = buffer_op.memref_type
        if not memref_type.is_on_chip:
            return ResourceUsage()
        banks = 1
        partition = partition_of(buffer_op.result())
        if partition is not None:
            banks = partition.banks
        depth = 1
    else:
        return ResourceUsage()
    total_bits = memref_type.num_elements * memref_type.element_type.bitwidth
    bits_per_bank = total_bits / max(banks, 1)
    if total_bits <= 1024 * 8:
        # Tiny buffers map to LUTRAM.
        return ResourceUsage(lut=total_bits / 6.0)
    brams_per_bank = max(1, math.ceil(bits_per_bank / (18 * 1024)))
    return ResourceUsage(bram=banks * brams_per_bank * max(depth, 1))


def _short_burst_penalty(node: NodeOp) -> float:
    """Latency multiplier for fine-grained external-memory access.

    Nodes streaming external buffers in sub-``_SHORT_BURST`` tiles lose DRAM
    efficiency; both the analytic estimate and the dataflow simulation apply
    the same degradation so the two fidelity levels disagree only about
    overlap behavior, never about the memory model.
    """
    external_ports = sum(
        1
        for operand in node.operands
        if isinstance(operand.type, MemRefType) and not operand.type.is_on_chip
    )
    tile_size = int(node.get_attr("tile_size", 0) or 0)
    if external_ports and tile_size and tile_size < _SHORT_BURST:
        return 1.0 + 0.4 * (_SHORT_BURST - tile_size) / _SHORT_BURST
    return 1.0


def estimate_node(node: NodeOp, platform: Platform) -> NodeEstimate:
    """Estimate one structural dataflow node.

    A node's loop bands form a sub-node dataflow of their own (the paper's
    Task6-0/1/2 tile-load / tile-compute / tile-store structure): successive
    bands stream through small local buffers and overlap, so the node's
    latency is dominated by its slowest band rather than the sum of all
    bands.
    """
    return _estimate_node(node, platform)[0]


def _estimate_node(node: NodeOp, platform: Platform) -> Tuple[NodeEstimate, List[float]]:
    """:func:`estimate_node` plus the node's band latencies, each times the
    node's short-burst penalty: the node's input to the simulation."""
    bands = loop_bands_of(node)
    latency = 0.0
    resources = ResourceUsage(lut=_NODE_BASE_LUT, ff=_NODE_BASE_LUT)
    band_latencies: List[float] = []
    for band in bands:
        band_latency, _, band_resources = estimate_band(band, platform)
        band_latencies.append(band_latency)
        resources = resources + band_resources
    if band_latencies:
        latency = max(band_latencies) + _PIPELINE_DEPTH * (len(band_latencies) - 1)
    if not bands:
        latency = max(latency, 4.0)

    # Bank multiplexing LUTs and address-generation DSPs for external ports.
    external_ports = 0
    for operand in node.operands:
        if isinstance(operand.type, MemRefType):
            factors = partition_factors_of_value(operand)
            banks = 1
            for factor in factors:
                banks *= factor
            resources.lut += _LUT_PER_BANK * banks
            if not operand.type.is_on_chip:
                external_ports += 1
    tile_size = int(node.get_attr("tile_size", 0) or 0)
    if external_ports and tile_size and tile_size < _SHORT_BURST:
        resources.dsp += _ADDR_DSP_PER_PORT * external_ports * (
            _SHORT_BURST / max(tile_size, 1)
        )
        resources.lut += 120 * external_ports
    # Short-burst external access also degrades achievable bandwidth.
    penalty = _short_burst_penalty(node)
    latency *= penalty

    estimate = NodeEstimate(
        label=node.label or "node",
        latency=max(latency, 1.0),
        interval=max(latency, 1.0),
        resources=resources,
        intensity=node_intensity(node),
    )
    return estimate, [band_latency * penalty for band_latency in band_latencies]


# ---------------------------------------------------------------------------
# High-fidelity (simulation-backed) design evaluation
# ---------------------------------------------------------------------------

#: Frame horizon of the high-fidelity simulation (longer than the analytic
#: estimator's 16 so slow-converging back-pressure transients settle).
SIMULATION_FRAMES = 48


@dataclasses.dataclass
class SimulationGraph:
    """The IR-free, picklable simulation input of one schedule, built by the
    estimate stage's walk (:meth:`QoREstimator.estimate_schedule`):
    ``band_latencies[n]`` are node ``n``'s band latencies times its
    short-burst penalty; ``channels`` index ``node_estimates``."""

    label: str
    node_estimates: List[NodeEstimate]
    band_latencies: List[List[float]]
    channels: List[ChannelSpec]


def _band_chain(band_latencies: Sequence[float], frames: int) -> Tuple[float, float]:
    """Frame-accurate ``(latency, interval)`` of one dataflow node's bands.

    The analytic :func:`estimate_node` assumes a node's loop bands stream
    element-wise and overlap perfectly (latency = slowest band plus fill).
    The simulation is stricter about single-frame behavior and looser about
    cross-frame behavior: bands execute frame-atomically in a linear chain
    of capacity-2 ping-pong buffers (a band starts a frame only once its
    predecessor band finished it), so the single-frame latency is the chain
    critical path, while successive frames pipeline through the chain at the
    slowest band's rate — the node's true initiation interval.
    """
    if not band_latencies:
        return 4.0, 4.0
    if len(band_latencies) == 1:
        latency = max(band_latencies[0], 1.0)
        return latency, latency
    channels = [ChannelSpec(i, i + 1, 2) for i in range(len(band_latencies) - 1)]
    interval, latency = simulate_dataflow(band_latencies, channels, frames=frames)
    return max(latency, 1.0), max(interval, 1.0)


def simulate_graphs(
    graphs: Sequence[SimulationGraph], estimate: DesignEstimate, frames: int = SIMULATION_FRAMES
) -> DesignEstimate:
    """Re-derive a design's QoR from a two-level dataflow simulation.

    This is the expensive fidelity of the DSE subsystem, composed from the
    estimate stage's graphs with no IR walk: every node is simulated
    band-by-band (:func:`_band_chain`), then the schedule's
    channel graph is simulated with per-node initiation intervals — nodes
    behave as internally pipelined engines bounded by channel capacities and
    back-pressure, which is where the analytic estimate and the simulation
    genuinely disagree (band-imbalanced nodes get slower single frames but
    much faster steady-state rates).

    Designs without a schedule (single-function kernels, the sequential
    Vitis-HLS baseline) execute their bands strictly back-to-back by
    construction — there is no dataflow to simulate and the analytic
    sequential model is already cycle-faithful — so they come back
    unchanged: the simulator confirms the estimate rather than inventing
    overlap the hardware would not have.  Resources are unchanged
    everywhere: simulation refines *timing*, not area.
    """
    if not graphs:
        return dataclasses.replace(estimate)

    best = None
    with obs.span("simulate-design", cat="sim", schedules=len(graphs)) as sim_span:
        for graph in graphs:
            if not graph.node_estimates:
                continue
            simulated = [_band_chain(bands, frames) for bands in graph.band_latencies]
            latencies = [latency for latency, _ in simulated]
            intervals = [interval for _, interval in simulated]
            interval, latency = simulate_dataflow(
                latencies, graph.channels, frames=frames, intervals=intervals
            )
            # Mirror EstimateStage: the slowest (top-level) schedule dominates.
            if best is None or latency > best[0]:
                best = (latency, interval, graph, latencies, intervals)
        if best is None:
            return dataclasses.replace(estimate)
        latency, interval, graph, latencies, intervals = best
        sim_span.set_attr(latency=round(latency, 3), interval=round(interval, 3))
        if obs.enabled():
            # Re-run only the winning schedule to materialize its occupancy
            # timeline; disabled runs never pay for interval bookkeeping.
            timeline = dataflow_timeline(
                latencies, graph.channels, frames=frames, intervals=intervals
            )
            names = [node.label for node in graph.node_estimates]
            obs.emit_timeline(timeline, label=graph.label, node_names=names)
    # Per-node resources stay the analytic ones *of this schedule's nodes*:
    # simulation replaces the timing fields only.
    node_estimates = [
        dataclasses.replace(node, latency=node_latency, interval=node_interval)
        for node, node_latency, node_interval in zip(graph.node_estimates, latencies, intervals)
    ]
    return dataclasses.replace(
        estimate, latency=latency, interval=interval, node_estimates=node_estimates, dataflow=True
    )


def simulate_design(
    schedules: Sequence[ScheduleOp],
    estimate: DesignEstimate,
    platform: Platform,
    frames: int = SIMULATION_FRAMES,
) -> DesignEstimate:
    """:func:`simulate_graphs` over graphs rebuilt from ``schedules``' IR."""
    estimator = QoREstimator(platform)
    graphs = [estimator.estimate_schedule(s, dataflow=False)[1] for s in schedules]
    return simulate_graphs(graphs, estimate, frames)


class QoREstimator:
    """Estimates QoR for schedules, nodes and plain loop functions."""

    #: Bump when the analytical model changes to invalidate persisted caches.
    MODEL_VERSION = 2

    def __init__(self, platform: Platform) -> None:
        self.platform = platform

    # ------------------------------------------------------------- schedules
    def estimate_schedule(
        self, schedule: ScheduleOp, dataflow: bool = True, frames: int = 16
    ) -> Tuple[DesignEstimate, SimulationGraph]:
        """Estimate a structural dataflow schedule, and keep its simulation
        graph from the same walk (channels included under ``dataflow=False``).

        With ``dataflow=True`` the steady-state interval comes from the
        coarse-grained dataflow simulator (overlapped node execution through
        ping-pong buffers); otherwise nodes execute back-to-back.
        """
        nodes, channels = build_channels(schedule)
        estimated = [_estimate_node(node, self.platform) for node in nodes]
        node_estimates = [estimate for estimate, _ in estimated]
        resources = ResourceUsage()
        for estimate in node_estimates:
            resources = resources + estimate.resources
        for buffer_op in schedule.buffers:
            resources = resources + estimate_buffer(buffer_op, self.platform)
        for _stream in schedule.streams:
            resources = resources + ResourceUsage(lut=40, ff=60)

        latency = interval = sum(e.latency for e in node_estimates) or 1.0
        if dataflow and node_estimates:
            latencies = [e.latency for e in node_estimates]
            interval, latency = simulate_dataflow(latencies, channels, frames=frames)
        band_latencies = [bands for _, bands in estimated]
        graph = SimulationGraph(schedule.label or "schedule", node_estimates, band_latencies, channels)
        return DesignEstimate(
            resources=resources,
            latency=latency,
            interval=interval,
            clock_mhz=self.platform.clock_mhz,
            node_estimates=node_estimates,
            dataflow=dataflow,
        ), graph

    # ----------------------------------------------------------- plain loops
    def estimate_function(self, func: Operation, dataflow: bool = False) -> DesignEstimate:
        """Estimate a function that contains loop bands but no schedule.

        Used for the Vitis-HLS-only baseline and any design evaluated before
        Structural lowering: bands execute sequentially.
        """
        bands = loop_bands_of(func)
        # Also descend into tasks/dispatches if present; a linalg op there
        # would otherwise be estimated as no work at all.
        if not bands:
            for op in func.walk():
                if op.name in ("hida.task",):
                    bands.extend(loop_bands_of(op))
                elif isinstance(op, LinalgOp):
                    raise unlowered_op_error(op, "estimate")
        resources = ResourceUsage(lut=_NODE_BASE_LUT, ff=_NODE_BASE_LUT)
        latency = 0.0
        node_estimates = []
        for i, band in enumerate(bands):
            band_latency, _, band_resources = estimate_band(band, self.platform)
            latency += band_latency
            resources = resources + band_resources
            node_estimates.append(
                NodeEstimate(
                    label=f"band{i}",
                    latency=band_latency,
                    interval=band_latency,
                    resources=band_resources,
                )
            )
        for op in func.walk():
            if isinstance(op, (AllocOp, BufferOp)):
                resources = resources + estimate_buffer(op, self.platform)
        latency = max(latency, 1.0)
        return DesignEstimate(
            resources=resources,
            latency=latency,
            interval=latency,
            clock_mhz=self.platform.clock_mhz,
            node_estimates=node_estimates,
            dataflow=dataflow,
        )
