"""Intensity and connection analysis (Section 6.5, step 1 and 2).

For every dataflow node we record:

* its **computation intensity** — the number of scalar operations it
  executes per invocation (Table 5's intensity column);
* its **loop band** structure — trip counts and which loops are parallel
  (carry no loop-carried dependence);
* its **connections** — for every buffer shared with another node, the
  *permutation map* aligning the two nodes' loop levels and the *scaling
  map* aligning their access strides (Table 4).

These analyses feed the parallel-factor generation and the
connection-constrained DSE of Algorithm 4.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.dependence import NestAccesses, loop_carries_dependence
from ..dialects.affine import AffineForOp, AffineLoadOp, AffineStoreOp
from ..dialects.arith import is_multiply_accumulate
from ..dialects.dataflow import NodeOp, ScheduleOp
from ..estimation.qor import node_intensity
from ..ir.core import Value
from ..transforms.array_partition import _resolve_through_nodes
from ..transforms.loop_transforms import loop_bands_of

__all__ = [
    "is_parallel_loop",
    "BandAccess",
    "BandInfo",
    "Connection",
    "band_info_of",
    "node_intensity",
    "collect_band_infos",
    "collect_access_infos",
    "collect_connections",
    "connection_table",
]


def is_parallel_loop(
    loop: AffineForOp, accesses: Optional[NestAccesses] = None
) -> bool:
    """Whether a loop can be unrolled without breaking a dependence.

    Uses the explicit ``parallel`` attribute when present (set by the linalg
    lowering); otherwise the loop is parallel exactly when the dependence
    engine (:mod:`repro.analysis.dependence`) finds no dependence carried by
    it — distance/direction vectors over the access maps replace the old
    "every store indexes this IV" heuristic, so reductions through affine
    subscripts of any shape are caught.  ``accesses`` is the enclosing
    band's shared access collection, when the caller holds one.
    """
    if loop.has_attr("parallel"):
        return bool(loop.is_parallel)
    return not loop_carries_dependence(loop, accesses)


@dataclasses.dataclass
class BandAccess:
    """One affine load/store inside a band, normalized to band loop positions.

    ``dim_loop_positions[d]`` is the band-loop index driving buffer dimension
    ``d`` (or None); ``dim_strides[d]`` is the corresponding access stride.
    ``drivers`` is the ``driving_loops()`` decode they come from.
    """

    buffer: Value
    is_store: bool
    dim_loop_positions: List[Optional[int]]
    dim_strides: List[int]
    drivers: List[Optional[Tuple[AffineForOp, int]]]

    @property
    def rank(self) -> int:
        return len(self.dim_loop_positions)


@dataclasses.dataclass
class BandInfo:
    """Loop-band structure of a node used by the parallelizer.

    ``nest_accesses`` is the dependence engine's walk of ``band[0]`` that
    ``parallel_flags`` were answered from; ``parallelize_band`` reuses it
    for its legality checks until it mutates the band, then drops it, while
    ``accesses`` follow a permutation (:meth:`permute_accesses`).
    Records from :func:`collect_access_infos` fill ``accesses`` only.
    """

    node: NodeOp
    band: List[AffineForOp]
    trip_counts: List[int] = dataclasses.field(default_factory=list)
    parallel_flags: List[bool] = dataclasses.field(default_factory=list)
    accesses: List[BandAccess] = dataclasses.field(default_factory=list)
    intensity: int = 0
    muls_per_iteration: int = 0
    nest_accesses: Optional[NestAccesses] = None

    @property
    def num_loops(self) -> int:
        return len(self.band)

    @property
    def label(self) -> str:
        label = getattr(self.node, "label", "") or self.node.get_attr("sym_name", "")
        if not label and self.band:
            hint = self.band[0].induction_variable.name_hint
            label = f"band_{hint}" if hint else "band"
        return label or "node"

    def unroll_factors(self) -> List[int]:
        return [loop.unroll_factor for loop in self.band]

    def apply_unroll_factors(self, factors: Sequence[int]) -> None:
        for loop, factor in zip(self.band, factors):
            loop.set_unroll_factor(
                max(1, min(int(factor), max(loop.trip_count, 1)))
            )

    def permute_accesses(self, order: Sequence[int]) -> None:
        """Follow ``permute_band(self.band, order)``: level ``p`` moved to
        ``order.index(p)``, whose loop now drives what ``p`` drove."""
        for access in self.accesses:
            for d, position in enumerate(access.dim_loop_positions):
                if position is not None:
                    level = access.dim_loop_positions[d] = order.index(position)
                    access.drivers[d] = (self.band[level], access.dim_strides[d])


def _band_accesses(node: NodeOp, band: Sequence[AffineForOp]) -> List[BandAccess]:
    """Collect accesses within the band, normalized to band loop positions."""
    loop_position = {id(loop): i for i, loop in enumerate(band)}
    accesses: List[BandAccess] = []
    root = band[0] if band else node
    for op in root.walk():
        if not isinstance(op, (AffineLoadOp, AffineStoreOp)):
            continue
        drivers = op.driving_loops()
        positions = [driver and loop_position.get(id(driver[0])) for driver in drivers]
        strides = [driver[1] if driver else 0 for driver in drivers]
        accesses.append(
            BandAccess(op.memref, isinstance(op, AffineStoreOp), positions, strides, drivers)
        )
    return accesses


def _muls_per_innermost_iteration(band: Sequence[AffineForOp]) -> int:
    if not band:
        return 0
    innermost = band[-1]
    # Walk to the true innermost loop if the band is imperfect.
    current = innermost
    while True:
        inner = [op for op in current.body.operations if isinstance(op, AffineForOp)]
        if not inner:
            break
        current = inner[0]
    return sum(
        1 for op in current.body.operations if is_multiply_accumulate(op)
    )


def band_info_of(node: NodeOp, band: Sequence[AffineForOp]) -> BandInfo:
    """Build the BandInfo record for one band of a node (one dependence walk)."""
    band = list(band)
    trips = [max(loop.trip_count, 1) for loop in band]
    nest = NestAccesses(band[0]) if band else None
    flags = [is_parallel_loop(loop, nest) for loop in band]
    accesses = _band_accesses(node, band)
    intensity = node_intensity(band[0]) if band else node_intensity(node)
    return BandInfo(
        node=node,
        band=band,
        trip_counts=trips,
        parallel_flags=flags,
        accesses=accesses,
        intensity=intensity,
        muls_per_iteration=_muls_per_innermost_iteration(band),
        nest_accesses=nest,
    )


def collect_band_infos(schedule: ScheduleOp) -> List[BandInfo]:
    """All (node, band) parallelization units of a schedule, in program order."""
    return [
        band_info_of(node, band)
        for node in schedule.nodes
        for band in loop_bands_of(node)
    ]


def collect_access_infos(schedule: ScheduleOp) -> List[BandInfo]:
    """The same units carrying only their accesses: all that connection
    alignment reads, so no dependence, intensity or MAC analysis is run."""
    return [
        BandInfo(node, list(band), accesses=_band_accesses(node, band))
        for node in schedule.nodes
        for band in loop_bands_of(node)
    ]


@dataclasses.dataclass
class Connection:
    """A source -> target connection through a shared buffer (Table 4).

    ``links`` holds one entry per buffer dimension where both endpoints have
    a driving loop: ``(source loop position, target loop position, source
    stride, target stride)``.
    """

    source: BandInfo
    target: BandInfo
    buffer: Value
    links: List[Tuple[int, int, int, int]]

    # ----------------------------------------------------------------- maps
    def source_to_target_permutation(self) -> List[Optional[int]]:
        """Indexed by target loop position, gives the linked source loop."""
        result: List[Optional[int]] = [None] * self.target.num_loops
        for s_pos, t_pos, _, _ in self.links:
            result[t_pos] = s_pos
        return result

    def target_to_source_permutation(self) -> List[Optional[int]]:
        """Indexed by source loop position, gives the linked target loop."""
        result: List[Optional[int]] = [None] * self.source.num_loops
        for s_pos, t_pos, _, _ in self.links:
            result[s_pos] = t_pos
        return result

    def source_to_target_scaling(self) -> List[Optional[Fraction]]:
        """Indexed by source loop position: factor mapping source unroll to target."""
        result: List[Optional[Fraction]] = [None] * self.source.num_loops
        for s_pos, _, s_stride, t_stride in self.links:
            if t_stride:
                result[s_pos] = Fraction(s_stride, t_stride)
        return result

    def target_to_source_scaling(self) -> List[Optional[Fraction]]:
        """Indexed by target loop position: factor mapping target unroll to source."""
        result: List[Optional[Fraction]] = [None] * self.target.num_loops
        for _, t_pos, s_stride, t_stride in self.links:
            if s_stride:
                result[t_pos] = Fraction(t_stride, s_stride)
        return result

    # ------------------------------------------------------------ constraints
    def constraints_for(
        self, band: BandInfo, other_factors: Sequence[int]
    ) -> List[Optional[int]]:
        """Alignment constraints on ``band`` given the other endpoint's factors.

        Implements ``permute(unroll_factors ⊙ s_map, p_map)`` of Algorithm 4:
        each of the other endpoint's unroll factors is scaled by the stride
        ratio and permuted onto this band's loop positions.
        """
        constraints: List[Optional[int]] = [None] * band.num_loops
        for s_pos, t_pos, s_stride, t_stride in self.links:
            if band is self.target or band.node is self.target.node and band.band is self.target.band:
                own_pos, other_pos = t_pos, s_pos
                own_stride, other_stride = t_stride, s_stride
            else:
                own_pos, other_pos = s_pos, t_pos
                own_stride, other_stride = s_stride, t_stride
            if other_pos >= len(other_factors):
                continue
            other_factor = other_factors[other_pos]
            if not own_stride:
                continue
            constraints[own_pos] = max(
                1, other_factor * abs(other_stride) // abs(own_stride)
            )
        return constraints

    def __repr__(self) -> str:
        return (
            f"Connection({self.source.label} -> {self.target.label}, "
            f"buffer={self.buffer.name_hint or 'buf'}, links={self.links})"
        )


def collect_connections(
    schedule: ScheduleOp, band_infos: Optional[Sequence[BandInfo]] = None
) -> List[Connection]:
    """Step (1): build the connection records of a schedule.

    Two bands are connected when one stores to and the other loads from the
    same underlying buffer (resolved through node block arguments).
    """
    infos = list(band_infos) if band_infos is not None else collect_band_infos(schedule)

    # Index accesses per underlying buffer.
    writers: Dict[int, List[Tuple[BandInfo, BandAccess]]] = {}
    readers: Dict[int, List[Tuple[BandInfo, BandAccess]]] = {}
    buffers: Dict[int, Value] = {}
    for info in infos:
        for access in info.accesses:
            key_value = _resolve_through_nodes(access.buffer)
            key = id(key_value)
            buffers[key] = key_value
            target = writers if access.is_store else readers
            target.setdefault(key, []).append((info, access))

    connections: List[Connection] = []
    for key, writer_list in writers.items():
        reader_list = readers.get(key, [])
        for source_info, source_access in writer_list:
            for target_info, target_access in reader_list:
                if source_info.node is target_info.node and source_info.band is target_info.band:
                    continue
                links: List[Tuple[int, int, int, int]] = []
                rank = min(source_access.rank, target_access.rank)
                for d in range(rank):
                    s_pos = source_access.dim_loop_positions[d]
                    t_pos = target_access.dim_loop_positions[d]
                    if s_pos is None or t_pos is None:
                        continue
                    links.append(
                        (
                            s_pos,
                            t_pos,
                            source_access.dim_strides[d] or 1,
                            target_access.dim_strides[d] or 1,
                        )
                    )
                if links:
                    connections.append(
                        Connection(
                            source=source_info,
                            target=target_info,
                            buffer=buffers[key],
                            links=links,
                        )
                    )
    # De-duplicate (same endpoints and buffer).
    unique: List[Connection] = []
    seen = set()
    for connection in connections:
        key = (
            id(connection.source),
            id(connection.target),
            id(connection.buffer),
        )
        if key not in seen:
            seen.add(key)
            unique.append(connection)
    return unique


def connection_table(connections: Sequence[Connection]) -> List[Dict[str, object]]:
    """Human-readable connection rows matching Table 4 of the paper."""
    rows = []
    for connection in connections:
        rows.append(
            {
                "source": connection.source.label,
                "target": connection.target.label,
                "buffer": connection.buffer.name_hint or "buffer",
                "s_to_t_permutation": connection.source_to_target_permutation(),
                "t_to_s_permutation": connection.target_to_source_permutation(),
                "s_to_t_scaling": [
                    float(x) if x is not None else None
                    for x in connection.source_to_target_scaling()
                ],
                "t_to_s_scaling": [
                    float(x) if x is not None else None
                    for x in connection.target_to_source_scaling()
                ],
            }
        )
    return rows
