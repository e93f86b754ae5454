"""Intensity- and connection-aware dataflow parallelization (Section 6.5).

Implements steps (2)-(4) of the HIDA parallelization flow:

* **Node sorting** — nodes (more precisely, their loop bands) are processed
  in descending order of connection count, with computation intensity as the
  tie-breaker;
* **Parallel factor generation** — the per-band parallel factor budget is
  proportional to the band's intensity (intensity-aware, IA); without IA the
  maximum factor is applied to every band;
* **Node parallelization** (Algorithm 4) — an intra-band DSE proposes loop
  unroll-factor vectors, rejects proposals that violate the alignment
  constraints derived from already-parallelized connected bands
  (connection-aware, CA) or exceed the parallel factor, ranks valid
  proposals with the QoR model (latency, DSPs, memory banks) and applies the
  winner.

After parallelization the innermost loops are pipelined and buffer
partitions are derived from the final unroll factors.

One walk finds a band's loads and stores: the dependence engine's
(:class:`NestAccesses`), which lists them in program order, and the band's
access records are decoded from that list.  The band's legality checks
(``legal_permutation``, ``legal_pipeline_ii``) ask the engine through the
same collection, so a question the engine has answered for the same
canonical problem — an earlier loop, an identical layer, the previous
design point — is a table lookup.  The collection describes the band as it
was walked: an applied permutation makes it a different problem, so the
collection is dropped and the pipelined loop walked afresh (the table
itself needs no invalidation).

A schedule's connections are collected once.  Each keeps its two access
records, which follow a permutation, and reads its links from their current
positions, so the misalignment count after parallelization reuses them;
array partitioning reads the same records.  :func:`count_misalignments`
recounts from a fresh walk, without dependences.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.dependence import NestAccesses
from ..analysis.legality import legal_permutation, legal_pipeline_ii
from ..dialects.affine import AffineForOp, AffineLoadOp, AffineStoreOp
from ..dialects.dataflow import ScheduleOp
from ..ir.core import Operation, Value
from ..transforms.array_partition import _resolve_through_nodes, partition_decoded_accesses
from ..transforms.loop_transforms import loop_bands_of, permute_band, pipeline_loop
from .analysis import (
    BandInfo,
    Connection,
    band_info_of,
    collect_access_infos,
    collect_band_infos,
    collect_connections,
)

__all__ = [
    "ParallelizationOptions",
    "ParallelizationResult",
    "generate_parallel_factors",
    "sort_bands",
    "search_unroll_factors",
    "proposal_cost",
    "parallelize_band",
    "parallelize_schedule",
    "count_misalignments",
]

#: Upper bound on DSE proposals evaluated per band.
_MAX_PROPOSALS = 8192


@dataclasses.dataclass
class ParallelizationOptions:
    """Knobs of the dataflow parallelization.

    ``intensity_aware`` and ``connection_aware`` correspond to the IA / CA
    ablation modes of Figure 11; the naive mode disables both.
    """

    max_parallel_factor: int = 32
    intensity_aware: bool = True
    connection_aware: bool = True
    #: Target initiation interval requested for pipelined loops.  II > 1
    #: trades throughput for resources (the scheduler can share operators),
    #: which makes it a useful DSE axis on resource-constrained platforms.
    target_ii: int = 1


@dataclasses.dataclass
class ParallelizationResult:
    """Chosen unroll factors and bookkeeping for one schedule."""

    unroll_factors: Dict[str, List[int]] = dataclasses.field(default_factory=dict)
    parallel_factors: Dict[str, int] = dataclasses.field(default_factory=dict)
    intensities: Dict[str, int] = dataclasses.field(default_factory=dict)
    constraint_violations: int = 0
    proposals_evaluated: int = 0
    misalignments: int = 0


# ---------------------------------------------------------------------------
# Step (2): node sorting
# ---------------------------------------------------------------------------


def sort_bands(
    bands: Sequence[BandInfo], connections: Sequence[Connection]
) -> List[BandInfo]:
    """Sort bands by connection count (descending), intensity as tie-breaker."""
    counts = {id(band): 0 for band in bands}
    for connection in connections:
        if id(connection.source) in counts:
            counts[id(connection.source)] += 1
        if id(connection.target) in counts:
            counts[id(connection.target)] += 1
    return sorted(
        bands,
        key=lambda band: (-counts[id(band)], -band.intensity),
    )


# ---------------------------------------------------------------------------
# Step (3): parallel factor generation
# ---------------------------------------------------------------------------


def generate_parallel_factors(
    bands: Sequence[BandInfo], options: ParallelizationOptions
) -> Dict[int, int]:
    """Per-band parallel factor, proportional to intensity when IA is on."""
    factors: Dict[int, int] = {}
    max_intensity = max((band.intensity for band in bands), default=1) or 1
    for band in bands:
        if options.intensity_aware:
            raw = options.max_parallel_factor * band.intensity / max_intensity
            factor = max(1, 2 ** int(round(math.log2(max(raw, 1)))))
        else:
            factor = options.max_parallel_factor
        space = 1
        for trip in band.trip_counts:
            space *= max(trip, 1)
        factors[id(band)] = max(1, min(factor, space))
    return factors


# ---------------------------------------------------------------------------
# Step (4): node parallelization (Algorithm 4)
# ---------------------------------------------------------------------------


def _factor_candidates_for_loop(trip: int, parallel: bool, limit: int) -> List[int]:
    """Candidate unroll factors of one loop: powers of two, plus the exact
    divisors of small trip counts."""
    if not parallel:
        return [1]
    limit = max(1, min(limit, trip))
    candidates = {1}
    power = 2
    while power <= limit:
        candidates.add(power)
        power *= 2
    if trip <= 64:
        for divisor in range(2, limit + 1):
            if trip % divisor == 0:
                candidates.add(divisor)
    return sorted(candidates)


def _misaligned(constraint: Optional[int], factor: int) -> bool:
    """Algorithm 4 lines 13-16: neither of the two divides the other."""
    return constraint is not None and constraint % factor != 0 and factor % constraint != 0


_Ranker = Callable[[Sequence[int]], Tuple[float, ...]]


def search_unroll_factors(
    trip_counts: Sequence[int], parallel_flags: Sequence[bool], muls_per_iteration: int,
    parallel_factor: int, constraints_list: Sequence[Sequence[Optional[int]]], tail_of: _Ranker,
) -> Tuple[List[int], int, int]:
    """Algorithm 4's intra-band DSE in one depth-first pass; returns (best
    factors, proposals evaluated, constraint violations).

    Proposals are the factor vectors within ``parallel_factor``, in
    lexicographic order of the per-loop candidates, at most ``_MAX_PROPOSALS``.
    One misaligned with ``constraints_list`` is a violation; the rest rank by
    :func:`proposal_cost`.  Its ``(iterations, DSPs)`` head is carried as
    running products, iterations in level order (a level whose only candidate
    is 1 folds into the one before); its tail, ``tail_of``, breaks ties only.
    """
    factors = [1] * len(trip_counts)
    iterations = 1.0
    # Per searched level: position, trip, candidates, the misaligned ones,
    # trips of the folded levels after it.
    levels: List[Tuple[int, int, List[int], set, List[int]]] = []
    for position, (trip, flag) in enumerate(zip(trip_counts, parallel_flags)):
        candidates = _factor_candidates_for_loop(trip, flag, parallel_factor)
        if len(candidates) > 1:
            column = [c[position] for c in constraints_list if position < len(c)]
            bad = {f for f in candidates if any(_misaligned(c, f) for c in column)}
            levels.append((position, trip, candidates, bad, []))
        elif levels:
            levels[-1][4].append(trip)
        else:
            iterations *= trip
    if not levels:
        return factors, 1, 0
    best: Optional[List[int]] = None
    best_head, best_tail = (0.0, 0), None  # the tail is computed on a first tie
    evaluated = violations = 0

    def descend(index: int, product: int, iterations: float, rejected: bool) -> bool:
        """Visit every proposal below this level; True once the cap is hit."""
        nonlocal best, best_head, best_tail, evaluated, violations
        position, trip, candidates, bad, folded = levels[index]
        for factor in candidates:
            new_product = product * factor
            if new_product > parallel_factor:
                break
            factors[position] = factor
            new_iterations = iterations * math.ceil(trip / factor)
            for folded_trip in folded:
                new_iterations *= folded_trip
            misaligned = rejected or factor in bad
            if index + 1 < len(levels):
                if descend(index + 1, new_product, new_iterations, misaligned):
                    return True
                continue
            evaluated += 1
            head = (new_iterations, muls_per_iteration * new_product)
            if misaligned:
                violations += 1
            elif best is None or head < best_head:
                best, best_head, best_tail = list(factors), head, None
            elif head == best_head:
                best_tail = best_tail or tail_of(best)
                tail = tail_of(factors)
                if tail < best_tail:
                    best, best_tail = list(factors), tail
            if evaluated >= _MAX_PROPOSALS:
                return True
        return False

    descend(0, 1, iterations, False)
    del descend  # its self-reference would keep this search alive for the collector
    return best or [1] * len(trip_counts), evaluated, violations


def proposal_cost(
    band: BandInfo,
    factors: Sequence[int],
    constraints_list: Sequence[Sequence[Optional[int]]],
) -> Tuple[float, float, float, int, float]:
    """Rank one unroll-factor proposal.

    The cost tuple is (iterations, DSPs, memory banks, max factor,
    -inner-loop preference): fewer residual iterations first (latency), then
    compute resources, then the buffer banks implied by the factors combined
    with the alignment constraints, then structural tie-breakers that favour
    balanced factor vectors with parallelism on inner loops.
    """
    iterations = 1.0
    for trip, factor in zip(band.trip_counts, factors):
        iterations *= math.ceil(trip / max(factor, 1))
    head = (iterations, band.muls_per_iteration * math.prod(factors))
    return head + _tail_ranker(band, constraints_list)(factors)


def _tail_ranker(
    band: BandInfo, constraints_list: Sequence[Sequence[Optional[int]]]
) -> _Ranker:
    """The ``(banks, max factor, -inner preference)`` part of
    :func:`proposal_cost`, which walks every access: the order is
    lexicographic, so it only ever breaks a tie of the ``(iterations,
    DSPs)`` head.  What no proposal changes (the combined constraint, each
    access's stride weights) is computed once."""
    # Combined constraint demand per loop position (from connected bands).
    combined_constraint = [
        max([1] + [c[p] for c in constraints_list if p < len(c) and c[p] is not None])
        for p in range(band.num_loops)
    ]
    # Per access: (loop position, stride weight, constraint demand) of every
    # buffer dimension a band loop drives.
    demands = [
        [
            (position, max(abs(float(stride)), 1.0), float(combined_constraint[position]))
            for position, stride in zip(access.dim_loop_positions, access.dim_strides)
            if position is not None
        ]
        for access in band.accesses
    ]

    def tail(factors: Sequence[int]) -> Tuple[float, int, float]:
        banks = 0.0
        for access_demands in demands:
            access_banks = 1.0
            for position, weight, constraint in access_demands:
                demand = max(factors[position] * weight, constraint)
                access_banks *= max(demand, 1.0)
            banks += access_banks
        max_factor = max(factors) if factors else 1
        inner_preference = sum(factor * index for index, factor in enumerate(factors))
        return (banks, max_factor, -inner_preference)

    return tail


def _order_reductions_outward(band: BandInfo) -> bool:
    """ScaleHLS-style loop-order optimization, verified by the engine.

    When the innermost loop of a band carries a dependence (a reduction)
    while other levels are parallel, pipelining the nest as-is is bound by
    the recurrence II.  Permute the band — reduction loops outward, parallel
    loops inward, relative order preserved — so the pipelined innermost loop
    is dependence-free and sustains II=1.  The permutation is applied only
    when :func:`legal_permutation` proves every dependence survives it.
    """
    flags = band.parallel_flags
    if len(band.band) < 2 or flags[-1] or not any(flags):
        return False
    order = [i for i, flag in enumerate(flags) if not flag]
    order += [i for i, flag in enumerate(flags) if flag]
    if order == list(range(len(flags))):
        return False
    if not legal_permutation(band.band, order, band.nest_accesses):
        return False
    permute_band(band.band, order, check=False)
    band.nest_accesses = None  # walked before the permutation: stale
    band.permute_accesses(order)
    return True


def parallelize_band(
    band: BandInfo,
    connections: Sequence[Connection],
    parallel_factor: int,
    finished_factors: Dict[int, List[int]],
    options: ParallelizationOptions,
    result: ParallelizationResult,
) -> List[int]:
    """Algorithm 4 applied to one band; returns the chosen unroll factors.

    ``finished_factors`` holds each parallelized band's unroll factors in
    its current loop order, the order its connections' links follow.
    """
    # Gather constraints from already-parallelized connected bands.
    constraints_list: List[List[Optional[int]]] = []
    if options.connection_aware:
        for connection in connections:
            if connection.source is band and id(connection.target) in finished_factors:
                other = finished_factors[id(connection.target)]
                constraints_list.append(connection.constraints_for(band, other))
            elif connection.target is band and id(connection.source) in finished_factors:
                other = finished_factors[id(connection.source)]
                constraints_list.append(connection.constraints_for(band, other))

    tail_of = _tail_ranker(band, constraints_list)
    best, evaluated, violations = search_unroll_factors(
        band.trip_counts, band.parallel_flags, band.muls_per_iteration,
        parallel_factor, constraints_list, tail_of,
    )
    result.proposals_evaluated += evaluated
    result.constraint_violations += violations
    band.apply_unroll_factors(best)
    _order_reductions_outward(band)
    if band.band:
        innermost = band.band[-1]
        # Pipeline the innermost loop of the (possibly deeper) nest.
        current = innermost
        while True:
            inner = [
                op for op in current.body.operations if isinstance(op, AffineForOp)
            ]
            if not inner:
                break
            current = inner[0]
        # Clamp the directive to the recurrence bound so the pass never
        # claims an II its own carried dependences make unachievable.
        accesses = band.nest_accesses or NestAccesses(current)
        min_ii = legal_pipeline_ii(current, options.target_ii, accesses).min_ii
        pipeline_loop(current, target_ii=max(options.target_ii, min_ii))
    band.nest_accesses = None
    return best


def parallelize_schedule(
    schedule: ScheduleOp,
    options: Optional[ParallelizationOptions] = None,
) -> ParallelizationResult:
    """Run the full IA+CA parallelization on one schedule.

    Applies unroll factors and pipelining to every band, then derives array
    partitions for all buffers and counts the misalignments left, both from
    the bands' access records.
    """
    bands = collect_band_infos(schedule)
    connections = collect_connections(schedule, bands)
    ordered = sort_bands(bands, connections)
    result = _parallelize_bands(schedule, bands, ordered, connections, options)
    result.misalignments = _misalignments(connections)
    return result


def parallelize_function_bands(
    func,
    options: Optional[ParallelizationOptions] = None,
) -> ParallelizationResult:
    """Parallelize the loop bands of a function that has no dataflow schedule.

    Single-band kernels expose no inter-task optimization opportunity; HIDA
    (like ScaleHLS) still applies the intra-band loop optimizations — unroll
    factor selection under the parallel-factor budget, loop pipelining and
    array partitioning — which is why the two frameworks perform on par on
    the paper's single-loop kernels.
    """
    bands = [band_info_of(func, band) for band in loop_bands_of(func)]
    return _parallelize_bands(func, bands, bands, [], options)


def _parallelize_bands(
    top: Operation, bands: List[BandInfo], ordered: List[BandInfo],
    connections: Sequence[Connection], options: Optional[ParallelizationOptions],
) -> ParallelizationResult:
    """Steps (3) and (4) over ``ordered``, then the partitions under ``top``."""
    options = options or ParallelizationOptions()
    result = ParallelizationResult()
    if not bands:
        return result
    parallel_factors = generate_parallel_factors(bands, options)
    finished: Dict[int, List[int]] = {}
    for index, band in enumerate(ordered):
        label = f"{band.label}#{index}"
        result.unroll_factors[label] = parallelize_band(
            band, connections, parallel_factors[id(band)], finished, options, result
        )
        finished[id(band)] = band.unroll_factors()
        result.parallel_factors[label] = parallel_factors[id(band)]
        result.intensities[label] = band.intensity
    _partition_from_records(top, bands)
    return result


def _partition_from_records(top: Operation, bands: Sequence[BandInfo]) -> None:
    """``partition_buffers_in(top)`` from the bands' records: only the ops
    outside band roots are walked, in program order, for other accesses."""
    records = {id(band.band[0]): band.accesses for band in bands}
    decoded: List[Tuple[Value, list]] = []
    pending: List[Operation] = [top]
    while pending:
        op = pending.pop()
        if id(op) in records:
            decoded += [(access.resolved, access.drivers) for access in records[id(op)]]
        elif isinstance(op, (AffineLoadOp, AffineStoreOp)):
            decoded.append((_resolve_through_nodes(op.memref), op.driving_loops()))
        else:
            for region in reversed(op.regions):
                for block in reversed(region.blocks):
                    pending += reversed(block.operations)
    partition_decoded_accesses(decoded)


def count_misalignments(schedule: ScheduleOp) -> int:
    """Count loop pairs whose final unroll factors violate alignment.

    A connected loop pair is misaligned when the two chosen unroll factors
    (after stride scaling) are mutually indivisible.  Misalignment forces the
    compiler to generate fine-grained access control logic, which is what
    degrades the connection-unaware modes at large parallel factors in the
    Figure 11 ablation.  An independent recount of what
    :func:`parallelize_schedule` reports: accesses are walked afresh.
    """
    return _misalignments(collect_connections(schedule, collect_access_infos(schedule)))


def _misalignments(connections: Sequence[Connection]) -> int:
    violations = 0
    for connection in connections:
        source_factors = connection.source.unroll_factors()
        target_factors = connection.target.unroll_factors()
        constraints = connection.constraints_for(connection.target, source_factors)
        violations += sum(map(_misaligned, constraints, target_factors))
    return violations
