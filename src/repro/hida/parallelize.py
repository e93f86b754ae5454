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

A band's legality checks (``legal_permutation``, ``legal_pipeline_ii``) ask
the dependence engine through the access collection its :class:`BandInfo`
was analyzed with, so the band is walked and numbered once and a question
the engine has answered for the same canonical problem — an earlier loop,
an identical layer, the previous design point — is a table lookup.  The
collection describes the band as it was walked: an applied permutation
makes it a different problem, so the collection is dropped and the
pipelined loop walked afresh (the table itself needs no invalidation).
:func:`count_misalignments` runs no dependence analysis.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.dependence import NestAccesses
from ..analysis.legality import legal_permutation, legal_pipeline_ii
from ..dialects.affine import AffineForOp
from ..dialects.dataflow import ScheduleOp
from ..transforms.array_partition import partition_buffers_in
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
    "candidate_unroll_factors",
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


def candidate_unroll_factors(band: BandInfo, parallel_factor: int) -> List[List[int]]:
    """Enumerate unroll-factor vectors whose product does not exceed the budget."""
    per_loop = [
        _factor_candidates_for_loop(trip, flag, parallel_factor)
        for trip, flag in zip(band.trip_counts, band.parallel_flags)
    ]
    proposals: List[List[int]] = []

    def recurse(index: int, current: List[int], product: int) -> None:
        if len(proposals) >= _MAX_PROPOSALS:
            return
        if index == len(per_loop):
            proposals.append(list(current))
            return
        for factor in per_loop[index]:
            new_product = product * factor
            if new_product > parallel_factor:
                break
            current.append(factor)
            recurse(index + 1, current, new_product)
            current.pop()

    recurse(0, [], 1)
    return proposals


def _violates_constraints(
    factors: Sequence[int], constraints_list: Sequence[Sequence[Optional[int]]]
) -> bool:
    """Algorithm 4 lines 13-16: mutual-divisibility check."""
    for constraints in constraints_list:
        for constraint, factor in zip(constraints, factors):
            if constraint is None:
                continue
            if constraint % factor != 0 and factor % constraint != 0:
                return True
    return False


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
    head, tail = _proposal_ranker(band, constraints_list)
    return head(factors) + tail(factors)


_Ranker = Callable[[Sequence[int]], Tuple[float, ...]]


def _proposal_ranker(
    band: BandInfo, constraints_list: Sequence[Sequence[Optional[int]]]
) -> Tuple[_Ranker, _Ranker]:
    """:func:`proposal_cost` of one band in two parts, ``(iterations, DSPs)``
    and ``(banks, max factor, -inner preference)``: the order is
    lexicographic, so the second part — which walks every access — is only
    ever needed to break a tie on the first.  What no proposal changes (the
    combined constraint, each access's stride weights) is computed once."""
    # Combined constraint demand per loop position (from connected bands).
    combined_constraint: List[int] = [1] * band.num_loops
    for constraints in constraints_list:
        for position, constraint in enumerate(constraints):
            if constraint is not None:
                combined_constraint[position] = max(
                    combined_constraint[position], constraint
                )
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

    def head(factors: Sequence[int]) -> Tuple[float, float]:
        iterations = 1.0
        for trip, factor in zip(band.trip_counts, factors):
            iterations *= math.ceil(trip / max(factor, 1))
        product = 1
        for factor in factors:
            product *= factor
        return (iterations, band.muls_per_iteration * product)

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

    return head, tail


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
    return True


def parallelize_band(
    band: BandInfo,
    connections: Sequence[Connection],
    parallel_factor: int,
    finished_factors: Dict[int, List[int]],
    options: ParallelizationOptions,
    result: ParallelizationResult,
) -> List[int]:
    """Algorithm 4 applied to one band; returns the chosen unroll factors."""
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

    proposals = candidate_unroll_factors(band, parallel_factor)
    head_of, tail_of = _proposal_ranker(band, constraints_list)
    best: Optional[List[int]] = None
    best_head: Tuple[float, ...] = ()
    best_tail: Optional[Tuple[float, ...]] = None  # computed on the first tie
    for factors in proposals:
        result.proposals_evaluated += 1
        if options.connection_aware and _violates_constraints(factors, constraints_list):
            result.constraint_violations += 1
            continue
        head = head_of(factors)
        if best is None or head < best_head:
            best, best_head, best_tail = factors, head, None
        elif head == best_head:
            if best_tail is None:
                best_tail = tail_of(best)
            tail = tail_of(factors)
            if tail < best_tail:
                best, best_tail = factors, tail
    if best is None:
        best = [1] * band.num_loops
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
    return list(best)


def parallelize_schedule(
    schedule: ScheduleOp,
    options: Optional[ParallelizationOptions] = None,
) -> ParallelizationResult:
    """Run the full IA+CA parallelization on one schedule.

    Applies unroll factors and pipelining to every band, then derives array
    partitions for all buffers from the final factors.
    """
    options = options or ParallelizationOptions()
    result = ParallelizationResult()
    bands = collect_band_infos(schedule)
    if not bands:
        return result
    connections = collect_connections(schedule, bands)
    parallel_factors = generate_parallel_factors(bands, options)
    ordered = sort_bands(bands, connections)

    finished: Dict[int, List[int]] = {}
    for index, band in enumerate(ordered):
        label = f"{band.label}#{index}"
        factors = parallelize_band(
            band,
            connections,
            parallel_factors[id(band)],
            finished,
            options,
            result,
        )
        finished[id(band)] = factors
        result.unroll_factors[label] = factors
        result.parallel_factors[label] = parallel_factors[id(band)]
        result.intensities[label] = band.intensity

    partition_buffers_in(schedule)
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
    options = options or ParallelizationOptions()
    result = ParallelizationResult()
    bands = [band_info_of(func, band) for band in loop_bands_of(func)]
    if not bands:
        return result
    parallel_factors = generate_parallel_factors(bands, options)
    for index, band in enumerate(bands):
        factors = parallelize_band(
            band, [], parallel_factors[id(band)], {}, options, result
        )
        label = f"{band.label}#{index}"
        result.unroll_factors[label] = factors
        result.parallel_factors[label] = parallel_factors[id(band)]
        result.intensities[label] = band.intensity
    partition_buffers_in(func)
    return result


def count_misalignments(schedule: ScheduleOp) -> int:
    """Count loop pairs whose final unroll factors violate alignment.

    A connected loop pair is misaligned when the two chosen unroll factors
    (after stride scaling) are mutually indivisible.  Misalignment forces the
    compiler to generate fine-grained access control logic, which is what
    degrades the connection-unaware modes at large parallel factors in the
    Figure 11 ablation.
    """
    # Accesses are re-collected, not reused from the parallelizer: a permuted
    # band's ``dim_loop_positions`` are stale.  Nothing else is analyzed.
    violations = 0
    for connection in collect_connections(schedule, collect_access_infos(schedule)):
        source_factors = connection.source.unroll_factors()
        target_factors = connection.target.unroll_factors()
        constraints = connection.constraints_for(connection.target, source_factors)
        for constraint, factor in zip(constraints, target_factors):
            if constraint is None:
                continue
            if constraint % factor != 0 and factor % constraint != 0:
                violations += 1
    return violations
