"""Tests for intensity/connection analysis and IA+CA parallelization —
reproducing Tables 4, 5 and 6 of the paper on the Listing-1 example.

``tests/data/parallelize_golden.json`` pins what the stage decides (factors,
counters, misalignments, every buffer's partition, printed IR and emitted
C++) over the zoo and a DSE sample; it was recorded before the unroll search
and the partitioner shared the band records, and is regenerated only on
purpose, with ``PYTHONPATH=src python tests/test_parallelization.py --regen``.
"""

import collections
import cProfile
import functools
import hashlib
import itertools
import json
import math
import pathlib
import pstats
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import emit_hls_cpp
from repro.analysis import NestAccesses
from repro.dialects.affine import AffineStoreOp, enclosing_loops
from repro.dialects.affine_map import AffineMap
from repro.dialects.dataflow import BufferOp
from repro.dialects.hls import ArrayPartition
from repro.dialects.memref import AllocOp
from repro.dse.space import build_space
from repro.frontend.cpp import KernelBuilder, build_listing1
from repro.compiler import DEFAULT_PIPELINE, Compiler, PipelineObserver, default_stages
from repro.hida import (
    ParallelizationOptions,
    collect_band_infos,
    collect_connections,
    connection_table,
    count_misalignments,
    generate_parallel_factors,
    node_intensity,
    parallelize_schedule,
    sort_bands,
)
from repro.baselines import ABLATION_MODES, ablation_pipeline_spec, scalehls_pipeline_spec
from repro.hida import parallelize
from repro.hida.analysis import BandAccess, BandInfo
from repro.hida.parallelize import (
    parallelize_function_bands,
    proposal_cost,
    search_unroll_factors,
)
from repro.ir import Builder, ConstantOp, MemRefType, f32, print_op, verify
from repro.transforms import partition_buffers_in
from repro.transforms.loop_transforms import loop_bands_of
from repro.workloads import list_workloads

GOLDEN = pathlib.Path(__file__).parent / "data" / "parallelize_golden.json"


def lower_listing1_to_schedule(fuse=False):
    module = build_listing1()
    from repro.hida import construct_functional_dataflow, lower_to_structural_dataflow

    construct_functional_dataflow(module)
    schedules = lower_to_structural_dataflow(module)
    return module, schedules[0]


def compile_listing1(**parallelize):
    stages = default_stages(drop=["fuse-tasks", "tile"], parallelize=parallelize)
    return Compiler(stages, platform="zu3eg").run(build_listing1())


@pytest.fixture(scope="module")
def listing1_analysis():
    _, schedule = lower_listing1_to_schedule()
    bands = collect_band_infos(schedule)
    connections = collect_connections(schedule, bands)
    return schedule, bands, connections


class TestIntensityAnalysis:
    def test_band_intensities_match_table5(self, listing1_analysis):
        _, bands, _ = listing1_analysis
        intensities = sorted(band.intensity for band in bands)
        assert intensities == [256, 512, 4096]

    def test_node_intensity_counts_compute_over_stores(self, listing1_analysis):
        schedule, bands, _ = listing1_analysis
        compute_band = max(bands, key=lambda b: b.intensity)
        assert compute_band.muls_per_iteration == 1
        assert node_intensity(compute_band.node) == 4096

    def test_parallel_loop_detection(self, listing1_analysis):
        _, bands, _ = listing1_analysis
        compute_band = max(bands, key=lambda b: b.intensity)
        # i and j are parallel (they index the output), k is a reduction.
        assert compute_band.parallel_flags == [True, True, False]
        load_band = min(bands, key=lambda b: b.intensity)
        assert all(load_band.parallel_flags)


class TestConnectionAnalysis:
    def test_two_connections_found(self, listing1_analysis):
        _, _, connections = listing1_analysis
        assert len(connections) == 2
        buffers = {c.buffer.name_hint for c in connections}
        assert buffers == {"A", "B"}

    def test_table4_permutation_maps_for_a(self, listing1_analysis):
        _, _, connections = listing1_analysis
        conn_a = [c for c in connections if c.buffer.name_hint == "A"][0]
        assert conn_a.source_to_target_permutation() == [0, None, 1]
        assert conn_a.target_to_source_permutation() == [0, 2]

    def test_table4_scaling_maps_for_a(self, listing1_analysis):
        _, _, connections = listing1_analysis
        conn_a = [c for c in connections if c.buffer.name_hint == "A"][0]
        assert [float(x) for x in conn_a.source_to_target_scaling()] == [0.5, 1.0]
        t_to_s = conn_a.target_to_source_scaling()
        assert [None if x is None else float(x) for x in t_to_s] == [2.0, None, 1.0]

    def test_table4_maps_for_b(self, listing1_analysis):
        _, _, connections = listing1_analysis
        conn_b = [c for c in connections if c.buffer.name_hint == "B"][0]
        assert conn_b.source_to_target_permutation() == [None, 1, 0]
        assert conn_b.target_to_source_permutation() == [2, 1]
        assert [float(x) for x in conn_b.source_to_target_scaling()] == [1.0, 1.0]

    def test_connection_table_rows(self, listing1_analysis):
        _, _, connections = listing1_analysis
        rows = connection_table(connections)
        assert len(rows) == 2
        assert {"source", "target", "buffer", "s_to_t_permutation"} <= set(rows[0])

    def test_constraints_projection(self, listing1_analysis):
        _, bands, connections = listing1_analysis
        conn_a = [c for c in connections if c.buffer.name_hint == "A"][0]
        # With Node2 (target) unrolled [4, 8, 1], the constraint on Node0 is
        # [8, 1] (stride-2 read doubles the demand on dim 0).
        constraints = conn_a.constraints_for(conn_a.source, [4, 8, 1])
        assert constraints == [8, 1]


class TestParallelFactorGeneration:
    def test_intensity_aware_factors_match_table5(self, listing1_analysis):
        _, bands, _ = listing1_analysis
        options = ParallelizationOptions(max_parallel_factor=32)
        factors = generate_parallel_factors(bands, options)
        by_intensity = {band.intensity: factors[id(band)] for band in bands}
        assert by_intensity[4096] == 32
        assert by_intensity[512] == 4
        assert by_intensity[256] == 2

    def test_naive_factors_all_equal_max(self, listing1_analysis):
        _, bands, _ = listing1_analysis
        options = ParallelizationOptions(32, intensity_aware=False, connection_aware=False)
        factors = generate_parallel_factors(bands, options)
        assert all(f == 32 for f in factors.values())

    def test_factor_capped_by_iteration_space(self):
        _, schedule = lower_listing1_to_schedule()
        bands = collect_band_infos(schedule)
        options = ParallelizationOptions(max_parallel_factor=100000)
        factors = generate_parallel_factors(bands, options)
        for band in bands:
            space = 1
            for trip in band.trip_counts:
                space *= trip
            assert factors[id(band)] <= space

    def test_sort_order_connections_then_intensity(self, listing1_analysis):
        _, bands, connections = listing1_analysis
        ordered = sort_bands(bands, connections)
        assert ordered[0].intensity == 4096  # two connections
        assert ordered[1].intensity == 512  # one connection, higher intensity
        assert ordered[2].intensity == 256


def _reference_candidate_unroll_factors(band, parallel_factor):
    """The proposal enumerator the one-pass search replaced, verbatim but
    for the module prefix (so a patched ``_MAX_PROPOSALS`` applies)."""
    per_loop = [
        parallelize._factor_candidates_for_loop(trip, flag, parallel_factor)
        for trip, flag in zip(band.trip_counts, band.parallel_flags)
    ]
    proposals = []

    def recurse(index, current, product):
        if len(proposals) >= parallelize._MAX_PROPOSALS:
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


def _reference_violates_constraints(factors, constraints_list):
    """Algorithm 4 lines 13-16 as the replaced per-proposal check, verbatim."""
    for constraints in constraints_list:
        for constraint, factor in zip(constraints, factors):
            if constraint is None:
                continue
            if constraint % factor != 0 and factor % constraint != 0:
                return True
    return False


def _reference_search(band, parallel_factor, constraints_list):
    """Every proposal listed, checked, and ranked by the whole public cost."""
    best, best_cost, evaluated, violations = None, None, 0, 0
    for factors in _reference_candidate_unroll_factors(band, parallel_factor):
        evaluated += 1
        if _reference_violates_constraints(factors, constraints_list):
            violations += 1
            continue
        cost = proposal_cost(band, factors, constraints_list)
        if best is None or cost < best_cost:
            best, best_cost = factors, cost
    return (best or [1] * band.num_loops), evaluated, violations


@st.composite
def _search_inputs(draw):
    """A band without IR (trip counts, flags, MACs, accesses), a parallel
    factor and alignment constraints that may leave any level free."""
    levels = draw(st.integers(0, 4))
    # Small trips have non-power-of-two divisors, hence misalignments and
    # ties of the whole cost; large ones exercise the power-of-two ladder.
    trip = st.integers(1, 24) | st.integers(1, 300)
    trips = draw(st.lists(trip, min_size=levels, max_size=levels))
    flags = draw(st.lists(st.booleans(), min_size=levels, max_size=levels))
    position = st.none() | st.integers(0, levels - 1) if levels else st.none()
    accesses = []
    for positions in draw(st.lists(st.lists(position, max_size=3), max_size=3)):
        rank = len(positions)
        strides = draw(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank))
        accesses.append(BandAccess(None, False, positions, strides, [None] * rank))
    band = BandInfo(
        node=None,
        band=[None] * levels,
        trip_counts=trips,
        parallel_flags=flags,
        accesses=accesses,
        muls_per_iteration=draw(st.integers(0, 4)),
    )
    constraint = st.none() | st.integers(1, 64)
    constraints_list = draw(
        st.lists(st.lists(constraint, min_size=levels, max_size=levels), max_size=3)
    )
    return band, draw(st.integers(1, 512)), constraints_list


class TestCandidateGeneration:
    def test_candidates_respect_budget_and_parallel_flags(self, listing1_analysis):
        _, bands, _ = listing1_analysis
        compute_band = max(bands, key=lambda b: b.intensity)
        trips, flags = compute_band.trip_counts, compute_band.parallel_flags
        for budget in (1, 2, 8, 32, 64):
            factors, evaluated, violations = search_unroll_factors(
                trips, flags, compute_band.muls_per_iteration, budget, [], lambda f: ()
            )
            assert math.prod(factors) <= budget
            assert factors[2] == 1  # reduction loop never unrolled
            per_loop = [
                parallelize._factor_candidates_for_loop(trip, flag, budget)
                for trip, flag in zip(trips, flags)
            ]
            within = [v for v in itertools.product(*per_loop) if math.prod(v) <= budget]
            assert (evaluated, violations) == (len(within), 0)

    def test_proposal_cost_prefers_full_parallelism(self, listing1_analysis):
        _, bands, _ = listing1_analysis
        compute_band = max(bands, key=lambda b: b.intensity)
        low = proposal_cost(compute_band, [1, 1, 1], [])
        high = proposal_cost(compute_band, [4, 8, 1], [])
        assert high < low  # fewer iterations sorts first

    @given(_search_inputs())
    @example((BandInfo(None, [None] * 3, [12, 9, 12], [True] * 3), 6, []))
    @settings(max_examples=150, deadline=None)
    def test_search_chooses_what_the_full_cost_chooses(self, inputs):
        """The one-pass search, which ranks by running products and asks the
        tail only on a tie, against listing every proposal and ranking it by
        :func:`proposal_cost`: same factors and counters, also when the
        proposal cap truncates the enumeration.  In the explicit example
        ``[1, 3, 2]`` and ``[2, 1, 3]`` tie on the whole cost: the first
        proposal stays."""
        band, parallel_factor, constraints_list = inputs
        for cap in (1, 3, 64, parallelize._MAX_PROPOSALS):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(parallelize, "_MAX_PROPOSALS", cap)
                searched = search_unroll_factors(
                    band.trip_counts,
                    band.parallel_flags,
                    band.muls_per_iteration,
                    parallel_factor,
                    constraints_list,
                    parallelize._tail_ranker(band, constraints_list),
                )
                assert searched == _reference_search(band, parallel_factor, constraints_list)


class TestTable5And6:
    def test_iaca_unroll_factors(self):
        result = compile_listing1()
        factors = {
            result.parallelization.intensities[k]: v
            for k, v in result.parallelization.unroll_factors.items()
        }
        assert factors[4096] == [4, 8, 1]
        assert factors[512] == [4, 1]
        assert factors[256] == [1, 2]
        assert result.misalignments == 0

    def test_ia_only_unroll_factors(self):
        result = compile_listing1(ca=False)
        factors = {
            result.parallelization.intensities[k]: v
            for k, v in result.parallelization.unroll_factors.items()
        }
        assert factors[4096] == [4, 8, 1]
        assert factors[512] == [2, 2]
        assert factors[256] == [1, 2]

    def test_ca_only_unroll_factors(self):
        result = compile_listing1(ia=False)
        factors = {
            result.parallelization.intensities[k]: v
            for k, v in result.parallelization.unroll_factors.items()
        }
        assert factors[4096] == [4, 8, 1]
        assert factors[512] == [8, 4]
        assert factors[256] == [4, 8]

    def test_naive_unroll_factors(self):
        result = compile_listing1(ia=False, ca=False)
        factors = {
            result.parallelization.intensities[k]: v
            for k, v in result.parallelization.unroll_factors.items()
        }
        assert factors[4096] == [4, 8, 1]
        assert factors[512] == [4, 8]
        assert factors[256] == [4, 8]

    def test_table6_bank_counts_iaca(self):
        result = compile_listing1()
        banks = {
            b.result().name_hint: b.partition.banks
            for s in result.schedules
            for b in s.buffers
        }
        assert banks["A"] == 8
        assert banks["B"] == 8

    def test_table6_bank_counts_increase_without_awareness(self):
        banks_by_mode = {}
        for mode, overrides in {
            "ia+ca": {},
            "ia": {"ca": False},
            "ca": {"ia": False},
            "naive": {"ia": False, "ca": False},
        }.items():
            result = compile_listing1(**overrides)
            banks_by_mode[mode] = sum(
                b.partition.banks for s in result.schedules for b in s.buffers
            )
        assert banks_by_mode["ia+ca"] <= banks_by_mode["ia"]
        assert banks_by_mode["ia"] <= banks_by_mode["ca"]
        assert banks_by_mode["ca"] <= banks_by_mode["naive"]
        # The paper reports an 8x margin on arrays A and B for this example.
        assert banks_by_mode["naive"] >= 4 * banks_by_mode["ia+ca"]

    def test_misalignment_counter(self):
        result = compile_listing1(ca=False)
        # IA-only factors happen to stay aligned on this small example or not;
        # the counter must simply be consistent and non-negative.
        assert result.misalignments >= 0
        schedule = result.schedules[0]
        assert count_misalignments(schedule) == result.misalignments

    def test_pipelining_applied_to_innermost_loops(self):
        result = compile_listing1()
        for schedule in result.schedules:
            bands = collect_band_infos(schedule)
            for band in bands:
                innermost = band.band[-1]
                assert any(
                    loop.is_pipelined
                    for loop in innermost.walk()
                    if loop.name == "affine.for"
                )

    def test_reduction_loops_ordered_outward_before_pipelining(self):
        # ScaleHLS-style loop-order optimization: whenever a band has a
        # parallel level, the (pipelined) innermost level ends up
        # dependence-free so the pipeline sustains II=1 instead of being
        # recurrence-bound.  The interchange only happens when the
        # dependence engine proves it legal.
        from repro.hida.analysis import is_parallel_loop

        result = compile_listing1()
        checked = 0
        for schedule in result.schedules:
            for band in collect_band_infos(schedule):
                flags = [is_parallel_loop(loop) for loop in band.band]
                if any(flags):
                    assert flags[-1]
                    checked += 1
        assert checked > 0

    def test_parallelization_result_is_reproducible(self):
        first = compile_listing1()
        second = compile_listing1()
        assert first.parallelization.unroll_factors == second.parallelization.unroll_factors

    def test_ir_remains_valid_after_parallelization(self):
        result = compile_listing1()
        assert verify(result.module) == []


class _ParallelizeWindow(PipelineObserver):
    """Slices a shared event list to what the ``parallelize`` stage appended."""

    def __init__(self, events):
        self.events, self.begin, self.end = events, 0, 0

    def on_stage_start(self, stage, state):
        if stage.name == "parallelize":
            self.begin = len(self.events)

    def on_stage_end(self, stage, state, seconds):
        if stage.name == "parallelize":
            self.end = len(self.events)


class TestDependenceWork:
    """Pins the work, not the clock: how often the dependence engine walks a
    nest (``NestAccesses`` is the only collector) while parallelizing."""

    @pytest.fixture
    def walked(self, monkeypatch):
        roots = []
        collect = NestAccesses.__init__

        def counting(self, root):
            roots.append(root)
            collect(self, root)

        monkeypatch.setattr(NestAccesses, "__init__", counting)
        return roots

    def test_at_most_two_walks_per_band_and_none_for_misalignment(self, walked):
        window = _ParallelizeWindow(walked)
        result = Compiler.from_spec(
            DEFAULT_PIPELINE, platform="vu9p-slr", observers=[window]
        ).run(workload="resnet18")
        bands = [
            band
            for schedule in result.schedules
            for node in schedule.nodes
            for band in loop_bands_of(node)
        ]
        # One walk when the band is analyzed, plus one of the pipelined loop
        # when an applied permutation made the first stale.
        per_band = collections.Counter(
            id((enclosing_loops(root) or [root])[0])
            for root in walked[window.begin : window.end]
        )
        assert set(per_band) == {id(band[0]) for band in bands}
        assert max(per_band.values()) <= 2
        assert 2 in per_band.values()  # resnet18 does reorder reductions

        del walked[:]
        assert sum(map(count_misalignments, result.schedules)) == result.misalignments
        assert walked == []

    @pytest.mark.parametrize(
        "spec, workload",
        [pytest.param(DEFAULT_PIPELINE, name, id=name) for name in list_workloads()]
        + [
            pytest.param(ablation_pipeline_spec(mode, 256), name, id=f"{mode}-{name}")
            for mode in ("ia", "naive")
            for name in list_workloads()
        ],
    )
    def test_misalignment_recount_matches_the_stage(self, spec, workload):
        """The stage's count equals an independent re-walk of the final IR,
        including the connection-unaware ablations (non-zero on ``ia-2mm``)."""
        result = Compiler.from_spec(spec, platform="vu9p-slr").run(workload=workload)
        assert sum(map(count_misalignments, result.schedules)) == result.misalignments


class TestParallelizeWork:
    """Pins the work, not the clock, of one zoo compile set (models at
    factor 64 on ``vu9p-slr``, kernels at the default on ``zu3eg``)."""

    @pytest.fixture(scope="class")
    def profiled(self):
        profiler = cProfile.Profile()
        profiler.enable()
        results = [
            Compiler(default_stages(parallelize={"factor": 64}), platform="vu9p-slr").run(
                workload=name
            )
            for name in list_workloads(kind="model")
        ] + [
            Compiler(default_stages(), platform="zu3eg").run(workload=name)
            for name in list_workloads(kind="kernel")
        ]
        profiler.disable()
        calls = collections.defaultdict(lambda: (0, set()))
        for (path, _, function), stat in pstats.Stats(profiler).stats.items():
            key = ("/".join(pathlib.PurePath(path).parts[-2:]), function)
            count, callers = calls[key]
            calls[key] = (count + stat[1], callers | {caller[2] for caller in stat[4]})
        return results, calls

    def test_each_band_is_decoded_once(self, profiled):
        results, calls = profiled
        bands = sum(
            len(loop_bands_of(top))
            for result in results
            for top in (
                [node for schedule in result.schedules for node in schedule.nodes]
                or result.module.functions
            )
        )
        assert calls["hida/analysis.py", "_band_accesses"][0] == bands == 294

    def test_partitions_and_misalignments_decode_nothing(self, profiled):
        _, calls = profiled
        count, callers = calls["dialects/affine.py", "driving_loops"]
        assert callers <= {"_band_accesses", "_memory_port_ii"}
        assert count <= 1_700  # 3,558 when both re-decoded every access
        assert ("hida/analysis.py", "collect_access_infos") not in calls

    def test_the_unroll_search_is_one_bounded_pass(self, profiled):
        _, calls = profiled
        count, callers = calls["hida/parallelize.py", "descend"]
        assert callers == {"search_unroll_factors", "descend"}
        assert count <= 2_500  # 22,064 calls building proposal lists before


def _partitions(module):
    """Every buffer's partition, by walk position: each ``hida.buffer`` and
    each annotation table ``set_partition`` attached to another owner."""
    rows = []
    for index, op in enumerate(module.walk()):
        if isinstance(op, BufferOp):
            rows.append(f"{index} {op.name}: {op.partition}")
        table = op.get_attr("partitions", {})
        rows.extend(f"{index} {op.name}.{key}: {table[key]}" for key in sorted(table))
    return rows


def _repartitioned_from_scratch(module, tops):
    """Drop every partition under ``module``, re-derive them with the
    walking :func:`partition_buffers_in` on each of ``tops``, and return
    :func:`_partitions` of the result."""
    for op in module.walk():
        if isinstance(op, BufferOp):
            op.set_partition(ArrayPartition.none(op.partition.rank))
        op.attributes.pop("partitions", None)
    for top in tops:
        partition_buffers_in(top)
    return _partitions(module)


class TestRecordedPartitions:
    """Whatever the stage reads its accesses from, every partition equals
    what a fresh walk of the final IR derives."""

    @pytest.mark.parametrize(
        "spec",
        [DEFAULT_PIPELINE] + [ablation_pipeline_spec(mode, 64) for mode in ABLATION_MODES],
        ids=["default", *ABLATION_MODES],
    )
    def test_a_fresh_walk_changes_no_partition(self, spec):
        for workload in list_workloads():
            result = Compiler.from_spec(spec, platform="vu9p-slr").run(workload=workload)
            tops = result.schedules or result.module.functions
            before = _partitions(result.module)
            assert before, workload
            assert _repartitioned_from_scratch(result.module, tops) == before, workload

    def test_an_access_outside_the_band_of_a_node(self):
        """A node-local buffer stored to before the node's band, and read by
        nothing inside any band, still gets the walk's partition."""
        module, schedule = lower_listing1_to_schedule()
        node = max(collect_band_infos(schedule), key=lambda band: band.intensity).node
        builder = Builder.at_start(node.body)
        local = builder.insert(AllocOp.create(MemRefType((4, 4), f32), name_hint="T"))
        zero = builder.insert(ConstantOp.create(0.0, f32))
        builder.insert(
            AffineStoreOp.create(
                zero.result(), local.result(), [], AffineMap.constant_map([1, 2])
            )
        )
        assert verify(module) == []
        parallelize_schedule(schedule)
        after_stage = _partitions(module)
        assert any("memref.alloc.result0" in row for row in after_stage)
        assert _repartitioned_from_scratch(module, [schedule]) == after_stage

    def test_a_scalar_store_before_the_loop_of_a_kernel(self):
        kb = KernelBuilder("scalar_then_loop")
        kb.add_input("A", (16, 16))
        kb.add_output("B", (16, 16))
        kb.add_output("S", (1,))
        kb.store("S", [0], kb.constant(1.0))
        with kb.loop_nest(("i", "j"), (16, 16)) as (i, j):
            kb.store("B", [i, j], kb.load("A", [i, j]) * 2.0)
        module = kb.finish()
        func = module.functions[0]
        parallelize_function_bands(func, ParallelizationOptions(max_parallel_factor=8))
        after_stage = _partitions(module)
        assert any(".arg2:" in row for row in after_stage)
        assert any("cyclic" in row for row in after_stage)
        assert _repartitioned_from_scratch(module, [func]) == after_stage


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _golden_compiles():
    """(case name, zero-argument compile) of every configuration the golden
    file pins: the zoo under the default, the four ablation and the ScaleHLS
    specs on ``vu9p-slr``, then the 64-point ``kernel-dse`` sample.  The IA
    ablation at factor 256 is the zoo's one spec with a misalignment."""
    specs = {"default": DEFAULT_PIPELINE}
    specs.update((mode, ablation_pipeline_spec(mode, 64)) for mode in ABLATION_MODES)
    specs["scalehls"] = scalehls_pipeline_spec(64)
    specs["ia@256"] = ablation_pipeline_spec("ia", 256)
    for spec_name, spec in specs.items():
        for workload in list_workloads():
            compiler = Compiler.from_spec(spec, platform="vu9p-slr")
            yield f"{spec_name}/{workload}", functools.partial(compiler.run, workload=workload)
    for point in build_space("full").sample(64, 2024):
        yield f"dse/{point.label()}", functools.partial(
            point.compiler().run, workload=point.workload_spec()
        )


def _parallelize_record(result):
    """The counters as they are; the per-band and per-buffer values, the
    printed IR and the emitted C++ as sha256 prefixes (the file stays small)."""
    chosen = result.parallelization
    per_band = {
        "unroll_factors": chosen.unroll_factors,
        "parallel_factors": chosen.parallel_factors,
        "intensities": chosen.intensities,
        "partitions": _partitions(result.module),
    }
    record = {
        "proposals_evaluated": chosen.proposals_evaluated,
        "constraint_violations": chosen.constraint_violations,
        "misalignments": result.misalignments,
        "ir": _sha256(print_op(result.module)),
        "cpp": _sha256(emit_hls_cpp(result.module)),
    }
    record.update(
        (field, _sha256(json.dumps(value, sort_keys=True)))
        for field, value in per_band.items()
    )
    return record


def test_parallelize_golden():
    golden = json.loads(GOLDEN.read_text())
    actual = {name: _parallelize_record(run()) for name, run in _golden_compiles()}
    assert sorted(actual) == sorted(golden)
    assert any(record["misalignments"] for record in golden.values())
    differing = [
        f"{name}: {field}"
        for name, record in golden.items()
        for field, value in record.items()
        if actual[name][field] != value
    ]
    assert differing == []


def _regenerate_golden():
    records = {name: _parallelize_record(run()) for name, run in _golden_compiles()}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_parallelization.py --regen")
    _regenerate_golden()
