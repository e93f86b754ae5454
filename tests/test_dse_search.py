"""Tests of the adaptive search-strategy subsystem (:mod:`repro.dse.search`).

The load-bearing properties: fixed-seed searches are byte-identical across
worker counts, the evaluation budget is respected exactly, warm-cache
re-runs do zero compiles, mutation/crossover offspring round-trip the
pipeline-spec parser/printer, and genetic search recovers (nearly) the
exhaustive frontier's hypervolume on a quarter of the evaluations.
"""

import json
import random

import pytest

from repro.dse import (
    DesignPoint,
    available_strategies,
    axis_domains,
    build_space,
    crossover_specs,
    explore,
    get_strategy,
    hypervolume,
    hypervolume_reference,
    make_strategy,
    mutate_spec,
    polybench_suite,
)


def medium_space(kernels=2):
    return build_space("medium", suite=polybench_suite()[:kernels])


def record_keys(result):
    return [record["point_key"] for record in result.records]


def qor_only(summary):
    return {k: v for k, v in summary.items() if k != "compile_seconds"}


# ---------------------------------------------------------------- registry
def test_strategy_registry():
    assert available_strategies() == ["anneal", "exhaustive", "genetic", "random"]
    with pytest.raises(ValueError, match="unknown search strategy"):
        get_strategy("grid")
    with pytest.raises(ValueError, match="no option"):
        make_strategy(
            "genetic", medium_space().points, options={"no_such_knob": 1}
        )
    with pytest.raises(ValueError, match="budget must be positive"):
        make_strategy("random", medium_space().points, budget=0)


def test_axis_domains_reflect_the_space():
    space = medium_space(kernels=1)
    domains = space.axis_domains()
    assert domains["max_parallel_factor"] == (8, 32, 128)
    assert domains["tile_size"] == (0, 8, 32)
    assert domains["top_k_fusion"] == (0, 2)
    assert domains["target_ii"] == (1,)
    # Spec-driven points are excluded from domain metadata.
    spec = "construct-dataflow,lower-structural,parallelize{factor=8},estimate"
    spec_only = [
        DesignPoint(workload_kind="kernel", workload="atax", pipeline_spec=spec)
    ]
    assert axis_domains(spec_only) == {}


# ----------------------------------------------------- spec-level operators
def test_mutate_spec_round_trips_through_the_parser():
    from repro.compiler import parse_pipeline

    rng = random.Random(11)
    spec = "construct-dataflow,lower-structural,parallelize{factor=8},estimate"
    produced = set()
    for _ in range(32):
        mutated = mutate_spec(spec, rng)
        if mutated is None:
            continue
        # Canonical form: printing the parsed offspring reproduces it.
        assert parse_pipeline(mutated).print() == mutated
        assert "estimate" in mutated and mutated.startswith("construct-dataflow")
        produced.add(mutated)
    # The move set actually moves: several distinct offspring appear.
    assert len(produced) >= 5


def test_crossover_specs_merges_parents_canonically():
    from repro.compiler import parse_pipeline

    rng = random.Random(3)
    a = "construct-dataflow,lower-structural,parallelize{factor=8},estimate"
    b = (
        "construct-dataflow,fuse-tasks,lower-linalg,lower-structural,"
        "tile{size=8},parallelize{factor=64,target-ii=2},estimate"
    )
    for _ in range(16):
        child = crossover_specs(a, b, rng)
        assert child is not None
        assert parse_pipeline(child).print() == child
        names = [stage.name for stage in parse_pipeline(child).stages]
        # Required stages always survive crossover.
        for required in ("construct-dataflow", "lower-structural", "parallelize", "estimate"):
            assert required in names


def test_spec_offspring_never_duplicate_a_parent_design():
    # Regression: a parent spelled non-canonically (option order differs
    # from the printer's) used to evade the parent-collapse check, so a
    # same-design child was proposed as "novel" and burned budget.
    space = [
        DesignPoint(
            workload_kind="kernel",
            workload="atax",
            pipeline_spec=(
                "construct-dataflow,lower-structural,"
                "parallelize{target-ii=2,factor=8},estimate"
            ),
        )
    ]
    strategy = make_strategy("genetic", space, budget=8, seed=0)
    parent_key = space[0].key()
    record = {
        "point_key": parent_key,
        "workload": "atax",
        "point": space[0].to_dict(),
        "summary": {"latency_cycles": 1.0, "dsp": 1.0, "bram": 1.0},
    }
    from repro.compiler import Compiler

    canonical = Compiler.from_spec(space[0].pipeline_spec).spec_text()
    for _ in range(64):
        child = strategy._offspring(record, record)
        if child is None:
            continue
        child_canonical = Compiler.from_spec(child.pipeline_spec).spec_text()
        assert child_canonical != canonical


def test_genetic_rejects_degenerate_options():
    points = medium_space(kernels=1).points
    with pytest.raises(ValueError, match="population"):
        make_strategy("genetic", points, options={"population": 0})
    with pytest.raises(ValueError, match="mutation_rate"):
        make_strategy("genetic", points, options={"mutation_rate": 1.5})


def test_bad_spec_mutation_inputs_return_none():
    rng = random.Random(0)
    assert mutate_spec("{{{", rng) is None
    assert crossover_specs("{{{", "estimate", rng) is None


# ------------------------------------------------------------ budget rules
def test_exhaustive_strategy_budget_truncates_exactly():
    space = medium_space(kernels=1)
    result = explore(space, use_cache=False, strategy="exhaustive", budget=5)
    assert result.strategy == "exhaustive"
    assert result.budget == 5
    assert result.num_points == 5
    assert record_keys(result) == [p.key() for p in space.points[:5]]
    # Without a budget the strategy sweeps the whole space.
    full = explore(space, use_cache=False, strategy="exhaustive")
    assert full.num_points == len(space)


def test_random_strategy_is_a_seeded_shuffle():
    space = medium_space(kernels=1)
    first = explore(space, use_cache=False, strategy="random", budget=6, seed=4)
    again = explore(space, use_cache=False, strategy="random", budget=6, seed=4)
    other = explore(space, use_cache=False, strategy="random", budget=6, seed=5)
    assert record_keys(first) == record_keys(again)
    assert record_keys(first) != record_keys(other)
    assert first.num_points == 6


def test_generations_cap_stops_the_search_early():
    space = medium_space(kernels=1)
    result = explore(
        space,
        use_cache=False,
        strategy="genetic",
        budget=12,
        seed=0,
        strategy_options={"population": 4, "generations": 1},
    )
    assert len(result.generations) == 1
    assert result.num_points == 4  # one generation of `population` points


def test_explore_rejects_search_args_with_strategy_instance():
    # explore() takes a strategy by registered name only: an instance, with
    # or without search arguments, is an unknown strategy, refused before
    # any point is evaluated.
    points = medium_space(kernels=1).points
    instance = make_strategy("random", points, budget=4, seed=9)
    for settings in ({}, {"budget": 8}, {"objectives": ("throughput", "dsp")}):
        with pytest.raises(ValueError, match="unknown search strategy"):
            explore(points, use_cache=False, strategy=instance, **settings)
    with pytest.raises(ValueError, match="unknown search strategy 'nope'"):
        explore(points, use_cache=False, strategy="nope")
    # The name with the instance's arguments is the one spelling.
    result = explore(points, use_cache=False, strategy="random", budget=4, seed=9)
    assert result.num_points == 4
    assert result.config.strategy == "random"


def test_hypervolume_reference_epsilon_scales_with_magnitude():
    # Degenerate axis at large magnitude: the reference must still strictly
    # dominate the records, or hypervolume would report 0.0.
    records = [
        {"point_key": "a", "summary": {"latency_cycles": 1e9, "dsp": 2.0}},
        {"point_key": "b", "summary": {"latency_cycles": 1e9, "dsp": 4.0}},
    ]
    objectives = ("latency_cycles", "dsp")
    reference = hypervolume_reference(records, objectives)
    assert reference[0] > 1e9
    assert hypervolume(records, objectives, reference) > 0.0


def test_generation_hypervolume_is_a_monotone_trajectory(tmp_path):
    result = explore(
        medium_space(kernels=1),
        cache_dir=str(tmp_path),
        strategy="genetic",
        budget=12,
        seed=0,
        strategy_options={"population": 4},
    )
    values = [g["hypervolume"] for g in result.generations]
    assert len(values) >= 2
    # Fixed final references: accumulating records can only grow the
    # dominated volume.
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] > 0


# ------------------------------------------------------------- determinism
@pytest.mark.parametrize("strategy", ["genetic", "anneal"])
def test_search_deterministic_across_worker_counts(tmp_path, strategy):
    space = medium_space(kernels=2)
    results = []
    for index, workers in enumerate((1, 2, 4)):
        results.append(
            explore(
                space,
                workers=workers,
                cache_dir=str(tmp_path / f"cache{index}"),
                strategy=strategy,
                budget=10,
                seed=7,
            )
        )
    baseline = results[0]
    assert baseline.num_points == 10  # budget respected exactly
    for other in results[1:]:
        assert record_keys(other) == record_keys(baseline)
        assert other.frontier_keys() == baseline.frontier_keys()
        for left, right in zip(baseline.records, other.records):
            assert qor_only(left.get("summary", {})) == qor_only(
                right.get("summary", {})
            )
        # Per-generation trajectories match too (hypervolume and sizes are
        # pure functions of the evaluated records).
        assert other.generations == baseline.generations


@pytest.mark.parametrize("strategy", ["genetic", "anneal"])
def test_search_warm_rerun_does_zero_compiles(tmp_path, strategy):
    space = medium_space(kernels=1)
    cold = explore(
        space, cache_dir=str(tmp_path), strategy=strategy, budget=8, seed=2
    )
    warm = explore(
        space, cache_dir=str(tmp_path), strategy=strategy, budget=8, seed=2
    )
    assert cold.num_points == warm.num_points == 8
    assert record_keys(warm) == record_keys(cold)
    assert warm.frontier_keys() == cold.frontier_keys()
    assert warm.num_cached == warm.num_points  # zero compiles on the rerun
    assert warm.cache_misses == 0


# ------------------------------------------------ searching pipeline specs
def test_genetic_search_discovers_novel_pipeline_specs(tmp_path):
    from repro.compiler import parse_pipeline

    spec_a = "construct-dataflow,lower-structural,parallelize{factor=8},estimate"
    spec_b = (
        "construct-dataflow,fuse-tasks,lower-linalg,lower-structural,"
        "tile{size=8},parallelize{factor=32,target-ii=2},estimate"
    )
    space = build_space(
        "small",
        suite=polybench_suite()[:1],
        pipeline_specs=(None, spec_a, spec_b),
    )
    initial_keys = {point.key() for point in space}
    result = explore(
        space, cache_dir=str(tmp_path), strategy="genetic", budget=10, seed=5
    )
    assert result.num_points == 10
    assert not result.errors
    novel = [r for r in result.records if r["point_key"] not in initial_keys]
    # Offspring left the enumerated space: pipeline composition is being
    # searched, not just resampled.
    assert novel
    for record in novel:
        spec = record["point"].get("pipeline_spec")
        if spec is not None:
            # Every offspring spec is canonical (round-trips the printer).
            assert parse_pipeline(spec).print() == spec


# -------------------------------------------------- frontier quality (HV)
def test_genetic_quarter_budget_recovers_exhaustive_hypervolume(tmp_path):
    # The acceptance bar: on a full-preset single-kernel space, genetic
    # search with a 25% evaluation budget reaches >= 95% of the exhaustive
    # frontier's hypervolume (shared reference point).
    space = build_space("full", suite=polybench_suite()[:1])
    exhaustive = explore(space, cache_dir=str(tmp_path))
    scored = [r for r in exhaustive.records if "error" not in r]
    reference = hypervolume_reference(scored, exhaustive.objectives)
    full_hv = hypervolume(exhaustive.frontier, exhaustive.objectives, reference)
    assert full_hv > 0
    budget = len(space) // 4
    for seed in (0, 1):
        result = explore(
            space,
            cache_dir=str(tmp_path),
            strategy="genetic",
            budget=budget,
            seed=seed,
        )
        assert result.num_points == budget
        ratio = (
            hypervolume(result.frontier, result.objectives, reference) / full_hv
        )
        assert ratio >= 0.95, f"seed {seed}: only {ratio:.3f} of exhaustive HV"


# ------------------------------------------------------------ result model
def test_search_metadata_serializes(tmp_path):
    from repro.evaluation import ExplorationResult

    result = explore(
        medium_space(kernels=1),
        cache_dir=str(tmp_path),
        strategy="genetic",
        budget=6,
        seed=1,
    )
    assert result.strategy == "genetic"
    assert result.budget == 6
    assert result.generations
    generation = result.generations[-1]
    assert generation["total_evaluations"] == result.num_points
    assert generation["frontier_size"] == len(result.frontier)
    restored = ExplorationResult.from_dict(json.loads(result.to_json()))
    assert restored.strategy == "genetic"
    assert restored.budget == 6
    assert restored.generations == result.generations
    table = result.search_table()
    assert "genetic" in table and "total/budget" in table


def test_hypervolume_helpers():
    records = [
        {"point_key": "a", "summary": {"latency_cycles": 1.0, "dsp": 3.0}},
        {"point_key": "b", "summary": {"latency_cycles": 3.0, "dsp": 1.0}},
        {"point_key": "c", "summary": {"latency_cycles": 4.0, "dsp": 4.0}},
    ]
    objectives = ("latency_cycles", "dsp")
    # Against an explicit reference the union-of-boxes volume is exact:
    # [1,3]x[3,5] + [3,5]x[1,5] minus overlap -> 4 + 8 - 2*... compute:
    # box a: (5-1)*(5-3)=8; box b: (5-3)*(5-1)=8; intersection: (5-3)*(5-3)=4
    # c contributes nothing extra (dominated region inside a U b): (5-4)*(5-4)=1
    # subset of both? inside b's box. Union = 8+8-4 = 12.
    assert hypervolume(records, objectives, reference=(5.0, 5.0)) == pytest.approx(12.0)
    # Records outside the reference contribute nothing.
    assert hypervolume(records, objectives, reference=(1.0, 1.0)) == 0.0
    # The derived reference dominates every record.
    reference = hypervolume_reference(records, objectives)
    assert reference is not None
    assert all(r > 4.0 for r in reference)
    assert hypervolume_reference([], objectives) is None
