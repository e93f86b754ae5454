"""Tests of the search strategies (:mod:`repro.dse.search`).

The load-bearing properties: a search evaluates exactly its budget, in
generation order (``exhaustive``) or in the order ``random.Random(seed)``
shuffles the space to (``random``); fixed-seed searches are byte-identical
across worker counts; warm-cache re-runs do zero compiles; and a quarter
of the space, drawn at random, recovers (nearly) the exhaustive frontier's
hypervolume.
"""

import json
import random

import pytest

from repro.dse import (
    STRATEGIES,
    DesignPoint,
    build_space,
    explore,
    hypervolume,
    hypervolume_reference,
    polybench_suite,
    search_points,
)


def medium_space(kernels=2):
    return build_space("medium", suite=polybench_suite()[:kernels])


def record_keys(result):
    return [record["point_key"] for record in result.records]


def qor_only(summary):
    return {k: v for k, v in summary.items() if k != "compile_seconds"}


# ---------------------------------------------------------------- registry
def test_strategy_registry():
    # A fixed table: the two orders a budgeted run evaluates a space in.
    assert list(STRATEGIES) == ["exhaustive", "random"]
    points = medium_space().points
    message = "unknown search strategy 'grid'; options: exhaustive, random"
    with pytest.raises(ValueError, match=message):
        search_points(points, "grid")
    with pytest.raises(ValueError, match="budget must be positive"):
        explore(points, use_cache=False, strategy="random", budget=0)


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
    # The draw is the space's random.Random(seed) shuffle, truncated.
    order = space.points
    random.Random(4).shuffle(order)
    assert record_keys(first) == [point.key() for point in order[:6]]


def test_explore_rejects_search_args_with_strategy_instance():
    # explore() takes a strategy by name only: anything else, with or
    # without search arguments, is an unknown strategy, refused before any
    # point is evaluated.
    points = medium_space(kernels=1).points
    for settings in ({}, {"budget": 8}, {"objectives": ("throughput", "dsp")}):
        with pytest.raises(ValueError, match="unknown search strategy"):
            explore(points, use_cache=False, strategy=object(), **settings)
    with pytest.raises(ValueError, match="unknown search strategy 'nope'"):
        explore(points, use_cache=False, strategy="nope")
    result = explore(points, use_cache=False, strategy="random", budget=4, seed=9)
    assert result.num_points == 4
    assert result.config.strategy == "random"


def test_a_search_of_a_fully_rejected_space_is_an_empty_result():
    # Regression: a search whose whole space the prefilter rejected raised
    # "search needs a non-empty design space"; it returns what the full
    # sweep returns.
    points = [
        DesignPoint(
            workload_kind="kernel",
            workload="atax",
            pipeline_spec=f"construct-dataflow,lower-structural,parallelize{{factor={factor}}}",
        )
        for factor in (8, 32)
    ]
    sweep = explore(points, use_cache=False, prefilter=True)
    assert [r["reason"] for r in sweep.rejected] == ["no-estimate", "no-estimate"]
    for strategy in STRATEGIES:
        search = explore(points, use_cache=False, prefilter=True, strategy=strategy)
        assert search.records == search.frontier == []
        assert search.rejected == sweep.rejected
        assert (search.strategy, search.budget) == (strategy, 0)


def test_random_budgets_nest_and_recover_more_hypervolume(tmp_path):
    # A smaller random budget evaluates a prefix of a larger one (same
    # seed), so against one shared reference the recovered hypervolume
    # never falls as the budget grows, and the whole space recovers all.
    space = medium_space(kernels=1)
    full = explore(space, cache_dir=str(tmp_path))
    scored = [r for r in full.records if "error" not in r]
    reference = hypervolume_reference(scored, full.objectives)
    previous, values = [], []
    for budget in (3, 6, 12, len(space)):
        result = explore(
            space, cache_dir=str(tmp_path), strategy="random", budget=budget, seed=0
        )
        keys = record_keys(result)
        assert keys[: len(previous)] == previous
        previous = keys
        assert result.num_designs == budget
        values.append(hypervolume(result.frontier, result.objectives, reference))
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(
        hypervolume(full.frontier, full.objectives, reference)
    )


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


# ------------------------------------------------------------- determinism
def test_search_deterministic_across_worker_counts(tmp_path):
    space = medium_space(kernels=2)
    results = []
    for index, workers in enumerate((1, 2, 4)):
        results.append(
            explore(
                space,
                workers=workers,
                cache_dir=str(tmp_path / f"cache{index}"),
                strategy="random",
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


def test_search_warm_rerun_does_zero_compiles(tmp_path):
    space = medium_space(kernels=1)
    cold = explore(space, cache_dir=str(tmp_path), strategy="random", budget=8, seed=2)
    warm = explore(space, cache_dir=str(tmp_path), strategy="random", budget=8, seed=2)
    assert cold.num_points == warm.num_points == 8
    assert record_keys(warm) == record_keys(cold)
    assert warm.frontier_keys() == cold.frontier_keys()
    assert warm.cache_hits == warm.num_points  # zero compiles on the rerun
    assert warm.cache_misses == 0


# -------------------------------------------------- frontier quality (HV)
def test_random_quarter_budget_recovers_exhaustive_hypervolume(tmp_path):
    # The acceptance bar: on a full-preset single-kernel space, a random
    # search with a 25% evaluation budget reaches >= 95% of the exhaustive
    # frontier's hypervolume (shared reference point) on each of 16 seeds.
    space = build_space("full", suite=polybench_suite()[:1])
    exhaustive = explore(space, cache_dir=str(tmp_path))
    scored = [r for r in exhaustive.records if "error" not in r]
    reference = hypervolume_reference(scored, exhaustive.objectives)
    full_hv = hypervolume(exhaustive.frontier, exhaustive.objectives, reference)
    assert full_hv > 0
    budget = len(space) // 4
    for seed in range(16):
        result = explore(
            space,
            cache_dir=str(tmp_path),
            strategy="random",
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
    from repro.dse import ExplorationResult

    result = explore(
        medium_space(kernels=1),
        cache_dir=str(tmp_path),
        strategy="random",
        budget=6,
        seed=1,
    )
    assert result.strategy == "random"
    assert result.budget == 6
    assert result.num_designs == result.num_points == 6
    restored = ExplorationResult.from_dict(json.loads(result.to_json()))
    assert restored.strategy == "random"
    assert restored.budget == 6
    assert restored.to_json() == result.to_json()


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
