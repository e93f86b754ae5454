"""Tests of the design-space exploration subsystem.

Covers space generation, Pareto extraction, the content-hash QoR cache, and
— most importantly — determinism: the same space must yield byte-identical
frontiers for any worker count and on warm-cache replays.
"""

import json
import multiprocessing

import pytest

from repro.compiler import DEFAULT_PIPELINE, Compiler
from repro.dse import (
    DesignPoint,
    DesignSpace,
    QoRCache,
    build_space,
    dnn_suite,
    evaluate_point,
    explore,
    pareto_frontier,
    polybench_suite,
)
from repro.estimation import DesignEstimate
from repro.ir import fingerprint_op


def qor_only(summary):
    return {k: v for k, v in summary.items() if k != "compile_seconds"}


def tiny_space(kernels=("atax", "mvt"), factors=(8, 32), tiles=(0, 16)):
    space = DesignSpace()
    for kernel in kernels:
        for factor in factors:
            for tile in tiles:
                space.add(
                    DesignPoint(
                        workload_kind="kernel",
                        workload=kernel,
                        max_parallel_factor=factor,
                        tile_size=tile,
                    )
                )
    return space


# ---------------------------------------------------------------- the space
def test_build_space_presets_and_dedup():
    space = build_space("small", suite=polybench_suite()[:3])
    assert len(space) == 3 * 4  # 2 factors x 2 tiles per kernel
    # Adding an existing point is a no-op.
    before = len(space)
    space.add(space.points[0])
    assert len(space) == before
    with pytest.raises(ValueError):
        build_space("gigantic")


def test_space_sampling_is_seeded_and_deterministic():
    space = build_space("medium", suite=polybench_suite()[:4])
    a = space.sample(10, seed=3)
    b = space.sample(10, seed=3)
    c = space.sample(10, seed=4)
    assert [p.key() for p in a] == [p.key() for p in b]
    assert [p.key() for p in a] != [p.key() for p in c]
    assert len(a) == 10


def test_design_point_roundtrip_and_options():
    point = DesignPoint(
        workload_kind="kernel",
        workload="2mm",
        max_parallel_factor=64,
        tile_size=8,
        top_k_fusion=1,
        target_ii=2,
    )
    again = DesignPoint.from_dict(json.loads(json.dumps(point.to_dict())))
    assert again == point and again.key() == point.key()
    stages = {stage.name: stage for stage in point.compiler().stages}
    assert stages["parallelize"].factor == 64
    assert stages["parallelize"].target_ii == 2
    assert stages["fuse-tasks"].patterns == ["elementwise"]
    assert stages["tile"].size == 8
    no_fusion = DesignPoint(
        workload_kind="kernel", workload="2mm", top_k_fusion=0, tile_size=0
    )
    assert not {"fuse-tasks", "tile"} & {s.name for s in no_fusion.compiler().stages}


def test_full_space_keys_and_canonical_specs_are_pinned():
    """Point identity must not move: it keys QoR caches and golden records.

    The digest was computed at the commit before ``DesignPoint.compiler()``
    stopped going through the deleted option bag.
    """
    import hashlib

    digest = hashlib.sha256()
    space = build_space("full", polybench_suite() + dnn_suite())
    for point in space:
        digest.update(f"{point.key()}\t{point.canonical_spec()}\n".encode())
    assert len(space) == 1950
    assert digest.hexdigest() == (
        "e81a8b9178d0a789fec14789c759c212296cd8cc8b9cbfc3965c5cf47279a8b9"
    )


def test_workload_spec_builds_and_compiles():
    handle = DesignPoint("kernel", "atax").workload_spec()
    result = Compiler.from_spec(DEFAULT_PIPELINE, platform="zu3eg").run(workload=handle)
    assert result.throughput > 0
    with pytest.raises(ValueError):
        DesignPoint("netlist", "atax").workload_spec()


# ------------------------------------------------------------------- pareto
def test_pareto_missing_metric_scores_worst_not_zero():
    # Regression: a record whose summary lacks an objective used to default
    # to 0.0 and spuriously dominate the minimization frontier.
    from repro.dse import objective_vector

    incomplete = {"point_key": "x", "summary": {"latency_cycles": 1}}
    complete = {
        "point_key": "y",
        "summary": {"latency_cycles": 9, "dsp": 5, "bram": 1},
    }
    assert objective_vector(incomplete) == (1.0, float("inf"), float("inf"))
    frontier = pareto_frontier([incomplete, complete])
    keys = [r["point_key"] for r in frontier]
    # The incomplete record survives only on the axis it actually reports;
    # it must not evict the complete record from the frontier.
    assert "y" in keys


def test_pareto_missing_every_metric_is_dominated():
    empty = {"point_key": "x", "summary": {}}
    complete = {
        "point_key": "y",
        "summary": {"latency_cycles": 9, "dsp": 5, "bram": 1},
    }
    frontier = pareto_frontier([empty, complete])
    assert [r["point_key"] for r in frontier] == ["y"]


def test_pareto_objective_directions():
    # Regression: throughput used to be minimized like everything else.
    from repro.dse import OBJECTIVE_DIRECTIONS, objective_direction, objective_vector
    from repro.dse.pareto import SUMMARY_METRICS

    assert objective_direction("throughput") == "max"
    assert objective_direction("latency_cycles") == "min"
    assert set(OBJECTIVE_DIRECTIONS) == set(SUMMARY_METRICS)
    fast = {"point_key": "fast", "summary": {"throughput": 100.0, "dsp": 5}}
    slow = {"point_key": "slow", "summary": {"throughput": 10.0, "dsp": 5}}
    assert objective_vector(fast, ("throughput",)) == (-100.0,)
    maximized = pareto_frontier([fast, slow], objectives=("throughput", "dsp"))
    assert [r["point_key"] for r in maximized] == ["fast"]
    # Minimized metrics still minimize.
    low = {"point_key": "low", "summary": {"latency_cycles": 1.0, "dsp": 5}}
    high = {"point_key": "high", "summary": {"latency_cycles": 9.0, "dsp": 5}}
    minimized = pareto_frontier([low, high], objectives=("latency_cycles", "dsp"))
    assert [r["point_key"] for r in minimized] == ["low"]


def test_pareto_frontier_drops_dominated_points():
    records = [
        {"point_key": "a", "summary": {"latency_cycles": 10, "dsp": 5, "bram": 1}},
        {"point_key": "b", "summary": {"latency_cycles": 20, "dsp": 9, "bram": 2}},
        {"point_key": "c", "summary": {"latency_cycles": 5, "dsp": 9, "bram": 1}},
        {"point_key": "d", "summary": {"latency_cycles": 10, "dsp": 5, "bram": 1}},
    ]
    frontier = pareto_frontier(records)
    keys = [r["point_key"] for r in frontier]
    assert "b" not in keys  # dominated by a
    assert "c" in keys and "a" in keys
    assert keys.count("a") + keys.count("d") == 1  # duplicates collapse


# -------------------------------------------------------------------- cache
def test_qor_cache_roundtrip_and_clear(tmp_path):
    cache = QoRCache(tmp_path / "qor")
    assert cache.get("missing") is None
    cache.put("some|key", {"latency": 42.0})
    assert cache.get("some|key") == {"latency": 42.0}
    assert len(cache) == 1
    assert cache.clear() == 1
    assert cache.get("some|key") is None


def test_qor_cache_eviction(tmp_path):
    cache = QoRCache(tmp_path / "qor", max_entries=3)
    for i in range(6):
        cache.put(f"key{i}", {"i": i})
    assert len(cache) <= 3


def test_qor_cache_eviction_tiebreaks_equal_mtimes(tmp_path):
    # Regression: eviction sorted by mtime alone, so coarse filesystem
    # timestamps under parallel workers made the eviction order (and thus
    # the surviving entries) nondeterministic.  Equal mtimes must evict in
    # path order on every run.
    import os

    survivors = []
    for run in range(2):
        cache = QoRCache(tmp_path / f"qor{run}", max_entries=10)
        for i in range(6):
            cache.put(f"key{i}", {"i": i})
        stamp = 1_700_000_000
        before = sorted(p.name for p in cache._entries())
        for path in cache._entries():
            os.utime(path, (stamp, stamp))
        cache.max_entries = 2
        cache._evict_if_needed()
        remaining = sorted(p.name for p in cache._entries())
        # With all mtimes equal, exactly the lexicographically-largest
        # paths survive (path order is digest order: the bucket directory
        # is the digest's first two characters).
        assert remaining == before[-2:]
        survivors.append(remaining)
    assert survivors[0] == survivors[1]


def test_evaluate_point_uses_cache(tmp_path):
    point = tiny_space().points[0]
    cold = evaluate_point(point, str(tmp_path / "qor"))
    warm = evaluate_point(point, str(tmp_path / "qor"))
    assert cold["cached"] is False and warm["cached"] is True
    assert warm["summary"] == cold["summary"]
    assert warm["module_fingerprint"] == cold["module_fingerprint"]
    # The cached estimate deserializes back into a DesignEstimate.
    estimate = DesignEstimate.from_dict(warm["estimate"])
    assert estimate.latency == pytest.approx(cold["summary"]["latency_cycles"])


def test_evaluate_point_reports_errors_instead_of_raising(tmp_path):
    bad = DesignPoint(workload_kind="kernel", workload="no-such-kernel")
    record = evaluate_point(bad, str(tmp_path / "qor"))
    assert "error" in record and "no-such-kernel" in record["error"]


# ------------------------------------------------------------ determinism
def test_explore_deterministic_across_worker_counts(tmp_path):
    space = build_space("small", suite=polybench_suite()[:2]).sample(6, seed=11)
    serial = explore(space, workers=1, cache_dir=str(tmp_path / "a"))
    fanout = explore(space, workers=8, cache_dir=str(tmp_path / "b"))
    assert serial.frontier_keys() == fanout.frontier_keys()
    assert len(serial.frontier_keys()) > 0
    for left, right in zip(serial.frontier, fanout.frontier):
        assert qor_only(left["summary"]) == qor_only(right["summary"])
    # Same seed, same space, fresh sampling: still the same frontier.
    again = explore(
        build_space("small", suite=polybench_suite()[:2]).sample(6, seed=11),
        workers=1,
        cache_dir=str(tmp_path / "a"),
    )
    assert again.frontier_keys() == serial.frontier_keys()
    assert again.num_cached == again.num_points  # warm replay


def test_explore_dedupes_duplicate_points(tmp_path):
    # Regression: duplicate points collapsed into one slot of the
    # order-restoring sort, so cached and fresh duplicates interleaved
    # nondeterministically.  ``explore`` now dedupes by key up front.
    point_a, point_b = tiny_space(kernels=("atax",)).points[:2]
    duplicated = [point_a, point_b, point_a, point_a, point_b]
    result = explore(duplicated, workers=1, cache_dir=str(tmp_path / "qor"))
    assert result.num_points == 2
    assert [r["point_key"] for r in result.records] == [
        point_a.key(),
        point_b.key(),
    ]
    # Warm replay of the same duplicated list keeps the same order.
    warm = explore(duplicated, workers=1, cache_dir=str(tmp_path / "qor"))
    assert [r["point_key"] for r in warm.records] == [
        r["point_key"] for r in result.records
    ]
    assert warm.num_cached == 2


def test_explore_warm_cache_replay(tmp_path):
    space = tiny_space(kernels=("atax",))
    cold = explore(space, workers=1, cache_dir=str(tmp_path / "qor"))
    warm = explore(space, workers=1, cache_dir=str(tmp_path / "qor"))
    assert cold.num_cached == 0
    assert warm.num_cached == warm.num_points == len(space)
    assert warm.frontier_keys() == cold.frontier_keys()
    assert warm.summary()["errors"] == 0


def _count_frontend_traces(monkeypatch, tmp_path):
    """Count ``Workload.build_module`` calls; the process fingerprint memo is
    emptied so the first probe of each workload has to trace.

    Each trace appends its workload id to a file, so forked pool workers
    count too; the returned function reads the sorted ids and starts over.
    """
    from repro.dse import evaluate
    from repro.workloads.registry import Workload

    log = tmp_path / "traces.log"
    log.write_text("")
    build = Workload.build_module

    def counting(self, **extra):
        with open(log, "a") as handle:
            handle.write(self.workload_id + "\n")
        return build(self, **extra)

    def traces():
        ids = sorted(log.read_text().split())
        log.write_text("")
        return ids

    monkeypatch.setattr(Workload, "build_module", counting)
    monkeypatch.setattr(evaluate, "_WORKLOAD_FINGERPRINTS", {})
    return traces


def test_cold_default_explore_traces_each_point_once(tmp_path, monkeypatch):
    # Regression: the parent's probe traced each workload for its
    # fingerprint, dropped the module, and evaluate_point traced it again:
    # 10 traces for 8 points of 2 workloads on the default configuration
    # (QoR cache on, IR cache off).  Since a batch compiles each shared
    # prefix once, the frontend is traced once per workload: 2.
    traces = _count_frontend_traces(monkeypatch, tmp_path)
    space = tiny_space()
    cold = explore(space, workers=1, cache_dir=str(tmp_path / "qor"))
    assert cold.num_cached == 0 and not cold.errors
    assert len(space) == 8 and traces() == ["atax", "mvt"]
    # ... and handing the traced module on changes no answer.
    uncached = explore(space, workers=1, use_cache=False)
    assert traces() == ["atax", "mvt"]
    assert cold.frontier_keys() == uncached.frontier_keys()
    for left, right in zip(cold.frontier, uncached.frontier):
        assert qor_only(left["summary"]) == qor_only(right["summary"])


def test_ir_cache_and_pool_runs_trace_as_before(tmp_path, monkeypatch):
    # Prefix sharing is for in-process batches with the IR cache off.  A
    # cold IR-cache run traces each workload in the parent probe and once
    # more where the first compile of its prefix group has no module; a pool
    # run traces each point in its worker after the parent probe.
    traces = _count_frontend_traces(monkeypatch, tmp_path)
    space = tiny_space()
    cached = explore(
        space,
        workers=1,
        cache_dir=str(tmp_path / "qor"),
        ir_cache=True,
        ir_cache_dir=str(tmp_path / "ir"),
    )
    assert not cached.errors
    assert traces() == ["atax", "atax", "mvt", "mvt"]
    from repro.dse import evaluate

    monkeypatch.setattr(evaluate, "_WORKLOAD_FINGERPRINTS", {})
    pooled = explore(space, workers=2, cache_dir=str(tmp_path / "qor2"))
    assert not pooled.errors
    if multiprocessing.get_start_method() == "fork":  # workers count too
        assert traces() == ["atax"] * 5 + ["mvt"] * 5
    assert pooled.frontier_keys() == cached.frontier_keys()


def test_a_stage_raising_in_a_shared_prefix_fails_every_sharing_point(monkeypatch):
    # The two tiled points share every stage up to and including ``tile``,
    # and resume from the state all four hold after ``balance``.
    from repro.compiler.stages import TileStage

    space = tiny_space(kernels=("atax",))
    tiled = [point for point in space if point.tile_size > 0]

    def boom(self, state):
        raise RuntimeError("tile exploded")

    monkeypatch.setattr(TileStage, "run", boom)
    alone = explore(tiled[:1], workers=1, use_cache=False)
    shared = explore(space, workers=1, use_cache=False)
    expected = alone.errors[0]["error"].splitlines()[-1]
    assert expected == "RuntimeError: tile exploded"
    assert [r["point_key"] for r in shared.errors] == [p.key() for p in tiled]
    for record in shared.errors:
        assert record["error"].splitlines()[-1] == expected
    assert len(shared.records) == len(space) == 4


def test_no_held_state_outlives_its_last_point(monkeypatch):
    import gc
    import weakref

    from repro.dse.sharing import SharedPrefixes

    held, plans = [], []
    store, done, plan = SharedPrefixes.store, SharedPrefixes.done, SharedPrefixes.plan.__func__

    def tracking_store(self, workload_key, platform, prefix_hash, state):
        stored = store(self, workload_key, platform, prefix_hash, state)
        if stored:
            key = (workload_key, platform, prefix_hash)
            held.append(weakref.ref(self._held[key][0]))
        return stored

    def checking_done(self, point):
        done(self, point)
        # A state stays held only while a pending point can still use it.
        assert all(self._pending[key] > 0 for key in self._held)

    def tracking_plan(cls, points):
        shared = plan(cls, points)
        plans.append(shared)
        return shared

    monkeypatch.setattr(SharedPrefixes, "store", tracking_store)
    monkeypatch.setattr(SharedPrefixes, "done", checking_done)
    monkeypatch.setattr(SharedPrefixes, "plan", classmethod(tracking_plan))
    result = explore(tiny_space(), workers=1, use_cache=False)
    assert not result.errors and held
    (shared,) = plans
    assert not shared._held and not shared._pending
    del result, shared, plans
    gc.collect()
    assert all(ref() is None for ref in held)


def test_a_promotion_pass_shares_prefixes_beside_points_with_base_inputs(tmp_path):
    # Regression: half the points replay their estimate record from the QoR
    # cache, so the promotion pass compiles those again and applies the
    # other half's base inputs.  The plan holds only the compiled half, and
    # ordering the batch by it raised KeyError on the others.
    space = tiny_space()
    qor = str(tmp_path / "qor")
    explore(list(space)[::2], workers=1, cache_dir=qor)
    mixed = explore(space, workers=1, cache_dir=qor, fidelity="simulate", promote_top=1.0)
    fresh = explore(space, workers=1, use_cache=False, fidelity="simulate", promote_top=1.0)
    assert not mixed.errors and mixed.num_cached == 4
    assert mixed.frontier_keys() == fresh.frontier_keys()
    for left, right in zip(mixed.frontier, fresh.frontier):
        assert qor_only(left["summary"]) == qor_only(right["summary"])


def test_parent_probe_failure_still_evaluates_and_reports(tmp_path, monkeypatch):
    traces = _count_frontend_traces(monkeypatch, tmp_path)
    bad = [
        DesignPoint(workload_kind="kernel", workload="no-such-kernel"),
        DesignPoint(workload_kind="kernel", workload="atax", pipeline_spec="no-such-stage"),
    ]
    good = tiny_space(kernels=("atax",), factors=(8,), tiles=(0,)).points
    result = explore(bad + good, workers=1, cache_dir=str(tmp_path / "qor"))
    assert [("error" in r, r["cached"]) for r in result.records] == [
        (True, False),
        (True, False),
        (False, False),
    ]
    assert "no-such-kernel" in result.records[0]["error"]
    assert "no-such-stage" in result.records[1]["error"]
    assert all("eval_seconds" in r for r in result.records)
    assert traces() == ["atax"]


def test_best_by_ignores_records_missing_the_metric():
    from repro.evaluation import ExplorationResult

    result = ExplorationResult(
        records=[
            {"point_key": "err", "error": "boom"},
            {"point_key": "ok", "summary": {"latency_cycles": 5.0}},
        ]
    )
    # An errored record (no summary) must not win with a default 0.0.
    assert result.best_by("latency_cycles")["point_key"] == "ok"
    assert result.best_by("throughput", minimize=False) is None


def test_exploration_result_serialization(tmp_path):
    from repro.evaluation import ExplorationResult

    result = explore(tiny_space(kernels=("mvt",)), workers=1, use_cache=False)
    restored = ExplorationResult.from_dict(json.loads(result.to_json()))
    assert restored.frontier_keys() == result.frontier_keys()
    assert restored.num_points == result.num_points
    table = result.frontier_table()
    assert "Pareto frontier" in table and "mvt" in table


# ------------------------------------------- pipeline specs as a design axis
def test_design_point_pipeline_spec_axis(tmp_path):
    flag_point = DesignPoint(workload_kind="kernel", workload="atax", tile_size=0)
    spec_point = DesignPoint(
        workload_kind="kernel",
        workload="atax",
        pipeline_spec=flag_point.canonical_spec(),
    )
    # Distinct points (the spec is part of the identity)...
    assert spec_point.key() != flag_point.key()
    assert spec_point.label().startswith("atax/zu3eg/spec-")
    # ...but the same canonical spec, so they share one QoR cache entry.
    cold = evaluate_point(flag_point, str(tmp_path / "qor"))
    warm = evaluate_point(spec_point, str(tmp_path / "qor"))
    assert cold["cached"] is False and warm["cached"] is True
    assert warm["summary"] == cold["summary"]
    assert warm["pipeline_spec"] == cold["pipeline_spec"] == flag_point.canonical_spec()


def test_design_point_spec_roundtrips_through_json():
    point = DesignPoint(
        workload_kind="kernel",
        workload="mvt",
        pipeline_spec="construct-dataflow,lower-structural,parallelize{factor=8},estimate",
    )
    again = DesignPoint.from_dict(json.loads(json.dumps(point.to_dict())))
    assert again == point and again.key() == point.key()
    # Flag-driven points keep pipeline_spec out of their serialized identity.
    flag_point = DesignPoint(workload_kind="kernel", workload="mvt")
    assert "pipeline_spec" not in flag_point.to_dict()


def test_build_space_with_pipeline_spec_axis():
    suite = polybench_suite()[:2]
    baseline = build_space("small", suite=suite)
    spec = "construct-dataflow,lower-structural,parallelize{factor=8},estimate"
    augmented = build_space("small", suite=suite, pipeline_specs=(None, spec))
    assert len(augmented) == len(baseline) + len(suite)
    spec_points = [p for p in augmented if p.pipeline_spec is not None]
    assert {p.pipeline_spec for p in spec_points} == {spec}


def test_bad_pipeline_spec_surfaces_as_record_error(tmp_path):
    point = DesignPoint(
        workload_kind="kernel", workload="atax", pipeline_spec="no-such-stage"
    )
    record = evaluate_point(point, str(tmp_path / "qor"))
    assert "error" in record and "no-such-stage" in record["error"]


# ----------------------------------------------------------------- resume
def test_explore_resume_streams_cache_without_recompute(tmp_path):
    space = tiny_space(kernels=("atax", "mvt"))
    subset = space.points[:3]
    explore(subset, workers=1, cache_dir=str(tmp_path / "qor"))

    resumed = explore(space, workers=1, cache_dir=str(tmp_path / "qor"), resume=True)
    assert resumed.num_points == 3
    assert resumed.skipped == len(space) - 3
    assert resumed.num_cached == 3
    blob = json.loads(resumed.to_json())
    assert blob["skipped"] == resumed.skipped
    from repro.evaluation import ExplorationResult

    assert ExplorationResult.from_dict(blob).skipped == resumed.skipped
    # A later full run picks the skipped points up and the frontier converges.
    full = explore(space, workers=1, cache_dir=str(tmp_path / "qor"))
    assert full.skipped == 0
    resumed_again = explore(space, workers=1, cache_dir=str(tmp_path / "qor"), resume=True)
    assert resumed_again.num_points == len(space)
    assert resumed_again.frontier_keys() == full.frontier_keys()


def test_dse_cli_resume_and_pipeline_spec(tmp_path, capsys):
    from repro.dse.__main__ import main

    cache = str(tmp_path / "qor")
    spec = "construct-dataflow,lower-structural,parallelize{factor=8},estimate"
    code = main(
        [
            "--space", "small", "--sample", "3",
            "--cache-dir", cache,
            "--pipeline-spec", spec,
        ]
    )
    assert code == 0
    out_path = tmp_path / "partial.json"
    code = main(
        [
            "--space", "small",
            "--cache-dir", cache,
            "--resume",
            "--pipeline-spec", spec,
            "--json", str(out_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "(--resume)" in out
    blob = json.loads(out_path.read_text())
    assert blob["records"] and all(r["cached"] for r in blob["records"])


def test_module_fingerprint_stability():
    from repro.workloads import as_module

    first = fingerprint_op(as_module("2mm"))
    second = fingerprint_op(as_module("2mm"))
    other = fingerprint_op(as_module("3mm"))
    assert first == second
    assert first != other


def test_explore_validate_frontier(tmp_path):
    space = tiny_space(kernels=("atax",), factors=(8, 32), tiles=(0,))
    result = explore(
        space,
        workers=1,
        cache_dir=str(tmp_path / "qor"),
        validate_frontier=True,
    )
    assert result.validation_failures == []
    assert result.summary()["validation_failures"] == 0.0
    frontier_validations = [
        record["validation"] for record in result.frontier if "validation" in record
    ]
    assert frontier_validations  # promoted points actually ran
    for validation in frontier_validations:
        assert validation["ok"] is True
        assert validation["outcomes"].get("baseline") == 1
    clone = type(result).from_dict(result.to_dict())
    assert clone.validation_failures == result.validation_failures


def test_explore_without_validation_keeps_records_clean(tmp_path):
    space = tiny_space(kernels=("atax",), factors=(8,), tiles=(0,))
    result = explore(space, workers=1, cache_dir=str(tmp_path / "qor"))
    assert result.validation_failures == []
    assert all("validation" not in record for record in result.records)


def test_dse_cli_validate_frontier(tmp_path, capsys):
    from repro.dse.__main__ import main

    code = main(
        [
            "--space", "small", "--sample", "2", "--seed", "1",
            "--cache-dir", str(tmp_path / "qor"),
            "--validate-frontier",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "frontier validated: 0 failure(s)" in out
