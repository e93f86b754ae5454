"""``ExploreConfig``: the one place explore()'s settings and their
cross-field rules live, and the one batch every run evaluates."""

import dataclasses
import json

import pytest

from repro.dse import (
    DesignPoint,
    DesignSpace,
    ExploreConfig,
    QoRCache,
    explore,
)
from repro.dse.__main__ import main
from repro.evaluation import ExplorationResult
from repro.ir import fingerprint_op
from repro.workloads import get_workload, register_workload
from repro.workloads.registry import _unregister


def two_kernel_space():
    space = DesignSpace()
    for kernel in ("atax", "mvt"):
        for factor in (8, 32):
            for tile in (0, 16):
                space.add(
                    DesignPoint(
                        workload_kind="kernel",
                        workload=kernel,
                        max_parallel_factor=factor,
                        tile_size=tile,
                    )
                )
    return space


#: id -> (settings, message the ValueError must match): one row per rule,
#: including the inputs the per-module ``pytest.raises`` tests used to feed.
INVALID = {
    "unknown-objective": (dict(objectives=("latency",)), "unknown objective"),
    "no-objective": (dict(objectives=()), "unknown objective"),
    "resume-without-cache": (dict(resume=True, use_cache=False), "resume"),
    "resume-with-strategy": (dict(resume=True, strategy="random"), "resume"),
    "resume-with-fidelity": (dict(resume=True, fidelity="simulate"), "resume"),
    "budget-without-strategy": (dict(budget=5), "without strategy"),
    "seed-without-strategy": (dict(seed=3), "without strategy"),
    "budget-not-positive": (
        dict(strategy="random", budget=0),
        "budget must be positive",
    ),
    "budget-not-whole": (
        dict(strategy="random", budget=2.5),
        "budget must be positive and whole",
    ),
    "budget-bool": (dict(strategy="random", budget=True), "budget must be positive"),
    "unknown-fidelity": (dict(fidelity="rtl"), "unknown fidelity"),
    "promote-top-at-base": (dict(promote_top=0.5), "promote_top"),
    "promote-top-range": (dict(fidelity="simulate", promote_top=2.0), "promote_top"),
    "ir-dir-without-ir-cache": (dict(ir_cache_dir="/tmp/nope"), "ir_cache_dir"),
    # A strategy goes by name only: anything else is refused as an unknown
    # strategy, whatever accompanies it.
    "instance-with-budget": (
        dict(strategy=object(), budget=8),
        "unknown search strategy",
    ),
    "instance-with-seed": (
        dict(strategy=object(), seed=1),
        "unknown search strategy",
    ),
    "instance-other-objectives": (
        dict(strategy=object(), objectives=("throughput", "dsp")),
        "unknown search strategy",
    ),
}


@pytest.mark.parametrize("settings,message", INVALID.values(), ids=INVALID.keys())
def test_invalid_settings_raise_from_the_config_and_through_explore(
    settings, message
):
    with pytest.raises(ValueError, match=message):
        ExploreConfig(**settings)
    # The keyword spelling and replace() on a valid config hit the same rule
    # before any point is evaluated.
    with pytest.raises(ValueError, match=message):
        explore(two_kernel_space(), **settings)
    with pytest.raises(ValueError, match=message):
        explore(two_kernel_space(), ExploreConfig(use_cache=False), **settings)


def test_config_is_frozen_normalized_and_has_exactly_explores_settings(tmp_path):
    config = ExploreConfig(objectives=["dsp", "bram"], cache_dir=tmp_path)
    assert config.objectives == ("dsp", "bram")
    assert config.cache_dir == str(tmp_path) == config.qor_cache_root()
    assert config.ir_cache_root() is None
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.workers = 2
    assert [f.name for f in dataclasses.fields(ExploreConfig)] == [
        "workers", "cache_dir", "use_cache", "objectives", "chunksize",
        "resume", "strategy", "budget", "seed", "fidelity", "promote_top",
        "ir_cache", "ir_cache_dir", "prefilter", "validate_frontier",
    ]
    with pytest.raises(TypeError):
        explore(two_kernel_space(), no_such_setting=1)


CLI_INVALID = [
    (["--objectives", "latency"], "unknown objective"),
    (["--resume", "--no-cache"], "resume"),
    (["--resume", "--strategy", "random"], "resume"),
    (["--resume", "--fidelity", "simulate"], "resume"),
    (["--budget", "5"], "without strategy"),
    (["--promote-top", "0.5"], "promote_top"),
    (["--fidelity", "simulate", "--promote-top", "2.0"], "promote_top"),
    (["--ir-cache-dir", "/tmp/nope"], "--ir-cache-dir requires --ir-cache"),
]


@pytest.mark.parametrize(
    "argv,message", CLI_INVALID, ids=["".join(argv) for argv, _ in CLI_INVALID]
)
def test_cli_reports_config_errors_through_parser_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


# ------------------------------------------------------------ one batch
def _stable(records):
    return [
        {
            **{k: v for k, v in record.items() if k != "eval_seconds"},
            "summary": {
                k: v
                for k, v in record.get("summary", {}).items()
                if k != "compile_seconds"
            },
        }
        for record in records
    ]


@pytest.mark.parametrize("fidelity", ["estimate", "simulate"])
def test_full_sweep_is_one_exhaustive_generation(fidelity):
    space = two_kernel_space()
    sweep = explore(space, use_cache=False, fidelity=fidelity)
    search = explore(space, use_cache=False, fidelity=fidelity, strategy="exhaustive")
    assert _stable(sweep.records) == _stable(search.records)
    assert _stable(sweep.frontier) == _stable(search.frontier)
    assert {r["workload"] for r in sweep.frontier} == {"atax", "mvt"}
    assert sweep.num_promoted == search.num_promoted == (fidelity == "simulate") * 2
    # Only the search reports a strategy and a budget.
    assert (sweep.strategy, sweep.budget) == (None, None)
    assert (search.strategy, search.budget) == ("exhaustive", len(space))


def test_explore_of_nothing_is_an_empty_result():
    result = explore([], use_cache=False)
    assert result.records == result.frontier == []
    assert result.strategy is None and result.skipped == 0


# ------------------------------------------------------------ round trip
def test_result_roundtrips_with_its_config(tmp_path):
    space = two_kernel_space()
    result = explore(space, cache_dir=tmp_path, strategy="random", budget=4, seed=9)
    blob = json.loads(result.to_json())
    assert blob["config"]["strategy"] == "random"
    assert blob["config"]["cache_dir"] == str(tmp_path)
    clone = ExplorationResult.from_dict(blob)
    assert json.loads(clone.to_json()) == blob
    assert clone.config == result.config
    assert clone.objectives == ("latency_cycles", "dsp", "bram")
    # Apart from the embedded config the serialized keys are the pre-config set.
    assert sorted(set(blob) - {"config"}) == sorted(
        [
            "records", "frontier", "objectives", "workers", "elapsed_seconds",
            "cache_hits", "cache_misses", "errors", "skipped", "strategy",
            "budget", "fidelity", "promote_top",
            "prefix_hits", "stages_skipped", "rejected", "validation_failures",
        ]
    )
    assert "config" not in ExplorationResult().to_dict()


def test_a_result_file_with_retired_fields_still_loads(tmp_path):
    result = explore(two_kernel_space(), cache_dir=tmp_path, strategy="random", budget=4, seed=9)
    blob = json.loads(result.to_json())
    # Keys older result files carry: per-generation rows and a setting that
    # no longer exists.  Loading drops them.
    archived = {
        **blob,
        "generations": [{"generation": 0, "evaluated": 4, "hypervolume": 1.0}],
        "config": {**blob["config"], "patience": None},
    }
    clone = ExplorationResult.from_dict(archived)
    assert clone.config == result.config
    assert json.loads(clone.to_json()) == blob


# ------------------------------------------------- stale fingerprint memo
def test_reregistered_workload_gets_a_fresh_fingerprint(tmp_path):
    def register(source):
        builder = get_workload(source).definition.builder
        register_workload("pr14-swap", kind="kernel", replace=True)(builder)

    point = DesignPoint(workload_kind="kernel", workload="pr14-swap")
    try:
        register("2mm")
        before = explore([point], cache_dir=tmp_path).records[0]
        assert explore([point], cache_dir=tmp_path).records[0]["cached"]
        register("3mm")
        after = explore([point], cache_dir=tmp_path).records[0]
    finally:
        _unregister("pr14-swap")
    assert "error" not in before and "error" not in after
    assert after["cached"] is False
    assert after["module_fingerprint"] != before["module_fingerprint"]
    assert after["module_fingerprint"] == fingerprint_op(
        get_workload("3mm").build_module()
    )
    assert after["summary"]["latency_cycles"] != before["summary"]["latency_cycles"]


# ---------------------------------------------------- poisoned cache entry
@pytest.mark.parametrize(
    "poison",
    [
        "null",
        "[]",
        "1",
        '{"_cache_version": 1, "payl',
        '{"_cache_version": 1, "payload": null}',
        '{"_cache_version": 1, "payload": [1, 2]}',
        '{"_cache_version": 999, "payload": {"summary": {}}}',
    ],
)
def test_poisoned_qor_entries_are_recompiled_and_overwritten(tmp_path, poison):
    cache = QoRCache(tmp_path / "direct")
    cache.put("k", {"value": 1})
    cache._path("k").write_text(poison)
    assert cache.get("k") is None and cache.misses == 1
    cache.put("k", {"value": 2})
    assert cache.get("k") == {"value": 2}
    # Through explore: every point recompiles and its entry is rewritten.
    space = two_kernel_space()
    cold = explore(space, cache_dir=tmp_path / "qor")
    entries = list((tmp_path / "qor").glob("*/*.json"))
    assert len(entries) == len(space)
    for path in entries:
        path.write_text(poison)
    healed = explore(space, cache_dir=tmp_path / "qor")
    assert healed.errors == [] and healed.num_cached == 0
    assert healed.frontier_keys() == cold.frontier_keys()
    assert explore(space, cache_dir=tmp_path / "qor").num_cached == len(space)
