"""``ExploreConfig``: the one place explore()'s settings and their
cross-field rules live, and the one batch every run evaluates."""

import dataclasses
import json

import pytest

from repro.dse import (
    DesignPoint,
    DesignSpace,
    ExplorationResult,
    ExploreConfig,
    QoRCache,
    explore,
)
from repro.dse.__main__ import main
from repro.ir import fingerprint_op
from repro.workloads import get_workload, register_workload
from repro.workloads.registry import _REGISTRY


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
    "negative-workers": (dict(workers=-1), "workers must be non-negative"),
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
        "workers", "cache_dir", "use_cache", "objectives",
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
    (["--top", "-1"], "argument --top: must be non-negative (got -1)"),
    (["--seed", "7"], "--seed has no effect without --sample or --strategy"),
]


@pytest.mark.parametrize(
    "argv,message", CLI_INVALID, ids=["".join(argv) for argv, _ in CLI_INVALID]
)
def test_cli_reports_config_errors_through_parser_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


#: argv -> the settings ``main`` must hand to explore(): one row per flag
#: that sets an ``ExploreConfig`` field, plus the conversions of its value.
CLI_SETTINGS = [
    ([], {}),
    (["--workers", "3"], dict(workers=3)),
    (["--cache-dir", "qor"], dict(cache_dir="qor")),
    (["--no-cache"], dict(use_cache=False)),
    (["--objectives", "throughput, dsp,"], dict(objectives=("throughput", "dsp"))),
    (["--resume"], dict(resume=True)),
    (["--strategy", "random"], dict(strategy="random")),
    (["--strategy", "random", "--budget", "5"], dict(strategy="random", budget=5)),
    (["--strategy", "random", "--budget", "0"], dict(strategy="random")),
    (["--strategy", "random", "--seed", "7"], dict(strategy="random", seed=7)),
    (["--sample", "2", "--seed", "7"], {}),  # the seed steers --sample only
    (["--fidelity", "simulate"], dict(fidelity="simulate")),
    (
        ["--fidelity", "simulate", "--promote-top", "0.5"],
        dict(fidelity="simulate", promote_top=0.5),
    ),
    (["--ir-cache"], dict(ir_cache=True)),
    (["--ir-cache", "--ir-cache-dir", "ir"], dict(ir_cache=True, ir_cache_dir="ir")),
    (["--prefilter"], dict(prefilter=True)),
    (["--validate-frontier"], dict(validate_frontier=True)),
]


@pytest.mark.parametrize(
    "argv,settings", CLI_SETTINGS, ids=[" ".join(argv) or "none" for argv, _ in CLI_SETTINGS]
)
def test_cli_builds_the_config_its_flags_name(argv, settings, monkeypatch):
    seen = []

    class Stop(Exception):
        pass

    def fake_explore(space, config):
        seen.append(config)
        raise Stop  # before anything is evaluated

    monkeypatch.setattr("repro.dse.__main__.explore", fake_explore)
    with pytest.raises(Stop):
        main(["--workload", "atax", *argv])
    assert seen == [ExploreConfig(**settings)]


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
    # The settings are serialized once, in ``config``; counts over
    # ``records`` are not serialized at all.
    assert sorted(blob) == sorted(
        [
            "records", "frontier", "elapsed_seconds", "skipped", "budget",
            "prefix_hits", "stages_skipped", "rejected", "validation_failures",
            "config",
        ]
    )
    assert ExplorationResult().to_dict()["config"] == ExploreConfig().to_dict()


def test_a_result_file_with_retired_fields_still_loads(tmp_path):
    result = explore(two_kernel_space(), cache_dir=tmp_path, strategy="random", budget=4, seed=9)
    blob = json.loads(result.to_json())
    # Keys older result files carry: per-generation rows, a setting that no
    # longer exists, and the run's settings and record counts written out
    # beside ``config`` and ``records``.  Loading drops them.  The retired
    # pool chunk setting is spelled in two parts, so the removed-names check
    # (tools/removed_names.txt) finds no use of it.
    archived = {
        **blob,
        "generations": [{"generation": 0, "evaluated": 4, "hypervolume": 1.0}],
        "config": {**blob["config"], "patience": None, "chunk" "size": 4},
        "objectives": ["latency_cycles", "dsp", "bram"],
        "workers": 1,
        "strategy": "random",
        "fidelity": "estimate",
        "promote_top": None,
        "cache_hits": 0,
        "cache_misses": 4,
        "errors": [],
    }
    clone = ExplorationResult.from_dict(archived)
    assert clone.config == result.config
    assert (clone.records, clone.frontier) == (blob["records"], blob["frontier"])
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
        _REGISTRY.pop("pr14-swap", None)
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
    assert healed.errors == [] and healed.cache_hits == 0
    assert healed.frontier_keys() == cold.frontier_keys()
    assert explore(space, cache_dir=tmp_path / "qor").cache_hits == len(space)
