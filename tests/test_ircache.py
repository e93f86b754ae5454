"""Tests for the stage-boundary IR snapshot cache (incremental compilation).

The hard invariant pinned here: results are *bit-for-bit independent* of the
cache.  A fixed-seed run must produce byte-identical IR, QoR metrics and
frontiers whether the IR cache is off, cold or warm, for any worker count.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.compiler.driver import DEFAULT_PIPELINE, Compiler, PipelineObserver
from repro.compiler.ircache import (
    SCHEMA_VERSION,
    IRSnapshotCache,
    workload_cache_key,
)
from repro.compiler.stages import CompilationState
from repro.dse import QoRCache, build_space, explore
from repro.dse.cache import CACHE_VERSION
from repro.estimation.platform import get_platform
from repro.ir.printer import print_op
from repro.workloads import get_workload


#: The ``ir_cache_stats`` keys, in ``--cache-stats`` order.
STATS_KEYS = (
    "prefix_hits", "stages_skipped", "stages_run", "frontend_traces",
    "snapshots_stored", "snapshots_refused",
)


def make_compiler(platform="zu3eg"):
    return Compiler.from_spec(DEFAULT_PIPELINE, platform=platform)


@pytest.fixture
def refusals():
    """A live telemetry session; call it for the ``(phase, reason)`` of every
    ``ircache.refused`` event so far."""
    session = obs.configure()
    yield lambda: [
        (event["attrs"]["phase"], event["attrs"]["reason"])
        for event in session.events()
        if event.get("name") == "ircache.refused"
    ]
    obs.shutdown()


def summary_of(result):
    """QoR-bearing fields of a compile record, excluding wall-clock noise."""
    return {
        "latency": result.estimate.latency,
        "interval": result.estimate.interval,
        "dsp": result.estimate.resources.dsp,
        "bram": result.estimate.resources.bram,
        "lut": result.estimate.resources.lut,
        "misalignments": result.misalignments,
        "num_schedules": len(result.schedules),
    }


# ---------------------------------------------------------------------------
# Keys and boundaries
# ---------------------------------------------------------------------------


def test_workload_cache_key_forms():
    """Every spelling of one workload shares the handle's canonical id."""
    assert workload_cache_key("resnet18@batch=4") == "resnet18@batch=4"
    from repro.dse import DesignPoint

    handle = get_workload("2mm")
    point = DesignPoint(workload_kind="kernel", workload="2mm", batch=1)
    assert workload_cache_key(handle) == workload_cache_key(point.workload_spec()) == "2mm"
    assert workload_cache_key("kernel:2mm") == workload_cache_key(handle)
    batched = DesignPoint.for_workload("lenet@batch=4")
    assert workload_cache_key(batched.workload_spec()) == "lenet@batch=4"
    assert workload_cache_key(object()) is None


def test_compiler_snapshot_is_a_prefix_hit_for_dse(tmp_path):
    """Regression: ``--workload 2mm`` keyed snapshots ``"2mm"`` while DSE keyed
    the same workload ``"kernel:2mm@batch=1|"``, so the two never shared."""
    from repro.dse import DesignPoint, evaluate_point

    point = DesignPoint(workload_kind="kernel", workload="2mm")
    cache = IRSnapshotCache(tmp_path)
    point.compiler().run(workload="2mm", ir_cache=cache)
    record = evaluate_point(point, ir_cache_dir=str(tmp_path))
    assert "error" not in record
    assert record["ir_cache"]["prefix_hits"] == 1
    assert record["ir_cache"]["stages_skipped"] == len(
        point.compiler().snapshot_boundaries()
    )


def test_snapshot_boundaries_of_default_pipeline():
    """All seven leading stages are snapshot-safe; parallelize/estimate not."""
    compiler = make_compiler()
    assert compiler.snapshot_boundaries() == [1, 2, 3, 4, 5, 6, 7]
    hashes = compiler.prefix_hashes()
    assert len(hashes) == len(compiler.stages) + 1
    assert len(set(hashes)) == len(hashes)  # prefixes hash distinctly


def test_unsafe_stage_poisons_later_boundaries():
    compiler = Compiler.from_spec(
        "construct-dataflow,lower-linalg,lower-structural,"
        "parallelize{factor=8},estimate",
        platform="zu3eg",
    )
    # parallelize (index 3) is not snapshot-safe: its parallelization
    # results live outside the module, so no later boundary is usable.
    assert compiler.snapshot_boundaries() == [1, 2, 3]


def test_prefix_hash_tracks_spec_options():
    base = make_compiler()
    tiled = Compiler.from_spec(
        DEFAULT_PIPELINE.replace("tile", "tile{size=8}"), platform="zu3eg"
    )
    # Identical prefixes share hashes; the first divergent stage splits them.
    assert base.prefix_hashes()[6] == tiled.prefix_hashes()[6]
    assert base.prefix_hashes()[7] != tiled.prefix_hashes()[7]


# ---------------------------------------------------------------------------
# Driver-level cold/warm equivalence
# ---------------------------------------------------------------------------


def test_cold_then_warm_run_is_bit_identical(tmp_path):
    cache = IRSnapshotCache(tmp_path / "ir")
    reference = make_compiler().run(workload="2mm")

    cold = make_compiler().run(workload="2mm", ir_cache=cache)
    assert cold.ir_cache_stats["prefix_hits"] == 0
    assert cold.ir_cache_stats["frontend_traces"] == 1
    assert cold.ir_cache_stats["snapshots_stored"] == 7
    assert cache.verify_failures == 0

    warm = make_compiler().run(workload="2mm", ir_cache=cache)
    stats = warm.ir_cache_stats
    assert stats["prefix_hits"] == 1
    assert stats["stages_skipped"] == 7
    assert stats["stages_run"] == 2  # parallelize + estimate only
    assert stats["frontend_traces"] == 0  # no frontend re-trace
    assert stats["snapshots_stored"] == 0

    assert print_op(cold.module) == print_op(reference.module)
    assert print_op(warm.module) == print_op(reference.module)
    assert summary_of(cold) == summary_of(reference)
    assert summary_of(warm) == summary_of(reference)


def test_one_compiler_run_cold_then_warm_returns_one_record_per_run(tmp_path):
    """``run`` returns the state its stages filled, with that run's counters
    and observer errors; the compiler itself keeps nothing of a run."""
    ended = []

    class PipelineEnds(PipelineObserver):
        def on_pipeline_end(self, result):
            ended.append(result)

    compiler = Compiler.from_spec(
        DEFAULT_PIPELINE, platform="zu3eg", observers=[PipelineEnds()]
    )
    attributes = dict(vars(compiler))
    cache = IRSnapshotCache(tmp_path / "ir")
    cold = compiler.run(workload="2mm", ir_cache=cache)
    cold_fields = (
        dict(cold.ir_cache_stats), list(cold.stage_timings), cold.compile_seconds
    )
    cold_text = print_op(cold.module)
    warm = compiler.run(workload="2mm", ir_cache=cache)

    def stats(hits, skipped, run, traces, stored):
        return dict(zip(STATS_KEYS, (hits, skipped, run, traces, stored, 0)))

    assert cold.ir_cache_stats == stats(0, 0, 9, 1, 7)
    assert warm.ir_cache_stats == stats(1, 7, 2, 0, 0)
    assert cold.observer_errors == warm.observer_errors == []
    # The warm run left the cold record alone.
    assert (cold.ir_cache_stats, cold.stage_timings, cold.compile_seconds) == (
        cold_fields
    )
    assert print_op(cold.module) == cold_text
    assert [name for name, _ in warm.stage_timings] == ["parallelize", "estimate"]
    assert len(ended) == 2 and ended[0] is cold and ended[1] is warm
    assert cold._sink is None and warm._sink is None
    assert vars(compiler) == attributes
    assert set(attributes) == {"stages", "platform", "observers"}


@pytest.mark.parametrize("workload", ["2mm", "atax"])
def test_resume_from_every_boundary_matches_full_compile(tmp_path, workload):
    """Property over all snapshot-safe boundaries: resume == full compile.

    For each boundary the cache holds *only* that boundary's snapshot, so
    the longest-prefix probe is forced to resume exactly there; the result
    must be byte-identical IR and identical QoR versus the cold reference.
    """
    reference = make_compiler().run(workload=workload)
    reference_text = print_op(reference.module)
    key = workload_cache_key(get_workload(workload))

    compiler = make_compiler()
    hashes = compiler.prefix_hashes()
    state = CompilationState(
        module=get_workload(workload).build_module(),
        platform=get_platform("zu3eg"),
    )
    for boundary, stage in enumerate(compiler.stages, start=1):
        stage.run(state)
        if boundary not in compiler.snapshot_boundaries():
            break
        cache = IRSnapshotCache(tmp_path / f"b{boundary}")
        assert cache.store(key, "zu3eg", hashes[boundary], state)

        resumed = make_compiler().run(workload=workload, ir_cache=cache)
        stats = resumed.ir_cache_stats
        assert stats["prefix_hits"] == 1
        assert stats["stages_skipped"] == boundary
        assert stats["frontend_traces"] == 0
        assert print_op(resumed.module) == reference_text, f"boundary {boundary}"
        assert summary_of(resumed) == summary_of(reference)


def test_module_with_workload_keys_like_the_workload_alone(tmp_path):
    """``run(module, workload=...)``: the module is the built form, the
    workload is the cache identity — same snapshot files either way."""
    by_workload = IRSnapshotCache(tmp_path / "a")
    make_compiler().run(workload="2mm", ir_cache=by_workload)
    by_module = IRSnapshotCache(tmp_path / "b")
    module = get_workload("2mm").build_module()
    make_compiler().run(module, workload="2mm", ir_cache=by_module)

    def names(cache):
        return sorted(path.name for path in cache.root.glob("*/*.json"))

    assert len(names(by_workload)) == 7
    assert names(by_module) == names(by_workload)
    # A raw module alone keys by content fingerprint instead.
    raw = IRSnapshotCache(tmp_path / "c")
    make_compiler().run(get_workload("2mm").build_module(), ir_cache=raw)
    assert not set(names(raw)) & set(names(by_workload))
    with pytest.raises(TypeError):
        make_compiler().run()
    with pytest.raises(TypeError):
        make_compiler().run("2mm", workload="2mm")


# ---------------------------------------------------------------------------
# Self-verification and corruption handling
# ---------------------------------------------------------------------------


def test_store_refuses_snapshot_on_schedule_mismatch(tmp_path, refusals):
    compiler = make_compiler()
    # Through lower-structural.
    state = Compiler(compiler.stages[:4], platform="zu3eg").run_stages(workload="2mm")
    assert state.schedules
    state.schedules.append(state.schedules[0])  # now lies about its schedules

    cache = IRSnapshotCache(tmp_path / "ir")
    stored = cache.store("2mm", "zu3eg", compiler.prefix_hashes()[4], state)
    assert stored is False
    assert cache.verify_failures == 1
    assert len(cache) == 0
    assert refusals() == [("store", "schedule-count")]
    assert obs.session().registry.to_dict()["ir_cache.refused"]["value"] == 1

    # A string attribute holding a newline prints as text that does not
    # parse back (one op per line): the compile goes on uncached, and says so.
    module = get_workload("atax").build_module()
    module.set_attr("note", "a \n b")
    result = compiler.run(module, ir_cache=cache)
    assert result.estimate is not None
    assert refusals()[1:] == [("store", "parse")] * 7
    assert result.ir_cache_stats["snapshots_refused"] == 7
    assert result.ir_cache_stats["snapshots_stored"] == 0
    assert len(cache) == 0


def test_corrupt_payload_loads_as_miss(tmp_path, refusals):
    cache = IRSnapshotCache(tmp_path / "ir")
    key = IRSnapshotCache.snapshot_key("2mm", "zu3eg", "deadbeef")
    cache._store.put(key, {"ir": "garbage!!", "hints": []})
    assert cache.load("2mm", "zu3eg", "deadbeef") is None
    assert cache.misses == 1
    assert cache.hits == 0
    assert refusals() == [("load", "parse")]
    cache._store.put(key, {"ir": "builtin.module() {\n}", "hints": []})
    assert cache.load("2mm", "zu3eg", "deadbeef") is None
    assert refusals()[1:] == [("load", "payload")]
    assert cache.refused == 2 and cache.verify_failures == 0


@pytest.mark.parametrize(
    "poison",
    ["null", "[]", '{"_cache_ver', '{"_cache_version": 1, "payload": [1]}',
     '{"_cache_version": 999, "payload": {"fingerprint": "x", "ir": ""}}'],
)
def test_poisoned_entries_are_misses_and_get_overwritten(tmp_path, poison):
    """Valid-JSON-but-not-a-record files (and truncated / version-skewed
    ones) must read as misses on both IR-cache read paths, not raise."""
    compiler = make_compiler()
    cold = compiler.run(workload="2mm", ir_cache=IRSnapshotCache(tmp_path))
    IRSnapshotCache(tmp_path).put_fingerprint("2mm", "abc123")
    entries = list(tmp_path.glob("*/*.json"))
    assert len(entries) == 8  # 7 snapshots + the frontend fingerprint
    for path in entries:
        path.write_text(poison)
    cache = IRSnapshotCache(tmp_path)
    assert cache.get_fingerprint("2mm") is None
    assert all(
        cache.load("2mm", "zu3eg", prefix) is None
        for prefix in compiler.prefix_hashes()
    )
    assert cache.hits == 0
    healed = make_compiler().run(workload="2mm", ir_cache=cache)
    assert summary_of(healed) == summary_of(cold)
    assert cache.stores == 7


def test_store_skips_existing_key(tmp_path):
    compiler = make_compiler()
    state = CompilationState(
        module=get_workload("2mm").build_module(),
        platform=get_platform("zu3eg"),
    )
    compiler.stages[0].run(state)
    cache = IRSnapshotCache(tmp_path / "ir")
    h = compiler.prefix_hashes()[1]
    assert cache.store("2mm", "zu3eg", h, state) is True
    assert cache.store("2mm", "zu3eg", h, state) is False
    assert cache.stores == 1


def test_fingerprint_memo_roundtrip_and_clear(tmp_path):
    cache = IRSnapshotCache(tmp_path / "ir")
    assert cache.get_fingerprint("2mm") is None
    cache.put_fingerprint("2mm", "abc123")
    assert cache.get_fingerprint("2mm") == "abc123"
    assert len(cache) == 1
    assert cache.clear() == 1
    assert cache.get_fingerprint("2mm") is None


def test_schema_version_in_keys():
    """Bumping SCHEMA_VERSION must invalidate every existing entry."""
    assert f"v{SCHEMA_VERSION}|" in IRSnapshotCache.snapshot_key("w", "p", "h")
    assert f"v{SCHEMA_VERSION}|" in IRSnapshotCache.fingerprint_key("w")


# ---------------------------------------------------------------------------
# DSE integration: determinism and reuse
# ---------------------------------------------------------------------------


def strip_timing(records):
    """Records minus wall-clock fields (the only legitimate run-to-run delta)."""
    cleaned = []
    for record in records:
        record = dict(record)
        record.pop("eval_seconds", None)
        if isinstance(record.get("summary"), dict):
            summary = dict(record["summary"])
            summary.pop("compile_seconds", None)
            record["summary"] = summary
        cleaned.append(record)
    return cleaned


@pytest.mark.parametrize("workers", [1, 2])
def test_explore_bit_identical_off_cold_warm(tmp_path, workers):
    points = [p for p in build_space("small") if p.workload in ("2mm", "atax")]
    kwargs = dict(
        workers=workers,
        use_cache=False,
        strategy="random",
        budget=8,
        seed=7,
    )
    ir_dir = str(tmp_path / f"ir{workers}")
    off = explore(points, **kwargs)
    cold = explore(points, ir_cache=True, ir_cache_dir=ir_dir, **kwargs)
    warm = explore(points, ir_cache=True, ir_cache_dir=ir_dir, **kwargs)

    assert strip_timing(off.records) == strip_timing(cold.records)
    assert strip_timing(off.records) == strip_timing(warm.records)
    assert strip_timing(off.frontier) == strip_timing(warm.frontier)

    assert off.prefix_hits == 0 and off.stages_skipped == 0
    assert warm.prefix_hits >= cold.prefix_hits
    assert warm.stages_skipped > 0
    # Records never leak cache internals: byte-identity on/off requires it.
    assert all("ir_cache" not in r for r in off.records + warm.records)


def test_warm_sweep_skips_at_least_forty_percent(tmp_path):
    """The acceptance bar: a warm random sweep (budget 24, 2 workers) runs
    >=40% fewer stage executions than the cold sweep on the same cache."""
    space = build_space("small")
    kwargs = dict(
        workers=2,
        use_cache=False,
        strategy="random",
        budget=24,
        seed=7,
        ir_cache=True,
        ir_cache_dir=str(tmp_path / "ir"),
    )
    cold = explore(space, **kwargs)
    warm = explore(space, **kwargs)
    assert warm.num_designs == cold.num_designs

    slots = cold.num_designs * 9  # 9 stages in the default pipeline
    cold_executed = slots - cold.stages_skipped
    warm_executed = slots - warm.stages_skipped
    saved = (cold_executed - warm_executed) / cold_executed
    assert warm.prefix_hits == warm.num_designs  # every point resumes
    assert saved >= 0.40, f"warm run saved only {saved:.0%} of stage executions"


def test_reuse_counts_in_summary_and_json(tmp_path):
    points = [p for p in build_space("small") if p.workload == "2mm"]
    result = explore(
        points,
        use_cache=False,
        strategy="random",
        budget=6,
        seed=7,
        ir_cache=True,
        ir_cache_dir=str(tmp_path / "ir"),
    )
    assert result.prefix_hits > 0
    assert result.summary()["prefix_hits"] == result.prefix_hits
    data = result.to_dict()
    assert (data["prefix_hits"], data["stages_skipped"]) == (
        result.prefix_hits,
        result.stages_skipped,
    )


def test_ir_cache_dir_requires_ir_cache():
    with pytest.raises(ValueError):
        explore(build_space("small"), ir_cache_dir="/tmp/nope")


# ---------------------------------------------------------------------------
# Executed snapshot self-verification (translation validation at the cache)
# ---------------------------------------------------------------------------


def test_store_executes_snapshots_against_live_state(tmp_path):
    cache = IRSnapshotCache(tmp_path / "ir")
    compiler = make_compiler()
    compiler.run(workload="2mm@n=8", ir_cache=cache)
    # Every stored snapshot round-tripped through the printer/parser AND
    # re-executed to the live module's exact outputs.
    assert cache.stores == 7
    assert cache.exec_verified == 7
    assert cache.exec_skipped == 0
    assert cache.verify_failures == 0


def test_store_skips_executed_check_over_budget(tmp_path):
    # Full-size kernels exceed the store-time interpreter budget: the
    # executed check is skipped honestly (never silently "verified") while
    # the print->parse->print round-trip still gates the snapshot.
    cache = IRSnapshotCache(tmp_path / "ir")
    make_compiler().run(workload="2mm", ir_cache=cache)
    assert cache.stores == 7
    assert cache.exec_verified == 0
    assert cache.exec_skipped == 7
    assert cache.verify_failures == 0


# ---------------------------------------------------------------------------
# Byte net: what a cold sweep writes, and what the JSON store encodes
# ---------------------------------------------------------------------------

#: Repeated boundary texts (``gesummv``), executed snapshots (the ``@n=16``
#: kernels) and over-budget modules (``2mm``, ``mlp``) in one small space.
NET_SUITE = ["gesummv@n=16", "mvt@n=16", "2mm", "mlp"]
#: Regenerated for SCHEMA_VERSION 2: file names hash keys that embed the
#: version, so only the paths moved; the 32 files' bytes are unchanged.
NET_DIGEST = "b7c9e1b4e871c51b701ed5a371f64174229c7a9bddaec3a7456667d008144ab1"
NET_COUNTERS = {
    "stores": 28,
    "exec_verified": 14,
    "exec_skipped": 14,
    "verify_failures": 0,
    "refused": 0,
}


def tree_digest(root):
    """SHA-256 over ``(relative path, bytes)`` of every file under ``root``."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def test_cold_sweep_writes_pinned_ir_cache_bytes(tmp_path, monkeypatch, refusals):
    """A cold ``explore`` writes the same snapshot files, byte for byte, with
    the same self-check counters, however ``store`` reaches its verdicts."""
    import repro.dse.evaluate as evaluate

    handles = []

    class CountedCache(IRSnapshotCache):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            handles.append(self)

    monkeypatch.setattr(evaluate, "IRSnapshotCache", CountedCache)
    # A cold process too: a memoised fingerprint would skip its memo file.
    monkeypatch.setattr(evaluate, "_WORKLOAD_FINGERPRINTS", {})
    root = tmp_path / "ir"
    space = build_space("small", suite=NET_SUITE)
    result = explore(space, use_cache=False, ir_cache=True, ir_cache_dir=str(root))
    assert result.num_designs == len(space.points) == 16
    assert len(list(root.glob("*/*.json"))) == 32  # 28 snapshots + 4 memos
    assert tree_digest(root) == NET_DIGEST
    assert {
        name: sum(getattr(handle, name) for handle in handles)
        for name in NET_COUNTERS
    } == NET_COUNTERS
    assert refusals() == []


_json_leaf = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)
_json_payload = st.dictionaries(
    st.text(),
    st.recursive(
        _json_leaf,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(), inner, max_size=4),
        max_leaves=12,
    ),
    max_size=5,
)


@settings(max_examples=60, deadline=None)
@example({"z": -0.0, "big": 1e300, "nan": float("nan"), "inf": float("-inf")})
@example({"ir": 'say "hi" \\ bye', "é漢": ["\\", '"', "\n", 2**70]})
@given(payload=_json_payload)
def test_put_writes_the_sorted_json_record(payload):
    with tempfile.TemporaryDirectory() as root:
        cache = QoRCache(root)
        cache.put("point|k", payload)
        (path,) = Path(root).glob("*/*.json")
        record = {"_cache_version": CACHE_VERSION, "payload": payload}
        assert path.read_bytes() == json.dumps(record, sort_keys=True).encode("utf-8")


def test_put_of_unserializable_payload_leaves_no_file(tmp_path):
    """The record is encoded before any file exists, so a payload that does
    not serialize cannot leak a temp file that eviction never globs."""
    cache = QoRCache(tmp_path / "qor")
    with pytest.raises(TypeError):
        cache.put("point|k", {"bad": object()})
    assert not [path for path in tmp_path.rglob("*") if path.is_file()]


# ---------------------------------------------------------------------------
# A repeated boundary text: parse-side verdicts reused, live side re-executed
# ---------------------------------------------------------------------------


def boundary_texts(workload):
    """Printed module at every snapshot boundary of a cold default compile."""
    compiler = make_compiler()
    state = CompilationState(
        module=get_workload(workload).build_module(),
        platform=get_platform("zu3eg"),
    )
    texts = []
    for boundary in compiler.snapshot_boundaries():
        compiler.stages[boundary - 1].run(state)
        texts.append(print_op(state.module))
    return texts


@pytest.fixture
def work(monkeypatch):
    """Counts of the snapshot parses and interpreter runs ``store`` makes."""
    import repro.compiler.ircache as ircache
    import repro.ir.interp as interp

    counts = {"parse_op": 0, "interpret_module": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(ircache, "parse_op")
    counted(interp, "interpret_module")
    return counts


def test_repeated_text_is_parsed_once_and_executed_live_every_store(tmp_path, work):
    assert len(set(boundary_texts("gesummv@n=16"))) == 1
    cache = IRSnapshotCache(tmp_path / "ir")
    make_compiler().run(workload="gesummv@n=16", ir_cache=cache)
    assert work == {"parse_op": 1, "interpret_module": 8}  # 1 parse + 7 live
    assert cache.stores == cache.exec_verified == 7


def test_over_budget_store_parses_each_distinct_text_once(tmp_path, work):
    texts = boundary_texts("2mm")
    runs = 1 + sum(a != b for a, b in zip(texts, texts[1:]))
    assert runs == len(set(texts)) == 4
    cache = IRSnapshotCache(tmp_path / "ir")
    make_compiler().run(workload="2mm", ir_cache=cache)
    assert work["parse_op"] == len(set(texts))
    assert cache.stores == cache.exec_skipped == 7


class PrintsAsEight(int):
    """A printer/parser blind spot: holds one bound, prints another."""

    def __str__(self):
        return "8"

    __repr__ = __str__


def test_repeated_text_with_different_live_behaviour_is_refused(
    tmp_path, refusals, work
):
    """The record covers only what the text determines: a live module that
    prints the accepted text but runs differently is still caught."""
    from repro.dialects.affine import AffineForOp

    compiler = make_compiler()
    hashes = compiler.prefix_hashes()
    state = Compiler(compiler.stages[:4], platform="zu3eg").run_stages(
        workload="2mm@n=8"
    )
    cache = IRSnapshotCache(tmp_path / "ir")
    assert cache.store("2mm@n=8", "zu3eg", hashes[4], state) is True
    text = print_op(state.module)

    # A loop of the last node, which writes the output: halve its trip.
    loop = [op for op in state.module.walk() if isinstance(op, AffineForOp)][-1]
    assert loop.upper_bound == 8
    loop.set_attr("upper_bound", PrintsAsEight(4))
    assert print_op(state.module) == text
    assert cache.store("2mm@n=8", "zu3eg", hashes[5], state) is False
    assert work["parse_op"] == 1  # the second store hit the record
    assert refusals() == [("store", "exec-differs")]
    assert cache.verify_failures == 1 and cache.stores == 1
    assert len(cache) == 1
