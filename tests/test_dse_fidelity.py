"""Tests of the multi-fidelity QoR subsystem (:mod:`repro.dse.fidelity`).

The load-bearing properties: fixed-seed multi-fidelity runs are
byte-identical across worker counts, warm reruns do zero compiles *and*
zero simulations (both fidelity levels cache under non-colliding keys),
promoted points enter the final frontier with simulator-fidelity records,
simulation genuinely reorders the estimate-only frontier on a small space,
and budget counts distinct designs (promotions are free).  A point compiled
in the run is promoted from its base compile's simulation input: one compile
per distinct point, no band walk in the promotion pass, and records equal to
a recompile's.
"""

import collections
import json
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import Compiler
from repro.dse import (
    DEFAULT_FIDELITY,
    DEFAULT_OBJECTIVES,
    FIDELITIES,
    DesignPoint,
    ExploreConfig,
    best_fidelity_records,
    build_space,
    explore,
    fidelity_rank,
    hypervolume,
    hypervolume_reference,
    pareto_frontier,
    polybench_suite,
    select_promotions,
)
from repro.dse.evaluate import evaluate_point, probe_point
from repro.dse.fidelity import check_fidelity, payload
from repro.dse.pareto import scalarized_energies
from repro.estimation import qor
from repro.workloads import list_workloads


def kernel_space(name, preset="medium"):
    return build_space(
        preset, suite=[s for s in polybench_suite() if s.name == name]
    )


def record_keys(result):
    return [(r["point_key"], r.get("fidelity")) for r in result.records]


def qor_only(summary):
    return {k: v for k, v in summary.items() if k != "compile_seconds"}


def timeless(record):
    """A record without its wall-clock fields."""
    record = {k: v for k, v in record.items() if k != "eval_seconds"}
    record["summary"] = qor_only(record["summary"])
    return record


def count_calls(monkeypatch, owner, name, counts):
    """Count calls of ``owner.name`` into ``counts[name]``."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


# ---------------------------------------------------------------- registry
def test_fidelity_registry():
    # A fixed ladder, cheapest first: rank is position in the table.
    assert list(FIDELITIES) == ["estimate", "simulate"]
    assert DEFAULT_FIDELITY == "estimate"
    assert fidelity_rank(None) == 0
    assert fidelity_rank("estimate") == 0
    assert fidelity_rank("simulate") == 1
    assert fidelity_rank("rtl") == 0  # an unknown tag ranks as base-level
    check_fidelity("simulate")
    with pytest.raises(ValueError, match="unknown fidelity level 'rtl'; options: estimate, simulate"):
        check_fidelity("rtl")
    with pytest.raises(ValueError, match="unknown fidelity"):
        payload("rtl", None)  # refused before the result is read


def test_promotion_policy_validation():
    for fraction in (0.0, 1.5):
        with pytest.raises(ValueError, match="promote_top must be in"):
            ExploreConfig(fidelity="simulate", promote_top=fraction)
    # The race always goes estimate -> simulate, so the fraction is the
    # only setting.
    assert ExploreConfig().promotion_fraction() is None
    assert ExploreConfig(fidelity="simulate").promotion_fraction() == 0.25
    records = [_record(f"k{index}", "k", 10.0 + index) for index in range(8)]
    assert select_promotions([], 0.25) == []
    assert len(select_promotions(records[:1], 0.25)) == 1  # at least one point
    assert len(select_promotions(records, 0.25)) == 2
    assert len(select_promotions(records, 1.0)) == 8


def _record(key, workload, latency, fidelity="estimate", error=None):
    record = {
        "point_key": key,
        "workload": workload,
        "fidelity": fidelity,
        "summary": {"latency_cycles": latency, "dsp": 1.0, "bram": 1.0},
    }
    if error:
        record["error"] = error
    return record


def test_promotion_policy_selects_frontier_members_first():
    candidates = [
        _record("aaa", "k", 100.0),
        _record("bbb", "k", 10.0),  # the frontier point
        _record("ccc", "k", 50.0),
        _record("ddd", "k", 60.0),
    ]
    chosen = select_promotions(candidates, 0.5)
    assert len(chosen) == 2
    assert chosen[0] == "bbb"  # frontier membership outranks everything
    # Errored records are never candidates, and do not count to the quota.
    assert select_promotions([_record("eee", "k", 1.0, error="boom")], 1.0) == []
    errored = [_record(f"e{index}", "k", 1.0, error="boom") for index in range(4)]
    assert select_promotions(candidates + errored, 0.5) == chosen


def _reference_select(promote_top, candidates, context, objectives):
    """The promotion ranking over separate candidate and context records,
    verbatim: the oracle the explore-time selection is held to, with the
    candidates and the context both the batch's scored base records."""
    eligible = [
        r for r in candidates if "error" not in r and fidelity_rank(r.get("fidelity")) == 0
    ]
    if not eligible:
        return []
    groups, context_groups = {}, {}
    for record in eligible:
        groups.setdefault(str(record.get("workload", "")), []).append(record)
    for record in context:
        if "error" not in record:
            context_groups.setdefault(str(record.get("workload", "")), []).append(record)
    pool = []
    for name in sorted(groups):
        scored_context = context_groups.get(name, groups[name])
        frontier = pareto_frontier(scored_context, objectives)
        frontier_keys = [str(r.get("point_key", "")) for r in frontier]
        reference = hypervolume_reference(scored_context, objectives)
        full_volume = hypervolume(frontier, objectives, reference) if reference else 0.0
        contributions = {}
        for index, key in enumerate(frontier_keys):
            rest = frontier[:index] + frontier[index + 1 :]
            rest_volume = hypervolume(rest, objectives, reference) if reference else 0.0
            contributions[key] = full_volume - rest_volume
        energies = scalarized_energies(groups[name], objectives)
        ranked = []
        for record, energy in zip(groups[name], energies):
            key = str(record.get("point_key", ""))
            on_frontier = key in contributions
            ranked.append(
                (
                    (0 if on_frontier else 1, -contributions[key] if on_frontier else energy, key),
                    key,
                )
            )
        ranked.sort()
        pool.extend((position, rank, key) for position, (rank, key) in enumerate(ranked))
    pool.sort()
    quota = min(len(pool), max(1, math.ceil(promote_top * len(pool))))
    return [key for _, _, key in pool[:quota]]


_VALUES = st.one_of(st.none(), st.sampled_from([1.0, 2.0, 3.0, 5.0, 8.0]))


@st.composite
def _batch_records(draw):
    """Base records of one batch: unique keys in any order, a few
    workloads, tied and missing objective values, some errored points."""
    count = draw(st.integers(0, 12))
    records = []
    for key in draw(st.permutations([f"{index:02x}" for index in range(count)])):
        values = {name: draw(_VALUES) for name in ("latency_cycles", "dsp", "bram", "throughput")}
        record = {
            "point_key": key,
            "workload": draw(st.sampled_from(["2mm", "atax", "mvt"])),
            "fidelity": "estimate",
            "summary": {name: value for name, value in values.items() if value is not None},
        }
        if draw(st.integers(0, 5)) == 0:
            record["error"] = "boom"
        records.append(record)
    return records


@settings(max_examples=300, deadline=None)
@given(
    records=_batch_records(),
    promote_top=st.sampled_from([0.01, 0.25, 0.5, 0.7, 1.0]),
    objectives=st.sampled_from([DEFAULT_OBJECTIVES, ("throughput", "dsp")]),
)
def test_promotion_matches_the_reference_ranking(records, promote_top, objectives):
    scored = [r for r in records if "error" not in r]
    expected = _reference_select(promote_top, scored, scored, objectives)
    assert select_promotions(records, promote_top, objectives) == expected


def test_best_fidelity_records_prefers_rank_and_skips_errors():
    base = _record("aaa", "k", 100.0)
    refined = _record("aaa", "k", 120.0, fidelity="simulate")
    failed = _record("aaa", "k", 0.0, fidelity="simulate", error="boom")
    other = _record("bbb", "k", 5.0)
    assert best_fidelity_records([base, other, refined]) == [refined, other]
    # An errored re-evaluation never hides a scored record.
    assert best_fidelity_records([base, failed]) == [base]
    # Order follows first appearance (determinism across worker counts).
    assert [r["point_key"] for r in best_fidelity_records([other, base, refined])] == [
        "bbb",
        "aaa",
    ]


# ------------------------------------------------------------- validation
def test_explore_rejects_bad_fidelity_arguments(tmp_path):
    space = kernel_space("atax", "small")
    with pytest.raises(ValueError, match="unknown fidelity"):
        explore(space, use_cache=False, fidelity="rtl")
    with pytest.raises(ValueError, match="promote_top"):
        explore(space, use_cache=False, promote_top=0.5)
    with pytest.raises(ValueError, match="resume"):
        explore(
            space, cache_dir=str(tmp_path), resume=True, fidelity="simulate"
        )


# ------------------------------------------------- full-sweep promotion
def test_full_sweep_promotion_reranks_on_simulated_records(tmp_path):
    space = kernel_space("2mm")
    estimate_only = explore(space, cache_dir=str(tmp_path))
    multi = explore(
        space, cache_dir=str(tmp_path), fidelity="simulate", promote_top=1.0
    )
    assert estimate_only.fidelity == DEFAULT_FIDELITY
    assert estimate_only.promote_top is None
    assert multi.fidelity == "simulate"
    assert multi.promote_top == 1.0
    assert multi.num_promoted == len(space)
    assert multi.num_points == 2 * len(space)
    # Every frontier record is the simulator-fidelity one.
    assert multi.frontier
    assert all(r.get("fidelity") == "simulate" for r in multi.frontier)
    # The acceptance bar: simulation *reorders* the estimate-only frontier
    # on this small space (membership changes, not just values).
    assert set(multi.frontier_keys()) != set(estimate_only.frontier_keys())


def test_partial_promotion_keeps_estimate_records_competitive(tmp_path):
    space = kernel_space("3mm")
    result = explore(
        space, cache_dir=str(tmp_path), fidelity="simulate", promote_top=0.25
    )
    promoted_keys = {
        r["point_key"] for r in result.records if r.get("fidelity") == "simulate"
    }
    assert 0 < len(promoted_keys) < len(space)
    # Frontier re-ranks on best-available fidelity: promoted members carry
    # the simulate tag, unpromoted members stay analytic.
    for record in result.frontier:
        expected = "simulate" if record["point_key"] in promoted_keys else "estimate"
        assert record.get("fidelity") == expected


# ------------------------------------------------------------ determinism
def test_multifidelity_search_deterministic_across_worker_counts(tmp_path):
    space = build_space("medium", suite=polybench_suite()[:2])
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
                fidelity="simulate",
                promote_top=0.5,
            )
        )
    baseline = results[0]
    assert baseline.num_promoted > 0
    for other in results[1:]:
        assert record_keys(other) == record_keys(baseline)
        assert other.frontier_keys() == baseline.frontier_keys()
        for left, right in zip(baseline.records, other.records):
            assert qor_only(left.get("summary", {})) == qor_only(
                right.get("summary", {})
            )
        assert other.disagreements() == baseline.disagreements()


def test_multifidelity_warm_rerun_does_zero_compiles_or_simulations(tmp_path):
    space = kernel_space("2mm")
    kwargs = dict(
        cache_dir=str(tmp_path),
        strategy="random",
        budget=8,
        seed=2,
        fidelity="simulate",
        promote_top=0.5,
    )
    cold = explore(space, **kwargs)
    warm = explore(space, **kwargs)
    assert cold.num_promoted > 0
    assert record_keys(warm) == record_keys(cold)
    assert warm.frontier_keys() == cold.frontier_keys()
    # Zero compiles AND zero simulations: every record at every fidelity
    # level replays from its own cache entry.
    assert warm.num_cached == warm.num_points
    assert warm.cache_misses == 0


#: The base-level QoR-cache key of ``atax`` on ``zu3eg`` at the default knobs.
CACHE_KEY_ESTIMATE = (
    "point|m2|01aeb7bdbde9708adda1289da60dbeb1fc13a3c7165b67e3bc6c5a1671f15459|zu3eg|"
    "construct-dataflow,fuse-tasks{patterns=elementwise,init},lower-linalg,"
    "lower-structural,eliminate-multi-producers,balance,tile,parallelize,estimate"
)


def test_fidelity_levels_never_collide_in_the_cache(tmp_path, monkeypatch):
    space = kernel_space("atax", "small")
    base = explore(space, cache_dir=str(tmp_path))
    compiles = collections.Counter()
    count_calls(monkeypatch, Compiler, "run_stages", compiles)
    multi = explore(
        space, cache_dir=str(tmp_path), fidelity="simulate", promote_top=1.0
    )
    # The base sweep warmed the estimate level only: the promoted level
    # must re-evaluate (no key collision), while every estimate record
    # replays from the first sweep's entries.
    estimate_records = [
        r for r in multi.records if r.get("fidelity") == "estimate"
    ]
    promoted_records = [
        r for r in multi.records if r.get("fidelity") == "simulate"
    ]
    assert estimate_records and promoted_records
    assert all(r["cached"] for r in estimate_records)
    assert not any(r["cached"] for r in promoted_records)
    assert base.cache_misses == len(space)
    # Simulated and analytic summaries disagree (different models), which
    # is only possible if the levels read different cache entries.
    assert any(
        e["summary"]["latency_cycles"] != p["summary"]["latency_cycles"]
        for e, p in zip(estimate_records, promoted_records)
        if e["point_key"] == p["point_key"]
    )
    # Cache-hit bases leave no simulation input, so every promoted point
    # recompiled; an uncached run promotes from its base compiles instead,
    # and the two paths agree on everything but wall-clock fields.
    assert compiles["run_stages"] == len(promoted_records)
    uncached = explore(space, use_cache=False, fidelity="simulate", promote_top=1.0)
    assert compiles["run_stages"] == len(promoted_records) + len(space)
    reused = [r for r in uncached.records if r.get("fidelity") == "simulate"]
    assert [timeless(r) for r in reused] == [timeless(r) for r in promoted_records]
    # The keys themselves are pinned: the simulate level appends its tag to
    # the base key, which carries none, so existing caches stay warm.
    point = DesignPoint.for_workload("atax", platform="zu3eg")
    keys = {
        level: probe_point(point, None, level, None)[1][0]
        for level in ("estimate", "simulate")
    }
    assert keys["estimate"] == CACHE_KEY_ESTIMATE
    assert keys["simulate"] == CACHE_KEY_ESTIMATE + "|fid:simulate.v1"


def test_promotion_reuses_the_base_compile(monkeypatch):
    space = kernel_space("2mm")
    counts = collections.Counter()
    count_calls(monkeypatch, Compiler, "run_stages", counts)
    count_calls(monkeypatch, qor, "estimate_band", counts)
    explore(space, use_cache=False)
    base_bands = counts["estimate_band"]
    counts.clear()
    multi = explore(space, use_cache=False, fidelity="simulate", promote_top=0.5)
    assert multi.num_promoted > 0
    # One compile per distinct point, and the promotion pass walks no band:
    # every estimate_band call belongs to a base compile.
    assert counts["run_stages"] == len(space)
    assert counts["estimate_band"] == base_bands


@pytest.mark.parametrize("platform", ["zu3eg", "vu9p-slr"])
def test_a_kept_simulation_input_is_small_and_ir_free(platform):
    for workload in list_workloads():
        point = DesignPoint.for_workload(workload, platform=platform)
        kept = evaluate_point(point).pop("simulation_input")
        data = pickle.dumps(kept)
        assert b"repro.ir" not in data and b"repro.dialects" not in data, workload
        assert len(data) <= 8 * 1024, (workload, len(data))
        assert payload("simulate", pickle.loads(data)) == payload("simulate", kept)


# ------------------------------------------------------------ budget rules
def test_budget_counts_designs_not_promotions(tmp_path):
    space = kernel_space("2mm")
    result = explore(
        space,
        cache_dir=str(tmp_path),
        strategy="random",
        budget=8,
        seed=0,
        fidelity="simulate",
        promote_top=0.5,
    )
    base_records = [
        r for r in result.records if r.get("fidelity") == "estimate"
    ]
    assert len(base_records) == 8  # the budget, exactly
    assert result.num_promoted > 0
    assert result.num_points == 8 + result.num_promoted
    rows = result.disagreements()
    assert len(rows) == result.num_promoted
    assert all("max_disagreement" in row for row in rows)


# ------------------------------------------------------------ result model
def test_fidelity_metadata_serializes(tmp_path):
    from repro.evaluation import ExplorationResult

    result = explore(
        kernel_space("2mm"),
        cache_dir=str(tmp_path),
        strategy="random",
        budget=6,
        seed=1,
        fidelity="simulate",
        promote_top=0.5,
    )
    assert result.fidelity == "simulate"
    restored = ExplorationResult.from_dict(json.loads(result.to_json()))
    assert restored.fidelity == "simulate"
    assert restored.promote_top == 0.5
    assert restored.num_promoted == result.num_promoted
    assert restored.disagreements() == result.disagreements()
    # The rendered reports carry the fidelity columns.
    assert "fidelity" in result.frontier_table()
    table = result.disagreement_table()
    assert "disagree" in table
    rows = result.disagreements()
    assert len(rows) == len({r["point_key"] for r in rows})
    assert all(0.0 <= row["max_disagreement"] for row in rows)


# ------------------------------------------------------------------- CLIs
#: ``--list-fidelities`` of both CLIs, byte for byte.
LIST_FIDELITIES = (
    "estimate   rank 0  analytic QoR model (cheap; scores every evaluated point)\n"
    "simulate   rank 1  two-level dataflow simulation with back-pressure over "
    "the estimate stage's graphs (promoted points; no recompile of a point "
    "compiled in this run)\n"
)

#: ``python -m repro.dse --list-strategies``, byte for byte: each
#: strategy with its description.
LIST_STRATEGIES = """\
exhaustive   The whole space in generation order; the budget simply truncates.
random       A seeded shuffle of the space, evaluated until the budget runs out.
"""


def test_dse_cli_list_fidelities_and_strategies(capsys):
    from repro.dse.__main__ import main

    assert main(["--list-fidelities"]) == 0
    assert capsys.readouterr().out == LIST_FIDELITIES
    assert main(["--list-strategies"]) == 0
    assert capsys.readouterr().out == LIST_STRATEGIES


def test_dse_cli_multifidelity_run(tmp_path, capsys):
    from repro.dse.__main__ import main

    code = main(
        [
            "--space",
            "small",
            "--workload",
            "atax",
            "--strategy",
            "random",
            "--budget",
            "4",
            "--fidelity",
            "simulate",
            "--promote-top",
            "1.0",
            "--cache-dir",
            str(tmp_path),
        ]
    )
    output = capsys.readouterr().out
    assert code == 0
    assert "fidelity" in output
    assert "simulate" in output
    assert "Fidelity disagreement" in output
    # A search reports its budget in the footer; it prints no progress table.
    assert "; strategy random: 4/4 budget\n" in output
    assert "Search progress" not in output


def test_dse_cli_rejects_bad_fidelity_combinations(tmp_path):
    from repro.dse.__main__ import main

    with pytest.raises(SystemExit):
        main(["--promote-top", "0.5"])  # needs --fidelity simulate
    with pytest.raises(SystemExit):
        main(["--fidelity", "simulate", "--promote-top", "2.0"])
    with pytest.raises(SystemExit):
        main(["--resume", "--fidelity", "simulate"])


def test_compiler_cli_fidelity(tmp_path, capsys):
    from repro.compiler.__main__ import main

    assert main(["--list-fidelities"]) == 0
    assert capsys.readouterr().out == LIST_FIDELITIES
    out_path = tmp_path / "qor.json"
    assert (
        main(
            [
                "--workload",
                "2mm",
                "--target",
                "zu3eg",
                "--fidelity",
                "simulate",
                "--json",
                str(out_path),
            ]
        )
        == 0
    )
    output = capsys.readouterr().out
    assert "simulate fidelity" in output
    payload = json.loads(out_path.read_text())
    assert payload["fidelity"] == "simulate"
    with pytest.raises(SystemExit):
        main(["--workload", "2mm", "--fidelity", "rtl"])
