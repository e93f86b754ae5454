"""What a design point *is* must not move: its dict, key, label, spec, cache key.

Result files show ``to_dict()`` in declared field order, ``key()`` names the
point in every record and frontier, ``canonical_spec()`` plus the workload
fingerprint is the QoR-cache key.  ``tests/data/point_identity_golden.json``
was recorded with the pre-PR-24 code (``dataclasses.asdict`` per call, a
``Compiler`` per printed spec) and is regenerated only on purpose, with
``PYTHONPATH=src python tests/test_dse_identity.py --regen``.
"""

import dataclasses
import hashlib
import json
import os
import pathlib
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse import DesignPoint, build_space, explore
from repro.dse.evaluate import _point_cache_key

_GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "point_identity_golden.json"

_SUITE = ["atax", "mvt", "2mm", "lenet"]
#: Stands in for a module fingerprint: the key layout is what is pinned.
_FINGERPRINT = "0123456789abcdef" * 4
_SPEC = "construct-dataflow,lower-structural,balance,parallelize{factor=8,target-ii=2},estimate"
#: The same stage sequence, spelled with spaces, reordered and default options.
_SPEC_RESPELLED = (
    " construct-dataflow , lower-structural,balance,"
    "parallelize{target-ii=2, factor=8,ia=true},estimate{dataflow=true}"
)


def _extra_points():
    return [
        DesignPoint.for_workload("2mm", pipeline_spec=_SPEC),
        DesignPoint.for_workload("2mm", pipeline_spec=_SPEC_RESPELLED),
        DesignPoint.for_workload("atax@n=16", tile_size=8),
        DesignPoint.for_workload("lenet@batch=4", max_parallel_factor=64),
    ]


def _row(point):
    spec = point.canonical_spec()
    return {
        # No sort_keys: field order is part of what result files show.
        "dict": json.dumps(point.to_dict()),
        "key": point.key(),
        "label": point.label(),
        "spec": spec,
        # sha256 of the cache key at each fidelity: the entry's file name.
        "cache_files": [
            hashlib.sha256(
                _point_cache_key(_FINGERPRINT, point.platform, spec, fidelity).encode()
            ).hexdigest()
            for fidelity in ("estimate", "simulate")
        ],
    }


def _digest(row):
    return hashlib.sha256(json.dumps(row, sort_keys=True).encode()).hexdigest()[:16]


def _identity_table():
    """Full rows for the small and medium spaces and the odd points; the 600
    points of the full space as ``key -> digest of the row``."""
    rows = [
        _row(point)
        for preset in ("small", "medium")
        for point in build_space(preset, suite=_SUITE)
    ]
    rows += [_row(point) for point in _extra_points()]
    full = {}
    for point in build_space("full", suite=_SUITE):
        row = _row(point)
        full[row["key"]] = _digest(row)
    return {"rows": rows, "full": full}


def test_point_identity_golden():
    golden = json.loads(_GOLDEN_PATH.read_text())
    table = _identity_table()
    assert len(table["rows"]) == 16 + 72 + 4 and len(table["full"]) == 600
    for got, want in zip(table["rows"], golden["rows"]):
        assert got == want
    assert len(table["rows"]) == len(golden["rows"])
    # Key order too: the space generates points in a deterministic order.
    assert list(table["full"].items()) == list(golden["full"].items())


def test_respelled_spec_shares_the_cache_key_not_the_point_key():
    canonical, respelled = _extra_points()[:2]
    assert canonical.canonical_spec() == respelled.canonical_spec() == _SPEC
    assert canonical.key() != respelled.key()
    assert canonical.label() != respelled.label()


# ---------------------------------------------------------------------------
# Properties of the identity, against the ``dataclasses.asdict`` definition
# ---------------------------------------------------------------------------


def _reference_to_dict(point):
    """``DesignPoint.to_dict`` as it was defined before PR 24."""
    data = dataclasses.asdict(point)
    if point.pipeline_spec is None:
        data.pop("pipeline_spec")
    if not point.workload_params:
        data.pop("workload_params")
    else:
        data["workload_params"] = [list(pair) for pair in point.workload_params]
    return data


def _reference_key(point):
    text = json.dumps(_reference_to_dict(point), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


_PARAMS = st.dictionaries(
    st.sampled_from(["n", "m", "size"]), st.integers(1, 64), max_size=2
).map(lambda params: tuple(sorted(params.items())))

_POINTS = st.builds(
    DesignPoint,
    workload_kind=st.sampled_from(["kernel", "model"]),
    workload=st.sampled_from(["atax", "2mm", "lenet", "jacobi-2d"]),
    batch=st.integers(1, 8),
    workload_params=_PARAMS,
    platform=st.sampled_from(["zu3eg", "vu9p-slr"]),
    max_parallel_factor=st.sampled_from([1, 4, 32, 256]),
    tile_size=st.sampled_from([0, 4, 16]),
    top_k_fusion=st.integers(0, 3),
    target_ii=st.integers(1, 3),
    enable_dataflow=st.booleans(),
    intensity_aware=st.booleans(),
    connection_aware=st.booleans(),
    pipeline_spec=st.sampled_from([None, None, _SPEC, _SPEC_RESPELLED]),
)


@settings(max_examples=150, deadline=None)
@given(point=_POINTS)
def test_identity_matches_the_asdict_reference(point):
    data = point.to_dict()
    assert data == _reference_to_dict(point)
    assert list(data) == list(_reference_to_dict(point))  # declared field order
    assert point.key() == _reference_key(point)
    again = DesignPoint.from_dict(json.loads(json.dumps(data)))
    assert again == point and hash(again) == hash(point)
    assert again.key() == point.key() and again.label() == point.label()
    # A returned dict is the caller's: mutating it reaches no later answer.
    data["tile_size"] = -1
    data.setdefault("workload_params", []).append(["x", 1])
    assert point.key() == _reference_key(point)
    assert point.to_dict() == _reference_to_dict(point)
    assert point.to_dict() is not point.to_dict()


@settings(max_examples=100, deadline=None)
@given(point=_POINTS)
def test_what_is_remembered_is_not_part_of_the_point(point):
    fresh = dataclasses.replace(point)
    key, label, spec = point.key(), point.label(), point.canonical_spec()
    # Asking changed nothing a field-wise comparison or a printer can see.
    assert point == fresh and hash(point) == hash(fresh) and repr(point) == repr(fresh)
    assert [f.name for f in dataclasses.fields(point)] == list(
        dataclasses.asdict(point)
    )
    # A copy with one knob changed answers for itself.
    other = dataclasses.replace(point, tile_size=point.tile_size + 1)
    assert other.key() == _reference_key(other) != key
    if point.pipeline_spec is None:
        assert other.label() != label
    restored = pickle.loads(pickle.dumps(point))
    assert restored == point and hash(restored) == hash(point)
    assert (restored.key(), restored.label(), restored.canonical_spec()) == (
        key,
        label,
        spec,
    )


@settings(max_examples=50, deadline=None)
@given(point=_POINTS)
def test_the_printed_spec_depends_on_the_knobs_alone(point):
    elsewhere = dataclasses.replace(
        point,
        workload_kind="kernel",
        workload="mvt",
        batch=1,
        workload_params=(),
        platform="vu9p-slr" if point.platform == "zu3eg" else "zu3eg",
    )
    assert elsewhere.canonical_spec() == point.canonical_spec()
    assert point.canonical_spec() == point.compiler().spec_text()


# ---------------------------------------------------------------------------
# What a QoR-cache hit costs, in counted calls (no timing)
# ---------------------------------------------------------------------------


def _calls(stats, name, file_suffix=""):
    return sum(
        entry[1]
        for (filename, _, function), entry in stats.stats.items()
        if function == name and filename.endswith(file_suffix)
    )


@pytest.mark.parametrize("rebuilt", [False, True], ids=["same-points", "rebuilt-points"])
def test_an_all_hit_explore_costs_a_file_read_per_point(tmp_path, rebuilt):
    """N = 36 hits: one ``open`` each, no ``Compiler``, no ``asdict``, and at
    most 200 N + 2,000 Python calls (the pre-PR-24 path made about 1,290 N).
    ``rebuilt`` replays with points fresh from ``from_dict``, as a new sweep
    over a warm cache would: nothing a previous instance remembered helps."""
    import cProfile
    import pstats

    suite = ["atax", "bicg", "mvt", "gesummv", "2mm", "3mm", "symm", "syr2k", "jacobi-2d"]
    points = build_space("small", suite=suite).points
    assert len(points) == 36
    cache_dir = str(tmp_path / "qor")
    assert explore(points, cache_dir=cache_dir).num_cached == 0
    if rebuilt:
        points = [DesignPoint.from_dict(point.to_dict()) for point in points]
    profile = cProfile.Profile()
    warm = profile.runcall(explore, points, cache_dir=cache_dir)
    assert warm.num_cached == 36 and not warm.errors
    stats = pstats.Stats(profile)
    assert stats.total_calls <= 200 * 36 + 2000
    assert _calls(stats, "__init__", "compiler/driver.py") == 0
    assert _calls(stats, "asdict", "dataclasses.py") == 0
    assert _calls(stats, "<built-in method io.open>") == 36
    assert _calls(stats, "__init__", "dse/cache.py") == 1  # one handle per batch


# ---------------------------------------------------------------------------
# Nothing above may depend on hash order
# ---------------------------------------------------------------------------

_SWEEP_SCRIPT = """
import json
from repro.dse import DesignPoint, build_space, explore

def stable(result):
    frontier = [
        {k: v for k, v in record.items() if k != "eval_seconds"}
        for record in result.frontier
    ]
    for record in frontier:
        record["summary"].pop("compile_seconds")  # the other wall-clock field
    return {"frontier": frontier, "keys": [r["point_key"] for r in result.records]}

sweep = explore(build_space("small", suite=["atax", "mvt"]), use_cache=False)
search = explore(
    build_space("medium", suite=["atax", "mvt"]),
    use_cache=False, strategy="genetic", budget=12, seed=7,
)
print(json.dumps({"sweep": stable(sweep), "search": stable(search)}))
"""


def test_sweep_and_search_are_identical_under_any_hash_seed():
    """A fixed-seed 8-point sweep and a 12-budget genetic search, each in its
    own interpreter under ``PYTHONHASHSEED`` 0, 1 and a random value."""
    outputs = []
    for seed in ("0", "1", "random"):
        env = dict(
            os.environ, PYTHONPATH=os.pathsep.join(sys.path), PYTHONHASHSEED=seed
        )
        done = subprocess.run(
            [sys.executable, "-c", _SWEEP_SCRIPT],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    report = json.loads(outputs[0])
    assert len(report["sweep"]["keys"]) == 8 and len(report["search"]["keys"]) == 12
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_dse_identity.py --regen")
    _GOLDEN_PATH.write_text(json.dumps(_identity_table(), indent=1) + "\n")
    print(f"wrote {_GOLDEN_PATH}")
