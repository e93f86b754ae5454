"""The five workloads of the perf ledger.

Each workload drives the compiler through its public front doors only
(``Compiler.from_spec(...).run(workload=...)``, ``emit_hls_cpp``,
``repro.dse.explore``, ``validate_pipeline`` / ``fuzz_transforms``).
``round`` is what the clock covers; ``check``, ``designs`` and ``probe`` run
outside it.  A round calls ``pause()`` between its items: there the harness
runs a calibration chunk (and takes the time out of the round), so machine
speed is sampled across the round and not only at its ends.  The seed only
orders the items (and, for ``validate``, seeds
the interpreter inputs): the amount of work and every design produced are
the same for every seed, which is what lets ``py_calls`` and ``design_qor``
carry tight bounds.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
import traceback
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro import obs
from repro.analysis import fuzz_transforms, validate_pipeline
from repro.backend import emit_hls_cpp
from repro.compiler import DEFAULT_PIPELINE
from repro.compiler.ircache import IRSnapshotCache, workload_cache_key
from repro.dse import build_space, explore
from repro.ir.verifier import verify
from repro.workloads import get_workload, list_workloads

import config
from probes import (
    QOR_FIELDS,
    TimedIRCache,
    compile_design,
    probe_designs,
    probe_pareto,
    probe_qor_cache,
    probe_resolve,
    probe_verify_emit,
)
from spans import NULL, Tracer


def _pipeline(factor: int) -> str:
    return DEFAULT_PIPELINE.replace("parallelize", f"parallelize{{factor={factor}}}")


def _spec_hash(spec_text: str) -> str:
    return hashlib.sha256(spec_text.encode("utf-8")).hexdigest()[:12]


def design_key(workload: str, platform: str, spec_text: str, fidelity: str) -> str:
    return f"{workload}|{platform}|{_spec_hash(spec_text)}|{fidelity}"


def _qor(summary: Dict) -> Tuple[float, ...]:
    return tuple(float(summary[name]) for name in QOR_FIELDS)


def _record_designs(records: Sequence[Dict]) -> Dict[str, Tuple[float, ...]]:
    designs = {}
    for record in records:
        if "error" in record:
            continue
        key = design_key(
            record["label"].split("/")[0],
            record["point"]["platform"],
            record["pipeline_spec"],
            record.get("fidelity", "estimate"),
        )
        designs[key] = _qor(record["summary"])
    return designs


def frontier_digest(results: Sequence) -> str:
    """Identity of the frontiers of ``results``: members and objective values.

    One sweep over several workloads and one sweep per workload have the same
    digest, because ``explore`` extracts frontiers per workload either way.
    """
    rows = sorted(
        (
            record["label"],
            record.get("fidelity", "estimate"),
            [record["summary"].get(name) for name in result.objectives],
        )
        for result in results
        for record in result.frontier
    )
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()[:16]


def _records(results: Sequence) -> List[Dict]:
    return [record for result in results for record in result.records]


def _record_failures(results: Sequence) -> List[str]:
    return [
        f"{r.get('label')}: {r['error'].splitlines()[-1]}"
        for result in results
        for r in result.errors
    ]


def _no_pause() -> None:
    pass


def _by_workload(points: Sequence) -> List[List]:
    """``points`` grouped by workload, groups and members in given order."""
    groups: Dict[str, List] = {}
    for point in points:
        groups.setdefault(point.workload_spec().label(), []).append(point)
    return list(groups.values())


def _explore_each(groups: Sequence[Sequence], pause, **options) -> List:
    """One ``explore`` sweep per workload group, pausing after each."""
    results = []
    for group in groups:
        results.append(explore(group, **options))
        pause()
    return results


def _spread(points: Sequence, count: int) -> List:
    """``count`` points spread evenly over ``points`` in key order."""
    ordered = sorted(points, key=lambda point: point.key())
    if len(ordered) <= count:
        return ordered
    return [ordered[(i * len(ordered)) // count] for i in range(count)]


def _compile_points(tracer: Tracer, points: Sequence, ir_cache=None) -> List:
    return [
        compile_design(
            tracer,
            point.canonical_spec(),
            point.platform,
            point.workload_spec(),
            ir_cache=ir_cache,
        )
        for point in points
    ]


def _count_explore(tracer: Tracer, results: Sequence) -> None:
    """Counters the front doors already return, summed over ``results``."""
    records = _records(results)
    tracer.count("dse.points", len(records))
    tracer.count("dse.point_s", sum(r["eval_seconds"] for r in records))
    tracer.count("dse.explore_wall_s", sum(r.elapsed_seconds for r in results))
    tracer.count("dse.promotions", sum(r.num_promoted for r in results))
    tracer.count("dse.cache_hits", sum(r.cache_hits for r in results))
    tracer.count("ircache.prefix_hits", sum(r.prefix_hits for r in results))
    tracer.count("ircache.stages_skipped", sum(r.stages_skipped for r in results))


class Workload:
    """One workload: seeded inputs, a timed round, and untimed checks."""

    name = ""

    def __init__(self, seed: int, smoke: bool, scratch: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.scratch = scratch
        self.rng = random.Random(seed)
        self._dirs = 0

    def fresh_dir(self, tag: str) -> str:
        """A new directory under the run's scratch.  Nothing is deleted while
        a run measures (``bench.py`` removes the scratch when it ends): on
        ext4 creating a file costs several times more for seconds after a
        delete, which made ``cache-fill`` drift by 10 % over consecutive runs.
        """
        self._dirs += 1
        path = self.scratch / f"{tag}-{self._dirs}"
        path.mkdir(parents=True)
        return str(path)

    def prepare(self) -> None:
        """Build the inputs from the seed and pre-fill what the round needs."""

    def round(self, tracer: Tracer, pause=_no_pause):
        """The timed work; calls ``pause()`` after each of its items."""
        raise NotImplementedError

    def check(self, out) -> Tuple[int, List[str]]:
        """``(items attempted, one message per failed item)``."""
        raise NotImplementedError

    def designs(self, out) -> Dict[str, Tuple[float, ...]]:
        """``design key -> QoR summary`` of every design the round produced."""
        raise NotImplementedError

    def digests(self, out) -> Dict[str, str]:
        """``space name -> frontier digest`` (compared with ``golden.json``)."""
        return {}

    def item_seconds(self, out) -> List[float]:
        raise NotImplementedError

    def probe(self, tracer: Tracer, out) -> None:
        """Direct layer probes and counters of one traced round."""


# ---------------------------------------------------------------------------
# zoo-compile
# ---------------------------------------------------------------------------


class ZooCompile(Workload):
    name = "zoo-compile"

    def prepare(self) -> None:
        model_platform, model_factor = config.ZOO_MODEL_TARGET
        kernel_platform, kernel_factor = config.ZOO_KERNEL_TARGET
        models = list_workloads(kind="model")
        kernels = list_workloads(kind="kernel")
        if self.smoke:
            models = [name for name in models if name in config.SMOKE_ZOO]
            kernels = [name for name in kernels if name in config.SMOKE_ZOO]
        self.items = [(name, model_platform, _pipeline(model_factor)) for name in models]
        self.items += [(name, kernel_platform, _pipeline(kernel_factor)) for name in kernels]
        self.rng.shuffle(self.items)

    def round(self, tracer: Tracer, pause=_no_pause):
        out = []
        for name, platform, spec in self.items:
            entry = {"item": (name, platform, spec), "error": None}
            started = time.perf_counter()
            try:
                result = compile_design(tracer, spec, platform, name)
                with tracer.span("compiler.verify"):
                    entry["issues"] = verify(result.module, raise_on_error=False)
                with tracer.span("backend.emit"):
                    cpp = emit_hls_cpp(result.module)
                entry["qor"] = _qor(result.summary())
                entry["emitted"] = "void" in cpp
                # Only a traced round keeps the modules (its probes need them).
                # Held modules make every later item's garbage collections
                # dearer, so an untraced round would depend on item order.
                if tracer.enabled:
                    entry["result"] = result
                    entry["cpp_lines"] = cpp.count("\n") + 1
            except Exception:
                entry["error"] = traceback.format_exc(limit=6)
            entry["seconds"] = time.perf_counter() - started
            out.append(entry)
            pause()
        return out

    def check(self, out):
        failures = []
        for entry in out:
            name = entry["item"][0]
            if entry["error"]:
                failures.append(f"{name}: {entry['error'].splitlines()[-1]}")
            elif entry["issues"]:
                failures.append(f"{name}: verify: {entry['issues'][0]}")
            elif entry["qor"][0] <= 0:
                failures.append(f"{name}: throughput {entry['qor'][0]}")
            elif not entry["emitted"]:
                failures.append(f"{name}: emitted C++ has no function")
        return len(out), failures

    def designs(self, out):
        return {
            design_key(*entry["item"], "estimate"): entry["qor"]
            for entry in out
            if not entry["error"]
        }

    def item_seconds(self, out):
        return [entry["seconds"] for entry in out]

    def probe(self, tracer, out):
        results = [entry["result"] for entry in out if not entry["error"]]
        tracer.count(
            "backend.emit_lines", sum(entry["cpp_lines"] for entry in out if not entry["error"])
        )
        probe_resolve(tracer, [entry["item"][0] for entry in out])
        probe_designs(tracer, results, text_path=True, execute=True)
        # The enabled cost of repro.obs: the same round under a live session.
        obs.configure()
        try:
            with tracer.span("obs.enabled_round"):
                self.round(NULL)
        finally:
            obs.shutdown()


# ---------------------------------------------------------------------------
# kernel-dse
# ---------------------------------------------------------------------------


class KernelDse(Workload):
    name = "kernel-dse"

    def _draw(self):
        count = config.SMOKE_DSE_SAMPLE if self.smoke else config.DSE_SAMPLE
        return build_space("full").sample(count, config.DSE_SAMPLE_SEED)

    def prepare(self) -> None:
        self.points = self._draw().points
        self.rng.shuffle(self.points)
        self.groups = _by_workload(self.points)

    def round(self, tracer: Tracer, pause=_no_pause):
        with tracer.span("dse.explore"):
            return _explore_each(
                self.groups,
                pause,
                workers=1,
                use_cache=False,
                fidelity="simulate",
                promote_top=config.DSE_PROMOTE_TOP,
            )

    def check(self, out):
        failures = _record_failures(out)
        for result in out:
            scored = [r for r in result.records if "error" not in r]
            base = sum(1 for r in scored if r["fidelity"] == "estimate")
            promoted = sum(1 for r in scored if r["fidelity"] == "simulate")
            expected = max(1, math.ceil(config.DSE_PROMOTE_TOP * base)) if base else 0
            if promoted != expected:
                failures.append(
                    f"{result.records[0]['label']}: {promoted} simulate records, "
                    f"promotion quota is {expected}"
                )
        return len(_records(out)), failures

    def designs(self, out):
        return _record_designs(_records(out))

    def digests(self, out):
        return {"kernel-dse": frontier_digest(out)}

    def item_seconds(self, out):
        return [record["eval_seconds"] for record in _records(out)]

    def probe(self, tracer, out):
        _count_explore(tracer, out)
        with tracer.span("dse.space_build"):
            self._draw()
        probe_pareto(tracer, _records(out), out[0].objectives)
        sample = _spread(self.points, config.PROBE_DESIGNS)
        probe_resolve(tracer, [point.workload for point in sample])
        results = _compile_points(tracer, sample)
        probe_verify_emit(tracer, results)
        probe_designs(tracer, results, text_path=True, execute=True)


# ---------------------------------------------------------------------------
# cache-fill / cache-replay
# ---------------------------------------------------------------------------


class _CacheWorkload(Workload):
    def _points(self) -> List:
        suite = config.SMOKE_CACHE_SUITE if self.smoke else config.CACHE_SUITE
        points = build_space("small", suite=suite).points
        self.rng.shuffle(points)
        return points

    def expected_snapshots(self) -> int:
        """Distinct stage-boundary snapshots a cold fill of the space stores."""
        keys = set()
        for point in self.points:
            compiler = point.compiler()
            hashes = compiler.prefix_hashes()
            workload_key = workload_cache_key(point.workload_spec())
            for boundary in compiler.snapshot_boundaries():
                keys.add((workload_key, point.platform, hashes[boundary]))
        return len(keys)

    def stored_snapshots(self, ir_dir: str) -> int:
        """Snapshot entries under ``ir_dir`` (frontend-fingerprint memos excluded)."""
        cache = IRSnapshotCache(ir_dir)
        workload_keys = {workload_cache_key(p.workload_spec()) for p in self.points}
        memos = sum(1 for key in workload_keys if cache.get_fingerprint(key) is not None)
        return len(cache) - memos

    def probe_common(self, tracer, records, results) -> None:
        probe_qor_cache(tracer, records, self.fresh_dir("probe-qor"))
        probe_resolve(tracer, sorted({point.workload for point in self.points}))
        probe_designs(
            tracer, results[: config.PROBE_DESIGNS], text_path=False, execute=False
        )


class CacheFill(_CacheWorkload):
    name = "cache-fill"

    def prepare(self) -> None:
        self.points = self._points()
        self.snapshots = self.expected_snapshots()
        self.groups = _by_workload(self.points)
        self.uncached_digest = frontier_digest([explore(self.points, use_cache=False)])

    def round(self, tracer: Tracer, pause=_no_pause):
        qor_dir, ir_dir = self.fresh_dir("qor"), self.fresh_dir("ir")
        with tracer.span("dse.explore"):
            results = _explore_each(
                self.groups,
                pause,
                cache_dir=qor_dir,
                ir_cache=True,
                ir_cache_dir=ir_dir,
            )
        return {"results": results, "dirs": (qor_dir, ir_dir)}

    def check(self, out):
        results = out["results"]
        failures = _record_failures(results)
        stored = self.stored_snapshots(out["dirs"][1])
        if stored != self.snapshots:
            failures.append(
                f"{stored} snapshots stored, {self.snapshots} expected "
                "(a snapshot failed its store-time self-check)"
            )
        digest = frontier_digest(results)
        if digest != self.uncached_digest:
            failures.append(f"cold frontier {digest} != uncached {self.uncached_digest}")
        return len(_records(results)), failures

    def designs(self, out):
        return _record_designs(_records(out["results"]))

    def digests(self, out):
        return {"cache-small": frontier_digest(out["results"])}

    def item_seconds(self, out):
        return [record["eval_seconds"] for record in _records(out["results"])]

    def probe(self, tracer, out):
        _count_explore(tracer, out["results"])
        cache = TimedIRCache(self.fresh_dir("probe-ir"), tracer)
        # explore() compiles prefix-sharing points back to back; so does this.
        ordered = sorted(
            self.points, key=lambda p: (p.workload, p.platform, p.canonical_spec())
        )
        results = _compile_points(tracer, ordered, ir_cache=cache)
        tracer.count("ircache.stores", cache.stores)
        tracer.count("ircache.exec_verified", cache.exec_verified)
        tracer.count("ircache.exec_skipped", cache.exec_skipped)
        tracer.count("ircache.verify_failures", cache.verify_failures)
        self.probe_common(tracer, _records(out["results"]), results)


class CacheReplay(_CacheWorkload):
    name = "cache-replay"

    def prepare(self) -> None:
        self.points = self._points()
        self.qor_dir, self.ir_dir = self.fresh_dir("qor"), self.fresh_dir("ir")
        fill = explore(
            self.points, cache_dir=self.qor_dir, ir_cache=True, ir_cache_dir=self.ir_dir
        )
        self.fill_digest = frontier_digest([fill])
        self.hit_passes = 2 if self.smoke else config.REPLAY_HIT_PASSES
        self.resume_passes = 1 if self.smoke else config.REPLAY_RESUME_PASSES

    def round(self, tracer: Tracer, pause=_no_pause):
        hits, resumes = [], []
        for _ in range(self.hit_passes):
            with tracer.span("dse.hit_pass"):
                hits.append(
                    explore(
                        self.points,
                        cache_dir=self.qor_dir,
                        ir_cache=True,
                        ir_cache_dir=self.ir_dir,
                    )
                )
            pause()
        for _ in range(self.resume_passes):
            with tracer.span("dse.resume_pass"):
                resumes.append(
                    explore(
                        self.points,
                        use_cache=False,
                        ir_cache=True,
                        ir_cache_dir=self.ir_dir,
                    )
                )
            pause()
        return {"hits": hits, "resumes": resumes}

    def check(self, out):
        failures = []
        attempted = 0
        for kind, results in out.items():
            for result in results:
                attempted += len(result.records)
                failures += _record_failures([result])
                if kind == "hits" and result.cache_hits != len(self.points):
                    failures.append(
                        f"all-hit pass served {result.cache_hits}/{len(self.points)} from cache"
                    )
                if kind == "resumes" and result.prefix_hits < len(self.points):
                    failures.append(
                        f"resume pass resumed {result.prefix_hits}/{len(self.points)} points"
                    )
                digest = frontier_digest([result])
                if digest != self.fill_digest:
                    failures.append(f"{kind} frontier {digest} != fill {self.fill_digest}")
        return attempted, failures

    def designs(self, out):
        return _record_designs(out["hits"][0].records + out["resumes"][0].records)

    def digests(self, out):
        return {"cache-small": frontier_digest(out["resumes"][:1])}

    def item_seconds(self, out):
        return [
            record["eval_seconds"]
            for results in out.values()
            for result in results
            for record in result.records
        ]

    def probe(self, tracer, out):
        _count_explore(tracer, out["hits"] + out["resumes"])
        with tracer.span("dse.uncached_pass"):
            explore(self.points, use_cache=False)
        cache = TimedIRCache(self.ir_dir, tracer)
        results = _compile_points(tracer, self.points, ir_cache=cache)
        self.probe_common(tracer, out["hits"][0].records, results)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


class Validate(Workload):
    name = "validate"

    def prepare(self) -> None:
        kernels = config.SMOKE_VALIDATE_KERNELS if self.smoke else config.VALIDATE_KERNELS
        self.handles = [get_workload(name).at(**params) for name, params in kernels]
        self.rng.shuffle(self.handles)
        self.fuzz_count = config.SMOKE_FUZZ_COUNT if self.smoke else config.FUZZ_COUNT
        self._designs = None

    def round(self, tracer: Tracer, pause=_no_pause):
        reports, seconds = [], []
        for handle in self.handles:
            started = time.perf_counter()
            with tracer.span("analysis.tv"):
                reports.append(
                    validate_pipeline(
                        handle,
                        platform=config.VALIDATE_PLATFORM,
                        seed=self.seed,
                        tolerance=config.VALIDATE_TOLERANCES.get(handle.name, 0.0),
                    )
                )
            seconds.append(time.perf_counter() - started)
            pause()
        started = time.perf_counter()
        with tracer.span("analysis.fuzz"):
            fuzz = fuzz_transforms(count=self.fuzz_count, seed=config.FUZZ_SEED)
        fuzz_seconds = time.perf_counter() - started
        pause()
        return {
            "reports": reports,
            "fuzz": fuzz,
            "seconds": seconds,
            "fuzz_seconds": fuzz_seconds,
        }

    def check(self, out):
        failures = [
            f"{report.workload}: {report.error or report.mismatches[0].mismatches[:1]}"
            for report in out["reports"]
            if not report.ok
        ]
        failures += out["fuzz"].failures
        return len(out["reports"]) + out["fuzz"].applications, failures

    def _compile(self, tracer: Tracer) -> List:
        return [
            compile_design(tracer, DEFAULT_PIPELINE, config.VALIDATE_PLATFORM, handle)
            for handle in self.handles
        ]

    def designs(self, out):
        # validate_pipeline returns checks, not the design: compile each kernel
        # once per process (untimed, in the warm-up) so the QoR of what was
        # validated is on record.
        if self._designs is None:
            self._designs = {
                design_key(
                    handle.workload_id, config.VALIDATE_PLATFORM, DEFAULT_PIPELINE, "estimate"
                ): _qor(result.summary())
                for handle, result in zip(self.handles, self._compile(NULL))
            }
        return self._designs

    def item_seconds(self, out):
        applications = max(1, out["fuzz"].applications)
        return out["seconds"] + [out["fuzz_seconds"] / applications] * applications

    def probe(self, tracer, out):
        checks = [check for report in out["reports"] for check in report.checks]
        tracer.count("analysis.tv_checks", len(checks))
        tracer.count(
            "analysis.tv_skipped", sum(c.outcome == "skipped-budget" for c in checks)
        )
        tracer.count("analysis.fuzz_applications", out["fuzz"].applications)
        tracer.count("analysis.fuzz_rejected", out["fuzz"].rejected)
        probe_resolve(tracer, [handle.workload_id for handle in self.handles])
        results = self._compile(tracer)
        probe_verify_emit(tracer, results)
        probe_designs(tracer, results, text_path=True, execute=True)


WORKLOADS = {
    cls.name: cls for cls in (ZooCompile, KernelDse, CacheFill, CacheReplay, Validate)
}
