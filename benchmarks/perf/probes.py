"""Where the per-layer numbers come from: observer spans and direct probes.

Three sources, none of which edits ``src/``:

* :class:`StageObserver`, a ``PipelineObserver`` attached through the public
  ``observers=`` hook, turns ``Compiler.run``'s callbacks into spans;
* :class:`TimedIRCache`, an ``IRSnapshotCache`` subclass handed in through
  the public ``ir_cache=`` parameter, times ``store`` / ``load`` and mirrors
  their print -> parse -> interpret steps on the same objects;
* ``probe_*`` functions make direct timed calls into each layer's public
  functions on the designs a round produced.

Probes run after the front-door calls of a traced round, outside the time
``host.round_s`` covers.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.analysis import analyze_module, band_dependences
from repro.backend import emit_hls_cpp
from repro.compiler import Compiler, PipelineObserver
from repro.compiler.ircache import IRSnapshotCache
from repro.dse import QoRCache, hypervolume, hypervolume_reference, pareto_frontier
from repro.estimation import QoREstimator
from repro.estimation.qor import simulate_design
from repro.hida.analysis import collect_band_infos
from repro.hida.parallelize import count_misalignments
from repro.ir import interp
from repro.ir.parser import parse_op
from repro.ir.printer import fingerprint_op, print_op
from repro.ir.verifier import verify
from repro.workloads import get_workload

import config
from spans import Tracer

#: QoR fields kept per design in ``golden.json`` and compared for drift.
QOR_FIELDS = ("throughput", "latency_cycles", "interval_cycles", "lut", "ff", "dsp", "bram")


def count_ops(module) -> int:
    return sum(1 for _ in module.walk())


class StageObserver(PipelineObserver):
    """Records one span per ``Compiler.run`` phase on the benchmark's tracer.

    ``begin_run`` opens ``compiler.run`` and, under it, ``frontend.build``
    (registry resolution, frontend trace or IR-cache resume — everything up
    to ``on_pipeline_start``).  Each stage becomes ``compiler.stage.<name>``.
    What is left of ``compiler.run`` after its children is the driver's own
    time.  The IR op counts the observer takes cost time inside the run, so
    they sit in their own ``trace.observer`` span and are not charged to the
    driver.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._run = self._front = self._stage = -1

    def begin_run(self) -> None:
        self._run = self.tracer.begin("compiler.run")
        self._front = self.tracer.begin("frontend.build")

    def end_run(self) -> float:
        return self.tracer.end(self._run)

    def on_pipeline_start(self, compiler, module) -> None:
        self.tracer.end(self._front)
        with self.tracer.span("trace.observer"):
            self.tracer.count("frontend.ir_ops", count_ops(module))

    def on_stage_start(self, stage, state) -> None:
        self._stage = self.tracer.begin(f"compiler.stage.{stage.name}")

    def on_stage_end(self, stage, state, seconds: float) -> None:
        self.tracer.end(self._stage)
        with self.tracer.span("trace.observer"):
            self.tracer.count(
                f"compiler.stage.{stage.name}_ir_ops", count_ops(state.module)
            )


def compile_design(tracer: Tracer, spec, platform: str, workload, ir_cache=None):
    """``Compiler.from_spec(spec).run(workload=...)``, traced when enabled."""
    if not tracer.enabled:
        return Compiler.from_spec(spec, platform=platform).run(
            workload=workload, ir_cache=ir_cache
        )
    observer = StageObserver(tracer)
    with tracer.span("compiler.spec_build"):
        compiler = Compiler.from_spec(spec, platform=platform, observers=[observer])
    observer.begin_run()
    try:
        return compiler.run(workload=workload, ir_cache=ir_cache)
    finally:
        observer.end_run()


class TimedIRCache(IRSnapshotCache):
    """An IR snapshot cache that times itself on the benchmark's tracer.

    After a successful ``store`` the same module is printed, parsed,
    re-printed and interpreted twice under ``ir.*`` spans — the steps
    ``store``'s self-check performs — so the trace can say how much of
    ``ircache.store_s`` they explain.  After a ``load`` hit the rehydrated
    module is printed, parsed and fingerprinted the same way.
    """

    def __init__(self, root, tracer: Tracer) -> None:
        super().__init__(root)
        self.tracer = tracer

    def store(self, workload_key, platform, prefix_hash, state) -> bool:
        with self.tracer.span("ircache.store"):
            stored = super().store(workload_key, platform, prefix_hash, state)
        if stored:
            with self.tracer.span("trace.mirror"):
                clone = _mirror_text_path(self.tracer, state.module, reprint=True)
                for module in (state.module, clone):
                    interpret_probe(self.tracer, module)
        return stored

    def load(self, workload_key, platform, prefix_hash):
        with self.tracer.span("ircache.load"):
            restored = super().load(workload_key, platform, prefix_hash)
        if restored is not None:
            with self.tracer.span("trace.mirror"):
                _mirror_text_path(self.tracer, restored[0], reprint=False)
                with self.tracer.span("ir.fingerprint"):
                    fingerprint_op(restored[0])
        return restored


def _mirror_text_path(tracer: Tracer, module, reprint: bool):
    with tracer.span("ir.print"):
        text = print_op(module)
    tracer.count("ir.print_lines", text.count("\n") + 1)
    with tracer.span("ir.parse"):
        clone = parse_op(text)
    if reprint:
        with tracer.span("ir.print"):
            print_op(clone)
    return clone


def interpret_probe(tracer: Tracer, module) -> None:
    """One timed ``interpret_module`` call; budget refusals are counted."""
    with tracer.span("ir.interp"):
        try:
            result = interp.interpret_module(
                module, seed=0, max_ops=config.PROBE_INTERP_MAX_OPS
            )
        except interp.InterpreterError:
            tracer.count("ir.interp_skipped")
            return
    tracer.count("ir.interp_ops", result.ops_executed)


def probe_resolve(tracer: Tracer, workload_ids: Sequence[str]) -> None:
    for workload_id in workload_ids:
        with tracer.span("workloads.resolve"):
            get_workload(workload_id)


def probe_designs(tracer: Tracer, results: Sequence, text_path: bool, execute: bool) -> None:
    """Direct timed calls into every layer, over compiled designs.

    ``text_path`` adds the printer / parser / fingerprint probes and
    ``execute`` the interpreter probe; the cache workloads leave them off
    because there those layers are measured where the cache calls them.
    """
    tracer.count("host.probe_designs", len(results))
    for result in results:
        module = result.module
        if text_path:
            _mirror_text_path(tracer, module, reprint=False)
            with tracer.span("ir.fingerprint"):
                fingerprint_op(module)
        if execute:
            interpret_probe(tracer, module)
        with tracer.span("analysis.lint"):
            analyze_module(module, platform=result.options.platform)
        estimator = QoREstimator(result.platform)
        for schedule in result.schedules:
            with tracer.span("hida.band_infos"):
                infos = collect_band_infos(schedule)
            with tracer.span("hida.misalign"):
                count_misalignments(schedule)
            for info in infos:
                if info.band:
                    with tracer.span("analysis.dependence"):
                        band_dependences(info.band)
                    tracer.count("analysis.dependence_bands")
            with tracer.span("estimation.estimate"):
                estimator.estimate_schedule(schedule)
            tracer.count("estimation.sim_nodes", len(schedule.nodes))
        with tracer.span("estimation.simulate"):
            simulate_design(result.schedules, result.estimate, result.platform)


def probe_verify_emit(tracer: Tracer, results: Sequence) -> None:
    """``verify`` + ``emit_hls_cpp`` probes for workloads whose front door
    does not call them (zoo-compile calls both itself)."""
    for result in results:
        with tracer.span("compiler.verify"):
            verify(result.module, raise_on_error=False)
        with tracer.span("backend.emit"):
            text = emit_hls_cpp(result.module)
        tracer.count("backend.emit_lines", text.count("\n") + 1)


def probe_pareto(tracer: Tracer, records: List[Dict], objectives: Sequence[str]) -> None:
    scored = [r for r in records if "error" not in r]
    groups: Dict[str, List[Dict]] = {}
    for record in scored:
        groups.setdefault(str(record.get("workload")), []).append(record)
    with tracer.span("dse.pareto"):
        for name in sorted(groups):
            frontier = pareto_frontier(groups[name], objectives)
            reference = hypervolume_reference(groups[name], objectives)
            if reference is not None:
                hypervolume(frontier, objectives, reference)


def probe_qor_cache(tracer: Tracer, records: List[Dict], root: str) -> None:
    """Timed ``QoRCache.put`` then ``get`` of each record's payload."""
    cache = QoRCache(root)
    payloads = [
        (
            f"probe|{r['point_key']}|{r.get('fidelity')}",
            {k: r[k] for k in ("summary", "estimate", "fits")},
        )
        for r in records
        if "error" not in r
    ]
    for key, payload in payloads:
        with tracer.span("dse.cache_put"):
            cache.put(key, payload)
    for key, _ in payloads:
        with tracer.span("dse.cache_get"):
            cache.get(key)
