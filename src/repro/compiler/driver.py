"""The ``Compiler`` front door: run a pipeline spec with observer hooks.

``Compiler.from_spec("construct-dataflow,...,estimate", platform="zu3eg")``
builds a stage list from the registry; ``.run_stages(module)`` threads a
:class:`~repro.compiler.stages.CompilationState` through the stages and
returns that state, the one record of the compile; ``.run(module)`` is the
same plus a check that the pipeline produced a QoR estimate.  Programmatic
callers that only *vary* the default pipeline (ablations, DSE knob points)
build typed stages with :func:`default_stages` and hand them to
``Compiler(stages, platform=...)`` — no text round trip.

Every run records per-stage wall-clock seconds on
``CompilationState.stage_timings`` and, under a live :mod:`repro.obs` session,
one ``cat="stage"`` span per stage.  Observers (:class:`PipelineObserver`)
receive per-stage begin/end events, per-stage IR snapshots
(:class:`SnapshotObserver`) and structured diagnostics
(:class:`DiagnosticsObserver`) as they are emitted.

``CompilationState.rec_mii``, the recurrence bounds the ``parallelize``
stage proved, describes the loops as that stage left them: the stage loop
drops it after any later stage that is not a check.
"""

from __future__ import annotations

import functools
import time
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .. import obs
from ..estimation.platform import get_platform
from ..ir.builtin import ModuleOp
from .ircache import IRSnapshotCache, workload_cache_key
from .spec import CHECK_STAGES, PipelineSpec, PipelineSpecError, parse_pipeline
from .stages import (
    CompilationStage,
    CompilationState,
    CompileOptions,
    Diagnostic,
    _ZERO_IR_STATS,
    build_stages,
    get_stage_class,
)

__all__ = [
    "Compiler",
    "PipelineObserver",
    "SnapshotObserver",
    "DiagnosticsObserver",
    "DEFAULT_PIPELINE",
    "default_stages",
]

#: The canonical Figure-3 pipeline with every optimization enabled.
DEFAULT_PIPELINE = (
    "construct-dataflow,fuse-tasks,lower-linalg,lower-structural,"
    "eliminate-multi-producers,balance,tile,parallelize,estimate"
)


def default_stages(
    drop: Iterable[str] = (), **options: Mapping[str, object]
) -> List[CompilationStage]:
    """Typed stages of :data:`DEFAULT_PIPELINE`, minus ``drop``, reconfigured.

    ``drop`` names stages to leave out; each keyword names a stage (``_``
    for ``-``) and maps to that stage's own constructor options::

        default_stages(drop=["fuse-tasks"], tile={"size": 8},
                       parallelize={"factor": 64, "target_ii": 2})

    This is how ablations and DSE knob points express "the Figure-3 flow
    with this stage dropped or reconfigured" without a text round trip;
    ``Compiler(default_stages(...), platform=...)`` runs the result and
    ``.spec_text()`` prints its canonical spec.
    """
    names = DEFAULT_PIPELINE.split(",")
    dropped = set(drop)
    configured = {key.replace("_", "-"): values for key, values in options.items()}
    unknown = sorted((dropped | set(configured)) - set(names))
    if unknown:
        raise PipelineSpecError(
            f"{', '.join(map(repr, unknown))} not in the default pipeline; "
            f"its stages: {', '.join(names)}"
        )
    return [
        get_stage_class(name)(**configured.get(name, {}))
        for name in names
        if name not in dropped
    ]


# ---------------------------------------------------------------------------
# Observers
# ---------------------------------------------------------------------------


class PipelineObserver:
    """Hook interface for watching a pipeline run; all methods are no-ops."""

    def on_pipeline_start(self, compiler: "Compiler", module: ModuleOp) -> None:
        pass

    def on_stage_start(self, stage: CompilationStage, state: CompilationState) -> None:
        pass

    def on_stage_end(
        self, stage: CompilationStage, state: CompilationState, seconds: float
    ) -> None:
        pass

    def on_diagnostic(self, diagnostic: Diagnostic) -> None:
        pass

    def on_pipeline_end(self, result) -> None:
        pass


class SnapshotObserver(PipelineObserver):
    """Captures a printed-IR snapshot of the module after every stage."""

    def __init__(self, stages: Optional[Sequence[str]] = None) -> None:
        #: Restrict snapshots to these stage names (None = every stage).
        self.only = set(stages) if stages is not None else None
        self.snapshots: List[tuple] = []

    def on_stage_end(self, stage, state, seconds: float) -> None:
        if self.only is not None and stage.name not in self.only:
            return
        from ..ir.printer import print_op

        self.snapshots.append((stage.name, print_op(state.module)))


class DiagnosticsObserver(PipelineObserver):
    """Collects every structured diagnostic emitted during the run."""

    def __init__(self) -> None:
        self.diagnostics: List[Diagnostic] = []

    def on_diagnostic(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)


# ---------------------------------------------------------------------------
# The Compiler
# ---------------------------------------------------------------------------


class Compiler:
    """A composed compilation pipeline bound to a target platform."""

    def __init__(
        self,
        stages: Sequence[CompilationStage],
        platform: str = "vu9p-slr",
        observers: Sequence[PipelineObserver] = (),
    ) -> None:
        self.stages: List[CompilationStage] = list(stages)
        self.platform = platform
        self.observers: List[PipelineObserver] = list(observers)

    # ------------------------------------------------------------- builders
    @classmethod
    def from_spec(
        cls,
        spec: Union[str, PipelineSpec],
        platform: str = "vu9p-slr",
        observers: Sequence[PipelineObserver] = (),
    ) -> "Compiler":
        """Build a compiler from a textual (or parsed) pipeline spec."""
        parsed = parse_pipeline(spec) if isinstance(spec, str) else spec
        return cls(build_stages(parsed), platform=platform, observers=observers)

    # ----------------------------------------------------------------- spec
    def spec(self) -> PipelineSpec:
        """Canonical spec of this pipeline (defaults omitted, stable order)."""
        return PipelineSpec([stage.to_spec() for stage in self.stages])

    def spec_text(self) -> str:
        return self.spec().print()

    def spec_hash(self) -> str:
        return self.spec().spec_hash()

    def _emit_diagnostic(
        self, errors: List[Diagnostic], diagnostic: Diagnostic
    ) -> None:
        obs.event(
            "diagnostic",
            cat="pipeline",
            stage=diagnostic.stage,
            severity=diagnostic.severity,
            message=diagnostic.message,
        )
        self._dispatch(errors, "on_diagnostic", diagnostic)

    def _dispatch(
        self, errors: List[Diagnostic], hook: str, *args, _depth: int = 0
    ) -> None:
        """Call ``hook`` on every observer, isolating observer faults.

        An observer that raises must not abort the compilation it is merely
        watching: the exception is swallowed, recorded as a structured
        ``observer-error`` diagnostic (appended to ``errors``, the run's
        :attr:`CompilationState.observer_errors`, and fanned out through
        ``on_diagnostic``) and counted on the telemetry session.  ``_depth``
        caps the recursion when an ``on_diagnostic`` hook itself fails
        while reporting a failure.
        """
        for observer in self.observers:
            try:
                getattr(observer, hook)(*args)
            except Exception as error:
                if _depth >= 1:
                    continue
                diagnostic = Diagnostic(
                    stage="observer-error",
                    severity="warning",
                    message=(
                        f"{type(observer).__name__}.{hook} raised "
                        f"{type(error).__name__}: {error}"
                    ),
                    data={
                        "observer": type(observer).__name__,
                        "hook": hook,
                        "error": type(error).__name__,
                    },
                )
                errors.append(diagnostic)
                obs.event(
                    "observer-error",
                    cat="pipeline",
                    observer=type(observer).__name__,
                    hook=hook,
                    error=type(error).__name__,
                )
                obs.inc("compiler.observer_errors")
                self._dispatch(
                    errors, "on_diagnostic", diagnostic, _depth=_depth + 1
                )

    # -------------------------------------------------- incremental helpers
    def snapshot_boundaries(self) -> List[int]:
        """Stage counts ``i`` whose exit boundary is snapshot-reconstructible.

        A boundary after ``stages[:i]`` is usable only when *every* stage in
        that prefix declares :attr:`~CompilationStage.snapshot_safe` — one
        unsafe stage poisons all later boundaries, because its (module-
        external) results would be missing from any resumed state.
        """
        boundaries: List[int] = []
        for i, stage in enumerate(self.stages, start=1):
            if not stage.snapshot_safe:
                break
            boundaries.append(i)
        return boundaries

    def prefix_hashes(self) -> List[str]:
        """``prefix_hashes()[i]`` hashes the canonical spec of ``stages[:i]``."""
        specs = [stage.to_spec().print() for stage in self.stages]
        return [
            IRSnapshotCache.prefix_hash(",".join(specs[:i]))
            for i in range(len(specs) + 1)
        ]

    # ------------------------------------------------------------ execution
    def run_stages(
        self,
        module: Optional[ModuleOp] = None,
        *,
        workload=None,
        ir_cache: Optional[IRSnapshotCache] = None,
        keys: Optional[Tuple[str, Sequence[str]]] = None,
    ) -> CompilationState:
        """Run every stage over ``module`` (modified in place).

        Instead of a pre-built module, ``workload`` accepts what the
        :mod:`repro.workloads` registry resolves — a workload id such as
        ``"resnet18@batch=4"`` or a bound :class:`~repro.workloads.Workload`
        handle — and builds the module first
        (``Compiler.from_spec(...).run(workload="2mm")``).  Given both,
        ``module`` is the already-built form of ``workload``, which then
        only names the input for the IR cache.

        With an :class:`~repro.compiler.ircache.IRSnapshotCache`, the run
        first probes for the *longest* cached snapshot-safe stage prefix of
        this pipeline and, on a hit, rehydrates the compilation state from
        printed IR and resumes mid-pipeline — skipping the frontend trace
        entirely on the workload path.  On a miss it compiles normally and
        stores a snapshot at every snapshot-safe boundary it crosses.
        Snapshots are keyed by ``workload``'s registry identity or, for raw
        modules, by the module's content fingerprint.  Counters for the run
        land in the state's ``ir_cache_stats``; results are bit-for-bit
        independent of the cache (snapshots self-verify at store time), with
        one observable difference: skipped stages emit no diagnostics and
        re-run no observers.

        ``ir_cache`` may be any store speaking that ``load``/``store``
        protocol; two class attributes complete it.  ``first_boundary`` is
        the first boundary it serves: 1 for the IR cache, 0 for a store
        that also holds the frontend module (the state before any stage),
        such as a DSE prefix group's :class:`~repro.dse.sharing.SharedPrefixes`.
        ``counters`` is the :mod:`repro.obs` namespace the run's counters
        land under (``ir_cache`` without a store).  ``keys`` is
        ``(workload_cache_key(workload), self.prefix_hashes())`` when the
        caller has both already (a DSE prefix group plans each point's
        keys before it compiles), so the run does not compute them again.

        Returns the :class:`~repro.compiler.stages.CompilationState` the
        stages filled, with the run's ``ir_cache_stats`` and
        ``observer_errors``; its diagnostic sink is cleared, so it keeps no
        observer alive.  Any pipeline is legal here — one without an
        ``estimate`` stage leaves ``state.estimate`` None; :meth:`run` is
        this plus the estimate check and the ``on_pipeline_end`` hook.
        """
        if module is not None and not isinstance(module, ModuleOp):
            # Convenience: run("2mm") / run(handle) resolve via the registry.
            if workload is not None:
                raise TypeError("pass the workload once, not also as the module")
            workload, module = module, None
        if workload is None and module is None:
            raise TypeError("Compiler.run() needs a module or workload=...")

        namespace = "ir_cache" if ir_cache is None else ir_cache.counters
        options = CompileOptions(self.platform)
        stats = dict(_ZERO_IR_STATS)

        def count(key: str, amount: int = 1) -> None:
            # Per-run stats plus the live obs session (no-op if disabled).
            stats[key] += amount
            obs.inc(f"{namespace}.{key}", amount)

        # The printed spec is only a span attribute: no session, no print.
        spec = {"spec": self.spec_text()} if obs.enabled() else {}
        with obs.span(
            "compile", cat="pipeline", platform=self.platform, **spec
        ) as run_span:
            workload_key: Optional[str] = None
            if ir_cache is not None:
                refused_before = ir_cache.refused
                if keys is not None:
                    workload_key = keys[0]
                elif workload is not None:
                    workload_key = workload_cache_key(workload)
                else:
                    # Raw modules have no registry identity; their content
                    # fingerprint still lets identical inputs share snapshots.
                    from ..ir.printer import fingerprint_op

                    workload_key = f"fp:{fingerprint_op(module)}"

            state: Optional[CompilationState] = None
            # The boundary the state was restored at (-1: built from a module).
            resume_index = -1
            boundaries = []
            if workload_key is not None:
                boundaries = [
                    i
                    for i in (0, *self.snapshot_boundaries())
                    if i >= ir_cache.first_boundary
                ]
            hashes: Sequence[str] = []
            if boundaries:
                hashes = self.prefix_hashes() if keys is None else keys[1]
            for i in reversed(boundaries):
                restored = ir_cache.load(workload_key, self.platform, hashes[i])
                if restored is None:
                    continue
                module, schedules, balance_report, misalignments = restored
                state = CompilationState(
                    module=module,
                    platform=get_platform(self.platform),
                    schedules=schedules,
                    balance_report=balance_report,
                    misalignments=misalignments,
                    options=options,
                    ir_cache_stats=stats,
                )
                resume_index = i
                count("prefix_hits")
                count("stages_skipped", i)
                obs.event(
                    "ircache.resume",
                    cat="cache",
                    skipped=i,
                    prefix=hashes[i][:12],
                )
                break

            if state is None:
                if module is None:
                    from ..workloads import as_module

                    with obs.span(
                        "frontend-trace", cat="frontend", workload=str(workload)[:80]
                    ):
                        module = as_module(workload)
                    count("frontend_traces")
                state = CompilationState(
                    module=module,
                    platform=get_platform(self.platform),
                    options=options,
                    ir_cache_stats=stats,
                )
            errors = state.observer_errors
            state._sink = functools.partial(self._emit_diagnostic, errors)

            def snapshot(boundary: int) -> None:
                if (
                    boundary in boundaries
                    and boundary > resume_index
                    and ir_cache.store(
                        workload_key, self.platform, hashes[boundary], state
                    )
                ):
                    count("snapshots_stored")

            start = time.perf_counter()
            self._dispatch(errors, "on_pipeline_start", self, module)
            snapshot(0)
            for index, stage in enumerate(self.stages):
                if index < resume_index:
                    continue  # resumed past this stage from a snapshot
                self._dispatch(errors, "on_stage_start", stage, state)
                rec_mii = state.rec_mii
                # A stage that raises still closes its span (``error`` attr).
                with obs.span(stage.name, cat="stage") as stage_span:
                    stage_start = time.perf_counter()
                    stage.run(state)
                    elapsed = time.perf_counter() - stage_start
                    stage_span.set_attr(seconds=round(elapsed, 6))
                if state.rec_mii is rec_mii and stage.name not in CHECK_STAGES:
                    # Proven before a stage that may have reshaped the loops.
                    state.rec_mii = None
                state.stage_timings.append((stage.name, elapsed))
                self._dispatch(errors, "on_stage_end", stage, state, elapsed)
                count("stages_run")
                snapshot(index + 1)
            if ir_cache is not None:
                # The cache counts (and reports) its own refusals as they
                # happen; the run only records how many were its own.
                stats["snapshots_refused"] = ir_cache.refused - refused_before
            state.compile_seconds = time.perf_counter() - start
            run_span.set_attr(compile_seconds=round(state.compile_seconds, 6))
        state._sink = None
        return state

    def run(
        self,
        module: Optional[ModuleOp] = None,
        *,
        workload=None,
        ir_cache: Optional[IRSnapshotCache] = None,
        keys: Optional[Tuple[str, Sequence[str]]] = None,
    ) -> CompilationState:
        """:meth:`run_stages`, checked for a QoR estimate.

        Raises :class:`~repro.compiler.spec.PipelineSpecError` when the
        pipeline produced no QoR estimate (i.e. it lacks an ``estimate``
        stage); :meth:`run_stages` is the entry point for such pipelines.
        Observers' ``on_pipeline_end`` receives the returned state.
        """
        state = self.run_stages(module, workload=workload, ir_cache=ir_cache, keys=keys)
        if state.estimate is None:
            raise PipelineSpecError(
                f"pipeline {self.spec_text()!r} produced no QoR estimate; "
                "append an 'estimate' stage (run_stages() runs partial "
                "pipelines)"
            )
        self._dispatch(state.observer_errors, "on_pipeline_end", state)
        return state

    def __repr__(self) -> str:
        return f"Compiler({self.spec_text()!r}, platform={self.platform!r})"
