"""The ``Compiler`` front door: run a pipeline spec with observer hooks.

``Compiler.from_spec("construct-dataflow,...,estimate", platform="zu3eg")``
builds a stage list from the registry; ``.run(module)`` threads a
:class:`~repro.compiler.stages.CompilationState` through the stages and
returns a :class:`~repro.hida.pipeline.CompileResult`;
``.run_stages(module)`` is the same loop returning the state itself, for
pipelines without an ``estimate`` stage.  Programmatic callers that only
*vary* the default pipeline (ablations, DSE knob points) build typed stages
with :func:`default_stages` and hand them to
``Compiler(stages, platform=...)`` — no text round trip.

Every run records per-stage wall-clock seconds on
``CompileResult.stage_timings`` and, under a live :mod:`repro.obs` session,
one ``cat="stage"`` span per stage.  Observers (:class:`PipelineObserver`)
receive per-stage begin/end events, per-stage IR snapshots
(:class:`SnapshotObserver`) and structured diagnostics
(:class:`DiagnosticsObserver`) as they are emitted.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

from .. import obs
from ..estimation.platform import get_platform
from ..ir.builtin import ModuleOp
from ..ir.verifier import VerificationError, verify
from .ircache import IRSnapshotCache, workload_cache_key
from .spec import PipelineSpec, PipelineSpecError, parse_pipeline
from .stages import (
    CompilationStage,
    CompilationState,
    Diagnostic,
    build_stages,
    get_stage_class,
)

__all__ = [
    "Compiler",
    "PipelineObserver",
    "SnapshotObserver",
    "DiagnosticsObserver",
    "DEFAULT_PIPELINE",
    "default_pipeline_spec",
    "default_stages",
]

#: The canonical Figure-3 pipeline with every optimization enabled.
DEFAULT_PIPELINE = (
    "construct-dataflow,fuse-tasks,lower-linalg,lower-structural,"
    "eliminate-multi-producers,balance,tile,parallelize,estimate"
)


def default_pipeline_spec() -> PipelineSpec:
    return parse_pipeline(DEFAULT_PIPELINE)


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


#: Initial value of :attr:`Compiler.ir_cache_stats` (a live :mod:`repro.obs`
#: session counts the same events as ``ir_cache.*``; refusals are counted by
#: the cache itself, as ``ir_cache.refused``).
_ZERO_IR_STATS = {
    "prefix_hits": 0,
    "stages_skipped": 0,
    "stages_run": 0,
    "frontend_traces": 0,
    "snapshots_stored": 0,
    "snapshots_refused": 0,
}


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
        verify_each: bool = False,
        observers: Sequence[PipelineObserver] = (),
    ) -> None:
        self.stages: List[CompilationStage] = list(stages)
        self.platform = platform
        self.verify_each = verify_each
        self.observers: List[PipelineObserver] = list(observers)
        #: Incremental-compilation counters of the most recent run (all
        #: zero when it had no IR cache).  Lives on the compiler rather than
        #: :class:`CompileResult` so result records stay byte-identical with
        #: caching on or off.
        self.ir_cache_stats: Dict[str, int] = dict(_ZERO_IR_STATS)
        #: Observer exceptions swallowed during the most recent run, as
        #: structured ``observer-error`` diagnostics.
        self.observer_errors: List[Diagnostic] = []

    # ------------------------------------------------------------- builders
    @classmethod
    def from_spec(
        cls,
        spec: Union[str, PipelineSpec],
        platform: str = "vu9p-slr",
        verify_each: bool = False,
        observers: Sequence[PipelineObserver] = (),
    ) -> "Compiler":
        """Build a compiler from a textual (or parsed) pipeline spec."""
        parsed = parse_pipeline(spec) if isinstance(spec, str) else spec
        return cls(
            build_stages(parsed),
            platform=platform,
            verify_each=verify_each,
            observers=observers,
        )

    # ----------------------------------------------------------------- spec
    def spec(self) -> PipelineSpec:
        """Canonical spec of this pipeline (defaults omitted, stable order)."""
        return PipelineSpec([stage.to_spec() for stage in self.stages])

    def spec_text(self) -> str:
        return self.spec().print()

    def spec_hash(self) -> str:
        return self.spec().spec_hash()

    def _emit_diagnostic(self, diagnostic: Diagnostic) -> None:
        obs.event(
            "diagnostic",
            cat="pipeline",
            stage=diagnostic.stage,
            severity=diagnostic.severity,
            message=diagnostic.message,
        )
        self._dispatch("on_diagnostic", diagnostic)

    def _dispatch(self, hook: str, *args, _depth: int = 0) -> None:
        """Call ``hook`` on every observer, isolating observer faults.

        An observer that raises must not abort the compilation it is merely
        watching: the exception is swallowed, recorded as a structured
        ``observer-error`` diagnostic (kept in :attr:`observer_errors` and
        fanned out through ``on_diagnostic``) and counted on the telemetry
        session.  ``_depth`` caps the recursion when an ``on_diagnostic``
        hook itself fails while reporting a failure.
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
                self.observer_errors.append(diagnostic)
                obs.event(
                    "observer-error",
                    cat="pipeline",
                    observer=type(observer).__name__,
                    hook=hook,
                    error=type(error).__name__,
                )
                obs.inc("compiler.observer_errors")
                self._dispatch("on_diagnostic", diagnostic, _depth=_depth + 1)

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
        land in :attr:`ir_cache_stats`; results are bit-for-bit independent
        of the cache (snapshots self-verify at store time), with one
        observable difference: skipped stages emit no diagnostics and re-run
        no observers.

        ``ir_cache`` may be any store speaking that ``load``/``store``
        protocol; two class attributes complete it.  ``first_boundary`` is
        the first boundary it serves: 1 for the IR cache, 0 for a store
        that also holds the frontend module (the state before any stage),
        such as a DSE batch's :class:`~repro.dse.sharing.SharedPrefixes`.
        ``counters`` is the :mod:`repro.obs` namespace the run's counters
        land under (``ir_cache`` without a store).

        Returns the final :class:`~repro.compiler.stages.CompilationState`.
        Any pipeline is legal here — one without an ``estimate`` stage
        leaves ``state.estimate`` None; :meth:`run` is this plus the
        estimate check and the :class:`CompileResult` packaging.
        """
        if module is not None and not isinstance(module, ModuleOp):
            # Convenience: run("2mm") / run(handle) resolve via the registry.
            if workload is not None:
                raise TypeError("pass the workload once, not also as the module")
            workload, module = module, None
        if workload is None and module is None:
            raise TypeError("Compiler.run() needs a module or workload=...")

        self.ir_cache_stats = dict(_ZERO_IR_STATS)
        self.observer_errors = []

        namespace = "ir_cache" if ir_cache is None else ir_cache.counters

        def count(key: str, amount: int = 1) -> None:
            # Per-run stats plus the live obs session (no-op if disabled).
            self.ir_cache_stats[key] += amount
            obs.inc(f"{namespace}.{key}", amount)

        with obs.span(
            "compile", cat="pipeline", platform=self.platform, spec=self.spec_text()
        ) as run_span:
            workload_key: Optional[str] = None
            if ir_cache is not None:
                refused_before = ir_cache.refused
                if workload is not None:
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
            hashes = self.prefix_hashes() if boundaries else []
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
                    module=module, platform=get_platform(self.platform)
                )
            state._sink = self._emit_diagnostic

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
            self._dispatch("on_pipeline_start", self, module)
            snapshot(0)
            for index, stage in enumerate(self.stages):
                if index < resume_index:
                    continue  # resumed past this stage from a snapshot
                self._dispatch("on_stage_start", stage, state)
                # A stage that raises still closes its span (``error`` attr).
                with obs.span(stage.name, cat="stage") as stage_span:
                    stage_start = time.perf_counter()
                    stage.run(state)
                    elapsed = time.perf_counter() - stage_start
                    stage_span.set_attr(seconds=round(elapsed, 6))
                state.stage_timings.append((stage.name, elapsed))
                self._dispatch("on_stage_end", stage, state, elapsed)
                if self.verify_each:
                    with obs.span("verify", cat="stage", after=stage.name):
                        issues = verify(module, raise_on_error=False)
                    if issues:
                        # Surface every issue as a structured diagnostic
                        # before aborting, so observers (and the CLI) can
                        # report which stage corrupted what instead of a
                        # bare traceback.
                        for issue in issues:
                            state.emit(
                                "verify", issue, severity="error", after=stage.name
                            )
                        raise VerificationError(
                            f"IR verification failed after stage {stage.name!r}: "
                            f"{len(issues)} issue(s); first: {issues[0]}"
                        )
                count("stages_run")
                snapshot(index + 1)
            if ir_cache is not None:
                # The cache counts (and reports) its own refusals as they
                # happen; the run only records how many were its own.
                self.ir_cache_stats["snapshots_refused"] = (
                    ir_cache.refused - refused_before
                )
            state.compile_seconds = time.perf_counter() - start
            run_span.set_attr(compile_seconds=round(state.compile_seconds, 6))
        return state

    def run(
        self,
        module: Optional[ModuleOp] = None,
        *,
        workload=None,
        ir_cache: Optional[IRSnapshotCache] = None,
    ):
        """:meth:`run_stages`, packaged as a
        :class:`~repro.hida.pipeline.CompileResult`.

        Raises :class:`~repro.compiler.spec.PipelineSpecError` when the
        pipeline produced no QoR estimate (i.e. it lacks an ``estimate``
        stage); :meth:`run_stages` is the entry point for such pipelines.
        """
        from ..hida.pipeline import CompileOptions, CompileResult

        state = self.run_stages(module, workload=workload, ir_cache=ir_cache)
        if state.estimate is None:
            raise PipelineSpecError(
                f"pipeline {self.spec_text()!r} produced no QoR estimate; "
                "append an 'estimate' stage (run_stages() runs partial "
                "pipelines)"
            )
        result = CompileResult(
            module=state.module,
            schedules=state.schedules,
            estimate=state.estimate,
            parallelization=state.parallelization,
            balance_report=state.balance_report,
            options=CompileOptions(self.platform, self.verify_each),
            compile_seconds=state.compile_seconds,
            stage_timings=state.stage_timings,
            misalignments=state.misalignments,
            graphs=state.graphs,
        )
        self._dispatch("on_pipeline_end", result)
        return result

    def __repr__(self) -> str:
        return f"Compiler({self.spec_text()!r}, platform={self.platform!r})"
