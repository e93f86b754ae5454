"""Compilation stages: typed options, a global registry, and the Figure-3 set.

Every phase of the paper's Figure-3 flow is a :class:`CompilationStage`
subclass registered by name.  A stage declares its options up front
(:class:`StageOption`), so the textual spec layer can coerce and validate
``{key=value}`` tokens with errors that name the bad token and its offset,
and the printer can emit canonical specs (options equal to their defaults
are omitted).

Stages mutate a shared :class:`CompilationState` in place.  They hold no
references to each other: composition order is entirely the pipeline
spec's business, which is what makes ablations (drop a stage) and DSE over
pipeline composition (permute/parametrize stages) serializable one-liners.
"""

from __future__ import annotations

import abc
import dataclasses
import math
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Dict, List, Optional, Tuple, Type

from ..dialects import linalg
from ..dialects.dataflow import ScheduleOp
from ..estimation.platform import Platform
from ..estimation.qor import DesignEstimate, QoREstimator, SimulationGraph
from ..hida.dataflow_opt import (
    BalanceReport,
    balance_data_paths,
    eliminate_multiple_producers,
)
from ..hida.functional import (
    FUSION_PATTERNS,
    construct_functional_dataflow,
    fuse_dataflow_tasks,
)
from ..hida.parallelize import (
    ParallelizationOptions,
    ParallelizationResult,
    parallelize_function_bands,
    parallelize_schedule,
)
from ..hida.structural import lower_to_structural_dataflow
from ..ir.builtin import ModuleOp
from ..ir.verifier import VerificationError, verify
from ..transforms.canonicalize import eliminate_dead_code
from ..transforms.linalg_to_affine import lower_linalg_to_affine
from ..transforms.loop_transforms import pipeline_innermost_loops
from .spec import CHECK_STAGES, PipelineSpecError, StageSpec

if TYPE_CHECKING:
    from ..analysis.tv import TVBaseline

__all__ = [
    "StageOption",
    "CompilationStage",
    "CompilationState",
    "CompileOptions",
    "Diagnostic",
    "register_stage",
    "get_stage_class",
    "available_stages",
    "stage_registry",
    "collect_schedules",
]

#: Default on-chip buffer budget in bits (4 MiB).
_DEFAULT_BIT_BUDGET = 4 * 1024 * 1024 * 8


@dataclasses.dataclass(frozen=True)
class Diagnostic:
    """One structured diagnostic emitted by a stage during a run."""

    stage: str
    severity: str  # "note" | "warning" | "error"
    message: str
    data: Dict[str, object] = dataclasses.field(default_factory=dict)

    def __str__(self) -> str:
        return f"[{self.severity}] {self.stage}: {self.message}"


#: Initial value of :attr:`CompilationState.ir_cache_stats` (a live
#: :mod:`repro.obs` session counts the same events under the run's counter
#: namespace; refusals are counted by the cache itself, as
#: ``ir_cache.refused``).
_ZERO_IR_STATS = {
    "prefix_hits": 0,
    "stages_skipped": 0,
    "stages_run": 0,
    "frontend_traces": 0,
    "snapshots_stored": 0,
    "snapshots_refused": 0,
}


@dataclasses.dataclass(frozen=True)
class CompileOptions:
    """What a :class:`~repro.compiler.driver.Compiler` is bound to besides
    its stages (everything else is in the pipeline spec)."""

    platform: str = "vu9p-slr"


@dataclasses.dataclass
class CompilationState:
    """One compile: what its stages accumulate while flowing through them.

    :meth:`Compiler.run <repro.compiler.driver.Compiler.run>` returns the
    very state its stages filled, so this is also the record every
    downstream consumer (baselines, DSE, benchmark harnesses, the HLS
    emitter) reads.
    """

    module: ModuleOp
    platform: Platform
    schedules: List[ScheduleOp] = dataclasses.field(default_factory=list)
    parallelization: ParallelizationResult = dataclasses.field(
        default_factory=ParallelizationResult
    )
    balance_report: BalanceReport = dataclasses.field(default_factory=BalanceReport)
    misalignments: int = 0
    estimate: Optional[DesignEstimate] = None
    #: One IR-free simulation input per schedule, set with ``estimate``.
    graphs: List[SimulationGraph] = dataclasses.field(default_factory=list)
    diagnostics: List[Diagnostic] = dataclasses.field(default_factory=list)
    #: Rolling translation-validation reference (set by the ``validate``
    #: stage; see :mod:`repro.analysis.tv`).  Not serialized into IR
    #: snapshots — a warm resume simply re-baselines at its first boundary.
    tv_baseline: Optional["TVBaseline"] = None
    #: ``(stage name, wall-clock seconds)`` per stage the driver ran, in run
    #: order (stages skipped by a snapshot resume do not appear), and the
    #: wall-clock seconds of the whole stage loop.
    stage_timings: List[Tuple[str, float]] = dataclasses.field(default_factory=list)
    compile_seconds: float = 0.0
    #: The running compiler's platform name (None on a state built outside
    #: a run).
    options: Optional[CompileOptions] = None
    #: Incremental-compilation counters of the run (see
    #: :data:`_ZERO_IR_STATS`).  Kept off the QoR payload, so cached
    #: records stay byte-identical with caching on or off.
    ir_cache_stats: Dict[str, int] = dataclasses.field(
        default_factory=_ZERO_IR_STATS.copy
    )
    #: Observer exceptions swallowed during the run, as structured
    #: ``observer-error`` diagnostics.
    observer_errors: List[Diagnostic] = dataclasses.field(default_factory=list)
    #: Observer fan-out the driver installs for the stage loop (and clears
    #: when it ends); stages call :meth:`emit`.
    _sink: Optional[Callable[[Diagnostic], None]] = None

    def emit(
        self, stage: str, message: str, severity: str = "note", **data
    ) -> Diagnostic:
        diagnostic = Diagnostic(stage=stage, severity=severity, message=message, data=data)
        self.diagnostics.append(diagnostic)
        if self._sink is not None:
            self._sink(diagnostic)
        return diagnostic

    # ------------------------------------------------------------- read API
    @property
    def throughput(self) -> float:
        return self.estimate.throughput

    def utilization(self) -> Dict[str, float]:
        return self.estimate.utilization(self.platform)

    def max_utilization(self) -> float:
        return self.estimate.max_utilization(self.platform)

    def summary(self) -> Dict[str, float]:
        """Flat summary used by the benchmark harnesses."""
        resources = self.estimate.resources
        return {
            "throughput": self.throughput,
            "latency_cycles": self.estimate.latency,
            "interval_cycles": self.estimate.interval,
            "lut": resources.lut,
            "ff": resources.ff,
            "dsp": resources.dsp,
            "bram": resources.bram,
            "max_utilization": self.max_utilization(),
            "compile_seconds": self.compile_seconds,
            "num_nodes": sum(len(s.nodes) for s in self.schedules),
            "misalignments": float(self.misalignments),
        }


@dataclasses.dataclass(frozen=True)
class StageOption:
    """Typed declaration of one stage option.

    ``kind`` is ``int``, ``bool``, ``str`` or ``list`` (list of string
    tokens).  Spec values arrive as token lists from the parser and are
    coerced here; Python callers pass native values which are validated.
    """

    name: str
    kind: type
    default: object
    help: str = ""

    @property
    def attr(self) -> str:
        return self.name.replace("-", "_")

    # -------------------------------------------------------------- coercion
    def coerce_tokens(self, tokens: List[str], offset: int) -> object:
        if self.kind is list:
            return [token for token in tokens if token]
        if len(tokens) != 1:
            raise PipelineSpecError(
                f"option {self.name!r} takes a single value, got {tokens!r}", offset
            )
        token = tokens[0]
        if self.kind is bool:
            lowered = token.lower()
            if lowered in ("1", "true", "yes"):
                return True
            if lowered in ("0", "false", "no"):
                return False
            raise PipelineSpecError(
                f"option {self.name!r} expects a boolean (0/1/true/false), "
                f"got {token!r}",
                offset,
            )
        if self.kind is int:
            try:
                return int(token)
            except ValueError:
                raise PipelineSpecError(
                    f"option {self.name!r} expects an integer, got {token!r}", offset
                ) from None
        return token

    def validate(self, value: Any) -> object:
        if self.kind is list:
            return list(value) if value is not None else None
        if self.kind is bool:
            return bool(value)
        if self.kind is int:
            return int(value)
        return str(value)

    def render(self, value: Any) -> str:
        """Canonical token form of a value for spec printing."""
        if self.kind is list:
            return ",".join(value)
        if self.kind is bool:
            return "1" if value else "0"
        return str(value)


class CompilationStage(abc.ABC):
    """One named, option-bearing phase of the compilation pipeline."""

    #: Spec-level stage name (what appears in textual pipelines).
    name: ClassVar[str] = ""
    #: Declared options, in canonical printing order.
    option_decls: ClassVar[Tuple[StageOption, ...]] = ()
    #: Whether the compilation state at this stage's *exit* boundary can be
    #: reconstructed from a printed-IR snapshot (module text plus the small
    #: JSON extras captured by :mod:`repro.compiler.ircache`).  Stages whose
    #: results live outside the module — e.g. ``parallelize``'s factor maps
    #: or ``estimate``'s :class:`DesignEstimate` — must declare ``False``,
    #: which also blocks snapshotting at every later boundary.
    snapshot_safe: ClassVar[bool] = False

    def __init__(self, **options) -> None:
        decls = {decl.attr: decl for decl in self.option_decls}
        unknown = sorted(set(options) - set(decls))
        if unknown:
            raise TypeError(
                f"stage {self.name!r} has no option(s) {', '.join(map(repr, unknown))}; "
                f"known options: {', '.join(sorted(decls)) or '(none)'}"
            )
        for attr, decl in decls.items():
            value = options.get(attr, decl.default)
            if value is not None or decl.default is not None:
                value = decl.validate(value) if value is not None else None
            setattr(self, attr, value)

    # ----------------------------------------------------------------- spec
    @classmethod
    def from_spec(cls, stage_spec: StageSpec) -> "CompilationStage":
        """Instantiate from a parsed :class:`StageSpec`, coercing options."""
        decls = {decl.name: decl for decl in cls.option_decls}
        values: Dict[str, object] = {}
        for key, tokens in stage_spec.options.items():
            offset = stage_spec.option_offsets.get(key, -1)
            decl = decls.get(key)
            if decl is None:
                raise PipelineSpecError(
                    f"unknown option {key!r} of stage {cls.name!r}; "
                    f"known options: {', '.join(sorted(decls)) or '(none)'}",
                    offset,
                )
            values[decl.attr] = decl.coerce_tokens(tokens, offset)
        return cls(**values)

    def spec_options(self) -> Dict[str, str]:
        """Non-default options in canonical rendered form."""
        rendered: Dict[str, str] = {}
        for decl in self.option_decls:
            value = getattr(self, decl.attr)
            if value is None or value == decl.default:
                continue
            rendered[decl.name] = decl.render(value)
        return rendered

    def to_spec(self) -> StageSpec:
        return StageSpec(
            name=self.name,
            options={key: value.split(",") for key, value in self.spec_options().items()},
        )

    # ------------------------------------------------------------ execution
    @abc.abstractmethod
    def run(self, state: CompilationState) -> None:
        """Apply this stage to ``state`` in place."""

    def __repr__(self) -> str:
        return f"<stage {self.to_spec().print()}>"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, Type[CompilationStage]] = {}


def register_stage(cls: Type[CompilationStage]) -> Type[CompilationStage]:
    """Class decorator adding a stage to the global registry by name."""
    if not cls.name:
        raise ValueError(f"stage class {cls.__name__} declares no name")
    if cls.name in _REGISTRY and _REGISTRY[cls.name] is not cls:
        raise ValueError(f"stage name {cls.name!r} is already registered")
    _REGISTRY[cls.name] = cls
    return cls


def get_stage_class(name: str, offset: int = -1) -> Type[CompilationStage]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise PipelineSpecError(
            f"unknown stage {name!r}; known stages: {', '.join(available_stages())}",
            offset,
        ) from None


def available_stages() -> List[str]:
    """Registered stage names in registration (pipeline-canonical) order."""
    return list(_REGISTRY)


def stage_registry() -> Dict[str, Type[CompilationStage]]:
    return dict(_REGISTRY)


# ---------------------------------------------------------------------------
# The Figure-3 stages
# ---------------------------------------------------------------------------


@register_stage
class ConstructDataflowStage(CompilationStage):
    """Functional dataflow construction (Algorithm 1)."""

    name = "construct-dataflow"
    snapshot_safe = True

    def run(self, state: CompilationState) -> None:
        wrapped = construct_functional_dataflow(state.module)
        state.emit(self.name, f"wrapped {wrapped} ops into dataflow tasks", tasks=wrapped)


@register_stage
class FuseTasksStage(CompilationStage):
    """Functional dataflow optimization — task fusion (Algorithm 2)."""

    name = "fuse-tasks"
    snapshot_safe = True
    option_decls = (
        StageOption(
            "patterns",
            list,
            None,
            "fusion pattern names to apply (default: all profitable patterns)",
        ),
    )
    patterns: Optional[List[str]]

    def __init__(self, **options) -> None:
        super().__init__(**options)
        unknown = [name for name in self.patterns or () if name not in FUSION_PATTERNS]
        if unknown:
            raise PipelineSpecError(
                f"unknown fusion pattern(s) {', '.join(map(repr, unknown))} "
                f"in stage {self.name!r}; known patterns: {', '.join(FUSION_PATTERNS)}"
            )

    def run(self, state: CompilationState) -> None:
        fuse_dataflow_tasks(state.module, self.patterns)


@register_stage
class LowerLinalgStage(CompilationStage):
    """Bufferize tensor-level (linalg) programs down to affine loops."""

    name = "lower-linalg"
    snapshot_safe = True

    def run(self, state: CompilationState) -> None:
        has_linalg = any(
            isinstance(op, linalg.LinalgOp) for op in state.module.walk()
        )
        if not has_linalg:
            return
        lower_linalg_to_affine(state.module)
        eliminate_dead_code(state.module)


def collect_schedules(module: ModuleOp) -> List[ScheduleOp]:
    """Every schedule of ``module``, in the order the stages visit them.

    The one definition of schedule order: ``lower-structural`` sets
    ``CompilationState.schedules`` to it, and a state resumed from printed
    IR (an IR-cache snapshot, a DSE prefix group's held module) is
    re-collected with it.  The order is a function-order post-order walk,
    which is the order the structural lowering creates schedules in.
    """
    return [
        op
        for func in module.functions
        for op in func.walk()
        if isinstance(op, ScheduleOp)
    ]


@register_stage
class LowerStructuralStage(CompilationStage):
    """Structural dataflow construction: dispatch/task -> schedule/node."""

    name = "lower-structural"
    snapshot_safe = True

    def run(self, state: CompilationState) -> None:
        lowered = lower_to_structural_dataflow(state.module)
        state.schedules = collect_schedules(state.module)
        state.emit(
            self.name,
            f"lowered to {len(lowered)} schedule(s)",
            schedules=len(lowered),
        )


@register_stage
class EliminateMultiProducersStage(CompilationStage):
    """Multi-producer elimination (Section 6.4.1)."""

    name = "eliminate-multi-producers"
    snapshot_safe = True

    def run(self, state: CompilationState) -> None:
        for schedule in state.schedules:
            eliminate_multiple_producers(schedule)


@register_stage
class BalanceStage(CompilationStage):
    """Data-path balancing (Section 6.4.2)."""

    name = "balance"
    snapshot_safe = True
    option_decls = (
        StageOption(
            "budget", int, _DEFAULT_BIT_BUDGET, "on-chip buffer budget in bits"
        ),
    )
    budget: int

    def run(self, state: CompilationState) -> None:
        total = state.balance_report
        for schedule in state.schedules:
            report = balance_data_paths(schedule, on_chip_bit_budget=self.budget)
            total.buffers_deepened += report.buffers_deepened
            total.soft_fifos += report.soft_fifos
            total.token_streams += report.token_streams
        actions = []
        if total.buffers_deepened:
            actions.append(f"deepened {total.buffers_deepened} buffer(s) on chip")
        if total.soft_fifos:
            actions.append(
                f"spilled {total.soft_fifos} buffer(s) to soft FIFO(s) with "
                f"{total.token_streams} token stream(s)"
            )
        if actions:
            state.emit(
                self.name,
                "; ".join(actions),
                buffers_deepened=total.buffers_deepened,
                soft_fifos=total.soft_fifos,
                token_streams=total.token_streams,
            )


@register_stage
class TileStage(CompilationStage):
    """External-memory tiling: spill oversized buffers to DRAM tile caches.

    HIDA uses loop tiling plus local tile buffers so that only small tiles
    of intermediate results stay on-chip while the full arrays live in
    external memory.  The reproduction records the tile size on each node
    (consumed by the QoR model for burst/address-generation effects) and
    re-places buffers whose footprint exceeds one tile working set
    (``size^2`` elements per ping-pong stage) into DRAM.
    """

    name = "tile"
    snapshot_safe = True
    option_decls = (
        StageOption("size", int, 16, "tile edge length in elements (0 disables)"),
    )
    size: int

    def run(self, state: CompilationState) -> None:
        if self.size <= 0:
            return
        spilled = 0
        for schedule in state.schedules:
            for node in schedule.nodes:
                node.set_attr("tile_size", self.size)
            per_buffer_budget = self.size * self.size * 8 * 64
            for buffer in schedule.buffers:
                bits = buffer.memref_type.bitwidth * buffer.depth
                if bits > per_buffer_budget:
                    buffer.set_memory_kind("dram")
                    buffer.set_attr("tiled", True)
                    buffer.set_attr("tile_elements", self.size * self.size)
                    spilled += 1
        if spilled:
            state.emit(
                self.name,
                f"spilled {spilled} oversized buffer(s) to external memory",
                spilled=spilled,
            )


@register_stage
class ParallelizeStage(CompilationStage):
    """Structural dataflow parallelization (IA+CA unroll factor selection)."""

    name = "parallelize"
    option_decls = (
        StageOption("factor", int, 32, "maximum parallel factor per node"),
        StageOption("ia", bool, True, "intensity-aware factor assignment"),
        StageOption("ca", bool, True, "connection-aware factor alignment"),
        StageOption("target-ii", int, 1, "target initiation interval"),
    )
    factor: int
    ia: bool
    ca: bool
    target_ii: int

    def __init__(self, **options) -> None:
        super().__init__(**options)
        for option, value in (("factor", self.factor), ("target-ii", self.target_ii)):
            if value < 1:
                raise PipelineSpecError(
                    f"option {option!r} of stage 'parallelize' expects an integer >= 1, "
                    f"got {value}"
                )

    def parallelization_options(self) -> ParallelizationOptions:
        return ParallelizationOptions(
            max_parallel_factor=self.factor,
            intensity_aware=self.ia,
            connection_aware=self.ca,
            target_ii=self.target_ii,
        )

    def run(self, state: CompilationState) -> None:
        options = self.parallelization_options()
        result = state.parallelization
        for schedule in state.schedules:
            chosen = parallelize_schedule(schedule, options)
            result.unroll_factors.update(chosen.unroll_factors)
            result.parallel_factors.update(chosen.parallel_factors)
            result.intensities.update(chosen.intensities)
            result.constraint_violations += chosen.constraint_violations
            result.proposals_evaluated += chosen.proposals_evaluated
            state.misalignments += chosen.misalignments
        if not state.schedules:
            # Single-band kernels: intra-band loop optimizations only.
            for func in state.module.functions:
                chosen = parallelize_function_bands(func, options)
                result.unroll_factors.update(chosen.unroll_factors)
                result.parallel_factors.update(chosen.parallel_factors)
                result.intensities.update(chosen.intensities)
        if state.misalignments:
            state.emit(
                self.name,
                f"{state.misalignments} misaligned connection(s) remain",
                severity="warning",
                misalignments=state.misalignments,
            )


@register_stage
class PipelineInnermostStage(CompilationStage):
    """Pipeline every innermost loop at II = 1 and change nothing else.

    What Vitis HLS does on its own, out of the box: no unrolling, no array
    partitioning, no dataflow restructuring (the Vitis-only baseline).
    """

    name = "pipeline-innermost"

    def run(self, state: CompilationState) -> None:
        for func in state.module.functions:
            pipeline_innermost_loops(func)


@register_stage
class EstimateStage(CompilationStage):
    """QoR estimation of the final design (Vitis-HLS-style model)."""

    name = "estimate"
    option_decls = (
        StageOption(
            "dataflow",
            bool,
            True,
            "estimate with coarse-grained (schedule-level) overlap",
        ),
    )
    dataflow: bool

    def run(self, state: CompilationState) -> None:
        estimator = QoREstimator(state.platform)
        if state.schedules:
            estimated = [
                estimator.estimate_schedule(schedule, dataflow=self.dataflow)
                for schedule in state.schedules
            ]
            # The top-level schedule dominates; nested schedules already
            # contribute through their parent node's loops.  The simulate
            # fidelity composes every schedule's graph.
            state.estimate = max((e for e, _ in estimated), key=lambda e: e.latency)
            state.graphs = [graph for _, graph in estimated]
            return
        # No schedule was formed (single-band kernels): estimate the function.
        func = state.module.functions[0] if state.module.functions else None
        if func is None:
            raise ValueError("module has no function to estimate")
        state.estimate = estimator.estimate_function(func, dataflow=False)


@register_stage
class LintStage(CompilationStage):
    """Static soundness analysis of the structural dataflow design.

    Runs the registered :mod:`repro.analysis` rules (deadlock, token
    balance, memory races, buffer sizing) over the module at this point of
    the pipeline and re-emits every finding as a pipeline diagnostic, so
    observers see lint results exactly like any other stage output.  With
    ``fail-on`` set, findings at or above that severity abort the run with
    an :class:`~repro.analysis.AnalysisError`.
    """

    name = "lint"
    snapshot_safe = True
    option_decls = (
        StageOption(
            "fail-on",
            str,
            "never",
            "abort on findings at/above this severity "
            "(never/note/warning/error)",
        ),
        StageOption(
            "rules",
            list,
            None,
            "restrict to these rule ids (default: every registered rule)",
        ),
    )
    fail_on: str
    rules: Optional[List[str]]

    def run(self, state: CompilationState) -> None:
        from ..analysis import AnalysisError, analyze_module, severity_rank

        if self.fail_on != "never":
            severity_rank(self.fail_on)  # validates the option value
        report = analyze_module(
            state.module, platform=state.platform, only=self.rules
        )
        for finding in report.diagnostics:
            payload = finding.to_dict()
            payload.pop("severity", None)
            payload.pop("message", None)
            state.emit(
                self.name,
                f"{finding.rule}: {finding.message}",
                severity=finding.severity,
                **payload,
            )
        if report.suppressed:
            state.emit(
                self.name,
                f"{report.suppressed} finding(s) suppressed via lint_suppress",
                suppressed=report.suppressed,
            )
        if report.fails_at(self.fail_on):
            counts = ", ".join(
                f"{rule}={count}" for rule, count in sorted(report.counts().items())
            )
            raise AnalysisError(
                f"lint failed at severity >= {self.fail_on!r}: "
                f"{len(report.diagnostics)} finding(s) ({counts}); "
                f"first: {report.diagnostics[0]}"
            )


def checked_boundary(stage: CompilationStage, state: CompilationState) -> str:
    """The boundary a check stage (:data:`~repro.compiler.spec.CHECK_STAGES`)
    checks: its ``after`` label, else the last stage run that is not itself
    a check (``frontend`` before any)."""
    return stage.after or next(
        (name for name, _ in reversed(state.stage_timings) if name not in CHECK_STAGES),
        "frontend",
    )


@register_stage
class VerifyStage(CompilationStage):
    """Structural IR verification of the preceding stage boundary.

    Runs :func:`~repro.ir.verifier.verify` over the module and emits every
    issue as an ``error`` diagnostic labelled ``after`` the boundary, then
    raises :class:`~repro.ir.verifier.VerificationError` if there was any.

    ``python -m repro.compiler --verify`` inserts this stage at every
    stage boundary (see :func:`~repro.compiler.spec.insert_checks`).
    """

    name = "verify"
    snapshot_safe = True
    option_decls = (
        StageOption("after", str, "", "label of the stage boundary being verified"),
    )
    after: str

    def run(self, state: CompilationState) -> None:
        after = checked_boundary(self, state)
        issues = verify(state.module, raise_on_error=False)
        for issue in issues:
            state.emit(self.name, issue, severity="error", after=after)
        if issues:
            raise VerificationError(
                f"IR verification failed after stage {after!r}: "
                f"{len(issues)} issue(s); first: {issues[0]}"
            )


def relative_tolerance(text: str) -> float:
    """A relative float tolerance: a finite number >= 0 (0 = bitwise)."""
    try:
        value = float(text)
        if math.isfinite(value) and value >= 0:
            return value
    except ValueError:
        pass
    raise ValueError(f"expects a finite number >= 0, got {text!r}")


@register_stage
class ValidateStage(CompilationStage):
    """Translation validation of the preceding stage boundary.

    Executes the module through the reference interpreter
    (:mod:`repro.ir.interp`) and proves it equivalent to the previous
    ``validate`` boundary — statically when the semantic fingerprint is
    unchanged, bitwise (or within ``tolerance``) otherwise.  The first
    instance in a pipeline records the reference; a behavioral mismatch
    raises :class:`~repro.analysis.tv.TranslationValidationError`.

    ``python -m repro.compiler --validate`` inserts this stage at every
    stage boundary (see :func:`~repro.compiler.spec.insert_checks`).
    """

    name = "validate"
    snapshot_safe = True
    option_decls = (
        StageOption("seed", int, 0, "reference-input seed"),
        StageOption(
            "max-ops", int, 0, "interpreter op budget (0 = the default budget)"
        ),
        StageOption(
            "tolerance",
            str,
            "0",
            "relative float tolerance for reassociating transforms "
            "(0 = bitwise)",
        ),
        StageOption(
            "after", str, "", "label of the stage boundary being validated"
        ),
    )
    max_ops: int
    tolerance: str

    def __init__(self, **options) -> None:
        super().__init__(**options)
        try:
            if self.max_ops < 0:
                raise ValueError(f"expects an integer >= 0, got {self.max_ops}")
            relative_tolerance(self.tolerance)
        except ValueError as error:
            option = "max-ops" if self.max_ops < 0 else "tolerance"
            raise PipelineSpecError(f"option {option!r} of stage 'validate' {error}") from None

    def run(self, state: CompilationState) -> None:
        from ..analysis.tv import run_validate_stage

        run_validate_stage(self, state)


def build_stages(spec) -> List[CompilationStage]:
    """Instantiate registered stages for every element of a parsed spec."""
    stages: List[CompilationStage] = []
    for stage_spec in spec:
        cls = get_stage_class(stage_spec.name, stage_spec.offset)
        stages.append(cls.from_spec(stage_spec))
    return stages
