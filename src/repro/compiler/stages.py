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
from typing import Any, Callable, ClassVar, Dict, List, Optional, Tuple, Type

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
    construct_functional_dataflow,
    fuse_dataflow_tasks,
    fusion_patterns_by_name,
)
from ..hida.parallelize import (
    ParallelizationOptions,
    ParallelizationResult,
    parallelize_function_bands,
    parallelize_schedule,
)
from ..hida.structural import lower_to_structural_dataflow
from ..ir.builtin import ModuleOp
from ..transforms.canonicalize import eliminate_dead_code
from ..transforms.linalg_to_affine import lower_linalg_to_affine
from ..transforms.loop_transforms import pipeline_innermost_loops
from .spec import PipelineSpecError, StageSpec

__all__ = [
    "StageOption",
    "CompilationStage",
    "CompilationState",
    "Diagnostic",
    "register_stage",
    "get_stage_class",
    "available_stages",
    "stage_registry",
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


@dataclasses.dataclass
class CompilationState:
    """Everything a pipeline run accumulates while flowing through stages."""

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
    tv_baseline: Optional[object] = None
    #: ``(stage name, wall-clock seconds)`` per stage the driver ran, in run
    #: order, and the wall-clock seconds of the whole stage loop.
    stage_timings: List[Tuple[str, float]] = dataclasses.field(default_factory=list)
    compile_seconds: float = 0.0
    #: Observer fan-out installed by the driver; stages call :meth:`emit`.
    _sink: Optional[Callable[[Diagnostic], None]] = None

    def emit(
        self, stage: str, message: str, severity: str = "note", **data
    ) -> Diagnostic:
        diagnostic = Diagnostic(stage=stage, severity=severity, message=message, data=data)
        self.diagnostics.append(diagnostic)
        if self._sink is not None:
            self._sink(diagnostic)
        return diagnostic


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

    def resolved_patterns(self):
        """Pattern instances for the configured names (None = defaults)."""
        if self.patterns is None:
            return None
        by_name = fusion_patterns_by_name()
        unknown = [name for name in self.patterns if name not in by_name]
        if unknown:
            raise PipelineSpecError(
                f"unknown fusion pattern(s) {', '.join(map(repr, unknown))} "
                f"in stage {self.name!r}; known patterns: "
                f"{', '.join(sorted(by_name))}"
            )
        return [by_name[name] for name in self.patterns]

    def run(self, state: CompilationState) -> None:
        fuse_dataflow_tasks(state.module, self.resolved_patterns())


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


@register_stage
class LowerStructuralStage(CompilationStage):
    """Structural dataflow construction: dispatch/task -> schedule/node."""

    name = "lower-structural"
    snapshot_safe = True

    def run(self, state: CompilationState) -> None:
        state.schedules = list(lower_to_structural_dataflow(state.module))
        state.emit(
            self.name,
            f"lowered to {len(state.schedules)} schedule(s)",
            schedules=len(state.schedules),
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
        for schedule in state.schedules:
            report = balance_data_paths(schedule, on_chip_bit_budget=self.budget)
            state.balance_report.buffers_deepened += report.buffers_deepened
            state.balance_report.copy_nodes_inserted += report.copy_nodes_inserted
            state.balance_report.soft_fifos += report.soft_fifos
            state.balance_report.token_streams += report.token_streams
        if state.balance_report.buffers_deepened or state.balance_report.copy_nodes_inserted:
            state.emit(
                self.name,
                f"deepened {state.balance_report.buffers_deepened} buffer(s), "
                f"inserted {state.balance_report.copy_nodes_inserted} copy node(s)",
                buffers_deepened=state.balance_report.buffers_deepened,
                copy_nodes_inserted=state.balance_report.copy_nodes_inserted,
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


@register_stage
class ValidateStage(CompilationStage):
    """Translation validation of the preceding stage boundary.

    Executes the module through the reference interpreter
    (:mod:`repro.ir.interp`) and proves it equivalent to the previous
    ``validate`` boundary — statically when the semantic fingerprint is
    unchanged, bitwise (or within ``tolerance``) otherwise.  The first
    instance in a pipeline records the reference; a behavioral mismatch
    raises :class:`~repro.analysis.tv.TranslationValidationError`.

    ``python -m repro.compiler --validate`` interleaves this stage after
    every other stage automatically.
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
