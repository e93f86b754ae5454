"""The analysis engine: run registered rules over a module's schedules.

:func:`analyze_module` prints the module once through the IR printer while
recording where every op's header lands (line and character offset — the
"token offsets" diagnostics anchor to), builds one
:class:`ScheduleContext` per structural schedule, runs every registered
rule, filters suppressed findings, and returns an :class:`AnalysisReport`.

The context exposes exactly the graph the dataflow *simulator* uses
(:func:`~repro.estimation.dataflow_sim.build_channels`) and its one closure
(:func:`~repro.estimation.dataflow_sim.channel_reachability`), so the static
rules and the measurement oracle can never disagree about structure.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from .. import obs
from ..dialects.dataflow import ScheduleOp
from ..estimation.dataflow_sim import build_channels, channel_cycles, channel_reachability
from ..estimation.platform import Platform, get_platform
from ..ir.core import Operation
from ..ir.printer import IRPrinter
from .rules import (
    AnalysisDiagnostic,
    AnalysisRule,
    SourceLocation,
    default_rules,
    is_suppressed,
    severity_rank,
)

__all__ = [
    "ScheduleContext",
    "AnalysisReport",
    "analyze_module",
    "locate_ops",
]


class _LocatingPrinter(IRPrinter):
    """IR printer that records the header line index of every op it prints."""

    def __init__(self) -> None:
        super().__init__()
        self.header_lines: Dict[int, int] = {}

    def _print_op(self, op: Operation, indent: int, lines: List[str]) -> None:
        self.header_lines.setdefault(id(op), len(lines))
        super()._print_op(op, indent, lines)


def locate_ops(top: Operation) -> Tuple[str, Dict[int, SourceLocation]]:
    """Printed text of ``top`` plus ``id(op) -> SourceLocation`` for every op.

    Locations use the same deterministic rendering the snapshot cache and
    ``--print-ir`` emit, so a diagnostic's line/offset can be followed into
    that output directly.
    """
    printer = _LocatingPrinter()
    text = printer.print_op(top)
    lines = text.split("\n")
    line_offsets = [0] * len(lines)
    running = 0
    for index, line in enumerate(lines):
        line_offsets[index] = running
        running += len(line) + 1
    locations = {
        op_key: SourceLocation(
            line=line_index + 1,
            offset=line_offsets[line_index] + len(lines[line_index]) - len(lines[line_index].lstrip()),
            snippet=lines[line_index].strip(),
        )
        for op_key, line_index in printer.header_lines.items()
    }
    return text, locations


class ScheduleContext:
    """Everything a rule may inspect about one structural schedule."""

    def __init__(
        self,
        schedule: ScheduleOp,
        platform: Platform,
        locations: Optional[Dict[int, SourceLocation]] = None,
    ) -> None:
        self.schedule = schedule
        self.platform = platform
        self._locations = locations or {}
        self.nodes, self.channels = build_channels(schedule)
        self.index_of: Dict[int, int] = {
            id(node): i for i, node in enumerate(self.nodes)
        }
        self._intervals: Optional[List[float]] = None
        self._reachable: Optional[List[FrozenSet[int]]] = None

    # ------------------------------------------------------------- structure
    def cycles(self) -> List[List[int]]:
        """Cyclic SCCs of the channel graph (the simulator's definition)."""
        return channel_cycles(len(self.nodes), self.channels)

    def distinct_edges(self) -> Dict[Tuple[int, int], int]:
        """``(producer, consumer) -> tightest capacity`` over all channels."""
        edges: Dict[Tuple[int, int], int] = {}
        for channel in self.channels:
            key = (channel.producer, channel.consumer)
            edges[key] = min(edges.get(key, channel.capacity), channel.capacity)
        return edges

    def reachable(self, source: int) -> FrozenSet[int]:
        """Node indices reachable from ``source`` by one or more channel
        edges (``source`` itself when it sits on a cycle)."""
        if self._reachable is None:
            self._reachable = channel_reachability(len(self.nodes), self.channels)
        return self._reachable[source]

    def ordered(self, a: int, b: int) -> bool:
        """Whether nodes ``a`` and ``b`` are ordered by some channel path."""
        return b in self.reachable(a) or a in self.reachable(b)

    # ------------------------------------------------------------- estimates
    def node_intervals(self) -> List[float]:
        """Analytic initiation interval of every node (lazily estimated)."""
        if self._intervals is None:
            from ..estimation.qor import estimate_node

            self._intervals = [
                max(estimate_node(node, self.platform).interval, 1.0)
                for node in self.nodes
            ]
        return self._intervals

    # ----------------------------------------------------------- diagnostics
    def node_label(self, index: int) -> str:
        node = self.nodes[index]
        return node.label or f"node{index}"

    def diagnostic(
        self,
        rule: AnalysisRule,
        message: str,
        op: Optional[Operation] = None,
        severity: Optional[str] = None,
        hint: Optional[str] = None,
        **data,
    ) -> AnalysisDiagnostic:
        """Build a diagnostic anchored at ``op`` (default: the schedule)."""
        anchor = op if op is not None else self.schedule
        return AnalysisDiagnostic(
            rule=rule.rule_id,
            severity=severity or rule.severity,
            message=message,
            hint=rule.hint if hint is None else hint,
            location=self._locations.get(id(anchor)),
            schedule=self.schedule.label,
            data=dict(data, _anchor=anchor),
        )


@dataclasses.dataclass
class AnalysisReport:
    """Every finding of one analysis run over one module."""

    diagnostics: List[AnalysisDiagnostic] = dataclasses.field(default_factory=list)
    #: Findings dropped by ``lint_suppress`` attributes.
    suppressed: int = 0
    #: Repeated findings collapsed into an earlier one (same rule on the
    #: same op with the same structured data, e.g. one race reported once
    #: per unordered access pair).  First location wins.
    deduplicated: int = 0
    #: Number of structural schedules analyzed (0 = nothing to check).
    schedules: int = 0

    def counts(self) -> Dict[str, int]:
        """``rule id -> hit count`` in registration-stable order."""
        totals: Dict[str, int] = {}
        for diagnostic in self.diagnostics:
            totals[diagnostic.rule] = totals.get(diagnostic.rule, 0) + 1
        return totals

    @property
    def errors(self) -> List[AnalysisDiagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    def fails_at(self, threshold: str) -> bool:
        """Whether any finding reaches ``threshold`` ("never" disables)."""
        if threshold == "never":
            return False
        floor = severity_rank(threshold)
        return any(
            severity_rank(d.severity) >= floor for d in self.diagnostics
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "suppressed": self.suppressed,
            "deduplicated": self.deduplicated,
            "schedules": self.schedules,
            "counts": self.counts(),
        }


def analyze_module(
    module: Operation,
    platform: Union[str, Platform] = "vu9p-slr",
    rules: Optional[Sequence[AnalysisRule]] = None,
    only: Optional[Sequence[str]] = None,
) -> AnalysisReport:
    """Run the registered rules over every structural schedule of ``module``.

    ``rules`` passes explicit rule instances; ``only`` restricts the default
    set to the named rule ids.  Ops carrying a ``lint_suppress`` attribute
    (or nested under one) have matching findings dropped and counted in
    :attr:`AnalysisReport.suppressed`.
    """
    if rules is not None and only is not None:
        raise ValueError("pass rules=... or only=..., not both")
    active = list(rules) if rules is not None else default_rules(only)
    resolved = get_platform(platform)
    _, locations = locate_ops(module)
    report = AnalysisReport()
    seen_findings: Set[Tuple[object, ...]] = set()
    for op in module.walk():
        if not isinstance(op, ScheduleOp):
            continue
        report.schedules += 1
        context = ScheduleContext(op, resolved, locations)
        for rule in active:
            with obs.span(
                f"rule:{rule.rule_id}", cat="analysis", rule=rule.rule_id
            ):
                findings = list(rule.check(context))
            for diagnostic in findings:
                anchor = diagnostic.data.pop("_anchor", None)
                if anchor is not None and is_suppressed(diagnostic.rule, anchor):
                    report.suppressed += 1
                    continue
                # A rule firing on the same op with the same structured
                # data (e.g. once per unordered access *pair*) collapses
                # into the first finding; distinct subjects (different
                # buffer, dim, kind, ...) keep their own diagnostics.
                # Emission order is preserved, so first location wins.
                data_key = tuple(
                    sorted((k, repr(v)) for k, v in diagnostic.data.items())
                )
                key = (
                    (diagnostic.rule, id(anchor), data_key)
                    if anchor is not None
                    else (diagnostic.rule, diagnostic.schedule, diagnostic.message)
                )
                if key in seen_findings:
                    report.deduplicated += 1
                    continue
                seen_findings.add(key)
                report.diagnostics.append(diagnostic)
    return report
