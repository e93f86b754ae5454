"""Textual pipeline specifications: parse, print, hash.

The compiler front door accepts MLIR-style textual pass pipelines::

    construct-dataflow,fuse-tasks{patterns=elementwise,init},lower-structural,
    balance,parallelize{ia=1,ca=1,target-ii=2},estimate

Grammar (whitespace around separators is ignored)::

    pipeline := stage ("," stage)*
    stage    := NAME ("{" options "}")?
    options  := option ("," option)*
    option   := KEY "=" TOKEN | TOKEN        # a bare TOKEN extends the
                                             # previous option's value list
    NAME/KEY/TOKEN := [A-Za-z0-9_.+-]+       # TOKEN may also be empty

The bare-token rule is what lets list-valued options stay comma separated
(``patterns=elementwise,init`` is one option with two values, because
``init`` carries no ``=``).  Parsing is strictly positional: every
:class:`PipelineSpecError` names the offending token and its character
offset so CLI users can point at the exact spot in a long spec.

``parse_pipeline`` / ``PipelineSpec.print`` round-trip: printing a parsed
spec and re-parsing it yields an equal spec.  Canonicalization (dropping
options that equal their stage defaults) happens one layer up, in
:mod:`repro.compiler.driver`, where the typed stage declarations live.

:func:`insert_checks` weaves check stages (:data:`CHECK_STAGES`) into a
spec at every stage boundary; ``python -m repro.compiler --verify`` and
``--validate`` and :func:`~repro.analysis.tv.validate_pipeline` build
their pipelines through it.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, Iterator, List, Sequence, Tuple, Union

__all__ = [
    "CHECK_STAGES",
    "PipelineSpecError",
    "StageSpec",
    "PipelineSpec",
    "insert_checks",
    "parse_pipeline",
]

#: Stages that check the boundary before them instead of changing the
#: module; each takes an ``after`` option naming the boundary it checks.
CHECK_STAGES = frozenset({"verify", "validate"})

#: Characters allowed in stage names, option keys and option value tokens.
_TOKEN_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.+-"
)


class PipelineSpecError(ValueError):
    """A malformed pipeline spec; ``offset`` locates the problem."""

    def __init__(self, message: str, offset: int = -1) -> None:
        if offset >= 0:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


@dataclasses.dataclass
class StageSpec:
    """One ``name{key=value,...}`` element of a pipeline spec.

    ``options`` maps each key to its list of value tokens (one entry per
    comma-separated token; scalar options are single-element lists).
    ``offset`` and ``option_offsets`` record source positions for
    diagnostics and are ignored by equality.
    """

    name: str
    options: Dict[str, List[str]] = dataclasses.field(default_factory=dict)
    offset: int = dataclasses.field(default=-1, compare=False)
    option_offsets: Dict[str, int] = dataclasses.field(
        default_factory=dict, compare=False
    )

    def print(self) -> str:
        if not self.options:
            return self.name
        rendered = ",".join(
            f"{key}={','.join(values)}" for key, values in self.options.items()
        )
        return f"{self.name}{{{rendered}}}"

    def __str__(self) -> str:
        return self.print()


@dataclasses.dataclass
class PipelineSpec:
    """An ordered sequence of stage specs."""

    stages: List[StageSpec] = dataclasses.field(default_factory=list)

    def print(self) -> str:
        return ",".join(stage.print() for stage in self.stages)

    def spec_hash(self) -> str:
        """Stable content hash of the printed form (QoR-cache friendly)."""
        return hashlib.sha256(self.print().encode("utf-8")).hexdigest()[:16]

    def __str__(self) -> str:
        return self.print()

    def __iter__(self) -> Iterator[StageSpec]:
        return iter(self.stages)

    def __len__(self) -> int:
        return len(self.stages)


class _Scanner:
    """Character scanner with offset tracking over a spec string."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def token(self) -> Tuple[str, int]:
        """Consume a (possibly empty) token; returns (token, start offset)."""
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _TOKEN_CHARS:
            self.pos += 1
        token = self.text[start : self.pos]
        self.skip_ws()
        return token, start


def _parse_options(scanner: _Scanner, stage: StageSpec) -> None:
    """Parse ``{...}`` with the bare-token list continuation rule."""
    open_offset = scanner.pos
    scanner.pos += 1  # consume "{"
    current_key = None
    while True:
        token, offset = scanner.token()
        if scanner.peek() == "=":
            scanner.pos += 1  # consume "="
            if not token:
                raise PipelineSpecError(
                    f"empty option name in stage {stage.name!r}", offset
                )
            if token in stage.options:
                raise PipelineSpecError(
                    f"duplicate option {token!r} in stage {stage.name!r}", offset
                )
            current_key = token
            value, _ = scanner.token()
            stage.options[current_key] = [value]
            stage.option_offsets[current_key] = offset
        elif token:
            if current_key is None:
                raise PipelineSpecError(
                    f"bare value {token!r} in stage {stage.name!r} "
                    "before any 'key=value' option",
                    offset,
                )
            stage.options[current_key].append(token)
        delim = scanner.peek()
        if delim == ",":
            scanner.pos += 1
            continue
        if delim == "}":
            scanner.pos += 1
            return
        if not delim:
            raise PipelineSpecError(
                f"unterminated '{{' of stage {stage.name!r}", open_offset
            )
        raise PipelineSpecError(
            f"unexpected character {delim!r} in options of stage {stage.name!r}",
            scanner.pos,
        )


def parse_pipeline(text: str) -> PipelineSpec:
    """Parse a textual pipeline spec into a :class:`PipelineSpec`.

    Raises :class:`PipelineSpecError` naming the bad token and its offset on
    any syntax problem.  Stage and option *names* are not validated here —
    the driver checks them against the stage registry so the error can list
    what is available.
    """
    scanner = _Scanner(text)
    spec = PipelineSpec()
    scanner.skip_ws()
    if scanner.eof():
        raise PipelineSpecError("empty pipeline spec")
    while True:
        name, offset = scanner.token()
        if not name:
            raise PipelineSpecError(
                f"expected a stage name, found {scanner.peek()!r}", scanner.pos
            )
        stage = StageSpec(name=name, offset=offset)
        if scanner.peek() == "{":
            _parse_options(scanner, stage)
            scanner.skip_ws()
        spec.stages.append(stage)
        if scanner.eof():
            return spec
        if scanner.peek() != ",":
            raise PipelineSpecError(
                f"expected ',' between stages, found {scanner.peek()!r}",
                scanner.pos,
            )
        scanner.pos += 1
        scanner.skip_ws()
        if scanner.eof():
            raise PipelineSpecError("trailing ',' at end of pipeline spec", scanner.pos - 1)


def insert_checks(
    spec: Union[str, PipelineSpec], checks: Sequence[StageSpec]
) -> PipelineSpec:
    """``spec`` with ``checks`` at the frontend boundary and after every
    stage that is not itself a check.

    Each inserted check is a copy of its :class:`StageSpec` labelled
    ``after=<boundary>``, ahead of any checks the spec already has there;
    a check whose name the spec already has at a boundary is not doubled.
    """
    stages = (parse_pipeline(spec) if isinstance(spec, str) else spec).stages
    woven: List[StageSpec] = []

    def insert(boundary: str, index: int) -> None:
        present = set()
        for stage in stages[index:]:
            if stage.name not in CHECK_STAGES:
                break
            present.add(stage.name)
        woven.extend(
            StageSpec(check.name, {"after": [boundary], **check.options})
            for check in checks
            if check.name not in present
        )

    insert("frontend", 0)
    for index, stage in enumerate(stages, start=1):
        woven.append(stage)
        if stage.name not in CHECK_STAGES:
            insert(stage.name, index)
    return PipelineSpec(woven)
