"""The flags the ``python -m repro.*`` front doors share, declared once.

Every value is resolved where it is parsed: an unknown workload or target,
a malformed pipeline spec or an output path whose directory is missing is
an ``argparse`` usage error (one line on stderr, exit status 2) raised
before anything compiles.  Imported only by the ``__main__`` modules.
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Any, Callable, Dict, List, Optional, Type

from .compiler.spec import PipelineSpecError, parse_pipeline
from .compiler.stages import build_stages, relative_tolerance
from .dse.fidelity import DEFAULT_FIDELITY, FIDELITIES
from .estimation.platform import UnknownTargetError, get_platform
from .workloads import UnknownWorkloadError, get_workload, iter_workloads


def _usage_error(
    resolve: Callable[[str], Any], *errors: Type[Exception]
) -> Callable[[str], Any]:
    """``resolve`` as an argparse ``type=``: ``errors`` become usage errors."""

    def convert(text: str) -> Any:
        try:
            return resolve(text)
        except errors as error:
            raise argparse.ArgumentTypeError(str(error)) from None

    return convert


def _checked_spec(text: str) -> str:
    build_stages(parse_pipeline(text))
    return text


def output_path(text: str) -> str:
    """An output file path whose directory must already exist."""
    directory = os.path.dirname(text) or "."
    if not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(f"directory {directory!r} does not exist")
    return text


def non_negative(text: str) -> int:
    """A whole number of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative (got {value})")
    return value


#: A relative float tolerance, held to the ``validate`` stage's own rule.
tolerance = _usage_error(relative_tolerance, ValueError)


def _repeatable(repeatable: bool, dest: str) -> Dict[str, str]:
    return {"action": "append", "dest": dest + "s"} if repeatable else {"dest": dest}


def add_workload(parser: Any, repeatable: bool = False) -> None:
    """``--workload``: a ``Workload`` handle in ``.workload`` (or a list of
    them in ``.workloads`` when repeatable); None when not passed."""
    parser.add_argument(
        "--workload",
        type=_usage_error(get_workload, UnknownWorkloadError, ValueError),
        default=None,
        metavar="NAME[@PARAM=VALUE,...]",
        help="registered workload id, e.g. atax, resnet18@batch=4 or 2mm@n=16"
        + ("; repeatable" if repeatable else ""),
        **_repeatable(repeatable, "workload"),
    )


def add_target(parser: Any, default: Any, repeatable: bool = False) -> None:
    """``--target`` / ``--platform``: the canonical platform name in
    ``.platform`` (or a list of them in ``.platforms`` when repeatable)."""
    parser.add_argument(
        "--target",
        "--platform",
        type=_usage_error(lambda name: get_platform(name).name, UnknownTargetError),
        default=default,
        metavar="NAME",
        help="target platform name or alias, e.g. zu3eg or vu9p"
        + ("; repeatable" if repeatable else f" (default: {default})"),
        **_repeatable(repeatable, "platform"),
    )


def add_spec(parser: Any, flag: str, default: Any, repeatable: bool = False) -> None:
    """``--spec`` (``--pipeline-spec`` on the DSE CLI): the spec text,
    checked against the stage registry at parse time."""
    parser.add_argument(
        flag,
        type=_usage_error(_checked_spec, PipelineSpecError),
        default=default,
        metavar="SPEC",
        help="textual pipeline spec (see python -m repro.compiler --list-stages)"
        + ("; repeatable" if repeatable else ""),
        **_repeatable(repeatable, flag.lstrip("-").replace("-", "_")),
    )


def add_json(parser: Any, what: str) -> None:
    parser.add_argument(
        "--json",
        type=output_path,
        default=None,
        metavar="PATH",
        help=f"write {what} as JSON to PATH",
    )


def write_json(path: str, payload: Any, what: str = "") -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {what}{path}")


def add_ir_cache(parser: Any) -> None:
    parser.add_argument(
        "--ir-cache",
        action="store_true",
        help="reuse (and store) stage-boundary IR snapshots: compilations "
        "sharing a pipeline prefix resume mid-pipeline, byte-identically",
    )
    parser.add_argument(
        "--ir-cache-dir",
        default=None,
        metavar="PATH",
        help="IR snapshot cache directory (default: $REPRO_IR_CACHE or "
        "~/.cache/repro/ir; requires --ir-cache)",
    )


def check_ir_cache(parser: Any, args: Any) -> None:
    # The DSE CLI leaves a flag it was not given out of ``args``.
    if getattr(args, "ir_cache_dir", None) is not None and not getattr(args, "ir_cache", False):
        parser.error("--ir-cache-dir requires --ir-cache")


def add_registry_flags(parser: Any) -> None:
    """``--fidelity`` plus the registry listings both compile CLIs print."""
    parser.add_argument(
        "--fidelity",
        choices=list(FIDELITIES),
        default=DEFAULT_FIDELITY,
        help="QoR fidelity: 'estimate' (analytic model) or 'simulate' "
        "(dataflow simulation); see --list-fidelities (default: estimate)",
    )
    parser.add_argument(
        "--list-fidelities",
        action="store_true",
        help="list registered QoR fidelity levels and exit",
    )
    parser.add_argument(
        "--list-workloads",
        action="store_true",
        help="list registered workloads (models and kernels) and exit",
    )


def print_listing(args: Any) -> bool:
    """Print what a ``--list-*`` flag of :func:`add_registry_flags` asked for."""
    if args.list_workloads:
        for handle in iter_workloads():
            definition = handle.definition
            params = ", ".join(f"{p.name}={p.default}" for p in definition.params)
            print(f"{definition.name:14s} {definition.kind:7s} "
                  f"[{params or '-'}]  {definition.description}")
    elif args.list_fidelities:
        for rank, (name, description) in enumerate(FIDELITIES.items()):
            print(f"{name:10s} rank {rank}  {description}")
    return args.list_workloads or args.list_fidelities


def add_sweep_flags(parser: Any) -> None:
    """The flags of the two zoo sweeps (``repro.analysis`` and its ``.tv``)."""
    parser.add_argument(
        "--all-workloads",
        action="store_true",
        help="sweep every registered workload instead of --workload",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="print every individual result, not just the summary",
    )
    parser.add_argument(
        "--annotate",
        action="store_true",
        help="emit a GitHub Actions workflow annotation per finding or failure",
    )


def sweep_workloads(parser: Any, args: Any, kind: Optional[str] = None) -> List[Any]:
    """The handles a zoo sweep runs: the ``--workload`` handles, or every
    registered workload (of ``kind``) with ``--all-workloads``."""
    if bool(args.workloads) == args.all_workloads:
        parser.error("pass --workload NAME (repeatable) or --all-workloads, not both")
    return list(iter_workloads(kind=kind)) if args.all_workloads else args.workloads


def github_annotation(level: str, title: str, message: str, **location: Any) -> str:
    """One ``::level [file=..,line=..,]title=..::message`` workflow command."""
    properties = ",".join(f"{k}={v}" for k, v in {**location, "title": title}.items())
    return f"::{level} {properties}::{message}"
