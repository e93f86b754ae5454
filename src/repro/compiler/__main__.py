"""Command-line compiler front door.

Examples::

    python -m repro.compiler --print-default-pipeline
    python -m repro.compiler --list-stages
    python -m repro.compiler --list-workloads
    python -m repro.compiler --list-targets
    python -m repro.compiler --workload atax --target zu3eg
    python -m repro.compiler --workload resnet18@batch=4 --target vu9p-slr
    python -m repro.compiler --workload lenet \\
        --spec "construct-dataflow,lower-structural,parallelize{factor=8},estimate" \\
        --timings --print-ir parallelize
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from .. import obs
from ..workloads import UnknownWorkloadError, get_workload, iter_workloads
from ..targets import UnknownTargetError, get_target, iter_targets
from .driver import (
    DEFAULT_PIPELINE,
    Compiler,
    DiagnosticsObserver,
    PipelineObserver,
    SnapshotObserver,
)
from .spec import PipelineSpecError
from .stages import stage_registry


def _parse_workload(text: str):
    """A registry workload id (``resnet18@batch=4``, legacy ``model:lenet@4``)."""
    try:
        return get_workload(text)
    except (UnknownWorkloadError, ValueError) as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.compiler",
        description="Compile a workload through a textual pipeline spec.",
    )
    parser.add_argument(
        "--print-default-pipeline",
        action="store_true",
        help="print the canonical default pipeline spec and exit",
    )
    parser.add_argument(
        "--list-stages",
        action="store_true",
        help="list registered stages with their options and exit",
    )
    parser.add_argument(
        "--list-workloads",
        action="store_true",
        help="list registered workloads (models and kernels) and exit",
    )
    parser.add_argument(
        "--list-targets",
        action="store_true",
        help="list registered target platforms and exit",
    )
    parser.add_argument(
        "--spec",
        default=DEFAULT_PIPELINE,
        help="textual pipeline spec (default: the full Figure-3 pipeline)",
    )
    parser.add_argument(
        "--workload",
        type=_parse_workload,
        default=None,
        metavar="NAME[@PARAM=VALUE,...]",
        help="registered workload id, e.g. atax, resnet18@batch=4 or 2mm@n=16 "
        "(see --list-workloads; legacy kind:name[@batch] still accepted)",
    )
    parser.add_argument(
        "--target",
        "--platform",
        dest="platform",
        default="vu9p-slr",
        metavar="NAME",
        help="registered target platform or alias (default: vu9p-slr; "
        "see --list-targets)",
    )
    parser.add_argument(
        "--fidelity",
        default="estimate",
        metavar="LEVEL",
        help="QoR fidelity of the reported summary: 'estimate' (analytic "
        "model) or 'simulate' (dataflow simulation of the final design); "
        "see --list-fidelities (default: estimate)",
    )
    parser.add_argument(
        "--list-fidelities",
        action="store_true",
        help="list registered QoR fidelity levels and exit",
    )
    parser.add_argument(
        "--verify",
        "--verify-ir",
        dest="verify",
        action="store_true",
        help="verify the IR after every stage; violations surface as "
        "structured diagnostics and exit with status 3",
    )
    parser.add_argument(
        "--lint",
        action="store_true",
        help="append the static-analysis 'lint' stage to the pipeline "
        "(deadlock, token-balance, memory-race and buffer-sizing rules; "
        "see python -m repro.analysis --list-rules)",
    )
    parser.add_argument(
        "--lint-fail-on",
        choices=("never", "note", "warning", "error"),
        default="never",
        metavar="SEVERITY",
        help="with --lint, exit with status 4 when any finding reaches "
        "this severity (default: never)",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="translation-validate every stage boundary against the "
        "reference interpreter; a behavioral mismatch exits with status 5",
    )
    parser.add_argument(
        "--validate-tolerance",
        type=float,
        default=0.0,
        metavar="REL",
        help="with --validate, relative float tolerance for reassociating "
        "transforms (default: 0 = bitwise)",
    )
    parser.add_argument(
        "--timings", action="store_true", help="print per-stage wall-clock timings"
    )
    parser.add_argument(
        "--print-ir",
        nargs="?",
        const="*",
        default=None,
        metavar="STAGE",
        help="print the IR after every stage (or only after STAGE)",
    )
    parser.add_argument(
        "--ir-cache",
        action="store_true",
        help="reuse stage-boundary IR snapshots from the incremental "
        "compilation cache (and store new ones)",
    )
    parser.add_argument(
        "--ir-cache-dir",
        default=None,
        metavar="PATH",
        help="IR snapshot cache directory (default: $REPRO_IR_CACHE or "
        "~/.cache/repro/ir; requires --ir-cache)",
    )
    parser.add_argument(
        "--cache-stats",
        action="store_true",
        help="print IR-cache statistics (prefix hits, stages skipped, "
        "frontend traces, snapshots stored) after the run",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the result summary as JSON to PATH",
    )
    obs.add_cli_arguments(parser)
    return parser


def _print_stage_list() -> None:
    for name, cls in stage_registry().items():
        doc = (cls.__doc__ or "").strip().splitlines()[0] if cls.__doc__ else ""
        print(f"{name:28s} {doc}")
        for decl in cls.option_decls:
            default = decl.render(decl.default) if decl.default is not None else "-"
            print(f"  {decl.name}={default:<12s} {decl.help}")


def _print_workload_list() -> None:
    for handle in iter_workloads():
        definition = handle.definition
        params = ", ".join(
            f"{decl.name}={decl.default}" for decl in definition.params
        )
        print(f"{definition.name:14s} {definition.kind:7s} "
              f"[{params or '-'}]  {definition.description}")


def _print_target_list() -> None:
    for target in iter_targets():
        platform = target.platform
        aliases = ", ".join(target.aliases) or "-"
        print(f"{target.name:10s} {platform.dsps:5d} DSP  "
              f"{platform.bram_18k:5d} BRAM18K  {platform.luts:7,d} LUT  "
              f"{platform.clock_mhz:5.0f} MHz  aliases: {aliases}")
        if target.description:
            print(f"  {target.description}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.print_default_pipeline:
        print(DEFAULT_PIPELINE)
        return 0
    if args.list_stages:
        _print_stage_list()
        return 0
    if args.list_workloads:
        _print_workload_list()
        return 0
    if args.list_targets:
        _print_target_list()
        return 0
    if args.list_fidelities:
        from ..dse.fidelity import describe_fidelities

        for line in describe_fidelities():
            print(line)
        return 0
    from ..dse.fidelity import get_fidelity

    try:
        fidelity = get_fidelity(args.fidelity)
    except ValueError as error:
        parser.error(f"--fidelity: {error}")
    if args.workload is None:
        parser.error(
            "--workload is required unless listing stages/workloads/targets "
            "or the default spec"
        )
    try:
        target = get_target(args.platform)
    except UnknownTargetError as error:
        parser.error(str(error))
    platform_name = target.name
    if args.ir_cache_dir is not None and not args.ir_cache:
        parser.error("--ir-cache-dir requires --ir-cache")
    if args.lint_fail_on != "never" and not args.lint:
        parser.error("--lint-fail-on requires --lint")
    if args.validate_tolerance and not args.validate:
        parser.error("--validate-tolerance requires --validate")
    spec_text = args.spec
    if args.validate:
        from ..analysis.tv import interleave_validate

        spec_text = interleave_validate(
            spec_text, tolerance=args.validate_tolerance
        )
    if args.lint:
        lint_stage = "lint"
        if args.lint_fail_on != "never":
            lint_stage = f"lint{{fail-on={args.lint_fail_on}}}"
        spec_text = f"{spec_text},{lint_stage}"
    ir_cache = None
    if args.ir_cache:
        from .ircache import IRSnapshotCache

        ir_cache = IRSnapshotCache(args.ir_cache_dir)

    diagnostics = DiagnosticsObserver()
    observers: List[PipelineObserver] = [diagnostics]
    snapshots = None
    if args.print_ir is not None:
        if args.print_ir != "*" and args.print_ir not in stage_registry():
            parser.error(
                f"--print-ir: unknown stage {args.print_ir!r}; "
                f"known stages: {', '.join(stage_registry())}"
            )
        snapshots = SnapshotObserver(None if args.print_ir == "*" else [args.print_ir])
        observers.append(snapshots)

    try:
        compiler = Compiler.from_spec(
            spec_text,
            platform=platform_name,
            verify_each=args.verify,
            observers=observers,
        )
    except PipelineSpecError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"pipeline: {compiler.spec_text()}")
    print(f"platform: {platform_name}   spec-hash: {compiler.spec_hash()}")

    from ..analysis import AnalysisError
    from ..analysis.tv import TranslationValidationError
    from ..ir.verifier import VerificationError

    obs.cli_configure(args)
    try:
        result = compiler.run(workload=args.workload, ir_cache=ir_cache)
    except PipelineSpecError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except VerificationError as error:
        for diagnostic in diagnostics.diagnostics:
            print(f"  {diagnostic}", file=sys.stderr)
        print(f"error: {error}", file=sys.stderr)
        return 3
    except AnalysisError as error:
        for diagnostic in diagnostics.diagnostics:
            print(f"  {diagnostic}", file=sys.stderr)
        print(f"error: {error}", file=sys.stderr)
        return 4
    except TranslationValidationError as error:
        for diagnostic in diagnostics.diagnostics:
            print(f"  {diagnostic}", file=sys.stderr)
        print(f"error: {error}", file=sys.stderr)
        return 5

    if args.cache_stats:
        stats = compiler.ir_cache_stats
        print("\nir-cache stats:")
        for key in (
            "prefix_hits",
            "stages_skipped",
            "stages_run",
            "frontend_traces",
            "snapshots_stored",
        ):
            print(f"  {key}: {stats[key]}")

    if snapshots is not None:
        for stage_name, text in snapshots.snapshots:
            print(f"\n=== IR after {stage_name} ===")
            print(text)
    for diagnostic in diagnostics.diagnostics:
        print(f"  {diagnostic}")
    if args.timings:
        print("\nper-stage timings:")
        for name, seconds in result.stage_timings:
            print(f"  {name:28s} {seconds * 1e3:8.2f} ms")

    qor = fidelity.apply(result)
    summary = qor["summary"]
    print(f"\n{args.workload.label()} on {platform_name} "
          f"({fidelity.name} fidelity):")
    for key, value in summary.items():
        rendered = f"{value:.2f}" if isinstance(value, float) else str(value)
        print(f"  {key}: {rendered}")

    if args.json:
        stage_seconds: Dict[str, float] = {}
        for name, seconds in result.stage_timings:
            stage_seconds[name] = stage_seconds.get(name, 0.0) + seconds
        payload = {
            "workload": args.workload.label(),
            "platform": platform_name,
            "pipeline_spec": compiler.spec_text(),
            "spec_hash": compiler.spec_hash(),
            "fidelity": fidelity.name,
            "summary": summary,
            "estimate": qor["estimate"],
            "stage_seconds": stage_seconds,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")

    telemetry = obs.cli_finish(args)
    if telemetry is not None:
        print(
            f"telemetry: {telemetry['spans']} spans, "
            f"{telemetry['events']} events; "
            f"compile {telemetry['compile_seconds']:.2f}s, "
            f"simulate {telemetry['simulate_seconds']:.3f}s, "
            f"cache probes {telemetry['cache_probe_seconds']:.3f}s"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
