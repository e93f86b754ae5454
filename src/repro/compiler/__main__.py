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
import sys
from typing import Dict, List, Optional

from .. import _cli, obs
from ..dse.fidelity import payload
from ..estimation.platform import iter_platforms
from .driver import (
    DEFAULT_PIPELINE,
    Compiler,
    DiagnosticsObserver,
    PipelineObserver,
    SnapshotObserver,
)
from .spec import PipelineSpecError
from .stages import stage_registry


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
        "--list-targets",
        action="store_true",
        help="list registered target platforms and exit",
    )
    _cli.add_registry_flags(parser)
    _cli.add_spec(parser, "--spec", default=DEFAULT_PIPELINE)
    _cli.add_workload(parser)
    _cli.add_target(parser, default="vu9p-slr")
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
    _cli.add_ir_cache(parser)
    parser.add_argument(
        "--cache-stats",
        action="store_true",
        help="print IR-cache statistics (prefix hits, stages skipped, "
        "frontend traces, snapshots stored) after the run",
    )
    _cli.add_json(parser, "the result summary")
    obs.add_cli_arguments(parser)
    return parser


def _print_stage_list() -> None:
    for name, cls in stage_registry().items():
        doc = (cls.__doc__ or "").strip().splitlines()[0] if cls.__doc__ else ""
        print(f"{name:28s} {doc}")
        for decl in cls.option_decls:
            default = decl.render(decl.default) if decl.default is not None else "-"
            print(f"  {decl.name}={default:<12s} {decl.help}")


def _print_target_list() -> None:
    for platform in iter_platforms():
        aliases = ", ".join(platform.aliases) or "-"
        print(f"{platform.name:10s} {platform.dsps:5d} DSP  "
              f"{platform.bram_18k:5d} BRAM18K  {platform.luts:7,d} LUT  "
              f"{platform.clock_mhz:5.0f} MHz  aliases: {aliases}")
        if platform.description:
            print(f"  {platform.description}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.print_default_pipeline:
        print(DEFAULT_PIPELINE)
        return 0
    if args.list_stages:
        _print_stage_list()
        return 0
    if args.list_targets:
        _print_target_list()
        return 0
    if _cli.print_listing(args):
        return 0
    if args.workload is None:
        parser.error(
            "--workload is required unless listing stages/workloads/targets "
            "or the default spec"
        )
    _cli.check_ir_cache(parser, args)
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

    from ..analysis import AnalysisError
    from ..analysis.tv import TranslationValidationError
    from ..ir.verifier import VerificationError

    try:
        compiler = Compiler.from_spec(
            spec_text,
            platform=args.platform,
            verify_each=args.verify,
            observers=observers,
        )
        print(f"pipeline: {compiler.spec_text()}")
        print(f"platform: {args.platform}   spec-hash: {compiler.spec_hash()}")
        obs.cli_configure(args)
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
            "snapshots_refused",
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

    qor = payload(args.fidelity, result)
    summary = qor["summary"]
    print(f"\n{args.workload.label()} on {args.platform} "
          f"({args.fidelity} fidelity):")
    for key, value in summary.items():
        rendered = f"{value:.2f}" if isinstance(value, float) else str(value)
        print(f"  {key}: {rendered}")

    if args.json:
        stage_seconds: Dict[str, float] = {}
        for name, seconds in result.stage_timings:
            stage_seconds[name] = stage_seconds.get(name, 0.0) + seconds
        report = {
            "workload": args.workload.label(),
            "platform": args.platform,
            "pipeline_spec": compiler.spec_text(),
            "spec_hash": compiler.spec_hash(),
            "fidelity": args.fidelity,
            "summary": summary,
            "estimate": qor["estimate"],
            "stage_seconds": stage_seconds,
        }
        _cli.write_json(args.json, report)

    obs.cli_finish(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
