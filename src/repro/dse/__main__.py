"""Command-line design-space exploration driver.

Examples::

    python -m repro.dse --space small --workers 8
    python -m repro.dse --space medium --suite dnn --platform pynq-z2
    python -m repro.dse --space small --workload resnet18@batch=4 --workload 2mm
    python -m repro.dse --space small --dry-run
    python -m repro.dse --space full --sample 64 --seed 7 --json sweep.json
    python -m repro.dse --space full --resume --json partial.json
    python -m repro.dse --space full --strategy random --budget 64 --seed 3 --workers 8
    python -m repro.dse --space small --strategy random --budget 12 \\
        --fidelity simulate --promote-top 0.25
    python -m repro.dse --list-strategies
    python -m repro.dse --list-fidelities
    python -m repro.dse --pipeline-spec "construct-dataflow,lower-structural,parallelize{factor=8},estimate"
    python -m repro.dse --clear-cache
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .. import _cli, obs
from .cache import QoRCache, default_cache_dir
from .config import ExploreConfig
from .pareto import DEFAULT_OBJECTIVES
from .runner import explore
from .search import STRATEGIES
from .space import SPACE_PRESETS, build_space, dnn_suite, polybench_suite


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.dse",
        description="Explore HIDA design spaces in parallel with QoR caching "
        "(default: the polybench suite on zu3eg).",
    )
    parser.add_argument(
        "--space",
        choices=sorted(SPACE_PRESETS),
        default="small",
        help="design-space preset (default: small)",
    )
    parser.add_argument(
        "--suite",
        choices=("polybench", "dnn"),
        default="polybench",
        help="workload suite to sweep (default: polybench)",
    )
    _cli.add_workload(parser, repeatable=True)  # instead of a --suite
    _cli.add_registry_flags(parser)
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="resolve and print the design points without evaluating them",
    )
    _cli.add_target(parser, default=None, repeatable=True)
    parser.add_argument(
        "--workers", type=int, default=1, help="worker processes (default: 1)"
    )
    parser.add_argument(
        "--sample",
        type=int,
        default=0,
        metavar="N",
        help="seeded subsample of N points from the space (0 = all)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="sampling / search seed (default: 0)",
    )
    parser.add_argument(
        "--strategy",
        choices=list(STRATEGIES),
        default=None,
        help="evaluate --budget points in this order instead of the full sweep",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=0,
        metavar="N",
        help="max distinct design points a --strategy run evaluates "
        "(cache hits count but cost no compile; 0 = space size)",
    )
    parser.add_argument(
        "--promote-top",
        type=float,
        default=None,
        metavar="FRACTION",
        help="fraction of the evaluated points promoted to the --fidelity "
        "level (default: 0.25; needs --fidelity simulate)",
    )
    parser.add_argument(
        "--list-strategies",
        action="store_true",
        help="list the search strategies and exit",
    )
    parser.add_argument(
        "--objectives",
        default=",".join(DEFAULT_OBJECTIVES),
        help="comma-separated summary metrics, each optimized in its "
        "natural direction (throughput is maximized, everything else "
        f"minimized; default: {','.join(DEFAULT_OBJECTIVES)})",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"QoR cache directory (default: {default_cache_dir()})",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the QoR cache"
    )
    _cli.add_ir_cache(parser)
    parser.add_argument(
        "--prefilter",
        action="store_true",
        help="statically reject infeasible design points before evaluation "
        "(deadlock / memory-race errors on the structural prefix, specs "
        "without an estimate stage); rejections never consume --budget "
        "and land in the result's 'rejected' list",
    )
    parser.add_argument(
        "--validate-frontier",
        action="store_true",
        help="translation-validate every Pareto-frontier design point "
        "(execute its pipeline under the reference interpreter stage by "
        "stage) before reporting; failures land in the result's "
        "'validation_failures' list and fail the run",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="stream already-cached points into the result and skip the "
        "rest (no compilation; pairs with --json to export partial sweeps)",
    )
    # Each spec is one more value of the pipeline design axis.
    _cli.add_spec(parser, "--pipeline-spec", default=None, repeatable=True)
    parser.add_argument(
        "--clear-cache", action="store_true", help="clear the cache and exit"
    )
    _cli.add_json(parser, "the full ExplorationResult")
    parser.add_argument(
        "--top",
        type=int,
        default=0,
        metavar="N",
        help="print at most N frontier rows (0 = all)",
    )
    obs.add_cli_arguments(parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _cli.check_ir_cache(parser, args)
    if args.sample < 0:
        parser.error(f"--sample must be non-negative (got {args.sample})")
    if args.workers < 0:
        parser.error(f"--workers must be non-negative (got {args.workers})")
    if args.budget < 0:
        parser.error(f"--budget must be non-negative (got {args.budget})")
    try:
        # Every other cross-field rule (--resume vs --no-cache/--strategy/
        # --fidelity, search flags without --strategy, --promote-top,
        # --objectives) is ExploreConfig's.
        config = ExploreConfig(
            workers=args.workers,
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
            objectives=tuple(
                name.strip() for name in args.objectives.split(",") if name.strip()
            ),
            resume=args.resume,
            strategy=args.strategy,
            budget=args.budget or None,
            # Without a strategy --seed only steers --sample.
            seed=args.seed if args.strategy else 0,
            fidelity=args.fidelity,
            promote_top=args.promote_top,
            ir_cache=args.ir_cache,
            ir_cache_dir=args.ir_cache_dir,
            prefilter=args.prefilter,
            validate_frontier=args.validate_frontier,
        )
    except ValueError as error:
        parser.error(str(error))

    if _cli.print_listing(args):
        return 0

    if args.list_strategies:
        for name, description in STRATEGIES.items():
            print(f"{name:12s} {description}")
        return 0

    if args.clear_cache:
        cache = QoRCache(args.cache_dir)
        removed = cache.clear()
        print(f"cleared {removed} cached QoR entries from {cache.root}")
        return 0

    if args.workloads:
        suite, suite_label = args.workloads, "custom suite"
    else:
        suite = polybench_suite() if args.suite == "polybench" else dnn_suite()
        suite_label = f"{args.suite} suite"
    platforms = tuple(args.platforms or ("zu3eg",))
    space = build_space(
        args.space,
        suite=suite,
        platforms=platforms,
        pipeline_specs=(None, *(args.pipeline_specs or ())),
    )
    if args.sample:
        space = space.sample(args.sample, seed=args.seed)
    if args.dry_run:
        print(
            f"{len(space)} design points "
            f"({args.space} space, {suite_label}, platforms: {', '.join(platforms)})"
        )
        if args.strategy:
            print(
                f"(--strategy {args.strategy} would evaluate at most "
                f"{args.budget or len(space)} of these, in its own order; "
                "this listing is the full space)"
            )
        for point in space:
            print(f"  {point.label()}  [{point.key()}]")
        return 0

    print(
        f"exploring {len(space)} design points "
        f"({args.space} space, {suite_label}, platforms: {', '.join(platforms)}) "
        f"with {args.workers} worker(s), cache "
        f"{'off' if args.no_cache else (args.cache_dir or str(default_cache_dir()))}"
    )
    obs.cli_configure(args)
    result = explore(space, config)

    if result.num_promoted:
        print()
        print(result.disagreement_table(max_rows=args.top))
    print()
    print(result.frontier_table(max_rows=args.top))
    stats = result.summary()
    print()
    evaluations = (
        f" ({result.num_points} evaluations)" if result.num_promoted else ""
    )
    print(
        f"{result.num_designs} designs{evaluations} in "
        f"{result.elapsed_seconds:.2f}s "
        f"({result.points_per_second:.1f} evals/s) — "
        f"{result.num_cached} from cache, {int(stats['errors'])} errors"
        + (f", {result.skipped} skipped (--resume)" if result.skipped else "")
        + (
            f", {result.num_promoted} promoted to {result.fidelity} fidelity"
            if result.num_promoted
            else ""
        )
        + (
            f"; strategy {result.strategy}: "
            f"{result.num_designs}/{result.budget} budget"
            if result.strategy
            else ""
        )
        + (
            f"; IR cache: {result.prefix_hits} prefix hit(s), "
            f"{result.stages_skipped} stage execution(s) skipped"
            if args.ir_cache
            else ""
        )
        + (
            f"; {len(result.rejected)} point(s) statically rejected"
            if args.prefilter
            else ""
        )
        + (
            f"; frontier validated: "
            f"{len(result.validation_failures)} failure(s)"
            if args.validate_frontier
            else ""
        )
    )
    if args.prefilter and result.rejected:
        for record in result.rejected[:5]:
            print(
                f"  rejected {record.get('label', '?')}: "
                f"{record.get('reason')} — {record.get('detail')}"
            )
    if result.errors:
        for record in result.errors[:3]:
            first_line = str(record["error"]).strip().splitlines()[-1]
            print(f"  error at {record.get('label', '?')}: {first_line}")
    if result.validation_failures:
        for record in result.validation_failures[:5]:
            print(
                f"  semantic mismatch at {record.get('label', '?')}: "
                f"{record.get('error')}"
            )

    if args.json:
        _cli.write_json(args.json, result.to_dict())
    obs.cli_finish(args)

    return (
        0
        if not result.errors
        and not result.validation_failures
        and result.frontier
        else 1
    )


if __name__ == "__main__":
    sys.exit(main())
