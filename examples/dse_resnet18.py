#!/usr/bin/env python3
"""Design-space exploration over ResNet-18 accelerator configurations.

Instead of compiling one hand-picked configuration (see
``resnet18_dataflow.py``), this example sweeps the HIDA option space —
unroll-factor budget, external-memory tile size, fusion depth — compiling
each pipeline prefix the points share once, caches every QoR result by
content hash, and reports the Pareto frontier over (latency, DSP, BRAM).
Re-running the script is nearly instant: every point replays from the cache.

The DSE hands a pool one prefix group (the points of one workload on one
platform) per task.  This sweep is one group, so it runs in-process for
any ``--workers``; add a workload or a platform to the space to fan out.

Run with:  python examples/dse_resnet18.py [--workers N]
"""

import argparse

from repro.dse import DesignPoint, DesignSpace, explore
from repro.estimation import get_platform


def build_resnet_space() -> DesignSpace:
    """ResNet-18 on one VU9P SLR under a grid of optimization budgets.

    ``DesignPoint.for_workload`` resolves the workload through the
    :mod:`repro.workloads` registry, so swapping the swept model (or a
    parameterized variant like ``"resnet18@batch=4"``) is a one-string edit.
    """
    space = DesignSpace()
    for factor in (16, 64, 128):
        for tile in (0, 16, 32):
            for top_k in (0, 2):
                space.add(
                    DesignPoint.for_workload(
                        "resnet18",
                        platform="vu9p-slr",
                        max_parallel_factor=factor,
                        tile_size=tile,
                        top_k_fusion=top_k,
                    )
                )
    return space


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="pool size; one task per workload x platform group, so this "
        "one-group sweep runs in-process whatever the count",
    )
    args = parser.parse_args()

    space = build_resnet_space()
    print(f"exploring {len(space)} ResNet-18 design points")
    result = explore(space, workers=args.workers)

    print()
    print(result.frontier_table())

    platform = get_platform("vu9p-slr")
    fitting = [r for r in result.frontier if r.get("fits")]
    print()
    print(
        f"{result.num_points} points in {result.elapsed_seconds:.2f}s, "
        f"{result.cache_hits} from cache; "
        f"{len(fitting)}/{len(result.frontier)} frontier designs fit {platform.name}"
    )
    best = result.best_by("throughput", minimize=False)
    if best is not None:
        summary = best["summary"]
        print(
            f"fastest design: {best['label']} — "
            f"{summary['throughput']:.1f} images/s, "
            f"{summary['dsp']:.0f} DSP, {summary['bram']:.0f} BRAM"
        )


if __name__ == "__main__":
    main()
