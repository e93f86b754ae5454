#!/usr/bin/env python3
"""How much of the exhaustive Pareto frontier a seeded random search recovers.

This is the table a search strategy is judged on.  A strategy earns its
lines only if its median recovered hypervolume beats ``random``'s median by
more than ``random``'s q1–q3 spread, on at least two of these spaces, at
some budget.

Spaces: the ``full`` space of six PolyBench kernels and of ``lenet``, and
the 45-point ``2mm`` space with a pipeline-spec axis (the ``medium`` knobs,
the four ablation specs × factor {8, 32, 128} × tile {0, 16}, and three
ScaleHLS specs).  Budgets: 10 % and 25 % of each space, 16 seeds each.
Each space is swept exhaustively once, which fixes the true frontier and
one shared hypervolume reference and fills the QoR cache, so every search
is a cache replay.  Cells are the median share of the exhaustive
frontier's hypervolume, with its q1–q3 range.

Run with:  python examples/dse_search_strategies.py [--workers N]
"""

import argparse
import statistics

from repro.baselines import ABLATION_MODES, ablation_pipeline_spec, scalehls_pipeline_spec
from repro.dse import build_space, explore, hypervolume, hypervolume_reference
from repro.evaluation import print_table

KERNELS = ("2mm", "atax", "3mm", "bicg", "gesummv", "mvt")
BUDGETS = (10, 25)  # percent of the space
SEEDS = range(16)


def spec_axis_space():
    """``medium`` 2mm plus 27 pipeline-spec points: 45 in all."""
    specs = [
        ablation_pipeline_spec(mode, factor, tile)
        for mode in ABLATION_MODES
        for factor in (8, 32, 128)
        for tile in (0, 16)
    ]
    specs += [scalehls_pipeline_spec(factor) for factor in (8, 32, 128)]
    return build_space("medium", suite=["2mm"], pipeline_specs=(None, *specs))


def spaces():
    for kernel in KERNELS:
        yield kernel, build_space("full", suite=[kernel])
    yield "2mm + spec axis", spec_axis_space()
    yield "lenet", build_space("full", suite=["lenet"])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()

    rows = []
    for name, space in spaces():
        exhaustive = explore(space, workers=args.workers)
        scored = [r for r in exhaustive.records if "error" not in r]
        reference = hypervolume_reference(scored, exhaustive.objectives)
        full_hv = hypervolume(exhaustive.frontier, exhaustive.objectives, reference)
        row = [name, len(space)]
        for percent in BUDGETS:
            budget = max(1, len(space) * percent // 100)
            shares = [
                hypervolume(result.frontier, result.objectives, reference) / full_hv
                for result in (
                    explore(space, strategy="random", budget=budget, seed=seed)
                    for seed in SEEDS
                )
            ]
            q1, median, q3 = statistics.quantiles(shares, n=4, method="exclusive")
            row += [budget, f"{median:.3f} [{q1:.3f}–{q3:.3f}]", f"{min(shares):.3f}"]
        rows.append(row)

    headers = ["space", "points"]
    for percent in BUDGETS:
        headers += [f"{percent}% budget", "random median [q1–q3]", "min"]
    print_table(
        headers,
        rows,
        title=f"Recovered share of the exhaustive frontier's hypervolume ({len(SEEDS)} seeds)",
    )


if __name__ == "__main__":
    main()
