#!/usr/bin/env python3
"""Multi-fidelity exploration: analytic estimates raced against simulation.

The analytic QoR model scores a design point in microseconds but assumes
loop bands stream element-wise and overlap perfectly inside every dataflow
node.  The dataflow simulator (:func:`repro.estimation.simulate_graphs`)
replays the final design frame by frame from the estimate stage's graphs —
bands execute atomically, nodes pipeline internally at their band-chain
interval, and channel capacities apply back-pressure — which is closer to
cycle truth, and routinely *reorders* near-tied designs.

This script sweeps one kernel twice: once at the base fidelity and once
with promotion racing (``fidelity="simulate"``), then prints where the two
frontiers disagree and how far the analytic scores drifted on every
promoted point.

Run with:  python examples/dse_multifidelity.py [--workers N] [--promote-top F]
"""

import argparse

from repro.dse import build_space, explore, polybench_suite


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--kernel", default="2mm", help="PolyBench kernel to sweep (default: 2mm)"
    )
    parser.add_argument(
        "--promote-top",
        type=float,
        default=0.5,
        help="fraction of the sweep promoted to the simulator (default: 0.5)",
    )
    args = parser.parse_args()

    suite = [s for s in polybench_suite() if s.name == args.kernel]
    if not suite:
        parser.error(f"unknown kernel {args.kernel!r}")
    space = build_space("medium", suite=suite)

    estimate_only = explore(space, workers=args.workers)
    multi = explore(
        space,
        workers=args.workers,
        fidelity="simulate",
        promote_top=args.promote_top,
    )

    print(f"\n=== estimate-only frontier ({args.kernel}, medium space) ===")
    print(estimate_only.frontier_table())
    print(f"\n=== multi-fidelity frontier (promote top {args.promote_top:.0%}) ===")
    print(multi.frontier_table())
    print()
    print(multi.disagreement_table())

    estimate_keys = set(estimate_only.frontier_keys())
    multi_keys = set(multi.frontier_keys())
    entered = multi_keys - estimate_keys
    left = estimate_keys - multi_keys
    print(
        f"\nsimulation promoted {multi.num_promoted} point(s); "
        f"{len(entered)} design(s) entered the frontier and "
        f"{len(left)} left it once simulated records re-ranked the race"
    )


if __name__ == "__main__":
    main()
