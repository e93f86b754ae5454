#!/usr/bin/env python3
"""Quickstart: compile a small C++-style kernel with HIDA and inspect the result.

Builds the Listing-1 kernel from the paper, runs the full HIDA pipeline
(Functional construction, task fusion, Structural lowering, dataflow
optimization, IA+CA parallelization), prints the chosen design parameters,
the QoR estimate, and the generated HLS C++.

Run with:  python examples/quickstart.py
"""

from repro import Compiler, emit_hls_cpp
from repro.frontend.cpp import build_listing1
from repro.hida import collect_band_infos, collect_connections, connection_table
from repro.ir import print_op


def main() -> None:
    # 1. Build the input program (this is what Polygeist would produce from
    #    the paper's Listing 1 C++ code).
    module = build_listing1()
    print("=== Input affine-loop IR (excerpt) ===")
    print("\n".join(print_op(module).splitlines()[:20]))

    # 2. Compile with HIDA through the textual-pipeline front door.  The
    #    spec is the Figure-3 flow with task fusion and tiling dropped
    #    (equivalently: Compiler(default_stages(drop=["fuse-tasks", "tile"]))).
    compiler = Compiler.from_spec(
        "construct-dataflow,lower-linalg,lower-structural,"
        "eliminate-multi-producers,balance,parallelize{factor=32},estimate",
        platform="zu3eg",
    )
    print(f"\n=== Pipeline ===\n{compiler.spec_text()}  [{compiler.spec_hash()}]")
    result = compiler.run(module)

    # 3. Inspect the dataflow design HIDA produced.
    print("\n=== Dataflow schedule ===")
    schedule = result.schedules[0]
    for node in schedule.nodes:
        print(f"  node {node.label!r}: "
              f"{len(node.inputs)} inputs, {len(node.outputs)} outputs")
    for buffer in schedule.buffers:
        print(f"  buffer {buffer.result().name_hint!r}: "
              f"{buffer.memref_type}, partition {buffer.partition}, "
              f"ping-pong depth {buffer.depth}")

    print("\n=== Connection analysis (Table 4) ===")
    bands = collect_band_infos(schedule)
    for row in connection_table(collect_connections(schedule, bands)):
        print(f"  {row['source']} -> {row['target']} via {row['buffer']}: "
              f"permutation {row['s_to_t_permutation']}, "
              f"scaling {row['s_to_t_scaling']}")

    print("\n=== Chosen unroll factors (Table 5) ===")
    for label, factors in result.parallelization.unroll_factors.items():
        print(f"  {label}: {factors}")

    print("\n=== QoR estimate ===")
    for key, value in result.summary().items():
        print(f"  {key}: {value:.2f}" if isinstance(value, float) else f"  {key}: {value}")

    # 4. Emit HLS C++ for a downstream HLS tool.
    code = emit_hls_cpp(result.module)
    print("\n=== Generated HLS C++ (excerpt) ===")
    print("\n".join(code.splitlines()[:30]))


if __name__ == "__main__":
    main()
