#!/usr/bin/env python3
"""Compile a PyTorch-style ResNet-18 into a dataflow accelerator with HIDA.

This example walks the DNN path of the paper's Figure 3: a model defined
with the nn-module frontend is traced to linalg-level IR, optimized by
HIDA-OPT into a hierarchical dataflow design for one VU9P SLR, and compared
against the ScaleHLS-style baseline under the same resource budget.

Run with:  python examples/resnet18_dataflow.py
"""

from repro import Compiler, default_stages, get_platform, get_workload
from repro.baselines import compile_scalehls_baseline
from repro.estimation import dsp_efficiency, memory_reduction
from repro.frontend.nn import layer_summary


def main() -> None:
    platform = get_platform("vu9p-slr")

    # 1. Resolve the workload from the registry and inspect the traced model.
    workload = get_workload("resnet18")
    module = workload.build_module()
    summary = layer_summary(module)
    total_macs = sum(row[3] for row in summary)
    print(f"ResNet-18: {len(summary)} layers, {total_macs / 1e9:.2f} GMACs per image")
    for name, label, shape, macs in summary[:6]:
        print(f"  {label:<28} {name:<26} out={shape} macs={macs:,}")
    print("  ...")

    # 2. Compile with HIDA at a parallel factor that fits the SLR: the
    #    default Figure-3 pipeline with only the parallelize stage retuned.
    compiler = Compiler(default_stages(parallelize={"factor": 128}), platform=platform.name)
    print(f"\npipeline: {compiler.spec_text()}")
    result = compiler.run(module)
    resources = result.estimate.resources
    efficiency = dsp_efficiency(
        result.throughput, total_macs, resources.dsp, platform.clock_hz
    )
    print("\n=== HIDA design ===")
    print(f"  dataflow nodes       : {sum(len(s.nodes) for s in result.schedules)}")
    print(f"  balanced buffers     : {result.balance_report.buffers_deepened}")
    print(f"  throughput           : {result.throughput:.1f} images/s")
    print(f"  DSPs / BRAMs / kLUTs : {resources.dsp:.0f} / {resources.bram:.0f} / {resources.lut / 1000:.0f}")
    print(f"  DSP efficiency       : {efficiency * 100:.1f}%")
    print(f"  compile time         : {result.compile_seconds:.2f} s")

    # 3. Compare with the ScaleHLS-style baseline (resolved by name).
    baseline = compile_scalehls_baseline("resnet18", max_parallel_factor=32)
    print("\n=== ScaleHLS baseline ===")
    print(f"  throughput           : {baseline.throughput:.1f} images/s")
    print(f"  DSPs / BRAMs         : {baseline.estimate.resources.dsp:.0f} / "
          f"{baseline.estimate.resources.bram:.0f}")
    print(f"\nHIDA speedup: {result.throughput / baseline.throughput:.1f}x, "
          f"on-chip memory reduction: "
          f"{memory_reduction(baseline.estimate.resources.bram, resources.bram):.1f}x")


if __name__ == "__main__":
    main()
