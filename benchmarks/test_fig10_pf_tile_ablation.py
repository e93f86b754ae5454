"""Figure 10: parallel factor and tile size ablation on ResNet-18.

Sweeps the maximum parallel factor (1 to 256) and the tile size (2 to 32)
and reports DSP utilization, memory utilization and throughput for each
combination, reproducing the trends of Figure 10:

* all three metrics grow with the parallel factor;
* very small tiles inflate DSP usage (address generation) and hurt
  throughput (insufficient bandwidth / short bursts);
* memory utilization grows with the tile size.
"""

from repro.compiler import Compiler, default_stages
from repro.evaluation import format_table

PLATFORM = "vu9p-slr"
PARALLEL_FACTORS = [1, 4, 16, 64, 256]
TILE_SIZES = [2, 8, 16, 32]


def _run_sweep():
    samples = []
    for factor in PARALLEL_FACTORS:
        for tile in TILE_SIZES:
            stages = default_stages(parallelize={"factor": factor}, tile={"size": tile})
            result = Compiler(stages, platform=PLATFORM).run(workload="resnet18")
            resources = result.estimate.resources
            samples.append({
                "parallel_factor": factor,
                "tile_size": tile,
                "dsp": resources.dsp,
                "bram": resources.bram,
                "throughput": result.throughput,
            })
    return samples


def test_fig10_parallel_factor_tile_ablation():
    samples = _run_sweep()

    print()
    print(format_table(
        ["Parallel factor", "Tile size", "DSP", "BRAM (18K)", "Throughput (samp/s)"],
        [
            [s["parallel_factor"], s["tile_size"], round(s["dsp"]), round(s["bram"]),
             f"{s['throughput']:.2f}"]
            for s in samples
        ],
        title="Figure 10: parallel factor / tile size ablation (ResNet-18)",
    ))

    def lookup(factor, tile):
        return [s for s in samples if s["parallel_factor"] == factor and s["tile_size"] == tile][0]

    # Throughput and DSPs grow with the parallel factor (at a fixed tile size).
    for tile in (16,):
        series = [lookup(f, tile) for f in PARALLEL_FACTORS]
        assert series[-1]["throughput"] > series[0]["throughput"] * 4
        assert series[-1]["dsp"] > series[0]["dsp"]

    # Small tiles increase DSP usage (address generation) at a fixed factor.
    assert lookup(1, 2)["dsp"] > lookup(1, 32)["dsp"]
    # Throughput correlates positively with the tile size at large factors.
    assert lookup(256, 32)["throughput"] >= lookup(256, 2)["throughput"]
    # Memory utilization does not decrease when the tile size grows.
    assert lookup(64, 32)["bram"] >= lookup(64, 2)["bram"] * 0.9
