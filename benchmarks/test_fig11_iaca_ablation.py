"""Figure 11: intensity-aware (IA) and connection-aware (CA) parallelization
ablation on ResNet-18.

Four configurations (IA+CA, IA, CA, naive) are swept over the maximum
parallel factor; the paper's findings are that only IA+CA scales well (the
other modes degenerate into flawed designs with overly complicated control
logic at large factors) and that IA+CA uses substantially fewer DSPs and
less memory at the same throughput.
"""

from repro.baselines import ABLATION_MODES, run_ablation_mode
from repro.evaluation import format_table
from repro.workloads import as_module

PLATFORM = "vu9p-slr"
PARALLEL_FACTORS = [1, 8, 32, 64, 128]


def _run_ablation():
    samples = []
    for mode in ABLATION_MODES:
        for factor in PARALLEL_FACTORS:
            outcome = run_ablation_mode(
                as_module("resnet18"), mode, factor, platform=PLATFORM
            )
            samples.append(outcome.summary())
    return samples


def test_fig11_iaca_ablation():
    samples = _run_ablation()

    print()
    print(format_table(
        ["Mode", "Parallel factor", "DSP", "BRAM (18K)", "Throughput (samp/s)", "Misaligned"],
        [
            [s["mode"], s["parallel_factor"], round(s["dsp"]), round(s["bram"]),
             f"{s['throughput']:.2f}", s["misalignments"]]
            for s in samples
        ],
        title="Figure 11: IA/CA parallelization ablation (ResNet-18)",
    ))

    def lookup(mode, factor):
        return [
            s for s in samples if s["mode"] == mode and s["parallel_factor"] == factor
        ][0]

    # IA+CA scales with the parallel factor.
    iaca_series = [lookup("ia+ca", f)["throughput"] for f in PARALLEL_FACTORS]
    assert iaca_series[-1] > iaca_series[0] * 4

    # At a large parallel factor IA+CA dominates every other mode in
    # throughput per DSP: the intensity-unaware modes (CA, naive) waste
    # resources on non-critical nodes, and no mode may beat IA+CA.
    factor = 64
    iaca = lookup("ia+ca", factor)
    iaca_efficiency = iaca["throughput"] / max(iaca["dsp"], 1)
    for mode in ("ia", "ca", "naive"):
        other = lookup(mode, factor)
        other_efficiency = other["throughput"] / max(other["dsp"], 1)
        assert iaca_efficiency >= other_efficiency * 0.999, (
            f"IA+CA must not be less resource-efficient than {mode} at factor {factor}"
        )
    for mode in ("ca", "naive"):
        other = lookup(mode, factor)
        assert iaca_efficiency > (other["throughput"] / max(other["dsp"], 1)) * 1.5, (
            f"IA+CA must clearly beat the intensity-unaware {mode} mode"
        )

    # IA+CA never produces misaligned layouts, and the naive mode spends far
    # more DSPs for the same throughput.
    assert lookup("ia+ca", 64)["misalignments"] == 0
    assert lookup("naive", 64)["dsp"] >= 2 * lookup("ia+ca", 64)["dsp"]
