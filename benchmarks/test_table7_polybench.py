"""Table 7: PolyBench C++ kernel evaluation on the ZU3EG platform.

For every kernel the harness reports HIDA's compile time, resources and
throughput, next to the ScaleHLS baseline, the SOFF reference numbers ported
from its paper, and the Vitis-HLS-only baseline — the same columns as the
paper's Table 7.
"""

import pytest

from conftest import fit_dsp_budget, hida_at, scalehls_at
from repro.baselines import compile_vitis_baseline, soff_throughput
from repro.estimation import geometric_mean
from repro.evaluation import format_ratio, format_table
from repro.workloads import as_module, get_workload, list_workloads

PLATFORM = "zu3eg"


def _evaluate_kernel(name):
    hida = fit_dsp_budget(hida_at(name, PLATFORM, drop=["tile"]), PLATFORM, (8, 16, 32, 64))
    scalehls = fit_dsp_budget(scalehls_at(name, PLATFORM), PLATFORM, (8, 16, 32, 64))
    vitis = compile_vitis_baseline(as_module(name), platform=PLATFORM)
    return {
        "kernel": name,
        "tags": get_workload(name).tags,
        "compile_seconds": hida.compile_seconds,
        "lut": hida.estimate.resources.lut,
        "ff": hida.estimate.resources.ff,
        "dsp": hida.estimate.resources.dsp,
        "hida": hida.throughput,
        "scalehls": scalehls.throughput,
        "soff": soff_throughput(name),
        "vitis": vitis.throughput,
    }


def _run_table7():
    return [_evaluate_kernel(name) for name in sorted(list_workloads(tag="polybench"))]


def test_table7_polybench():
    rows_data = _run_table7()

    table_rows = []
    for row in rows_data:
        table_rows.append([
            row["kernel"],
            f"{row['compile_seconds']:.2f}",
            round(row["lut"]),
            round(row["dsp"]),
            f"{row['hida']:.2f}",
            f"{row['scalehls']:.2f} ({format_ratio(row['hida'] / row['scalehls'])})",
            "-" if row["soff"] is None else f"{row['soff']:.2f}",
            f"{row['vitis']:.2f} ({format_ratio(row['hida'] / row['vitis'])})",
        ])
    print()
    print(format_table(
        ["Kernel", "Compile (s)", "LUT", "DSP", "HIDA (samp/s)", "ScaleHLS", "SOFF", "Vitis"],
        table_rows,
        title="Table 7: C++ kernel evaluation (ZU3EG)",
    ))

    speedup_vs_scalehls = geometric_mean(r["hida"] / r["scalehls"] for r in rows_data)
    speedup_vs_vitis = geometric_mean(r["hida"] / r["vitis"] for r in rows_data)
    multi = geometric_mean(
        r["hida"] / r["scalehls"] for r in rows_data if "multi-loop" in r["tags"]
    )
    single = geometric_mean(
        r["hida"] / r["scalehls"] for r in rows_data if "single-loop" in r["tags"]
    )
    print(f"Geo-mean HIDA/ScaleHLS: {speedup_vs_scalehls:.2f}x "
          f"(multi-loop {multi:.2f}x, single-loop {single:.2f}x); "
          f"HIDA/Vitis: {speedup_vs_vitis:.2f}x")

    # Shape assertions from the paper's analysis.
    assert speedup_vs_vitis > 3.0, "HIDA must clearly beat the Vitis-only baseline"
    assert speedup_vs_scalehls >= 1.0
    assert multi > 1.05, "dataflow gains concentrate on multi-loop kernels"
    assert single == pytest.approx(1.0, abs=0.25), "single-loop kernels are on par"
    assert all(r["compile_seconds"] < 30 for r in rows_data)
