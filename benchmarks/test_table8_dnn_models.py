"""Table 8: PyTorch model evaluation on one VU9P super logic region.

Reports HIDA throughput and DSP efficiency for the seven DNN models,
compared with the ScaleHLS baseline and the DNNBuilder-style RTL baseline
(which, as in the paper, does not support ResNet-18 or MobileNet).
"""

from conftest import fit_dsp_budget, hida_at, scalehls_at
from repro.baselines import UnsupportedModelError, compile_dnnbuilder_baseline
from repro.estimation import dsp_efficiency, geometric_mean, get_platform
from repro.evaluation import format_ratio, format_table
from repro.frontend.nn import layer_summary
from repro.workloads import as_module

PLATFORM = "vu9p-slr"
MODELS = ["resnet18", "mobilenet", "zfnet", "vgg16", "yolo", "mlp"]


def _evaluate_model(name):
    platform = get_platform(PLATFORM)
    macs = sum(row[3] for row in layer_summary(as_module(name)))
    hida = fit_dsp_budget(hida_at(name, PLATFORM), PLATFORM, (32, 64, 128, 256))
    scalehls = fit_dsp_budget(scalehls_at(name, PLATFORM), PLATFORM, (4, 8, 16, 32, 64))
    try:
        dnnbuilder = compile_dnnbuilder_baseline(as_module(name), platform=PLATFORM)
    except UnsupportedModelError:
        dnnbuilder = None
    hida_eff = dsp_efficiency(
        hida.throughput, macs, hida.estimate.resources.dsp, platform.clock_hz
    )
    scalehls_eff = dsp_efficiency(
        scalehls.throughput, macs, scalehls.estimate.resources.dsp, platform.clock_hz
    )
    return {
        "model": name,
        "macs": macs,
        "compile_seconds": hida.compile_seconds,
        "lut": hida.estimate.resources.lut,
        "dsp": hida.estimate.resources.dsp,
        "bram": hida.estimate.resources.bram,
        "hida": hida.throughput,
        "hida_eff": hida_eff,
        "scalehls": scalehls.throughput,
        "scalehls_eff": scalehls_eff,
        "scalehls_bram": scalehls.estimate.resources.bram,
        "dnnbuilder": None if dnnbuilder is None else dnnbuilder.throughput,
        "dnnbuilder_eff": None if dnnbuilder is None else dnnbuilder.dsp_efficiency,
    }


def _run_table8():
    return [_evaluate_model(name) for name in MODELS]


def test_table8_dnn_models():
    rows_data = _run_table8()

    table_rows = []
    for row in rows_data:
        table_rows.append([
            row["model"],
            f"{row['compile_seconds']:.1f}",
            round(row["lut"] / 1000),
            round(row["dsp"]),
            f"{row['hida']:.1f}",
            "-" if row["dnnbuilder"] is None else f"{row['dnnbuilder']:.1f}",
            f"{row['scalehls']:.1f} ({format_ratio(row['hida'] / row['scalehls'])})",
            f"{row['hida_eff'] * 100:.1f}%",
            "-" if row["dnnbuilder_eff"] is None else f"{row['dnnbuilder_eff'] * 100:.1f}%",
            f"{row['scalehls_eff'] * 100:.1f}%",
        ])
    print()
    print(format_table(
        ["Model", "Compile (s)", "kLUT", "DSP", "HIDA (samp/s)", "DNNBuilder",
         "ScaleHLS", "HIDA eff", "DNNB eff", "ScaleHLS eff"],
        table_rows,
        title="Table 8: PyTorch model evaluation (VU9P SLR)",
    ))

    throughput_gain = geometric_mean(r["hida"] / r["scalehls"] for r in rows_data)
    efficiency_gain = geometric_mean(
        r["hida_eff"] / max(r["scalehls_eff"], 1e-9) for r in rows_data
    )
    dnnb_rows = [r for r in rows_data if r["dnnbuilder"] is not None]
    dnnb_gain = geometric_mean(r["hida"] / r["dnnbuilder"] for r in dnnb_rows)
    print(f"Geo-mean HIDA/ScaleHLS throughput: {throughput_gain:.2f}x, "
          f"DSP efficiency: {efficiency_gain:.2f}x; "
          f"HIDA/DNNBuilder throughput: {dnnb_gain:.2f}x "
          f"(on {len(dnnb_rows)} supported models)")

    # Shape assertions from the paper.
    assert throughput_gain > 2.0, "HIDA must clearly outperform ScaleHLS on DNNs"
    assert efficiency_gain > 2.0
    assert dnnb_gain > 0.7, "HIDA is at least competitive with DNNBuilder"
    resnet = [r for r in rows_data if r["model"] == "resnet18"][0]
    others = [r for r in rows_data if r["model"] not in ("resnet18",)]
    assert resnet["hida"] / resnet["scalehls"] >= geometric_mean(
        r["hida"] / r["scalehls"] for r in others
    ) * 0.8, "shortcut-path optimization should give ResNet-18 a large gain"
    # DNNBuilder does not support shortcut or depthwise models.
    assert all(
        r["dnnbuilder"] is None for r in rows_data if r["model"] in ("resnet18", "mobilenet")
    )
    assert all(r["compile_seconds"] < 600 for r in rows_data)
