"""repro.baselines — comparison systems used in the paper's evaluation."""

from .ablation import (
    ABLATION_MODES,
    AblationOutcome,
    ablation_pipeline_spec,
    run_ablation_mode,
)
from .dnnbuilder import (
    DNNBuilderResult,
    UnsupportedModelError,
    compile_dnnbuilder_baseline,
)
from .scalehls import compile_scalehls_baseline, scalehls_pipeline_spec
from .soff import SOFF_THROUGHPUT_SAMPLES_PER_S, soff_throughput
from .vitis import compile_vitis_baseline, vitis_pipeline_spec

__all__ = [
    "ABLATION_MODES",
    "AblationOutcome",
    "ablation_pipeline_spec",
    "run_ablation_mode",
    "DNNBuilderResult",
    "UnsupportedModelError",
    "compile_dnnbuilder_baseline",
    "compile_scalehls_baseline",
    "scalehls_pipeline_spec",
    "SOFF_THROUGHPUT_SAMPLES_PER_S",
    "soff_throughput",
    "compile_vitis_baseline",
    "vitis_pipeline_spec",
]
