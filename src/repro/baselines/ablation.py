"""Ablation modes of the HIDA parallelization (Figure 11, Tables 5 and 6).

Four configurations are compared: the full intensity- and connection-aware
approach (IA+CA), intensity-only (IA), connection-only (CA) and the naive
mode that applies the maximum parallel factor to every node with no
alignment.  Each variant is expressed as a *pipeline spec* — the identical
Figure-3 stage sequence with only the ``parallelize`` stage reconfigured —
so ablations are serializable, diffable one-liners instead of flag
combinations (:func:`ablation_pipeline_spec` prints them; the spec
round-trips through :func:`repro.compiler.parse_pipeline`).

A penalty model applies to the connection-unaware modes whose misaligned
unroll factors force the compiler to emit fine-grained access control logic
(the "flawed designs" the paper observes at large parallel factors).
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from ..compiler import CompilationState, Compiler, default_stages
from ..ir.builtin import ModuleOp

__all__ = [
    "ABLATION_MODES",
    "AblationOutcome",
    "ablation_pipeline_spec",
    "run_ablation_mode",
]

#: Mode name -> (intensity_aware, connection_aware).
ABLATION_MODES: Dict[str, tuple] = {
    "ia+ca": (True, True),
    "ia": (True, False),
    "ca": (False, True),
    "naive": (False, False),
}

#: Extra DSPs spent on address calculation per misaligned connection.
_MISALIGNMENT_DSP = 8.0
#: Throughput degradation per misaligned connection (control-logic stalls).
_MISALIGNMENT_SLOWDOWN = 1.6


def ablation_pipeline_spec(
    mode: str, max_parallel_factor: int, tile_size: int = 16
) -> str:
    """The printed pipeline spec of one Figure-11 ablation variant.

    Derived from :func:`repro.compiler.default_stages` (so the stage
    sequence can never drift from the default pipeline), with the
    mode-defining ``ia``/``ca`` switches kept explicit in the printed form
    even when they equal the stage defaults.
    """
    if mode not in ABLATION_MODES:
        raise KeyError(f"unknown ablation mode {mode!r}; options: {list(ABLATION_MODES)}")
    intensity_aware, connection_aware = ABLATION_MODES[mode]
    spec = Compiler(
        default_stages(
            drop=() if tile_size > 0 else ("tile",),
            tile={"size": tile_size},
            parallelize={
                "factor": max_parallel_factor,
                "ia": intensity_aware,
                "ca": connection_aware,
            },
        )
    ).spec()
    for stage in spec:
        if stage.name == "parallelize":
            stage.options.setdefault("ia", [str(int(intensity_aware))])
            stage.options.setdefault("ca", [str(int(connection_aware))])
            order = ("factor", "ia", "ca", "target-ii")
            stage.options = {k: stage.options[k] for k in order if k in stage.options}
    return spec.print()


@dataclasses.dataclass
class AblationOutcome:
    """One (mode, parallel factor) sample of the ablation study."""

    mode: str
    max_parallel_factor: int
    throughput: float
    dsp: float
    bram: float
    lut: float
    misalignments: int
    result: CompilationState
    #: The printed pipeline spec this outcome was compiled with.
    pipeline_spec: str = ""

    def summary(self) -> dict:
        return {
            "mode": self.mode,
            "parallel_factor": self.max_parallel_factor,
            "throughput": self.throughput,
            "dsp": self.dsp,
            "bram": self.bram,
            "lut": self.lut,
            "misalignments": self.misalignments,
            "pipeline_spec": self.pipeline_spec,
        }


def run_ablation_mode(
    module: ModuleOp,
    mode: str,
    max_parallel_factor: int,
    platform: str = "vu9p-slr",
    tile_size: int = 16,
) -> AblationOutcome:
    """Compile ``module`` under one ablation mode and apply misalignment costs."""
    spec = ablation_pipeline_spec(mode, max_parallel_factor, tile_size)
    _, connection_aware = ABLATION_MODES[mode]
    compiler = Compiler.from_spec(spec, platform=platform)
    result = compiler.run(module)
    resources = result.estimate.resources
    throughput = result.throughput
    dsp = resources.dsp
    lut = resources.lut
    bram = resources.bram

    misalignments = result.misalignments
    if misalignments and not connection_aware:
        # Misaligned inter-node memory layouts require per-element address
        # resolution and serialization of conflicting bank accesses.
        dsp += _MISALIGNMENT_DSP * misalignments
        lut += 400.0 * misalignments
        throughput /= _MISALIGNMENT_SLOWDOWN ** min(misalignments, 8)

    return AblationOutcome(
        mode=mode,
        max_parallel_factor=max_parallel_factor,
        throughput=throughput,
        dsp=dsp,
        bram=bram,
        lut=lut,
        misalignments=misalignments,
        result=result,
        pipeline_spec=compiler.spec_text(),
    )
