"""Shared helpers for the benchmark harnesses.

Each benchmark file regenerates one table or figure of the paper and prints
the corresponding rows.  Helpers here pick, for a given tool, the largest
parallel factor whose design still fits the target platform — matching the
paper's methodology of comparing tools under the same resource budget.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.baselines import compile_scalehls_baseline
from repro.compiler import Compiler, default_stages
from repro.estimation import get_platform

__all__ = ["fit_dsp_budget", "hida_at", "scalehls_at", "dsp_budget_of"]


def dsp_budget_of(platform_name):
    return get_platform(platform_name).dsps


def fit_dsp_budget(compile_at, platform_name, factors):
    """The best design of ``compile_at(factor)`` that fits the DSP budget.

    ``compile_at`` compiles one tool's pipeline at a maximum parallel factor
    (see :func:`hida_at` and :func:`scalehls_at`); ``factors`` ascend, and
    the sweep stops at the first design over budget.
    """
    budget = dsp_budget_of(platform_name)
    best = None
    for factor in factors:
        result = compile_at(factor)
        if result.estimate.resources.dsp > budget:
            break
        if best is None or result.throughput > best.throughput:
            best = result
    return best if best is not None else compile_at(factors[0])


def hida_at(workload, platform_name, drop=()):
    """``factor -> CompileResult`` of the default pipeline minus ``drop``."""

    def compile_at(factor):
        stages = default_stages(drop, parallelize={"factor": factor})
        return Compiler(stages, platform=platform_name).run(workload=workload)

    return compile_at


def scalehls_at(workload, platform_name):
    """``factor -> CompileResult`` of the ScaleHLS baseline."""
    return lambda factor: compile_scalehls_baseline(workload, platform_name, factor)
