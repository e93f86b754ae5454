"""End-to-end tests: the HIDA pipeline, the baselines, the HLS C++ emitter and
the LeNet case study harness."""

import functools
import hashlib
import json
import pathlib
import re
import shutil
import subprocess

import pytest

from repro import DEFAULT_PIPELINE, Compiler, default_stages, emit_hls_cpp
from repro.backend import HlsCppEmitter
from repro.backend.hls_cpp_emitter import _KEYWORDS, _c_identifier
from repro.baselines import (
    ABLATION_MODES,
    UnsupportedModelError,
    compile_dnnbuilder_baseline,
    compile_scalehls_baseline,
    compile_vitis_baseline,
    run_ablation_mode,
    soff_throughput,
)
from repro.estimation import dsp_efficiency, get_platform
from repro.evaluation import (
    FACTOR_RANGES,
    best_design,
    evaluate_design_point,
    exhaustive_search,
    expert_design_point,
    format_table,
    pareto_frontier,
)
from repro.evaluation.lenet_case_study import LeNetDesignPoint
from repro.compiler.spec import StageSpec, insert_checks
from repro.frontend.cpp import build_listing1
from repro.frontend.nn import layer_summary
from repro.ir import Builder, ConstantOp, FuncOp, f32, verify
from repro.workloads import as_module, list_workloads


def compile_hida(workload, platform="vu9p-slr", drop=(), **stage_options):
    """The default pipeline, reconfigured, over a module or workload id."""
    compiler = Compiler(default_stages(drop, **stage_options), platform=platform)
    return compiler.run(as_module(workload))


# ---------------------------------------------------------------------------
# End-to-end pipeline
# ---------------------------------------------------------------------------


class TestPipeline:
    def test_listing1_compiles_and_verifies(self):
        spec = Compiler(default_stages(["tile"])).spec()
        result = Compiler.from_spec(
            insert_checks(spec, [StageSpec("verify")]), platform="zu3eg"
        ).run(build_listing1())
        # The frontend and each of the eight stages' boundaries verified.
        assert [name for name, _ in result.stage_timings].count("verify") == 9
        assert result.schedules
        assert result.throughput > 0
        assert verify(result.module) == []

    def test_summary_keys(self):
        result = compile_hida(build_listing1(), "zu3eg", drop=["tile"])
        summary = result.summary()
        for key in ("throughput", "dsp", "bram", "lut", "interval_cycles", "num_nodes"):
            assert key in summary

    def test_single_band_kernel_estimated_without_schedule(self):
        result = compile_hida("symm", "zu3eg")
        assert result.schedules == []
        assert result.throughput > 0

    def test_dnn_compiles_quickly(self):
        result = compile_hida("lenet", parallelize={"factor": 16})
        assert result.compile_seconds < 30
        assert result.throughput > 0

    def test_larger_parallel_factor_not_slower(self):
        small = compile_hida("lenet", parallelize={"factor": 4})
        large = compile_hida("lenet", parallelize={"factor": 32})
        assert large.throughput >= small.throughput * 0.99
        assert large.estimate.resources.dsp >= small.estimate.resources.dsp

    def test_dataflow_disabled_is_slower(self):
        with_df = compile_hida(build_listing1(), "zu3eg", drop=["tile"])
        without_df = compile_hida(
            build_listing1(), "zu3eg", drop=["tile"], estimate={"dataflow": False}
        )
        assert with_df.throughput >= without_df.throughput

    def test_tiling_reduces_on_chip_memory_for_dnn(self):
        tiled = compile_hida("vgg16", parallelize={"factor": 16}, tile={"size": 16})
        untiled = compile_hida("vgg16", parallelize={"factor": 16}, drop=["tile"])
        assert tiled.estimate.resources.bram < untiled.estimate.resources.bram

    def test_compiler_kernel_entry_point(self):
        result = Compiler.from_spec(DEFAULT_PIPELINE, platform="zu3eg").run(workload="mvt")
        assert result.throughput > 0

    def test_stage_timings_recorded(self):
        result = compile_hida(build_listing1(), "zu3eg", drop=["tile"])
        names = [name for name, _ in result.stage_timings]
        assert names == [n for n in DEFAULT_PIPELINE.split(",") if n != "tile"]


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


class TestBaselines:
    def test_vitis_baseline_pipelines_only(self):
        estimate = compile_vitis_baseline(as_module("2mm"), platform="zu3eg")
        assert estimate.resources.dsp < 30  # no unrolling -> few multipliers
        assert estimate.throughput > 0

    def test_hida_beats_vitis_on_multi_loop_kernel(self):
        hida = compile_hida("2mm", "zu3eg", parallelize={"factor": 16})
        vitis = compile_vitis_baseline(as_module("2mm"), platform="zu3eg")
        assert hida.throughput > vitis.throughput

    def test_scalehls_keeps_everything_on_chip(self):
        scalehls = compile_scalehls_baseline(as_module("lenet"), max_parallel_factor=8)
        hida = compile_hida("lenet", parallelize={"factor": 8}, tile={"size": 16})
        assert scalehls.estimate.resources.bram > hida.estimate.resources.bram

    def test_hida_beats_scalehls_on_dnn_at_equal_parallelism_budget(self):
        scalehls = compile_scalehls_baseline(as_module("resnet18"), max_parallel_factor=16)
        hida = compile_hida("resnet18", parallelize={"factor": 64})
        # At a comparable DSP budget HIDA reaches higher throughput.
        assert hida.estimate.resources.dsp <= scalehls.estimate.resources.dsp * 1.6
        assert hida.throughput > scalehls.throughput

    def test_baseline_estimates_match_the_deleted_drivers(self):
        """sha256 over every zoo workload's estimate, computed at the commit
        before the hand-written ScaleHLS and Vitis drivers were deleted."""

        def digest(rows):
            sha = hashlib.sha256()
            for name, variant, estimate in rows:
                blob = json.dumps(estimate.to_dict(), sort_keys=True)
                sha.update(f"{name}\t{variant}\t{blob}\n".encode())
            return sha.hexdigest()

        zoo = sorted(list_workloads())
        assert len(zoo) == 19
        assert digest(
            (name, factor, compile_scalehls_baseline(name, "vu9p-slr", factor).estimate)
            for name in zoo
            for factor in (8, 32)
        ) == "c3408c1c5fcaf0eb7aec5785f558382abadc742fdd9b6b2ab05c6c37faddfa86"
        assert digest(
            (name, platform, compile_vitis_baseline(name, platform))
            for name in zoo
            for platform in ("zu3eg", "vu9p-slr")
        ) == "0b34e550430c9a1aa0ec9c20db6e63bb3807418c746b2b77c668059e47766f80"

    def test_scalehls_spec_leaves_every_buffer_on_chip(self):
        # No stage of the ScaleHLS spec spills: the deleted driver's
        # force-everything-to-BRAM loop never had a buffer to move.
        for name in list_workloads():
            result = compile_scalehls_baseline(name, max_parallel_factor=8)
            for schedule in result.schedules:
                assert all(b.memory_kind == "bram_t2p" for b in schedule.buffers), name

    def test_dnnbuilder_supports_plain_cnns_only(self):
        result = compile_dnnbuilder_baseline(as_module("vgg16"))
        assert result.throughput > 0
        assert 0 < result.dsp_efficiency <= 1.5
        with pytest.raises(UnsupportedModelError):
            compile_dnnbuilder_baseline(as_module("resnet18"))
        with pytest.raises(UnsupportedModelError):
            compile_dnnbuilder_baseline(as_module("mobilenet"))

    def test_soff_reference_constants(self):
        assert soff_throughput("2mm") == pytest.approx(30.67)
        assert soff_throughput("seidel-2d") is None

    def test_ablation_modes_registry(self):
        assert set(ABLATION_MODES) == {"ia+ca", "ia", "ca", "naive"}
        with pytest.raises(KeyError):
            run_ablation_mode(build_listing1(), "bogus", 8)

    def test_ablation_iaca_dominates_naive_resources(self):
        outcomes = {
            mode: run_ablation_mode(build_listing1(), mode, 32, platform="zu3eg", tile_size=0)
            for mode in ("ia+ca", "naive")
        }
        assert outcomes["ia+ca"].dsp <= outcomes["naive"].dsp
        assert outcomes["ia+ca"].bram <= outcomes["naive"].bram


# ---------------------------------------------------------------------------
# HLS C++ emitter
# ---------------------------------------------------------------------------


class TestEmitter:
    def test_emits_dataflow_and_pipeline_pragmas(self):
        result = compile_hida(build_listing1(), "zu3eg", drop=["tile"])
        code = emit_hls_cpp(result.module)
        assert "#pragma HLS dataflow" in code
        assert "#pragma HLS pipeline" in code
        assert "#pragma HLS unroll factor=" in code
        assert "#pragma HLS array_partition" in code
        assert "void listing1(" in code

    def test_emits_interfaces_for_external_arguments(self):
        result = compile_hida("atax", "zu3eg")
        code = emit_hls_cpp(result.module)
        assert "#pragma HLS interface m_axi" in code

    def test_plain_kernel_emission(self):
        code = emit_hls_cpp(as_module("symm"))
        assert "for (int" in code
        assert code.count("{") == code.count("}")

    def test_emission_is_deterministic(self):
        module = as_module("bicg")
        assert emit_hls_cpp(module) == emit_hls_cpp(module)


#: ``ap_int.h`` / ``hls_math.h`` / ``hls_stream.h`` over the standard library.
_HLS_SHIM = pathlib.Path(__file__).parent / "data" / "hls_shim"
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@functools.lru_cache(maxsize=None)
def _emitted(workload):
    """``(declared identifiers, text)`` of a default compile's C++."""
    module = Compiler.from_spec(DEFAULT_PIPELINE).run(workload=workload).module
    emitter = HlsCppEmitter()
    text = emitter.emit_module(module)
    functions = re.findall(r"^void ([^(]+)\(", text, re.MULTILINE)
    assert len(functions) == len(module.functions)
    return sorted({*functions, *emitter._names.values()}), text


class TestEmittedCppParses:
    """The artefact a user hands to an HLS tool must get past a C++ parser."""

    @pytest.mark.parametrize("workload", list_workloads())
    def test_every_declared_identifier_is_one(self, workload):
        identifiers, _ = _emitted(workload)
        assert identifiers
        for identifier in identifiers:
            assert _IDENTIFIER.fullmatch(identifier), identifier
            assert identifier not in _KEYWORDS, identifier
            assert "__" not in identifier, identifier  # reserved in C++

    @pytest.mark.parametrize("workload", list_workloads())
    def test_gxx_accepts(self, workload, tmp_path):
        compiler = shutil.which("g++") or shutil.which("c++")
        if compiler is None:
            pytest.skip("no C++ compiler on PATH")
        source = tmp_path / "design.cpp"
        source.write_text(_emitted(workload)[1] + "\n")
        checked = subprocess.run(
            [compiler, "-std=c++17", "-fsyntax-only", "-I", str(_HLS_SHIM), str(source)],
            capture_output=True,
            text=True,
        )
        assert checked.returncode == 0, checked.stderr[:2000]

    def test_c_identifier(self):
        assert _c_identifier("2mm") == "_2mm"
        assert _c_identifier("jacobi-2d") == "jacobi_2d"
        assert _c_identifier("if") == "if_"
        assert _c_identifier("conv1.weight") == "conv1_weight"
        assert _c_identifier("oh") == "oh"

    def test_a_collision_fallback_is_itself_checked(self):
        """The second ``x`` may not take the ``x_1`` the counter proposes first."""
        func = FuncOp.create("f")
        builder = Builder.at_end(func.entry_block)
        values = [builder.insert(ConstantOp.create(0.0, f32)).result() for _ in range(5)]
        for value, hint in zip(values, [None, "x", "x_1", "x", "if"]):
            value.name_hint = hint
        emitter = HlsCppEmitter()
        names = [emitter._name(value) for value in values]
        assert names == ["v0", "x", "x_1", "x_2", "if_"]
        assert [emitter._name(value) for value in values] == names


# ---------------------------------------------------------------------------
# LeNet case study (Table 2 / Figure 1)
# ---------------------------------------------------------------------------


class TestLeNetCaseStudy:
    @pytest.fixture(scope="class")
    def search_results(self):
        return exhaustive_search()

    def test_design_space_size_matches_paper(self, search_results):
        expected = 2
        for values in FACTOR_RANGES.values():
            expected *= len(values)
        assert len(search_results) == expected
        assert expected > 2.3e4  # "more than 2.4e4 points" including both settings

    def test_dataflow_designs_pareto_dominate(self, search_results):
        dataflow_best = best_design(r for r in search_results if r.point.dataflow)
        non_dataflow_best = best_design(r for r in search_results if not r.point.dataflow)
        assert dataflow_best.throughput > non_dataflow_best.throughput

    def test_many_dataflow_designs_are_dominated(self, search_results):
        non_dataflow_best = best_design(r for r in search_results if not r.point.dataflow)
        dominated = [
            r
            for r in search_results
            if r.point.dataflow
            and r.fits
            and r.throughput < non_dataflow_best.throughput
        ]
        assert dominated  # "tons of dataflow designs dominated by non-dataflow"

    def test_pareto_frontier_is_monotone(self, search_results):
        frontier = pareto_frontier(r for r in search_results if r.point.dataflow)
        throughputs = [r.throughput for r in frontier]
        utilizations = [r.utilization for r in frontier]
        assert throughputs == sorted(throughputs)
        assert utilizations == sorted(utilizations)

    def test_expert_design_is_feasible_and_good(self, search_results):
        expert = evaluate_design_point(expert_design_point())
        exhaustive_best = best_design(search_results)
        assert expert.fits
        assert expert.throughput >= 0.8 * exhaustive_best.throughput

    def test_infeasible_points_are_flagged(self):
        point = LeNetDesignPoint(20, 6, 16, 6, 8, 16, True)
        evaluation = evaluate_design_point(point)
        assert evaluation.utilization > 1.0
        assert not evaluation.fits


# ---------------------------------------------------------------------------
# Reporting helpers and DSP-efficiency integration
# ---------------------------------------------------------------------------


class TestReportingAndMetrics:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", None]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "-" in lines[2]

    def test_hida_dsp_efficiency_in_sane_range(self):
        macs = sum(row[3] for row in layer_summary(as_module("vgg16")))
        result = compile_hida("vgg16", parallelize={"factor": 128})
        platform = get_platform("vu9p-slr")
        efficiency = dsp_efficiency(
            result.throughput, macs, result.estimate.resources.dsp, platform.clock_hz
        )
        assert 0.05 < efficiency <= 1.5
