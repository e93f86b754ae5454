"""Tests for the two frontends: the C++ kernel builder (PolyBench, Listing 1)
and the PyTorch-like NN tracing frontend (model zoo)."""

import pytest

from repro.dialects.affine import AffineForOp, AffineLoadOp
from repro.dialects import linalg
from repro.frontend.cpp import (
    MULTI_LOOP_KERNELS,
    SINGLE_LOOP_KERNELS,
    IndexExpr,
    KernelBuilder,
    build_listing1,
    kernel_names,
)
from repro.frontend.nn import (
    MODEL_INPUT_SHAPES,
    Conv2d,
    Linear,
    ReLU,
    Sequential,
    Tensor,
    layer_summary,
    model_names,
    trace,
)
from repro.ir import ModuleOp, f32, i8, verify
from repro.transforms.loop_transforms import loop_bands_of
from repro.workloads import as_module


# ---------------------------------------------------------------------------
# Kernel builder
# ---------------------------------------------------------------------------


class TestKernelBuilder:
    def test_simple_kernel_builds_and_verifies(self):
        kb = KernelBuilder("copy")
        kb.add_input("A", (16,))
        kb.add_output("B", (16,))
        with kb.loop("i", 16) as i:
            kb.store("B", [i], kb.load("A", [i]))
        module = kb.finish()
        assert verify(module) == []
        loops = [op for op in module.walk() if isinstance(op, AffineForOp)]
        assert len(loops) == 1

    def test_strided_access_map(self):
        kb = KernelBuilder("strided")
        kb.add_input("A", (32, 16))
        kb.add_output("B", (16, 16))
        with kb.loop_nest(("i", "j"), (16, 16)) as (i, j):
            kb.store("B", [i, j], kb.load("A", [i * 2 + 1, j]))
        module = kb.finish()
        load = [op for op in module.walk() if isinstance(op, AffineLoadOp)][0]
        assert load.access_map.single_dim_strides() == [(0, 2), (1, 1)]
        assert load.access_map.evaluate([3, 5]) == (7, 5)

    def test_scalar_arithmetic_builds_ops(self):
        kb = KernelBuilder("mac")
        kb.add_input("A", (8,))
        kb.add_inout("C", (8,))
        with kb.loop("i", 8) as i:
            kb.store("C", [i], kb.load("C", [i]) + kb.load("A", [i]) * 2.0)
        module = kb.finish()
        names = {op.name for op in module.walk()}
        assert "arith.mulf" in names and "arith.addf" in names

    def test_local_array_allocation(self):
        kb = KernelBuilder("local")
        kb.add_input("A", (8,))
        kb.add_output("B", (8,))
        kb.add_local("tmp", (8,))
        with kb.loop("i", 8) as i:
            kb.store("tmp", [i], kb.load("A", [i]))
        with kb.loop("i", 8) as i:
            kb.store("B", [i], kb.load("tmp", [i]))
        module = kb.finish()
        assert verify(module) == []
        allocs = [op for op in module.walk() if op.name == "memref.alloc"]
        assert len(allocs) == 1
        assert allocs[0].result().type.is_on_chip

    def test_index_expr_arithmetic(self):
        expr = IndexExpr.const(3) + IndexExpr.const(4)
        assert expr.offset == 7
        assert (IndexExpr.const(2) * 5).offset == 10
        with pytest.raises(TypeError):
            IndexExpr.const(1) * 1.5  # non-integer scaling

    def test_multiple_loop_nests_are_separate_bands(self):
        module = as_module("mvt")
        func = module.functions[0]
        bands = loop_bands_of(func)
        assert len(bands) == 2

    def test_arguments_are_external_memrefs(self):
        module = as_module("atax")
        func = module.functions[0]
        assert all(not arg.type.is_on_chip for arg in func.arguments)


class TestPolyBench:
    def test_kernel_names_match_table7(self):
        expected = {
            "2mm", "3mm", "atax", "bicg", "correlation", "gesummv",
            "jacobi-2d", "mvt", "seidel-2d", "symm", "syr2k",
        }
        assert set(kernel_names()) == expected
        assert set(MULTI_LOOP_KERNELS) | set(SINGLE_LOOP_KERNELS) == expected

    def test_unknown_kernel_raises(self):
        with pytest.raises(KeyError):
            as_module("nonexistent")

    @pytest.mark.parametrize("name", kernel_names())
    def test_every_kernel_builds_and_verifies(self, name):
        module = as_module(name)
        assert verify(module) == []
        assert module.functions[0].is_top

    @pytest.mark.parametrize("name", SINGLE_LOOP_KERNELS)
    def test_single_loop_kernels_have_one_band(self, name):
        module = as_module(name)
        bands = loop_bands_of(module.functions[0])
        assert len(bands) == 1

    @pytest.mark.parametrize("name", MULTI_LOOP_KERNELS)
    def test_multi_loop_kernels_have_many_bands(self, name):
        module = as_module(name)
        bands = loop_bands_of(module.functions[0])
        assert len(bands) >= 2


class TestListing1:
    def test_structure(self):
        module = build_listing1()
        assert verify(module) == []
        func = module.functions[0]
        bands = loop_bands_of(func)
        assert len(bands) == 3  # Node0, Node1, Node2
        depths = sorted(len(band) for band in bands)
        assert depths == [2, 2, 3]

    def test_stride_two_access_on_a(self):
        module = build_listing1()
        loads = [op for op in module.walk() if isinstance(op, AffineLoadOp)]
        strides = [s for load in loads for _, s in load.access_map.single_dim_strides()]
        assert 2 in strides


# ---------------------------------------------------------------------------
# NN frontend
# ---------------------------------------------------------------------------


class TestNNModules:
    def test_layer_requires_tracer(self):
        conv = Conv2d(3, 8, 3)
        with pytest.raises(RuntimeError):
            conv(Tensor.__new__(Tensor))

    def test_sequential_and_named_modules(self):
        model = Sequential(Conv2d(3, 8, 3), ReLU(), Linear(8, 4))
        names = [name for name, _ in model.named_modules()]
        assert len(names) == 4  # root + 3 children

    def test_num_parameters(self):
        conv = Conv2d(3, 8, 3, bias=True)
        assert conv.num_parameters() == 8 * 3 * 9 + 8
        linear = Linear(10, 5, bias=False)
        assert linear.num_parameters() == 50

    def test_trace_simple_model(self):
        model = Sequential(Conv2d(1, 4, 3, padding=1), ReLU())
        module = trace(model, (1, 1, 8, 8), name="tiny")
        assert isinstance(module, ModuleOp)
        assert verify(module) == []
        summary = layer_summary(module)
        assert [row[0] for row in summary] == ["linalg.conv2d", "linalg.relu"]
        assert summary[0][2] == (1, 4, 8, 8)

    def test_trace_element_type(self):
        model = Sequential(Linear(4, 2))
        module = trace(model, (1, 4), element_type=i8)
        linear_op = [op for op in module.walk() if isinstance(op, linalg.LinearOp)][0]
        assert linear_op.output_type.element_type == i8

    def test_conv_shape_mismatch_raises(self):
        model = Sequential(Conv2d(4, 8, 3))
        with pytest.raises(ValueError):
            trace(model, (1, 3, 8, 8))


class TestModelZoo:
    def test_zoo_contains_all_paper_models(self):
        assert set(model_names()) == {
            "lenet", "resnet18", "mobilenet", "zfnet", "vgg16", "yolo", "mlp"
        }

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            as_module("alexnet")

    @pytest.mark.parametrize("name", ["lenet", "mlp", "resnet18", "mobilenet"])
    def test_models_trace_and_verify(self, name):
        module = as_module(name)
        assert verify(module) == []

    def test_resnet18_mac_count_is_realistic(self):
        module = as_module("resnet18", element_type=f32)
        macs = sum(row[3] for row in layer_summary(module))
        assert 1.6e9 < macs < 2.0e9  # ~1.8 GMAC for 224x224 ResNet-18

    def test_vgg16_mac_count_is_realistic(self):
        module = as_module("vgg16")
        macs = sum(row[3] for row in layer_summary(module))
        assert 1.4e10 < macs < 1.7e10  # ~15.5 GMAC

    def test_mobilenet_has_depthwise_layers(self):
        module = as_module("mobilenet")
        names = {op.name for op in module.walk()}
        assert "linalg.depthwise_conv2d" in names

    def test_resnet18_has_shortcut_adds(self):
        module = as_module("resnet18")
        adds = [op for op in module.walk() if isinstance(op, linalg.AddOp)]
        assert len(adds) == 8  # one per basic block

    def test_batch_dimension_propagates(self):
        module = as_module("lenet@batch=4")
        conv = [op for op in module.walk() if isinstance(op, linalg.Conv2DOp)][0]
        assert conv.output_type.shape[0] == 4

    def test_mlp_is_linear_only(self):
        module = as_module("mlp")
        compute = [row[0] for row in layer_summary(module) if row[3] > 0]
        assert set(compute) == {"linalg.linear"}

    def test_input_shapes_table(self):
        assert MODEL_INPUT_SHAPES["yolo"] == (3, 416, 416)
        assert MODEL_INPUT_SHAPES["mlp"] == (784,)


class TestLinalgOpSemantics:
    def test_conv_macs_formula(self):
        module = as_module("lenet", element_type=f32)
        conv = [op for op in module.walk() if isinstance(op, linalg.Conv2DOp)][0]
        # conv1: 6 out channels, 1 in channel, 5x5 kernel, 28x28 output.
        assert conv.macs() == 6 * 1 * 5 * 5 * 28 * 28

    def test_pool_output_shape(self):
        module = as_module("lenet")
        pools = [op for op in module.walk() if isinstance(op, linalg.MaxPool2DOp)]
        assert pools[0].output_type.shape == (1, 6, 14, 14)

    def test_reshape_preserves_elements(self):
        module = as_module("lenet")
        reshape = [op for op in module.walk() if isinstance(op, linalg.ReshapeOp)][0]
        assert reshape.output_type.num_elements == reshape.input.type.num_elements

    def test_elementwise_classification(self):
        module = as_module("resnet18")
        relu = [op for op in module.walk() if isinstance(op, linalg.ReluOp)][0]
        conv = [op for op in module.walk() if isinstance(op, linalg.Conv2DOp)][0]
        assert relu.is_elementwise
        assert not conv.is_elementwise
