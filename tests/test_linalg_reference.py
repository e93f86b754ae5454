"""The interpreter's direct run of each linalg op against its lowered run.

The interpreter executes the ten linalg kinds from their mathematics
(``repro.ir.interp._KERNELS``) and reads none of an op's loop-nest
declaration, which feeds ``macs()`` and ``lower-linalg``, so a declaration
bug shows as a difference.  Each test builds a one-op frontend module over
small drawn shapes (at most 6 per dimension, stride 1-2, padding 0-2) and
requires TV's check at the ``lower-linalg`` boundary: its direct run's
returned tensor bitwise equals the result of a copy lowered inside the task
``construct-dataflow`` wraps it in (copied into an appended ``dram``
argument, since the lowered function returns nothing), and ``macs()``
equals the products counted from the drawn shapes.  Seeded inputs are 1 to
11, so max pooling's -inf padding and ReLU's clamp are not observable.

Strict xfails, each a frontend run != lowered run: a function-level op (the
lowering builds a block's first op's nest before its buffer, so the lowered
IR uses a value before defining it); conv2d and linear bias (the lowering
reads no bias operand); ``linalg.fill`` (the lowering makes it an external
global that the interpreter seeds by symbol, never reading ``value``); an
integer average pool (the lowering scales by ``1/k**2`` as a constant of the
element type, which is 0).
"""

import math

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.dialects import linalg
from repro.dialects.memref import AllocOp, CopyOp, GetGlobalOp
from repro.hida.functional import wrap_ops_in_task
from repro.ir import Builder, FuncOp, InsertionPoint, ModuleOp, ReturnOp, f32, i8
from repro.ir.interp import interpret_module
from repro.ir.types import MemRefType, TensorType
from repro.transforms.linalg_to_affine import lower_linalg_to_affine

_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)
#: A strict xfail fails on its first example; shrinking it only costs time.
_XFAIL_SETTINGS = settings(_SETTINGS, max_examples=10, phases=[Phase.generate])

_dim = st.integers(1, 6)


def _one_op_module(create, input_shapes, element=f32):
    """``(module, op)``: ``forward`` returns ``create(*its arguments)``."""
    module = ModuleOp.create("reference")
    func = FuncOp.create(
        "forward", input_types=[TensorType(s, element) for s in input_shapes], top=True
    )
    module.append(func)
    builder = Builder.at_end(func.entry_block)
    op = builder.insert(create(*func.arguments))
    builder.insert(ReturnOp.create([op.result()]))
    return module, op


def _check(create, input_shapes, products, seed, in_task=True, element=f32):
    """``macs()`` is ``products``, and the direct run of the one-op module
    equals the run of a lowered copy that copies its result into an appended
    ``dram`` argument, with the seeded inputs unchanged on both sides."""
    module, op = _one_op_module(create, input_shapes, element)
    assert op.macs() == products
    direct = interpret_module(module, seed=seed)
    module, op = _one_op_module(create, input_shapes, element)
    func = module.functions[0]
    output_type = MemRefType(op.result().type.shape, element, "dram")
    result = func.entry_block.add_argument(output_type, "output")
    if in_task:
        wrap_ops_in_task([op])
    lower_linalg_to_affine(module)
    (buffer,) = [o.result() for o in func.walk() if isinstance(o, (AllocOp, GetGlobalOp))]
    InsertionPoint.before(func.entry_block.last_op).insert(CopyOp.create(buffer, result))
    lowered = interpret_module(module, seed=seed).output_map
    (returned,), result = direct.returned, lowered.pop(f"arg{len(input_shapes)}")
    assert [float(v).hex() for v in returned] == [float(v).hex() for v in result]
    assert direct.output_map == lowered


@st.composite
def _window(draw, pool=False):
    """``(input shape, kernel, stride, padding, output positions per plane)``
    with at least one output.  PyTorch refuses pooling padding above half
    the kernel."""
    kernel = draw(st.integers(1, 3))
    padding = draw(st.integers(0, min(2, kernel // 2) if pool else 2))
    stride = draw(st.integers(1, 2))
    smallest = max(1, kernel - 2 * padding)
    h, w = draw(st.integers(smallest, 6)), draw(st.integers(smallest, 6))
    positions = math.prod((e + 2 * padding - kernel) // stride + 1 for e in (h, w))
    shape = (draw(st.integers(1, 2)), draw(st.integers(1, 3)), h, w)
    return shape, kernel, stride, padding, positions


_shapes = st.lists(_dim, min_size=1, max_size=4).map(tuple)
_seeds = st.integers(0, 3)


def _check_conv(window, out_channels, seed, bias):
    shape, kernel, stride, padding, positions = window
    batch, channels = shape[:2]
    weight = (out_channels, channels, kernel, kernel)
    _check(
        lambda x, w, *b: linalg.Conv2DOp.create(x, w, *b, stride=stride, padding=padding),
        [shape, weight] + [(out_channels,)] * bias,
        batch * out_channels * positions * channels * kernel * kernel,
        seed,
    )


@_SETTINGS
@given(_window(), st.integers(1, 3), _seeds)
def test_conv2d(window, out_channels, seed):
    _check_conv(window, out_channels, seed, bias=False)


@pytest.mark.xfail(strict=True, reason="frontend run != lowered run: conv2d's bias is not read")
@_XFAIL_SETTINGS
@given(_window(), st.integers(1, 3), _seeds)
def test_conv2d_with_bias(window, out_channels, seed):
    _check_conv(window, out_channels, seed, bias=True)


@_SETTINGS
@given(_window(), _seeds)
def test_depthwise_conv2d(window, seed):
    shape, kernel, stride, padding, positions = window
    _check(
        lambda x, w: linalg.DepthwiseConv2DOp.create(x, w, stride, padding),
        [shape, (shape[1], 1, kernel, kernel)],
        shape[0] * shape[1] * positions * kernel * kernel,
        seed,
    )


@_SETTINGS
@given(_window(pool=True), st.sampled_from([linalg.MaxPool2DOp, linalg.AvgPool2DOp]), _seeds)
def test_pool2d(window, op, seed):
    shape, kernel, stride, padding, _ = window
    _check(lambda x: op.create(x, kernel, stride, padding), [shape], 0, seed)


@pytest.mark.xfail(
    strict=True,
    reason="frontend run != lowered run: an integer average pool scales by an "
    "integer constant 1/k**2, which is 0 (ROADMAP item 11)",
)
def test_integer_avg_pool():
    # Direct run (3.0, 9.0, 5.0, 5.5); lowered run (0, 0, 0, 0).
    _check(lambda x: linalg.AvgPool2DOp.create(x, 2, 2, 0), [(1, 1, 4, 4)], 0, 0, element=i8)


def _check_linear(batch, features, out_features, seed, bias):
    _check(
        linalg.LinearOp.create,
        [(batch, features), (out_features, features)] + [(out_features,)] * bias,
        batch * out_features * features,
        seed,
    )


@_SETTINGS
@given(_dim, _dim, _dim, _seeds)
def test_linear(batch, features, out_features, seed):
    _check_linear(batch, features, out_features, seed, bias=False)


@pytest.mark.xfail(strict=True, reason="frontend run != lowered run: linear's bias is not read")
@_XFAIL_SETTINGS
@given(_dim, _dim, _dim, _seeds)
def test_linear_with_bias(batch, features, out_features, seed):
    _check_linear(batch, features, out_features, seed, bias=True)


@_SETTINGS
@given(_shapes, _seeds)
def test_add(shape, seed):
    _check(linalg.AddOp.create, [shape, shape], 0, seed)


@_SETTINGS
@given(_shapes, _seeds)
def test_relu(shape, seed):
    _check(linalg.ReluOp.create, [shape], 0, seed)


@_SETTINGS
@given(st.lists(_dim, min_size=2, max_size=4).map(tuple), _seeds)
def test_batch_norm(shape, seed):
    channels = (shape[1],)
    _check(linalg.BatchNormOp.create, [shape, channels, channels], math.prod(shape), seed)


@_SETTINGS
@given(_shapes.flatmap(lambda s: st.tuples(st.just(s), st.permutations(s))), _seeds)
def test_reshape(shapes, seed):
    shape, target = shapes
    target = tuple(target) if len(target) < 2 else (target[0] * target[1], *target[2:])
    _check(lambda x: linalg.ReshapeOp.create(x, target), [shape], 0, seed)


@pytest.mark.xfail(
    strict=True, reason="frontend run != lowered run: a fill lowers to a seeded global"
)
@_XFAIL_SETTINGS
@given(_shapes, st.integers(-3, 3), _seeds)
def test_fill(shape, value, seed):
    _check(lambda: linalg.FillOp.create(shape, float(value)), [], 0, seed)


@pytest.mark.xfail(
    strict=True,
    reason="frontend run != lowered run: a block's first op's nest is built before its buffer",
)
def test_function_level_op_lowers_after_its_buffer():
    _check(linalg.ReluOp.create, [(2, 3)], 0, seed=0, in_task=False)
