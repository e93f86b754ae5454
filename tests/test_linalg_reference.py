"""The lowered linalg ops against an independent reference.

Every linalg op declares its loop nest once, and that one declaration feeds
``macs()`` (so the estimator), ``lower-linalg`` (so the C++) and the
interpreter, which executes the lowered form.  A declaration bug is
therefore common-mode to the cost model, the artefact and the oracle.
``tests/reference_linalg.py`` writes the ten op kinds from their
mathematics instead; each test here builds a one-op frontend module over
small drawn shapes (at most 6 per dimension, stride 1-2, padding 0-2),
lowers it with ``lower_linalg_to_affine``, interprets it on the seeded
integer inputs, and requires the reference's result bitwise, and
``macs()`` equal to the reference's multiply count.

The op is lowered as the pipeline lowers it, inside the task
``construct-dataflow`` wraps it in.  The lowered module writes its result
to a local buffer (the top function returns nothing), so the test appends
one ``memref<..., dram>`` argument and copies the result into it before
the return.

Inputs are the interpreter's seeded values, 1 to 11, so max pooling's -inf
padding and ReLU's clamp are not observable here.

Strict xfails:

* a function-level op, lowered outside a task: when the op is the first
  of its block, ``lower_linalg_to_affine`` builds its nest before the
  buffer the nest writes (the nest's insertion index is taken before the
  buffer is inserted at the top of the block), so the IR uses a value
  before defining it.  The interpreter lowers a frontend module this way,
  so a model whose first layer has no weight cannot be executed;
* bias, on ``linalg.conv2d`` and ``linalg.linear``: the lowering reads no
  bias operand;
* ``linalg.fill``: the lowering makes every fill an external global whose
  contents the run supplies (the interpreter seeds it by symbol), so the
  op's ``value`` is never read.
"""

import math

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import reference_linalg as ref
from repro.dialects import linalg
from repro.dialects.memref import AllocOp, CopyOp, GetGlobalOp
from repro.hida.functional import wrap_ops_in_task
from repro.ir import Builder, FuncOp, ModuleOp, ReturnOp, f32
from repro.ir.interp import interpret_module, seed_value
from repro.ir.types import MemRefType, TensorType
from repro.ir.verifier import verify
from repro.transforms.linalg_to_affine import lower_linalg_to_affine

_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)
#: A strict xfail fails on its first example; shrinking it only costs time.
_XFAIL_SETTINGS = settings(_SETTINGS, max_examples=10, phases=[Phase.generate])

_dim = st.integers(1, 6)


def _seeded(position, shape, seed):
    """The interpreter's seeded input ``position`` as nested lists."""
    count = math.prod(shape)
    return ref.nest([float(seed_value(position, i, seed)) for i in range(count)], shape)


def _one_op_module(create, input_shapes):
    """``(module, op)``: ``forward`` returns ``create(*its arguments)``."""
    module = ModuleOp.create("reference")
    func = FuncOp.create(
        "forward", input_types=[TensorType(s, f32) for s in input_shapes], top=True
    )
    module.append(func)
    builder = Builder.at_end(func.entry_block)
    op = builder.insert(create(*func.arguments))
    builder.insert(ReturnOp.create([op.result()]))
    return module, op


def _run_lowered(create, input_shapes, seed):
    """``(outputs, macs)`` of the one-op module ``create(*arguments)``,
    lowered and interpreted on seeded inputs."""
    module, op = _one_op_module(create, input_shapes)
    macs = op.macs()
    func = module.functions[0]
    output_type = MemRefType(op.result().type.shape, f32, "dram")
    result = func.entry_block.add_argument(output_type, "output")
    wrap_ops_in_task([op])
    lower_linalg_to_affine(module)
    (buffer,) = [
        o.result() for o in func.walk() if isinstance(o, (AllocOp, GetGlobalOp))
    ]
    Builder.before(func.entry_block.last_op).insert(CopyOp.create(buffer, result))
    outputs = interpret_module(module, seed=seed).output_map
    return outputs[f"arg{len(input_shapes)}"], macs


def _check(create, input_shapes, reference, seed):
    """The lowered op's output and ``macs()`` equal ``reference``'s over the
    same seeded inputs."""
    actual, macs = _run_lowered(create, input_shapes, seed)
    inputs = [_seeded(position, shape, seed) for position, shape in enumerate(input_shapes)]
    expected, multiplies = reference(*inputs)
    assert [float(v).hex() for v in actual] == [float(v).hex() for v in ref.flatten(expected)]
    assert macs == multiplies


@st.composite
def _window(draw, pool=False):
    """``(input shape, kernel, stride, padding)`` with at least one output.

    PyTorch refuses pooling padding above half the kernel."""
    kernel = draw(st.integers(1, 3))
    padding = draw(st.integers(0, min(2, kernel // 2) if pool else 2))
    stride = draw(st.integers(1, 2))
    smallest = max(1, kernel - 2 * padding)
    h, w = draw(st.integers(smallest, 6)), draw(st.integers(smallest, 6))
    return (draw(st.integers(1, 2)), draw(st.integers(1, 3)), h, w), kernel, stride, padding


_shapes = st.lists(_dim, min_size=1, max_size=4).map(tuple)
_seeds = st.integers(0, 3)


def _check_conv(window, out_channels, seed, bias):
    shape, kernel, stride, padding = window
    weight = (out_channels, shape[1], kernel, kernel)
    _check(
        lambda x, w, *b: linalg.Conv2DOp.create(x, w, *b, stride=stride, padding=padding),
        [shape, weight] + [(out_channels,)] * bias,
        lambda x, w, *b: ref.conv2d(x, w, *b, stride=stride, padding=padding),
        seed,
    )


@_SETTINGS
@given(_window(), st.integers(1, 3), _seeds)
def test_conv2d(window, out_channels, seed):
    _check_conv(window, out_channels, seed, bias=False)


@pytest.mark.xfail(strict=True, reason="lower-linalg reads no conv2d bias operand")
@_XFAIL_SETTINGS
@given(_window(), st.integers(1, 3), _seeds)
def test_conv2d_with_bias(window, out_channels, seed):
    _check_conv(window, out_channels, seed, bias=True)


@_SETTINGS
@given(_window(), _seeds)
def test_depthwise_conv2d(window, seed):
    shape, kernel, stride, padding = window
    _check(
        lambda x, w: linalg.DepthwiseConv2DOp.create(x, w, stride, padding),
        [shape, (shape[1], 1, kernel, kernel)],
        lambda x, w: ref.depthwise_conv2d(x, w, stride, padding),
        seed,
    )


@_SETTINGS
@given(_window(pool=True), st.sampled_from(["max", "avg"]), _seeds)
def test_pool2d(window, kind, seed):
    shape, kernel, stride, padding = window
    op = {"max": linalg.MaxPool2DOp, "avg": linalg.AvgPool2DOp}[kind]
    reference = {"max": ref.max_pool2d, "avg": ref.avg_pool2d}[kind]
    _check(
        lambda x: op.create(x, kernel, stride, padding),
        [shape],
        lambda x: reference(x, kernel, stride, padding),
        seed,
    )


def _check_linear(batch, features, out_features, seed, bias):
    _check(
        linalg.LinearOp.create,
        [(batch, features), (out_features, features)] + [(out_features,)] * bias,
        ref.linear,
        seed,
    )


@_SETTINGS
@given(_dim, _dim, _dim, _seeds)
def test_linear(batch, features, out_features, seed):
    _check_linear(batch, features, out_features, seed, bias=False)


@pytest.mark.xfail(strict=True, reason="lower-linalg reads no linear bias operand")
@_XFAIL_SETTINGS
@given(_dim, _dim, _dim, _seeds)
def test_linear_with_bias(batch, features, out_features, seed):
    _check_linear(batch, features, out_features, seed, bias=True)


@_SETTINGS
@given(_shapes, _seeds)
def test_add(shape, seed):
    _check(linalg.AddOp.create, [shape, shape], ref.add, seed)


@_SETTINGS
@given(_shapes, _seeds)
def test_relu(shape, seed):
    _check(linalg.ReluOp.create, [shape], ref.relu, seed)


@_SETTINGS
@given(st.lists(_dim, min_size=2, max_size=4).map(tuple), _seeds)
def test_batch_norm(shape, seed):
    channels = (shape[1],)
    _check(linalg.BatchNormOp.create, [shape, channels, channels], ref.batch_norm, seed)


@_SETTINGS
@given(_shapes.flatmap(lambda s: st.tuples(st.just(s), st.permutations(s))), _seeds)
def test_reshape(shapes, seed):
    shape, target = shapes
    target = tuple(target) if len(target) < 2 else (target[0] * target[1], *target[2:])
    _check(
        lambda x: linalg.ReshapeOp.create(x, target), [shape], lambda x: ref.reshape(x, target), seed
    )


@pytest.mark.xfail(
    strict=True, reason="lower-linalg makes every fill an external global and drops its value"
)
@_XFAIL_SETTINGS
@given(_shapes, st.integers(-3, 3), _seeds)
def test_fill(shape, value, seed):
    _check(
        lambda: linalg.FillOp.create(shape, float(value)), [], lambda: ref.fill(shape, value), seed
    )


@pytest.mark.xfail(
    strict=True, reason="lower-linalg builds a block's first op's nest before its buffer"
)
def test_function_level_op_lowers_after_its_buffer():
    module, _ = _one_op_module(linalg.ReluOp.create, [(2, 3)])
    lower_linalg_to_affine(module)
    assert verify(module, raise_on_error=False) == []
