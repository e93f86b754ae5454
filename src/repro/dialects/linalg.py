"""linalg dialect: named tensor-level compute operations.

These ops are what the PyTorch-like frontend emits (the role Torch-MLIR +
linalg play in the paper): 2-D convolution (standard and depthwise), max
and average pooling, fully-connected (linear), elementwise add, ReLU,
folded batch norm, reshape, and fill (weights and other constants).

Each op declares its loop nest once, on its class: the iteration bounds,
the loop name hints, how many leading loops are parallel, the access
expressions of each operand it reads and of the output it writes, and what
one iteration costs.  The MAC and scalar-op counts that feed the
Functional-dataflow optimizations and the QoR estimation are read from the
bounds, and the linalg-to-affine lowering builds the nest it expands each
op into from the same declaration.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from ..ir.core import Operation, Value, register_operation
from ..ir.types import TensorType, Type, f32
from .affine_map import AffineExpr, constant

__all__ = [
    "LinalgOp",
    "Conv2DOp",
    "DepthwiseConv2DOp",
    "MaxPool2DOp",
    "AvgPool2DOp",
    "LinearOp",
    "AddOp",
    "ReluOp",
    "BatchNormOp",
    "ReshapeOp",
    "FillOp",
]

#: Cost kinds: one iteration of the nest is a multiply-accumulate, a scalar
#: operation, or data movement (which counts as no compute).
MAC, SCALAR, DATA = "mac", "scalar", "data"

#: ``(reads, write)``: each read operand with its access expressions, then
#: the output's access expressions.
Accesses = Tuple[List[Tuple[Value, List[AffineExpr]]], List[AffineExpr]]


class LinalgOp(Operation):
    """Base class of named linalg ops: the loop-nest declaration.

    * :meth:`loop_bounds` — the iteration bounds, outermost first (default:
      the output shape);
    * ``LOOP_NAMES`` — one name hint per loop (default ``d0, d1, ...``);
    * ``PARALLEL_LOOPS`` — how many leading loops are parallel (default:
      all).  The rest are reductions, which accumulate into the output;
    * :meth:`accesses` — over the loop dims ``d``, the access expressions
      of each operand read and of the output write (default: every operand
      and the output at the identity);
    * ``COST`` and ``is_elementwise``.
    """

    OPERATION_NAME = "linalg.op"

    LOOP_NAMES: Optional[Tuple[str, ...]] = None
    PARALLEL_LOOPS: Optional[int] = None
    COST = SCALAR
    is_elementwise = False

    def loop_bounds(self) -> Tuple[int, ...]:
        # Every macs() and num_scalar_ops() call reads this (thousands per
        # model compile), so overrides index operands rather than going
        # through the named-operand properties.
        return self.output_type.shape

    def accesses(self, d: Sequence[AffineExpr]) -> Accesses:
        identity = list(d)
        return [(operand, identity) for operand in self.operands], identity

    def macs(self) -> int:
        """Multiply-accumulate count of one execution of this op."""
        return math.prod(self.loop_bounds()) if self.COST == MAC else 0

    def num_scalar_ops(self) -> int:
        """Total scalar operations (the MACs, for a MAC op)."""
        return 0 if self.COST == DATA else math.prod(self.loop_bounds())

    @property
    def output_type(self) -> TensorType:
        return self.results[0].type

    @property
    def input(self) -> Value:
        return self.operand(0)


def _conv_output_hw(
    in_h: int, in_w: int, kernel: int, stride: int, padding: int
) -> Tuple[int, int]:
    out_h = (in_h + 2 * padding - kernel) // stride + 1
    out_w = (in_w + 2 * padding - kernel) // stride + 1
    return out_h, out_w


class _WindowOp(LinalgOp):
    """An op sliding a ``kh x kw`` window over an NCHW input.

    Its first four loops walk the NCHW output in parallel; the window loops
    (and a conv's input channel) reduce.
    """

    PARALLEL_LOOPS = 4

    @property
    def stride(self) -> int:
        return self.get_attr("stride", 1)

    @property
    def padding(self) -> int:
        return self.get_attr("padding", 0)

    def _window(self, d: Sequence[AffineExpr], channel: int, kh: int, kw: int) -> List[AffineExpr]:
        """The input access of output ``d[0..3]`` at window loops ``kh``, ``kw``."""
        stride, padding = self.stride, self.padding
        return [
            d[0],
            d[channel],
            d[2] * stride + d[kh] - padding,
            d[3] * stride + d[kw] - padding,
        ]


@register_operation
class Conv2DOp(_WindowOp):
    """2-D convolution over NCHW tensors with OIHW weights."""

    OPERATION_NAME = "linalg.conv2d"
    LOOP_NAMES = ("n", "oc", "oh", "ow", "ic", "kh", "kw")
    COST = MAC

    @classmethod
    def create(
        cls,
        input: Value,
        weight: Value,
        bias: Optional[Value] = None,
        stride: int = 1,
        padding: int = 0,
    ) -> "Conv2DOp":
        in_type: TensorType = input.type
        w_type: TensorType = weight.type
        batch, in_c, in_h, in_w = in_type.shape
        out_c, w_in_c, k_h, k_w = w_type.shape
        if w_in_c != in_c:
            raise ValueError(
                f"conv2d channel mismatch: input has {in_c}, weight expects {w_in_c}"
            )
        out_h, out_w = _conv_output_hw(in_h, in_w, k_h, stride, padding)
        out_type = TensorType((batch, out_c, out_h, out_w), in_type.element_type)
        operands = [input, weight] + ([bias] if bias is not None else [])
        return cls(
            name=cls.OPERATION_NAME,
            operands=operands,
            result_types=[out_type],
            attributes={
                "stride": stride,
                "padding": padding,
                "kernel": (k_h, k_w),
                "has_bias": bias is not None,
            },
        )

    @property
    def weight(self) -> Value:
        return self.operand(1)

    def loop_bounds(self) -> Tuple[int, ...]:
        n, oc, oh, ow = self.output_type.shape
        _, ic, kh, kw = self.operand(1).type.shape
        return (n, oc, oh, ow, ic, kh, kw)

    def accesses(self, d: Sequence[AffineExpr]) -> Accesses:
        reads = [
            (self.input, self._window(d, 4, 5, 6)),
            (self.weight, [d[1], d[4], d[5], d[6]]),
        ]
        return reads, [d[0], d[1], d[2], d[3]]


@register_operation
class DepthwiseConv2DOp(_WindowOp):
    """Depthwise 2-D convolution (channel multiplier 1), as in MobileNet."""

    OPERATION_NAME = "linalg.depthwise_conv2d"
    LOOP_NAMES = ("n", "c", "oh", "ow", "kh", "kw")
    COST = MAC

    @classmethod
    def create(
        cls,
        input: Value,
        weight: Value,
        stride: int = 1,
        padding: int = 0,
    ) -> "DepthwiseConv2DOp":
        in_type: TensorType = input.type
        w_type: TensorType = weight.type
        batch, in_c, in_h, in_w = in_type.shape
        w_c, _one, k_h, k_w = w_type.shape
        if w_c != in_c:
            raise ValueError("depthwise conv channel mismatch")
        out_h, out_w = _conv_output_hw(in_h, in_w, k_h, stride, padding)
        out_type = TensorType((batch, in_c, out_h, out_w), in_type.element_type)
        return cls(
            name=cls.OPERATION_NAME,
            operands=[input, weight],
            result_types=[out_type],
            attributes={"stride": stride, "padding": padding, "kernel": (k_h, k_w)},
        )

    @property
    def weight(self) -> Value:
        return self.operand(1)

    def loop_bounds(self) -> Tuple[int, ...]:
        _, _, kh, kw = self.operand(1).type.shape
        return (*self.output_type.shape, kh, kw)

    def accesses(self, d: Sequence[AffineExpr]) -> Accesses:
        reads = [
            (self.input, self._window(d, 1, 4, 5)),
            (self.weight, [d[1], constant(0), d[4], d[5]]),
        ]
        return reads, [d[0], d[1], d[2], d[3]]


class _Pool2DOp(_WindowOp):
    """Shared implementation of max/average pooling."""

    LOOP_NAMES = ("n", "c", "oh", "ow", "kh", "kw")

    @classmethod
    def create(
        cls,
        input: Value,
        kernel: int = 2,
        stride: Optional[int] = None,
        padding: int = 0,
    ):
        stride = stride or kernel
        in_type: TensorType = input.type
        batch, channels, in_h, in_w = in_type.shape
        out_h, out_w = _conv_output_hw(in_h, in_w, kernel, stride, padding)
        out_type = TensorType((batch, channels, out_h, out_w), in_type.element_type)
        return cls(
            name=cls.OPERATION_NAME,
            operands=[input],
            result_types=[out_type],
            attributes={"kernel": kernel, "stride": stride, "padding": padding},
        )

    @property
    def kernel(self) -> int:
        return self.get_attr("kernel")

    def loop_bounds(self) -> Tuple[int, ...]:
        kernel = self.get_attr("kernel")
        return (*self.output_type.shape, kernel, kernel)

    def accesses(self, d: Sequence[AffineExpr]) -> Accesses:
        return [(self.input, self._window(d, 1, 4, 5))], [d[0], d[1], d[2], d[3]]


@register_operation
class MaxPool2DOp(_Pool2DOp):
    OPERATION_NAME = "linalg.maxpool2d"


@register_operation
class AvgPool2DOp(_Pool2DOp):
    OPERATION_NAME = "linalg.avgpool2d"


@register_operation
class LinearOp(LinalgOp):
    """Fully-connected layer ``(N, IF) x (OF, IF)^T + bias -> (N, OF)``."""

    OPERATION_NAME = "linalg.linear"
    LOOP_NAMES = ("n", "of", "if")
    PARALLEL_LOOPS = 2
    COST = MAC

    @classmethod
    def create(cls, input: Value, weight: Value, bias: Optional[Value] = None) -> "LinearOp":
        in_type: TensorType = input.type
        w_type: TensorType = weight.type
        batch, in_features = in_type.shape
        out_features, w_in = w_type.shape
        if w_in != in_features:
            raise ValueError(
                f"linear feature mismatch: input {in_features}, weight {w_in}"
            )
        out_type = TensorType((batch, out_features), in_type.element_type)
        operands = [input, weight] + ([bias] if bias is not None else [])
        return cls(
            name=cls.OPERATION_NAME,
            operands=operands,
            result_types=[out_type],
            attributes={"has_bias": bias is not None},
        )

    @property
    def weight(self) -> Value:
        return self.operand(1)

    def loop_bounds(self) -> Tuple[int, ...]:
        return (*self.output_type.shape, self.operand(0).type.shape[1])

    def accesses(self, d: Sequence[AffineExpr]) -> Accesses:
        reads = [(self.input, [d[0], d[2]]), (self.weight, [d[1], d[2]])]
        return reads, [d[0], d[1]]


@register_operation
class AddOp(LinalgOp):
    """Elementwise addition (e.g. ResNet shortcut merge)."""

    OPERATION_NAME = "linalg.add"
    is_elementwise = True

    @classmethod
    def create(cls, lhs: Value, rhs: Value) -> "AddOp":
        if lhs.type.shape != rhs.type.shape:
            raise ValueError(
                f"elementwise shape mismatch: {lhs.type.shape} vs {rhs.type.shape}"
            )
        return cls(
            name=cls.OPERATION_NAME,
            operands=[lhs, rhs],
            result_types=[lhs.type],
        )


@register_operation
class ReluOp(LinalgOp):
    OPERATION_NAME = "linalg.relu"
    is_elementwise = True

    @classmethod
    def create(cls, input: Value) -> "ReluOp":
        return cls(
            name=cls.OPERATION_NAME,
            operands=[input],
            result_types=[input.type],
        )


@register_operation
class BatchNormOp(LinalgOp):
    """Batch normalization folded into a per-channel scale and shift."""

    OPERATION_NAME = "linalg.batch_norm"
    COST = MAC
    is_elementwise = True

    @classmethod
    def create(cls, input: Value, scale: Value, shift: Value) -> "BatchNormOp":
        return cls(
            name=cls.OPERATION_NAME,
            operands=[input, scale, shift],
            result_types=[input.type],
        )

    def accesses(self, d: Sequence[AffineExpr]) -> Accesses:
        identity = list(d)
        channel = [d[1] if len(d) >= 2 else d[0]]
        reads = [(self.input, identity), (self.operand(1), channel), (self.operand(2), channel)]
        return reads, identity


def _delinearize(flat: AffineExpr, shape: Sequence[int]) -> List[AffineExpr]:
    """Row-major de-linearization into per-dimension index expressions."""
    exprs: List[AffineExpr] = []
    strides: List[int] = []
    stride = 1
    for size in reversed(shape):
        strides.append(stride)
        stride *= int(size)
    strides.reverse()
    for i, size in enumerate(shape):
        expr = (flat // strides[i]) % int(size) if i > 0 else flat // strides[i]
        exprs.append(expr)
    return exprs


@register_operation
class ReshapeOp(LinalgOp):
    """Reshape / flatten: one flat loop copying elements in row-major order."""

    OPERATION_NAME = "linalg.reshape"
    LOOP_NAMES = ("flat",)
    COST = DATA

    @classmethod
    def create(cls, input: Value, shape: Sequence[int]) -> "ReshapeOp":
        in_type: TensorType = input.type
        out_type = TensorType(shape, in_type.element_type)
        if out_type.num_elements != in_type.num_elements:
            raise ValueError(
                f"reshape element count mismatch: {in_type.num_elements} "
                f"vs {out_type.num_elements}"
            )
        return cls(
            name=cls.OPERATION_NAME,
            operands=[input],
            result_types=[out_type],
            attributes={"shape": tuple(shape)},
        )

    def loop_bounds(self) -> Tuple[int, ...]:
        return (self.output_type.num_elements,)

    def accesses(self, d: Sequence[AffineExpr]) -> Accesses:
        reads = [(self.input, _delinearize(d[0], self.input.type.shape))]
        return reads, _delinearize(d[0], self.output_type.shape)


@register_operation
class FillOp(LinalgOp):
    """Produce a tensor filled with a constant (weights / zero initialisers).

    It has no loop nest: the lowering turns it into an external global.
    """

    OPERATION_NAME = "linalg.fill"
    COST = DATA

    @classmethod
    def create(cls, shape: Sequence[int], value: float = 0.0, element_type: Type = f32) -> "FillOp":
        return cls(
            name=cls.OPERATION_NAME,
            result_types=[TensorType(shape, element_type)],
            attributes={"value": value},
        )
