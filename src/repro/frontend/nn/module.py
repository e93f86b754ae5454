"""A miniature PyTorch-like module system used as the DNN design entry.

In the paper, PyTorch models are imported through Torch-MLIR.  This module
replaces that path with a small define-by-run tracing frontend: layers are
:class:`Module` objects, ``forward`` composes them over symbolic
:class:`Tensor` handles, and a :class:`repro.frontend.nn.tracer.Tracer`
records every layer invocation as a ``linalg`` operation in an IR module.

Only the layer types the paper's model zoo uses are provided, each
emitting one linalg op: convolution (standard and depthwise), max and
average pooling, linear, ReLU, batch norm, elementwise add (shortcut
paths) and flatten (reshape); weights are ``linalg.fill`` ops.  Each op
declares its own loop nest (:mod:`repro.dialects.linalg`).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from ...dialects import linalg
from ...ir.core import Value

__all__ = [
    "Tensor",
    "Module",
    "Sequential",
    "Conv2d",
    "DepthwiseConv2d",
    "Linear",
    "ReLU",
    "MaxPool2d",
    "AvgPool2d",
    "BatchNorm2d",
    "Flatten",
    "Add",
]


@dataclasses.dataclass
class Tensor:
    """A symbolic tensor: wraps the SSA value produced by a traced layer."""

    value: Value

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.value.type.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


class Module:
    """Base class of all layers and models."""

    def __call__(self, *args: Tensor) -> Tensor:
        from .tracer import current_tracer

        tracer = current_tracer()
        if tracer is not None:
            tracer.enter_module(self)
        try:
            return self.forward(*args)
        finally:
            if tracer is not None:
                tracer.exit_module(self)

    def forward(self, *args: Tensor) -> Tensor:
        raise NotImplementedError(
            f"{self.__class__.__name__} does not implement forward()"
        )


def _emit(op_cls, *args, **kwargs) -> Tensor:
    """Emit a linalg op through the active tracer and wrap its result."""
    from .tracer import current_tracer

    tracer = current_tracer()
    if tracer is None:
        raise RuntimeError(
            "layers can only be executed under repro.frontend.nn.trace()"
        )
    op = tracer.builder.insert(op_cls.create(*args, **kwargs))
    tracer.record_layer_op(op)
    return Tensor(op.result())


def _weight(shape: Sequence[int], label: str) -> Value:
    from .tracer import current_tracer

    tracer = current_tracer()
    if tracer is None:
        raise RuntimeError("weights can only be materialized while tracing")
    return tracer.weight(shape, label)


class Sequential(Module):
    """Applies a list of modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.layers: List[Module] = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class Conv2d(Module):
    """2-D convolution over NCHW input."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
    ) -> None:
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.bias = bias

    def forward(self, x: Tensor) -> Tensor:
        weight = _weight(
            (self.out_channels, self.in_channels, self.kernel_size, self.kernel_size),
            "conv_weight",
        )
        bias = _weight((self.out_channels,), "conv_bias") if self.bias else None
        return _emit(
            linalg.Conv2DOp,
            x.value,
            weight,
            bias,
            stride=self.stride,
            padding=self.padding,
        )


class DepthwiseConv2d(Module):
    """Depthwise 2-D convolution (MobileNet building block)."""

    def __init__(
        self, channels: int, kernel_size: int, stride: int = 1, padding: int = 0
    ) -> None:
        super().__init__()
        self.channels = channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        weight = _weight(
            (self.channels, 1, self.kernel_size, self.kernel_size), "dwconv_weight"
        )
        return _emit(
            linalg.DepthwiseConv2DOp,
            x.value,
            weight,
            stride=self.stride,
            padding=self.padding,
        )


class Linear(Module):
    """Fully connected layer."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.bias = bias

    def forward(self, x: Tensor) -> Tensor:
        weight = _weight((self.out_features, self.in_features), "linear_weight")
        bias = _weight((self.out_features,), "linear_bias") if self.bias else None
        return _emit(linalg.LinearOp, x.value, weight, bias)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return _emit(linalg.ReluOp, x.value)


class MaxPool2d(Module):
    def __init__(self, kernel_size: int = 2, stride: Optional[int] = None, padding: int = 0) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return _emit(
            linalg.MaxPool2DOp,
            x.value,
            kernel=self.kernel_size,
            stride=self.stride,
            padding=self.padding,
        )


class AvgPool2d(Module):
    def __init__(self, kernel_size: int = 2, stride: Optional[int] = None, padding: int = 0) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return _emit(
            linalg.AvgPool2DOp,
            x.value,
            kernel=self.kernel_size,
            stride=self.stride,
            padding=self.padding,
        )


class BatchNorm2d(Module):
    def __init__(self, channels: int) -> None:
        super().__init__()
        self.channels = channels

    def forward(self, x: Tensor) -> Tensor:
        scale = _weight((self.channels,), "bn_scale")
        shift = _weight((self.channels,), "bn_shift")
        return _emit(linalg.BatchNormOp, x.value, scale, shift)


class Flatten(Module):
    def forward(self, x: Tensor) -> Tensor:
        batch = x.shape[0]
        features = 1
        for dim in x.shape[1:]:
            features *= dim
        return _emit(linalg.ReshapeOp, x.value, (batch, features))


class Add(Module):
    """Elementwise add of two tensors (residual shortcut merge)."""

    def forward(self, lhs: Tensor, rhs: Tensor) -> Tensor:
        return _emit(linalg.AddOp, lhs.value, rhs.value)
