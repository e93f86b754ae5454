"""Define-by-run tracer converting nn models into linalg-level IR.

Plays the role Torch-MLIR plays in the paper: executing the model's
``forward`` over a symbolic tensor and recording every layer as a
``linalg`` operation inside a ``func.func`` marked as the design top.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Sequence, Tuple

from ...dialects.linalg import FillOp, LinalgOp
from ...ir.builder import Builder
from ...ir.builtin import FuncOp, ModuleOp, ReturnOp
from ...ir.core import Operation, Value
from ...ir.types import TensorType, Type, f32
from .module import Module, Tensor

__all__ = ["Tracer", "trace", "current_tracer", "layer_summary"]

_STATE = threading.local()


def current_tracer() -> Optional["Tracer"]:
    """The tracer active on this thread, if any."""
    return getattr(_STATE, "tracer", None)


class Tracer:
    """Records layer invocations into an IR module."""

    def __init__(self, name: str, element_type: Type = f32) -> None:
        self.name = name
        self.element_type = element_type
        self.module = ModuleOp.create(name)
        self.func: Optional[FuncOp] = None
        self.builder: Optional[Builder] = None
        self._module_stack: List[Module] = []
        self._weight_count = 0

    # ------------------------------------------------------------- lifecycle
    def begin(self, input_shapes: Sequence[Sequence[int]]) -> List[Tensor]:
        input_types = [TensorType(shape, self.element_type) for shape in input_shapes]
        self.func = FuncOp.create(
            "forward",
            input_types=input_types,
            result_types=[],
            top=True,
            arg_names=[f"input{i}" for i in range(len(input_types))],
        )
        self.module.append(self.func)
        self.builder = Builder.at_end(self.func.entry_block)
        return [Tensor(arg) for arg in self.func.arguments]

    def finish(self, outputs: Sequence[Tensor]) -> ModuleOp:
        self.builder.insert(ReturnOp.create([t.value for t in outputs]))
        result_types = tuple(t.value.type for t in outputs)
        func_type = self.func.function_type
        from ...ir.types import FunctionType

        self.func.set_attr(
            "function_type", FunctionType(func_type.inputs, result_types)
        )
        return self.module

    # --------------------------------------------------------------- tracing
    def enter_module(self, module: Module) -> None:
        self._module_stack.append(module)

    def exit_module(self, module: Module) -> None:
        if self._module_stack and self._module_stack[-1] is module:
            self._module_stack.pop()

    def record_layer_op(self, op: Operation) -> None:
        path = ".".join(m.__class__.__name__ for m in self._module_stack[-2:])
        op.set_attr("layer", path or op.name)

    def weight(self, shape: Sequence[int], label: str) -> Value:
        op = self.builder.insert(
            FillOp.create(shape, value=0.0, element_type=self.element_type)
        )
        op.set_attr("label", f"{label}_{self._weight_count}")
        self._weight_count += 1
        return op.result()


def trace(
    model: Module,
    input_shape: Sequence[int],
    name: Optional[str] = None,
    extra_input_shapes: Sequence[Sequence[int]] = (),
    element_type: Type = f32,
) -> ModuleOp:
    """Trace ``model`` over a symbolic input and return the linalg-level module.

    ``input_shape`` is NCHW for convolutional models and (N, F) for MLPs.
    ``element_type`` selects the activation/weight precision; FPGA DNN
    accelerators typically use ``i8`` (post-training quantization).
    """
    tracer = Tracer(name or model.__class__.__name__.lower(), element_type=element_type)
    if current_tracer() is not None:
        raise RuntimeError("nested tracing is not supported")
    _STATE.tracer = tracer
    try:
        inputs = tracer.begin([input_shape, *extra_input_shapes])
        output = model(*inputs)
        outputs = output if isinstance(output, (list, tuple)) else [output]
        return tracer.finish(list(outputs))
    finally:
        _STATE.tracer = None


def layer_summary(module: ModuleOp) -> List[Tuple[str, str, Tuple[int, ...], int]]:
    """Per-layer summary of a traced module.

    Returns (op name, layer label, output shape, MACs) for every compute op,
    useful for model inspection and for the DNNBuilder-style baselines.
    """
    summary = []
    for op in module.walk():
        if isinstance(op, LinalgOp) and not isinstance(op, FillOp):
            out_shape = op.result().type.shape if op.results else ()
            summary.append((op.name, op.get_attr("layer", ""), out_shape, op.macs()))
    return summary
