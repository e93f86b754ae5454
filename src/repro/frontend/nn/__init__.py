"""repro.frontend.nn — the PyTorch-like (Torch-MLIR-style) DNN frontend.

Its layers are the ones the model zoo uses; each traces to one linalg op
whose loop nest that op declares once (:mod:`repro.dialects.linalg`).
"""

from .models import (
    MLP,
    LeNet,
    MobileNet,
    ResNet18,
    VGG16,
    YOLO,
    ZFNet,
)
from .module import (
    Add,
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    DepthwiseConv2d,
    Flatten,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
    Tensor,
)
from .tracer import Tracer, current_tracer, layer_summary, trace

__all__ = [
    "Add",
    "AvgPool2d",
    "BatchNorm2d",
    "Conv2d",
    "DepthwiseConv2d",
    "Flatten",
    "Linear",
    "MaxPool2d",
    "Module",
    "ReLU",
    "Sequential",
    "Tensor",
    "Tracer",
    "current_tracer",
    "layer_summary",
    "trace",
    "LeNet",
    "ResNet18",
    "MobileNet",
    "ZFNet",
    "VGG16",
    "YOLO",
    "MLP",
]
