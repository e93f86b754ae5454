"""The DNN model zoo used in the paper's evaluation.

Models: LeNet (Section 2 case study), ResNet-18, MobileNet(V1), ZFNet,
VGG-16, a YOLO-style detector and an MLP (Table 8).  Each model is a plain
:class:`~repro.frontend.nn.module.Module` registered with
:func:`~repro.workloads.register_workload`;
``get_workload("resnet18@batch=4").build_module()`` traces it to linalg-level
IR at a given batch size.

Models default to 8-bit integer activations and weights, matching the
post-training quantization typically applied before FPGA deployment (and
the low-precision MAC mapping discussed in the paper's DSP-efficiency
analysis); pass ``build_module(element_type=f32)`` for single-precision
models.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ...workloads import register_workload
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

__all__ = [
    "LeNet",
    "ResNet18",
    "MobileNet",
    "ZFNet",
    "VGG16",
    "YOLO",
    "MLP",
    "MODEL_ZOO",
    "MODEL_INPUT_SHAPES",
    "model_names",
]


@register_workload(
    "lenet",
    kind="model",
    input_shape=(1, 28, 28),
    tags=("dnn-zoo", "case-study"),
    description="LeNet-5 CNN, 28x28 grayscale (Section 2 case study, Table 8)",
)
class LeNet(Module):
    """LeNet-5 style CNN for 28x28 grayscale inputs (Section 2 case study).

    The layer structure matches Table 1 of the paper: three Conv+ReLU+Pool
    groups followed by a Linear classifier.
    """

    def __init__(self, num_classes: int = 10) -> None:
        super().__init__()
        self.conv1 = Conv2d(1, 6, 5, padding=2)
        self.relu1 = ReLU()
        self.pool1 = MaxPool2d(2)
        self.conv2 = Conv2d(6, 16, 5)
        self.relu2 = ReLU()
        self.pool2 = MaxPool2d(2)
        self.conv3 = Conv2d(16, 120, 5)
        self.relu3 = ReLU()
        self.flatten = Flatten()
        self.fc = Linear(120, num_classes)

    def forward(self, x: Tensor) -> Tensor:
        x = self.pool1(self.relu1(self.conv1(x)))
        x = self.pool2(self.relu2(self.conv2(x)))
        x = self.relu3(self.conv3(x))
        x = self.flatten(x)
        return self.fc(x)


class _BasicBlock(Module):
    """ResNet basic block with an identity or projection shortcut."""

    def __init__(self, in_channels: int, out_channels: int, stride: int = 1) -> None:
        super().__init__()
        self.conv1 = Conv2d(in_channels, out_channels, 3, stride=stride, padding=1, bias=False)
        self.bn1 = BatchNorm2d(out_channels)
        self.relu1 = ReLU()
        self.conv2 = Conv2d(out_channels, out_channels, 3, padding=1, bias=False)
        self.bn2 = BatchNorm2d(out_channels)
        self.add = Add()
        self.relu2 = ReLU()
        self.downsample: Optional[Module] = None
        if stride != 1 or in_channels != out_channels:
            self.downsample = Sequential(
                Conv2d(in_channels, out_channels, 1, stride=stride, bias=False),
                BatchNorm2d(out_channels),
            )

    def forward(self, x: Tensor) -> Tensor:
        identity = x
        out = self.relu1(self.bn1(self.conv1(x)))
        out = self.bn2(self.conv2(out))
        if self.downsample is not None:
            identity = self.downsample(x)
        out = self.add(out, identity)
        return self.relu2(out)


@register_workload(
    "resnet18",
    kind="model",
    input_shape=(3, 224, 224),
    tags=("dnn-zoo",),
    description="ResNet-18, 224x224 RGB, shortcut data paths (Table 8)",
)
class ResNet18(Module):
    """ResNet-18 for 224x224 RGB inputs (shortcut data paths)."""

    def __init__(self, num_classes: int = 1000) -> None:
        super().__init__()
        self.stem = Sequential(
            Conv2d(3, 64, 7, stride=2, padding=3, bias=False),
            BatchNorm2d(64),
            ReLU(),
            MaxPool2d(3, stride=2, padding=1),
        )
        self.layer1 = Sequential(_BasicBlock(64, 64), _BasicBlock(64, 64))
        self.layer2 = Sequential(_BasicBlock(64, 128, stride=2), _BasicBlock(128, 128))
        self.layer3 = Sequential(_BasicBlock(128, 256, stride=2), _BasicBlock(256, 256))
        self.layer4 = Sequential(_BasicBlock(256, 512, stride=2), _BasicBlock(512, 512))
        self.pool = AvgPool2d(7)
        self.flatten = Flatten()
        self.fc = Linear(512, num_classes)

    def forward(self, x: Tensor) -> Tensor:
        x = self.stem(x)
        x = self.layer1(x)
        x = self.layer2(x)
        x = self.layer3(x)
        x = self.layer4(x)
        x = self.pool(x)
        x = self.flatten(x)
        return self.fc(x)


class _DepthwiseSeparable(Module):
    """MobileNet depthwise-separable block: DW conv + BN + ReLU + PW conv."""

    def __init__(self, in_channels: int, out_channels: int, stride: int = 1) -> None:
        super().__init__()
        self.dw = DepthwiseConv2d(in_channels, 3, stride=stride, padding=1)
        self.bn1 = BatchNorm2d(in_channels)
        self.relu1 = ReLU()
        self.pw = Conv2d(in_channels, out_channels, 1, bias=False)
        self.bn2 = BatchNorm2d(out_channels)
        self.relu2 = ReLU()

    def forward(self, x: Tensor) -> Tensor:
        x = self.relu1(self.bn1(self.dw(x)))
        return self.relu2(self.bn2(self.pw(x)))


@register_workload(
    "mobilenet",
    kind="model",
    input_shape=(3, 224, 224),
    tags=("dnn-zoo",),
    description="MobileNetV1, depthwise-separable convolutions (Table 8)",
)
class MobileNet(Module):
    """MobileNetV1 (width multiplier 1.0) for 224x224 inputs."""

    def __init__(self, num_classes: int = 1000) -> None:
        super().__init__()
        configuration = [
            (32, 64, 1),
            (64, 128, 2),
            (128, 128, 1),
            (128, 256, 2),
            (256, 256, 1),
            (256, 512, 2),
            (512, 512, 1),
            (512, 512, 1),
            (512, 512, 1),
            (512, 512, 1),
            (512, 512, 1),
            (512, 1024, 2),
            (1024, 1024, 1),
        ]
        self.stem = Sequential(
            Conv2d(3, 32, 3, stride=2, padding=1, bias=False),
            BatchNorm2d(32),
            ReLU(),
        )
        self.blocks = Sequential(
            *[_DepthwiseSeparable(i, o, s) for i, o, s in configuration]
        )
        self.pool = AvgPool2d(7)
        self.flatten = Flatten()
        self.fc = Linear(1024, num_classes)

    def forward(self, x: Tensor) -> Tensor:
        x = self.stem(x)
        x = self.blocks(x)
        x = self.pool(x)
        x = self.flatten(x)
        return self.fc(x)


@register_workload(
    "zfnet",
    kind="model",
    input_shape=(3, 224, 224),
    tags=("dnn-zoo",),
    description="ZFNet, irregular 7x7/5x5 convolutions (Table 8)",
)
class ZFNet(Module):
    """ZFNet for 224x224 inputs (irregular convolution sizes: 7x7, 5x5)."""

    def __init__(self, num_classes: int = 1000) -> None:
        super().__init__()
        self.features = Sequential(
            Conv2d(3, 96, 7, stride=2, padding=1),
            ReLU(),
            MaxPool2d(3, stride=2, padding=1),
            Conv2d(96, 256, 5, stride=2),
            ReLU(),
            MaxPool2d(3, stride=2, padding=1),
            Conv2d(256, 384, 3, padding=1),
            ReLU(),
            Conv2d(384, 384, 3, padding=1),
            ReLU(),
            Conv2d(384, 256, 3, padding=1),
            ReLU(),
            MaxPool2d(3, stride=2),
        )
        self.flatten = Flatten()
        self.classifier = Sequential(
            Linear(256 * 6 * 6, 4096),
            ReLU(),
            Linear(4096, 4096),
            ReLU(),
            Linear(4096, num_classes),
        )

    def forward(self, x: Tensor) -> Tensor:
        x = self.features(x)
        x = self.flatten(x)
        return self.classifier(x)


@register_workload(
    "vgg16",
    kind="model",
    input_shape=(3, 224, 224),
    tags=("dnn-zoo",),
    description="VGG-16, deep uniform 3x3 convolution stacks (Table 8)",
)
class VGG16(Module):
    """VGG-16 for 224x224 inputs."""

    def __init__(self, num_classes: int = 1000) -> None:
        super().__init__()
        configuration = [
            (3, 64), (64, 64), "pool",
            (64, 128), (128, 128), "pool",
            (128, 256), (256, 256), (256, 256), "pool",
            (256, 512), (512, 512), (512, 512), "pool",
            (512, 512), (512, 512), (512, 512), "pool",
        ]
        layers: List[Module] = []
        for item in configuration:
            if item == "pool":
                layers.append(MaxPool2d(2))
            else:
                in_c, out_c = item
                layers.append(Conv2d(in_c, out_c, 3, padding=1))
                layers.append(ReLU())
        self.features = Sequential(*layers)
        self.flatten = Flatten()
        self.classifier = Sequential(
            Linear(512 * 7 * 7, 4096),
            ReLU(),
            Linear(4096, 4096),
            ReLU(),
            Linear(4096, num_classes),
        )

    def forward(self, x: Tensor) -> Tensor:
        x = self.features(x)
        x = self.flatten(x)
        return self.classifier(x)


@register_workload(
    "yolo",
    kind="model",
    input_shape=(3, 416, 416),
    tags=("dnn-zoo",),
    description="Tiny-YOLO style detector on 416x416 inputs (Table 8)",
)
class YOLO(Module):
    """A Tiny-YOLO style single-shot detector on high-resolution inputs."""

    def __init__(self, num_anchors: int = 5, num_classes: int = 20) -> None:
        super().__init__()
        channels = [16, 32, 64, 128, 256, 512]
        layers: List[Module] = []
        in_c = 3
        for i, out_c in enumerate(channels):
            layers.append(Conv2d(in_c, out_c, 3, padding=1))
            layers.append(BatchNorm2d(out_c))
            layers.append(ReLU())
            if i < 5:
                layers.append(MaxPool2d(2))
            in_c = out_c
        self.backbone = Sequential(*layers)
        self.neck = Sequential(
            Conv2d(512, 1024, 3, padding=1),
            BatchNorm2d(1024),
            ReLU(),
            Conv2d(1024, 1024, 3, padding=1),
            BatchNorm2d(1024),
            ReLU(),
        )
        self.head = Conv2d(1024, num_anchors * (5 + num_classes), 1)

    def forward(self, x: Tensor) -> Tensor:
        x = self.backbone(x)
        x = self.neck(x)
        return self.head(x)


@register_workload(
    "mlp",
    kind="model",
    input_shape=(784,),
    tags=("dnn-zoo",),
    # in_features is coupled to input_shape, so only num_classes is an
    # addressable parameter.
    expose=("num_classes",),
    description="Fully-connected network on 784-dim inputs (Table 8)",
)
class MLP(Module):
    """A fully-connected network for 784-dimensional inputs."""

    def __init__(
        self,
        in_features: int = 784,
        hidden: Sequence[int] = (4096, 4096, 1024),
        num_classes: int = 10,
    ) -> None:
        super().__init__()
        layers: List[Module] = []
        prev = in_features
        for width in hidden:
            layers.append(Linear(prev, width))
            layers.append(ReLU())
            prev = width
        layers.append(Linear(prev, num_classes))
        self.layers = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        return self.layers(x)


MODEL_ZOO: Dict[str, Callable[[], Module]] = {
    "lenet": LeNet,
    "resnet18": ResNet18,
    "mobilenet": MobileNet,
    "zfnet": ZFNet,
    "vgg16": VGG16,
    "yolo": YOLO,
    "mlp": MLP,
}

MODEL_INPUT_SHAPES: Dict[str, Tuple[int, ...]] = {
    "lenet": (1, 28, 28),
    "resnet18": (3, 224, 224),
    "mobilenet": (3, 224, 224),
    "zfnet": (3, 224, 224),
    "vgg16": (3, 224, 224),
    "yolo": (3, 416, 416),
    "mlp": (784,),
}


def model_names() -> List[str]:
    return list(MODEL_ZOO)
