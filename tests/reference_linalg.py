"""An independent reference for the ten linalg op kinds, from their mathematics.

Each function takes nested Python lists (NCHW activations, OIHW weights,
``(N, F)`` matrices) and returns ``(output, multiplies)``: the op's result as
nested lists and how many products of two operand elements it formed.  None
reads an op's declaration (``loop_bounds``, ``accesses``, the lowering's body
table), so a declaration bug shows as a difference against the lowered,
interpreted op instead of agreeing with itself.

Stated choices, where the mathematics leaves one:

* padding is explicit: convolutions and average pooling pad with 0; max
  pooling pads with -inf, as PyTorch does;
* the average of a ``k x k`` window is ``sum(x * (1 / k**2))`` over the window
  in row-major order, from 0.0, with the scale rounded once (PyTorch's
  ``count_include_pad``: the divisor is ``k**2`` whatever the padding);
* folded batch norm scales and shifts along axis 1 (the channel);
* ``fill`` is a tensor holding its ``value`` everywhere.
"""

import math
from typing import List, Sequence


def flatten(x) -> List[float]:
    if not isinstance(x, list):
        return [x]
    return [leaf for item in x for leaf in flatten(item)]


def nest(flat: Sequence[float], shape: Sequence[int]):
    """``flat`` in row-major order as nested lists of ``shape``."""
    if not shape:
        return flat[0]
    step = math.prod(shape[1:])
    return [nest(flat[i * step:(i + 1) * step], shape[1:]) for i in range(shape[0])]


def _pad(x, padding: int, value: float):
    """NCHW ``x`` with ``padding`` rows and columns of ``value`` on each side."""

    def pad_plane(plane):
        blank = [[value] * (len(plane[0]) + 2 * padding) for _ in range(padding)]
        rows = [[value] * padding + row + [value] * padding for row in plane]
        return blank + rows + [list(row) for row in blank]

    return [[pad_plane(plane) for plane in image] for image in x]


def _windows(xp, kernel_h: int, kernel_w: int, stride: int):
    """The output rows and columns of a stride-``stride`` window over padded ``xp``."""
    rows = (len(xp[0][0]) - kernel_h) // stride + 1
    cols = (len(xp[0][0][0]) - kernel_w) // stride + 1
    return range(rows), range(cols)


def conv2d(x, w, bias=None, stride=1, padding=0):
    """``out[n][o][i][j] = bias[o] + sum_{c,a,b} xp[n][c][i*s+a][j*s+b] * w[o][c][a][b]``."""
    xp = _pad(x, padding, 0.0)
    out_c, in_c, kh, kw = len(w), len(w[0]), len(w[0][0]), len(w[0][0][0])
    taps = [(c, a, b) for c in range(in_c) for a in range(kh) for b in range(kw)]
    rows, cols = _windows(xp, kh, kw, stride)

    def at(image, o, i, j):
        total = 0.0 if bias is None else bias[o]
        for c, a, b in taps:
            total += image[c][i * stride + a][j * stride + b] * w[o][c][a][b]
        return total

    out = [
        [[[at(image, o, i, j) for j in cols] for i in rows] for o in range(out_c)]
        for image in xp
    ]
    return out, len(xp) * out_c * len(rows) * len(cols) * len(taps)


def depthwise_conv2d(x, w, stride=1, padding=0):
    """Channel ``c`` convolved with its own filter ``w[c][0]`` (multiplier 1)."""
    planes = [
        conv2d([[image[c]] for image in x], [w[c]], None, stride, padding) for c in range(len(w))
    ]
    out = [[planes[c][0][n][0] for c in range(len(w))] for n in range(len(x))]
    return out, sum(products for _, products in planes)


def _pool(x, kernel, stride, padding, fill, reduce):
    xp = _pad(x, padding, fill)
    rows, cols = _windows(xp, kernel, kernel, stride)
    window = [(a, b) for a in range(kernel) for b in range(kernel)]

    def at(plane, i, j):
        return reduce([plane[i * stride + a][j * stride + b] for a, b in window])

    return [[[[at(plane, i, j) for j in cols] for i in rows] for plane in image] for image in xp]


def max_pool2d(x, kernel, stride, padding=0):
    return _pool(x, kernel, stride, padding, -math.inf, max), 0


def avg_pool2d(x, kernel, stride, padding=0):
    scale = 1.0 / (kernel * kernel)
    return _pool(x, kernel, stride, padding, 0.0, lambda vs: sum(v * scale for v in vs)), 0


def linear(x, w, bias=None):
    """``out[n][o] = bias[o] + sum_i x[n][i] * w[o][i]``."""

    def dot(row, o):
        return sum((xi * wi for xi, wi in zip(row, w[o])), 0.0 if bias is None else bias[o])

    return [[dot(row, o) for o in range(len(w))] for row in x], len(x) * len(w) * len(w[0])


def _elementwise(fn, *operands):
    if not isinstance(operands[0], list):
        return fn(*operands)
    return [_elementwise(fn, *items) for items in zip(*operands)]


def add(lhs, rhs):
    return _elementwise(lambda a, b: a + b, lhs, rhs), 0


def relu(x):
    return _elementwise(lambda a: max(a, 0.0), x), 0


def batch_norm(x, scale, shift):
    """``x * scale[c] + shift[c]`` for every element of channel ``c`` (axis 1)."""
    out = [
        [_elementwise(lambda a: a * scale[c] + shift[c], image[c]) for c in range(len(image))]
        for image in x
    ]
    return out, len(flatten(x))


def reshape(x, shape):
    return nest(flatten(x), shape), 0


def fill(shape, value):
    return nest([float(value)] * math.prod(shape), shape), 0
