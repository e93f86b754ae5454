"""Machine-calibration loop: a fixed amount of pure-Python work.

``round_norm`` is a round's wall time divided by the time the calibration
loop took around and inside that round, so a number taken while the shared
box was slow still compares with one taken while it was fast.  The loop
leans on what the compiler leans on — small-object allocation, dict and
attribute traffic, generators, method calls — and must never import
``repro``: a compiler optimisation may not speed up its own yardstick.

The box's speed moves by up to 1.8x on every time scale from 20 ms to
minutes, so one calibration at each end of a one-second round says little
about the second in between.  :class:`Pacer` therefore brackets every *item*
of a round: a short chunk before the round and after each of its items.

An item's clock leaves out the kernel CPU time the process was charged
while it ran.  On this VM's ext4 (mounted ``discard``) creating the same
~190 cache files costs 10 ms of kernel time, or 150 ms for seconds after
anything was deleted nearby; the calibration loop makes no system calls and
cannot follow that, so counting it made ``cache-fill`` drift by 10 % over
consecutive runs.  The kernel seconds are reported beside the metric.

The iteration counts are frozen (``config.CALIB_ITERATIONS`` is the unit,
``config.CHUNK_ITERATIONS`` one chunk); changing the unit rescales every
``round_norm`` ever recorded.
"""

from __future__ import annotations

import resource
import statistics
import time
from typing import List, Sequence, Tuple


class _Cell:
    __slots__ = ("key", "weight", "links")

    def __init__(self, key: int, weight: int) -> None:
        self.key = key
        self.weight = weight
        self.links = []

    def score(self, bias: int) -> int:
        return (self.weight * 31 + bias) % 1009


def _walk(cells):
    for cell in cells:
        if cell.weight & 1:
            yield cell
        yield from cell.links


def calibration_loop(iterations: int) -> float:
    """Run the fixed workload ``iterations`` times; returns elapsed seconds."""
    start = time.perf_counter()
    checksum = 0
    for step in range(iterations):
        cells = [_Cell(i, (i * 7 + step) % 97) for i in range(64)]
        for index, cell in enumerate(cells):
            cell.links = cells[index + 1 : index + 4]
        table = {}
        for cell in _walk(cells):
            table[cell.key] = table.get(cell.key, 0) + cell.score(step)
        names = [f"n{key}" for key in sorted(table)]
        checksum += sum(table.values()) + len(",".join(names))
    elapsed = time.perf_counter() - start
    if checksum < 0:  # keeps the work observable; never true
        raise AssertionError(checksum)
    return elapsed


def kernel_seconds() -> float:
    """Kernel CPU seconds charged to this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_stime


class Pacer:
    """Times the items of one round, each bracketed by calibration chunks.

    The harness calls :meth:`begin` before a round; the round calls the pacer
    after each of its items, which closes the item and runs one chunk.  An
    item's seconds are its wall time minus the kernel CPU time charged over
    it; its normalised time is those seconds over the mean of the chunk
    before and the chunk after it, chunks scaled to ``unit_iterations``.
    """

    def __init__(self, chunk_iterations: int, unit_iterations: int) -> None:
        self.chunk_iterations = chunk_iterations
        self.scale = unit_iterations / chunk_iterations
        self.chunks: List[float] = []
        self.items: List[float] = []
        #: Kernel CPU seconds left out of ``items``, summed over the round.
        self.kernel_s = 0.0
        self._mark = self._kernel_mark = 0.0

    def begin(self) -> None:
        self.chunks = []
        self.items = []
        self.kernel_s = 0.0
        self._chunk()

    def __call__(self) -> None:
        wall = time.perf_counter() - self._mark
        kernel = kernel_seconds() - self._kernel_mark
        self.items.append(wall - kernel)
        self.kernel_s += kernel
        self._chunk()

    def _chunk(self) -> None:
        self.chunks.append(calibration_loop(self.chunk_iterations) * self.scale)
        self._kernel_mark = kernel_seconds()
        self._mark = time.perf_counter()

    def samples(self, tolerance: float) -> List[Tuple[float, bool]]:
        """``(normalised seconds, steady)`` per item of the round.

        A sample is steady when its two bracketing chunks differ by at most
        ``tolerance`` of the faster one: the machine's speed did not change
        under the item.
        """
        out = []
        for index, seconds in enumerate(self.items):
            before, after = self.chunks[index], self.chunks[index + 1]
            steady = abs(after - before) <= tolerance * min(before, after)
            out.append((seconds / ((before + after) / 2), steady))
        return out


def round_norm(rounds: Sequence[Sequence[Tuple[float, bool]]]) -> Tuple[float, int]:
    """``round_norm`` of the pooled ``rounds`` and their unsteady-sample count.

    For each item, the median over rounds of its normalised seconds (steady
    samples only, while it has any); ``round_norm`` is the sum over items.
    Taking the median per item and not per round keeps one slow spell from
    moving the whole round's figure.
    """
    total = 0.0
    unsteady = 0
    for samples in zip(*rounds):
        steady = [value for value, ok in samples if ok]
        unsteady += len(samples) - len(steady)
        total += statistics.median(steady or [value for value, _ in samples])
    return total, unsteady
