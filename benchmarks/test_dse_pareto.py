"""Design-space exploration benchmarks: throughput of the sweep engine.

The tables and figures elsewhere in this suite each compile one hand-picked
design; the DSE engine turns the same kernels into multi-scenario sweeps,
which makes exploration throughput (points/second) a hot path in its own
right.  These benchmarks measure a cold serial sweep, the warm-cache
replay, and the process fan-out path, and pin down the functional
guarantees: a non-empty per-workload Pareto frontier and frontier equality
across worker counts.  Parallel *speedup* is hardware-dependent (it scales
with physical cores), so it is reported rather than asserted.
"""

import time

from repro.dse import build_space, explore, polybench_suite
from repro.evaluation import print_table

KERNELS = polybench_suite()[:4]


def small_space():
    return build_space("small", suite=KERNELS)


def test_dse_serial_sweep():
    result = explore(small_space(), workers=1, use_cache=False)
    assert result.num_points == len(small_space())
    assert not result.errors
    # Every workload contributes at least one frontier design.
    covered = {record["workload"] for record in result.frontier}
    assert covered == {spec.name for spec in KERNELS}


def test_dse_warm_cache_replay(tmp_path):
    cache_dir = str(tmp_path / "qor")
    started = time.perf_counter()
    cold = explore(small_space(), workers=1, cache_dir=cache_dir)
    cold_seconds = time.perf_counter() - started
    assert cold.num_cached == 0

    warm = explore(small_space(), workers=1, cache_dir=cache_dir)
    assert warm.num_cached == warm.num_points
    assert warm.frontier_keys() == cold.frontier_keys()
    # The replay must beat the cold sweep outright (the CLI acceptance bar
    # is 5x; asserted loosely here to stay robust on noisy CI runners).
    assert warm.elapsed_seconds < cold_seconds


def test_dse_parallel_fanout():
    space = small_space()
    serial_started = time.perf_counter()
    serial = explore(space, workers=1, use_cache=False)
    serial_seconds = time.perf_counter() - serial_started

    fanout = explore(space, workers=4, use_cache=False)
    assert fanout.frontier_keys() == serial.frontier_keys()
    speedup = serial_seconds / max(fanout.elapsed_seconds, 1e-9)
    print_table(
        ["points", "serial s", "4-worker s", "speedup"],
        [[serial.num_points, serial_seconds, fanout.elapsed_seconds, speedup]],
        title="DSE fan-out (speedup scales with physical cores)",
    )
