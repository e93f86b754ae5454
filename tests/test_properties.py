"""Property-based tests (hypothesis) on core invariants of the compiler.

Covers the IR use-def bookkeeping, affine-map algebra, the parallelization
constraint system, the resource model's monotonicity, and the dataflow
simulator's steady-state behaviour under randomized inputs.
"""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dialects.affine_map import AffineMap, dim
from repro.dialects.arith import AddFOp
from repro.dialects.hls import ArrayPartition, PartitionKind
from repro.estimation import ChannelSpec, ZU3EG, estimate_band, simulate_dataflow
from repro.frontend.cpp import KernelBuilder
from repro.hida.parallelize import _misaligned
from repro.ir import Builder, ConstantOp, FuncOp, ModuleOp, f32, verify
from repro.transforms.loop_transforms import loop_bands_of, pipeline_loop


# ---------------------------------------------------------------------------
# IR invariants
# ---------------------------------------------------------------------------


@given(st.integers(1, 12))
@settings(max_examples=25, deadline=None)
def test_use_lists_stay_consistent_under_chained_replacements(chain_length):
    """After arbitrary chains of RAUW, use lists always match operand lists."""
    module = ModuleOp.create("m")
    func = FuncOp.create("f")
    module.append(func)
    builder = Builder.at_end(func.entry_block)
    constants = [builder.insert(ConstantOp.create(float(i), f32)) for i in range(chain_length + 1)]
    adds = [
        builder.insert(AddFOp.create(constants[i].result(), constants[i + 1].result()))
        for i in range(chain_length)
    ]
    # Replace every constant with the first one, one at a time.
    for const in constants[1:]:
        const.result().replace_all_uses_with(constants[0].result())
    for add in adds:
        for index, operand in enumerate(add.operands):
            assert (add, index) in operand.uses
    # Every replaced constant has no remaining uses and can be erased.
    for const in constants[1:]:
        assert not const.result().has_uses
        const.erase()
    assert verify(module) == []


@given(
    st.lists(st.integers(2, 20), min_size=1, max_size=4),
    st.integers(1, 8),
)
@settings(max_examples=30, deadline=None)
def test_cloned_loop_nests_are_independent(bounds, unroll):
    """Cloning a loop nest never aliases attributes or values with the original."""
    kb = KernelBuilder("clone_prop")
    kb.add_input("A", (max(bounds),))
    kb.add_output("B", (max(bounds),))
    with kb.loop_nest([f"i{k}" for k in range(len(bounds))], bounds) as ivs:
        kb.store("B", [ivs[0]], kb.load("A", [ivs[0]]) * 2.0)
    module = kb.finish()
    loop = loop_bands_of(module.functions[0])[0][0]
    clone = loop.clone()
    clone.set_unroll_factor(unroll)
    assert loop.unroll_factor == 1
    original_values = {id(v) for op in loop.walk() for v in op.results}
    cloned_values = {id(v) for op in clone.walk() for v in op.results}
    assert not (original_values & cloned_values)


# ---------------------------------------------------------------------------
# Affine map algebra
# ---------------------------------------------------------------------------


@given(st.integers(1, 6), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_identity_map_strides_are_one(rank, probe):
    amap = AffineMap(rank, [dim(d) for d in range(rank)])
    assert amap.single_dim_strides() == [(d, 1) for d in range(rank)]


# ---------------------------------------------------------------------------
# Parallelization constraints and partitions
# ---------------------------------------------------------------------------


@given(
    st.lists(st.sampled_from([1, 2, 4, 8, 16, 32]), min_size=1, max_size=4),
    st.lists(st.sampled_from([1, 2, 4, 8, 16, 32]), min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_power_of_two_factor_vectors_never_violate_constraints(factors, constraints):
    """Mutual divisibility always holds between powers of two (Algorithm 4)."""
    assert not any(map(_misaligned, constraints, factors))


@given(st.lists(st.sampled_from([3, 5, 6, 7, 12]), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_indivisible_factors_are_flagged(factors):
    constraints = [f + 1 if (f + 1) % f != 0 and f % (f + 1) != 0 else f * 2 + 1 for f in factors]
    adjusted = []
    flagged = False
    for factor, constraint in zip(factors, constraints):
        if constraint % factor != 0 and factor % constraint != 0:
            flagged = True
    assert any(map(_misaligned, constraints, factors)) == flagged


@given(st.lists(st.integers(1, 32), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_partition_banks_monotone_in_factors(factors):
    kinds = [PartitionKind.CYCLIC if f > 1 else PartitionKind.NONE for f in factors]
    partition = ArrayPartition(kinds, factors)
    doubled = ArrayPartition(
        [PartitionKind.CYCLIC] * len(factors), [f * 2 for f in factors]
    )
    assert doubled.banks >= partition.banks * 2 ** (len(factors) - 1)


# ---------------------------------------------------------------------------
# Resource / latency model monotonicity
# ---------------------------------------------------------------------------


@given(st.sampled_from([1, 2, 4, 8]), st.sampled_from([8, 16, 32]))
@settings(max_examples=20, deadline=None)
def test_band_latency_monotone_in_unroll(unroll, size):
    def build(unroll_factor):
        kb = KernelBuilder("prop")
        kb.add_input("A", (size, size))
        kb.add_inout("C", (size, size))
        with kb.loop_nest(("i", "j"), (size, size)) as (i, j):
            kb.store("C", [i, j], kb.load("C", [i, j]) + kb.load("A", [i, j]))
        module = kb.finish()
        band = loop_bands_of(module.functions[0])[0]
        pipeline_loop(band[-1])
        band[0].set_unroll_factor(unroll_factor)
        from repro.transforms import partition_buffers_in

        partition_buffers_in(module.functions[0])
        return estimate_band(band, ZU3EG)

    base_latency, _, base_res = build(1)
    new_latency, _, new_res = build(unroll)
    assert new_latency <= base_latency + 1e-6
    assert new_res.lut >= base_res.lut * 0.99


# ---------------------------------------------------------------------------
# Dataflow simulator properties
# ---------------------------------------------------------------------------


@given(
    st.lists(st.floats(1.0, 300.0), min_size=2, max_size=6),
    st.integers(2, 5),
)
@settings(max_examples=40, deadline=None)
def test_larger_channel_capacity_never_hurts(latencies, capacity):
    chain_small = [ChannelSpec(i, i + 1, 2) for i in range(len(latencies) - 1)]
    chain_large = [ChannelSpec(i, i + 1, 2 + capacity) for i in range(len(latencies) - 1)]
    small_interval, _ = simulate_dataflow(latencies, chain_small, frames=12)
    large_interval, _ = simulate_dataflow(latencies, chain_large, frames=12)
    assert large_interval <= small_interval + 1e-6


@given(st.lists(st.floats(1.0, 300.0), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_dataflow_interval_never_exceeds_sequential_sum(latencies):
    channels = [ChannelSpec(i, i + 1, 2) for i in range(len(latencies) - 1)]
    interval, latency = simulate_dataflow(latencies, channels, frames=12)
    assert interval <= sum(latencies) + 1e-6
    assert latency <= sum(latencies) * 1.01 + 1e-6
    assert interval >= max(latencies) - 1e-6
