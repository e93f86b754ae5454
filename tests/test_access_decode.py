"""The one access decode: which loop drives each subscript, at what stride.

``_AffineMemAccess.driving_loops`` (over ``AffineMap.single_dim_strides``
and ``loop_of``) is what the connection analysis, the array partitioner,
the port-II model and the bank-conflict check all read.  Its meaning is
pinned here against an independent probing reference: over every access
of the compiled zoo, over random maps, and on the rows where "single dim"
and "linear" part ways.
"""

import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import partition_bank_conflicts
from repro.backend import HlsCppEmitter
from repro.baselines import (
    ablation_pipeline_spec,
    scalehls_pipeline_spec,
    vitis_pipeline_spec,
)
from repro.compiler import Compiler
from repro.compiler.driver import DEFAULT_PIPELINE
from repro.dialects.affine import (
    AffineApplyOp,
    AffineForOp,
    AffineLoadOp,
    AffineStoreOp,
    loop_of,
)
from repro.dialects.affine_map import AffineMap, constant, dim
from repro.dialects.arith import AddIOp
from repro.estimation import ZU3EG, estimate_band
from repro.ir import Builder, FuncOp, MemRefType, f32
from repro.workloads import list_workloads


def _probe(expr, num_dims):
    """Reference decode: the single syntactic dim and ``f(e_d) - f(0)``."""
    used = expr.used_dims()
    if len(used) != 1:
        return None
    unit = [int(d == used[0]) for d in range(num_dims)]
    return used[0], expr.evaluate(unit) - expr.evaluate([0] * num_dims)


def _reference(amap):
    return [_probe(expr, amap.num_dims) for expr in amap.results]


def _compiled(name, spec):
    return Compiler.from_spec(spec).run(workload=name).module


def _accesses(module):
    return [
        op for op in module.walk() if isinstance(op, (AffineLoadOp, AffineStoreOp))
    ]


# ---------------------------------------------------------------------------
# (i) every access of the compiled zoo
# ---------------------------------------------------------------------------

_SPECS = {
    "default": DEFAULT_PIPELINE,
    "scalehls": scalehls_pipeline_spec(32),
    "vitis": vitis_pipeline_spec(),
    "naive": ablation_pipeline_spec("naive", 64),
}


@pytest.mark.parametrize("spec", list(_SPECS))
@pytest.mark.parametrize("name", list_workloads())
def test_zoo_accesses_decode_like_the_probe(name, spec):
    accesses = _accesses(_compiled(name, _SPECS[spec]))
    assert accesses
    for op in accesses:
        operands = list(op.index_operands)
        # Every index operand of the zoo is an induction variable today.
        assert all(loop_of(v).induction_variable is v for v in operands)
        expected = _reference(op.access_map)
        assert op.access_map.single_dim_strides() == expected
        drivers = op.driving_loops()
        assert len(drivers) == len(expected)
        for driver, reference in zip(drivers, expected):
            if reference is None:
                assert driver is None
                continue
            loop, stride = driver
            assert type(stride) is int and stride == reference[1]
            assert loop.induction_variable is operands[reference[0]]


# ---------------------------------------------------------------------------
# (ii) random maps, and the rows where single-dim is not linear
# ---------------------------------------------------------------------------

_NUM_DIMS = 6
_leaves = st.one_of(
    st.builds(dim, st.integers(0, _NUM_DIMS - 1)),
    st.builds(constant, st.integers(-9, 9)),
)
_divisors = st.integers(1, 7)
_exprs = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.builds(lambda a, b: a + b, inner, inner),
        st.builds(lambda a, k: a * k, inner, st.integers(-4, 4)),
        st.builds(lambda a, k: a // k, inner, _divisors),
        st.builds(lambda a, k: a.ceildiv(k), inner, _divisors),
        st.builds(lambda a, k: a % k, inner, _divisors),
    ),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(results=st.lists(_exprs, min_size=1, max_size=3))
@example(results=[dim(0) // 120, (dim(0) // 1) % 120])
@example(results=[dim(3) * 0 + dim(1)])
def test_random_maps_decode_like_the_probe(results):
    amap = AffineMap(_NUM_DIMS, 0, results)
    decoded = amap.single_dim_strides()
    assert decoded == _reference(amap)
    assert all(type(s) is int for entry in decoded if entry for s in entry)


@pytest.mark.parametrize(
    "expr, expected",
    [
        (dim(0) // 120, (0, 0)),
        ((dim(0) // 1) % 120, (0, 1)),
        ((dim(0) // 1) % 1, (0, 0)),
        ((dim(2) + dim(5)) + -2, None),
        (1 + dim(0), (0, 1)),
        (dim(1) * 2, (1, 2)),
        (constant(7), None),
    ],
    ids=str,
)
def test_pinned_rows(expr, expected):
    assert AffineMap(_NUM_DIMS, 0, [expr]).single_dim_strides() == [expected]


# ---------------------------------------------------------------------------
# (iii) loop_of: only an induction variable names a loop
# ---------------------------------------------------------------------------


def _computed_index_load(trip=16, unroll=8):
    """``for i (unroll 8): k = i + i; A[k]`` -- the index is an op result."""
    func = FuncOp.create("f", input_types=[MemRefType((2 * trip,), f32, "bram")])
    loop = Builder.at_end(func.entry_block).insert(AffineForOp.create(0, trip))
    loop.set_unroll_factor(unroll)
    body = Builder.at_end(loop.body)
    iv = loop.induction_variable
    computed = body.insert(AddIOp.create(iv, iv)).result()
    by_result = body.insert(AffineLoadOp.create(func.arguments[0], [computed]))
    by_iv = body.insert(AffineLoadOp.create(func.arguments[0], [iv]))
    return func, loop, by_result, by_iv


def test_an_op_result_inside_a_loop_drives_no_loop():
    func, loop, by_result, by_iv = _computed_index_load()
    assert loop_of(loop.induction_variable) is loop
    assert loop_of(by_result.index_operands[0]) is None
    assert loop_of(func.arguments[0]) is None
    assert by_result.driving_loops() == [None]
    assert by_iv.driving_loops() == [(loop, 1)]


def test_a_computed_index_is_not_multiplied_by_the_enclosing_unroll():
    func, loop, by_result, by_iv = _computed_index_load()
    buffer = func.arguments[0]
    # One port per bank: the eight unrolled copies of A[i] collide in two
    # banks; A[k] has no loop to be unrolled along, so it is one address.
    assert partition_bank_conflicts(buffer, [by_iv], factors=[2], ports=1)
    assert not partition_bank_conflicts(buffer, [by_result], factors=[2], ports=1)
    # Port II of the pipelined band: A[k] is one address per cycle, within
    # the two ports of the unpartitioned bank, so it costs what no access costs.
    by_iv.erase()
    loop.set_pipeline(True)
    _, with_computed_index, _ = estimate_band([loop], ZU3EG)
    by_result.erase()
    _, without_access, _ = estimate_band([loop], ZU3EG)
    assert with_computed_index == without_access


# ---------------------------------------------------------------------------
# Emitted subscripts are the access map's expression
# ---------------------------------------------------------------------------

_LOAD = re.compile(r"\s*\w+ ld\d+ = \w+\[")
_STORE = re.compile(r"\s*\w+\[.*\] = \w+;$")
_BRACKET = re.compile(r"\[([^\]]*)\]")
_NAME = re.compile(r"[A-Za-z_]\w*")


def _emit(name):
    """(module, emitter, emitted load/store lines) of a default compile."""
    module = _compiled(name, DEFAULT_PIPELINE)
    emitter = HlsCppEmitter()
    lines = emitter.emit_module(module).splitlines()
    return module, emitter, [s for s in lines if _LOAD.match(s) or _STORE.match(s)]


def _evaluate(text, names, values):
    """``eval`` of a bracket text with operand k spelled ``x[k]`` (a C
    identifier such as ``in`` can be a Python keyword)."""
    python = _NAME.sub(lambda match: f"x[{names.index(match.group())}]", text)
    return eval(python, {}, {"x": values})


def test_jacobi_stencil_loads_five_distinct_addresses():
    _, _, lines = _emit("jacobi-2d")
    loads = [line.split(" = ")[1] for line in lines if _LOAD.match(line)]
    assert len(set(loads[:5])) == 5


def test_lenet_convolution_load_names_output_and_kernel_rows():
    _, _, lines = _emit("lenet")
    window = next(line for line in lines if "= input0[" in line)
    rows = _BRACKET.findall(window)[2]
    assert re.search(r"\boh\b", rows) and re.search(r"\bkh\b", rows)


@pytest.mark.parametrize("name", ["jacobi-2d", "seidel-2d", "lenet"])
def test_emitted_subscripts_evaluate_like_the_access_map(name):
    module, emitter, lines = _emit(name)
    accesses = _accesses(module)  # walk order is emission order
    assert len(lines) == len(accesses)
    rng = random.Random(0)
    checked = 0
    for line, op in zip(lines, accesses):
        subscripts = _BRACKET.findall(line)
        assert len(subscripts) == op.access_map.num_results
        names = [emitter._name(value) for value in op.index_operands]
        for text, expr in zip(subscripts, op.access_map.results):
            if "/" in text or "%" in text:
                continue  # C division is not Python's
            for _ in range(2):
                values = [rng.randrange(64) for _ in names]
                assert _evaluate(text, names, values) == expr.evaluate(values)
                checked += 1
    assert checked


def test_affine_apply_is_emitted_through_the_same_renderer():
    func = FuncOp.create("f")
    loop = Builder.at_end(func.entry_block).insert(AffineForOp.create(0, 8, name_hint="i"))
    iv = loop.induction_variable
    tiled = AffineMap(2, 0, [dim(0) * 4 + dim(1) % 3])
    Builder.at_end(loop.body).insert(AffineApplyOp.create(tiled, [iv, iv]))
    emitter = HlsCppEmitter()
    emitter.emit_function(func)
    assert "    int idx0 = i * 4 + i % 3;" in emitter._lines


def test_zero_subscripts_are_the_constant_ones():
    zeros = {name: "\n".join(_emit(name)[2]).count("[0]") for name in list_workloads()}
    assert {name: n for name, n in zeros.items() if n} == {"mobilenet": 13}
