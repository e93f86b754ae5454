"""Tests for the affine dependence engine (distance/direction vectors).

Pins the precision model: exact distances where subscripts are uniform,
sound lower bounds on carried reduction levels, independence from the
GCD/bounds tests, and conservative degradation everywhere else.

Two nets hold the engine as a whole.  ``tests/data/dependence_golden.json``
records every answer the engine gives on the zoo (every loop of every nest
at every stage boundary of the default pipeline); it was recorded with the
pre-PR-22 engine and is regenerated only on purpose, with
``PYTHONPATH=src python tests/test_dependence.py --regen``.  The brute-force
oracle at the end executes small generated nests and checks that no
dependence that really happens goes unreported.
"""

import dataclasses
import hashlib
import itertools
import json
import pathlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.analysis import (
    DistanceElement,
    NestAccesses,
    band_dependences,
    legal_permutation,
    loop_carried_dependences,
    loop_carries_dependence,
    nest_dependences,
)
from repro.analysis import dependence
from repro.compiler import DEFAULT_PIPELINE, Compiler, PipelineObserver
from repro.dialects.affine import (
    AffineApplyOp,
    AffineForOp,
    AffineLoadOp,
    AffineStoreOp,
)
from repro.dialects.affine_map import AffineMap, constant, dim
from repro.frontend.cpp import KernelBuilder
from repro.hida.analysis import is_parallel_loop
from repro.transforms.loop_transforms import (
    get_perfectly_nested_band,
    loop_bands_of,
    permute_band,
)
from repro.ir import (
    Block,
    Builder,
    ConstantOp,
    FuncOp,
    IndexType,
    InsertionPoint,
    MemRefType,
    Type,
    f32,
)
from repro.ir.core import Operation, Value, create_operation
from repro.workloads import get_workload, list_workloads


def _loops(module):
    """All loops of the module's first function, outermost first."""
    bands = loop_bands_of(module.functions[0])
    return [loop for band in bands for loop in band]


def gemm_module(m=8, n=8, k=8):
    kb = KernelBuilder("gemm")
    kb.add_input("A", (m, k))
    kb.add_input("B", (k, n))
    kb.add_inout("C", (m, n))
    with kb.loop_nest(("i", "j", "k"), (m, n, k)) as (i, j, kk):
        kb.store(
            "C",
            [i, j],
            kb.load("C", [i, j]) + kb.load("A", [i, kk]) * kb.load("B", [kk, j]),
        )
    return kb.finish()


def recurrence_module(distance=1, trip=16):
    """A[i] = A[i - distance] + B[i] — a carried RAW at exactly `distance`."""
    kb = KernelBuilder("rec")
    kb.add_input("B", (trip,))
    kb.add_inout("A", (trip,))
    with kb.loop("i", trip) as i:
        kb.store("A", [i], kb.load("A", [i - distance]) + kb.load("B", [i]))
    return kb.finish()


# ---------------------------------------------------------------------------
# Distance vectors on the classic kernels
# ---------------------------------------------------------------------------


class TestGemm:
    def test_reduction_carried_at_innermost_only(self):
        loops = _loops(gemm_module())
        i, j, k = loops
        assert not loop_carries_dependence(i)
        assert not loop_carries_dependence(j)
        assert loop_carries_dependence(k)

    def test_carried_distance_vector(self):
        loops = _loops(gemm_module())
        carried = [
            dep
            for dep in nest_dependences(loops[0], include_loop_independent=False)
            if len(dep.loops) == 3
        ]
        assert carried
        for dep in carried:
            # Equal i and j iterations; the k level orders the iterations
            # (strictly for the value recurrences, >= 0 for the WAR).
            assert dep.direction[:2] == ("=", "=")
            assert dep.carried_at(2)
            assert not dep.carried_at(0) and not dep.carried_at(1)
            if dep.kind in ("RAW", "WAW"):
                assert dep.direction[2] == "<"
                assert dep.min_distance_at(2) >= 1

    def test_all_three_kinds_present(self):
        deps = band_dependences(_loops(gemm_module()))
        kinds = {dep.kind for dep in deps if dep.buffer.name_hint == "C"}
        assert kinds == {"RAW", "WAR", "WAW"}

    def test_pure_inputs_carry_nothing(self):
        deps = nest_dependences(_loops(gemm_module())[0])
        # A and B are only read: no dependence mentions them.
        assert all(dep.buffer.name_hint == "C" for dep in deps)


class TestExactDistances:
    def test_unit_recurrence(self):
        loop = _loops(recurrence_module(distance=1))[0]
        carried = loop_carried_dependences(loop)
        raw = [d for d in carried if d.kind == "RAW"]
        assert raw
        assert all(d.distance[0].kind == "exact" for d in raw)
        assert all(d.min_distance_at(0) == 1 for d in raw)

    def test_distance_two_recurrence(self):
        loop = _loops(recurrence_module(distance=2))[0]
        raw = [d for d in loop_carried_dependences(loop) if d.kind == "RAW"]
        assert raw and all(d.min_distance_at(0) == 2 for d in raw)

    def test_loop_independent_war_same_index(self):
        kb = KernelBuilder("copy_then_clear")
        kb.add_inout("A", (8,))
        kb.add_output("B", (8,))
        with kb.loop("i", 8) as i:
            kb.store("B", [i], kb.load("A", [i]))
            kb.store("A", [i], 0.0)
        loop = _loops(kb.finish())[0]
        deps = nest_dependences(loop)
        war = [d for d in deps if d.kind == "WAR" and d.buffer.name_hint == "A"]
        assert war
        assert all(element.can_be_zero for d in war for element in d.distance)
        # The same-iteration WAR does not serialize the loop.
        assert not loop_carries_dependence(loop)


# ---------------------------------------------------------------------------
# Independence proofs (GCD and bounds tests)
# ---------------------------------------------------------------------------


class TestIndependence:
    def test_gcd_even_odd_streams(self):
        """B[2i] written, B[2i+1] read: parities never meet."""
        kb = KernelBuilder("evenodd")
        kb.add_inout("B", (32,))
        with kb.loop("i", 8) as i:
            kb.store("B", [i * 2], kb.load("B", [i * 2 + 1]) + 1.0)
        loop = _loops(kb.finish())[0]
        assert not loop_carries_dependence(loop)

    def test_bounds_offset_beyond_trip(self):
        """A[i] written, A[i+10] read with trip 8: ranges never overlap."""
        kb = KernelBuilder("farapart")
        kb.add_inout("A", (32,))
        with kb.loop("i", 8) as i:
            kb.store("A", [i], kb.load("A", [i + 10]) + 1.0)
        loop = _loops(kb.finish())[0]
        assert not loop_carries_dependence(loop)

    def test_bounds_offset_within_trip_depends(self):
        kb = KernelBuilder("nearby")
        kb.add_inout("A", (32,))
        with kb.loop("i", 8) as i:
            kb.store("A", [i], kb.load("A", [i + 3]) + 1.0)
        loop = _loops(kb.finish())[0]
        assert loop_carries_dependence(loop)

    def test_distinct_constant_addresses(self):
        kb = KernelBuilder("consts")
        kb.add_inout("A", (8,))
        with kb.loop("i", 8) as i:
            kb.store("A", [0], kb.load("A", [1]) + 1.0)
        loop = _loops(kb.finish())[0]
        deps = [
            d for d in nest_dependences(loop) if d.kind == "RAW"
        ]
        # A[0] and A[1] never alias; only the A[0] self-WAW remains carried.
        assert not deps


# ---------------------------------------------------------------------------
# Composed (tiled) subscripts and conservatism
# ---------------------------------------------------------------------------


def _tiled_nest(distance=None, trip=16, tile=4):
    """``for t in 0..trip step tile: for p in 0..tile: x = t + p`` (one
    ``affine.apply``), then ``B[x] = A[x]``, or ``A[x] = A[x - distance]``
    with a ``distance``.  Returns ``(tile loop, point loop)``."""
    func = FuncOp.create("f", input_types=[MemRefType((trip,), f32, "bram")] * 2)
    outer = Builder.at_end(func.entry_block).insert(AffineForOp.create(0, trip, tile))
    point = Builder.at_end(outer.body).insert(AffineForOp.create(0, tile))
    body = Builder.at_end(point.body)
    ivs = [outer.induction_variable, point.induction_variable]
    x = body.insert(AffineApplyOp.create(AffineMap(2, [dim(0) + dim(1)]), ivs)).result()
    a, b = func.arguments
    read = AffineMap(1, [dim(0) - (distance or 0)])
    loaded = body.insert(AffineLoadOp.create(a, [x], read)).result()
    target = b if distance is None else a
    body.insert(AffineStoreOp.create(loaded, target, [x], AffineMap(1, [dim(0)])))
    return outer, point


class TestTiledAndConservative:
    def test_tiled_parallel_loop_stays_parallel(self):
        loop, point = _tiled_nest()
        # Accesses index through an affine.apply (tile_iv + point_iv); the
        # linearizer sees through it and both levels stay parallel.
        assert not loop_carries_dependence(loop)
        assert not loop_carries_dependence(point)

    def test_tiled_recurrence_still_detected(self):
        loop, _ = _tiled_nest(distance=1)
        deps = nest_dependences(loop, include_loop_independent=False)
        assert any(dep.kind == "RAW" for dep in deps)
        assert loop_carries_dependence(loop)

    def test_unanalyzable_subscript_is_conservative(self):
        """An index computed through another array degrades to dependent."""
        kb = KernelBuilder("gather")
        kb.add_inout("A", (8,))
        kb.add_input("B", (8,))
        with kb.loop("i", 8) as i:
            # A data-dependent-looking pattern: stores at i, reads at a
            # different loop-invariant-free expression the engine cannot
            # relate exactly (i * 3 mod-like wraparound is out of scope, so
            # use a mismatched-coefficient pair instead).
            kb.store("A", [i * 3], kb.load("A", [i]) + 1.0)
        loop = _loops(kb.finish())[0]
        # 3i = i' has solutions inside trip 8 (i=1,i'=3 ...): must depend.
        assert loop_carries_dependence(loop)


# ---------------------------------------------------------------------------
# Agreement with the hida-side parallelism query
# ---------------------------------------------------------------------------


class TestDeclaredParallel:
    def test_attribute_resolves_conservative_dependence(self):
        """A declared-parallel loop clears deps the engine cannot refute."""
        kb = KernelBuilder("gather")
        kb.add_inout("A", (24,))
        with kb.loop("i", 8) as i:
            kb.store("A", [i * 3], kb.load("A", [i]) + 1.0)
        loop = _loops(kb.finish())[0]
        assert loop_carries_dependence(loop)  # conservative by default
        loop.set_attr("parallel", True)
        assert not loop_carries_dependence(loop)

    def test_attribute_cannot_override_an_exact_proof(self):
        loop = _loops(recurrence_module(distance=1))[0]
        loop.set_attr("parallel", True)
        # The unit recurrence is proven, not assumed: the engine keeps it.
        assert loop_carries_dependence(loop)


class TestIsParallelLoop:
    def test_agrees_with_engine_on_gemm(self):
        loops = _loops(gemm_module())
        verdicts = [is_parallel_loop(loop) for loop in loops]
        assert verdicts == [True, True, False]
        assert verdicts == [not loop_carries_dependence(l) for l in loops]

    def test_explicit_parallel_attribute_wins(self):
        loop = _loops(recurrence_module())[0]
        assert not is_parallel_loop(loop)
        loop.set_attr("parallel", True)
        assert is_parallel_loop(loop)


# ---------------------------------------------------------------------------
# One shared walk per band answers like a fresh analysis of every loop, and
# the table like the solver
# ---------------------------------------------------------------------------


def _enclosing_loops(op):
    """The ``affine.for`` loops around ``op``, outermost first."""
    loops = []
    while (op := op.parent_op) is not None:
        if isinstance(op, AffineForOp):
            loops.insert(0, op)
    return loops


def _nest_roots(module):
    return [
        op
        for op in module.walk()
        if isinstance(op, AffineForOp) and not _enclosing_loops(op)
    ]


def _nest_loops(root):
    return [op for op in root.walk() if isinstance(op, AffineForOp)]


def _signature(dependences):
    """Order matters: ``offending[0].describe()`` and ``binding_recurrences``
    expose it."""
    return [
        (dep.kind, id(dep.source), id(dep.sink), dep.loops, dep.distance)
        for dep in dependences
    ]


def _solved_afresh(nest, loop, independent):
    """The ``_signature`` of ``nest_dependences(loop, independent, nest)`` as
    the solver answers when nothing is remembered: the table may not vouch
    for itself, and two lookups of one row agreeing would say nothing.  The
    loops are re-derived from the IR, not from the collection."""

    def loops_from(op):
        around = _enclosing_loops(op)
        return tuple(around[around.index(loop) :])

    records = dependence._solve(nest.problem, nest._numbers[loop], independent)
    return [
        (
            kind,
            id(nest.ops[source]),
            id(nest.ops[sink]),
            loops_from(nest.ops[source])[:depth],
            distance,
        )
        for source, sink, kind, depth, distance in records
    ]


class _SharedEqualsFresh(PipelineObserver):
    """At the ``tile`` and ``parallelize`` boundaries, compare every loop of
    every nest against a fresh analysis rooted at that loop, and both against
    an uncached solve.  Mismatches are collected: the driver isolates
    exceptions raised by observers."""

    def __init__(self):
        self.loops = self.permutations = 0
        self.mismatches = []

    def on_stage_end(self, stage, state, seconds):
        if stage.name not in ("tile", "parallelize"):
            return
        for root in _nest_roots(state.module):
            shared = NestAccesses(root)
            for loop in _nest_loops(root):
                self.loops += 1
                for independent in (True, False):
                    ours = _signature(nest_dependences(loop, independent, shared))
                    fresh = _signature(nest_dependences(loop, independent))
                    solved = _solved_afresh(shared, loop, independent)
                    if not ours == fresh == solved:
                        self.mismatches.append((stage.name, loop, independent))
            band = get_perfectly_nested_band(root)
            for shift in range(len(band)):
                order = [(i + shift) % len(band) for i in range(len(band))]
                ours = legal_permutation(band, order, shared)
                fresh = legal_permutation(band, order)
                self.permutations += 1
                if (ours.ok, ours.reason) != (fresh.ok, fresh.reason):
                    self.mismatches.append((stage.name, root, order))


class TestSharedAccessCollection:
    @pytest.mark.parametrize("workload", list_workloads())
    def test_equals_fresh_analysis_on(self, workload):
        observer = _SharedEqualsFresh()
        compiler = Compiler.from_spec(
            DEFAULT_PIPELINE, platform="vu9p-slr", observers=[observer]
        )
        assert not compiler.run(workload=workload).observer_errors
        assert observer.loops and observer.permutations
        assert not observer.mismatches

    def test_rejects_a_loop_outside_its_nest(self):
        inside, outside = _loops(gemm_module())[0], _loops(gemm_module())[0]
        with pytest.raises(ValueError):
            nest_dependences(outside, accesses=NestAccesses(inside))


# ---------------------------------------------------------------------------
# The answer table: keyed by everything the solver reads, holding no IR
# ---------------------------------------------------------------------------


def _opaque_index(operand):
    """An index computed by an op no analysis can see through."""
    return create_operation("test.opaque", [operand], [IndexType()])


def _keyed_nest(
    lower=0,
    upper=8,
    step=1,
    coeff=1,
    const=0,
    second_is_store=False,
    second_buffer=0,
    parallel=None,
    swapped=False,
    second_index="iv",
):
    """``for o in 0..4: for i in lower..upper step: A[coeff*i + const] = 0;
    .. = A[i]`` with one knob per solver input.  ``second_index`` picks what
    the second access adds to ``i``: nothing (``"iv"``), a value computed
    inside the inner loop, the same computed before the nest, or the outer
    loop's IV.  Returns ``(outer loop, inner loop)``."""
    func = FuncOp.create(
        "f", input_types=[MemRefType((64,), f32, "bram")] * 2 + [IndexType()]
    )
    builder = Builder.at_end(func.entry_block)
    stored = builder.insert(ConstantOp.create(0.0, f32)).result()
    argument = func.arguments[2]
    hoisted = builder.insert(_opaque_index(argument)).result()
    outer = builder.insert(AffineForOp.create(0, 4))
    inner = Builder.at_end(outer.body).insert(AffineForOp.create(lower, upper, step))
    if parallel is not None:
        inner.set_attr("parallel", parallel)
    body = Builder.at_end(inner.body)
    iv = inner.induction_variable
    extra = {
        "iv": None,
        "inside": lambda: body.insert(_opaque_index(argument)).result(),
        "hoisted": lambda: hoisted,
        "outer-iv": lambda: outer.induction_variable,
    }[second_index]
    first = AffineStoreOp.create(
        stored, func.arguments[0], [iv], AffineMap(1, [dim(0) * coeff + const])
    )
    memref = func.arguments[second_buffer]
    indices, index_map = [iv], AffineMap(1, [dim(0)])
    if extra is not None:
        indices, index_map = [iv, extra()], AffineMap(2, [dim(0) + dim(1)])
    if second_is_store:
        second = AffineStoreOp.create(stored, memref, indices, index_map)
    else:
        second = AffineLoadOp.create(memref, indices, index_map)
    for op in (second, first) if swapped else (first, second):
        body.insert(op)
    return outer, inner


@pytest.fixture
def empty_table(monkeypatch):
    monkeypatch.setattr(dependence, "_TABLE", {})
    monkeypatch.setattr(dependence, "_COUNTS", {"reused": 0, "solved": 0})


class TestAnswerTable:
    @pytest.mark.parametrize(
        "mutation",
        [
            {"lower": 1},
            {"upper": 9},
            {"step": 2},
            {"coeff": 2},
            {"const": 1},
            {"second_is_store": True},
            {"second_buffer": 1},
            {"parallel": True},
            {"swapped": True},
            {"second_index": "inside"},
            {"second_index": "hoisted"},
            {"second_index": "outer-iv"},
        ],
        ids=lambda mutation: "-".join(map(str, *mutation.items())),
    )
    def test_every_solver_input_is_in_the_key(self, mutation):
        base = NestAccesses(_keyed_nest()[0]).problem
        assert NestAccesses(_keyed_nest()[0]).problem == base  # a key, not an id
        assert NestAccesses(_keyed_nest(**mutation)[0]).problem != base

    def test_where_an_index_is_defined_is_in_the_key(self):
        """The same ``i + k``: ``k`` computed inside the loop varies per
        iteration, ``k`` computed before the nest is an invariant, and the
        outer loop's IV is an invariant only to a question rooted below it."""
        problems = [
            NestAccesses(_keyed_nest(second_index=where)[0]).problem
            for where in ("inside", "hoisted", "outer-iv")
        ]
        assert len(set(problems)) == 3
        # Rooted at the inner loop the outer IV is one more external value.
        hoisted, outer_iv = (
            NestAccesses(_keyed_nest(second_index=where)[1]).problem
            for where in ("hoisted", "outer-iv")
        )
        assert hoisted == outer_iv

    def test_a_false_parallel_attribute_is_no_attribute(self):
        base = NestAccesses(_keyed_nest()[0]).problem
        assert NestAccesses(_keyed_nest(parallel=False)[0]).problem == base

    def test_identical_bands_in_different_functions_share_one_row(self, empty_table):
        first, second = _loops(gemm_module())[0], _loops(gemm_module())[0]
        ours = nest_dependences(first)
        assert dependence.table_stats() == {"reused": 0, "solved": 1, "forms": 1}
        theirs = nest_dependences(second)
        assert dependence.table_stats() == {"reused": 1, "solved": 1, "forms": 1}
        assert [d.describe() for d in ours] == [d.describe() for d in theirs]
        # ... re-bound to each band's own ops and loops.
        assert all(first.is_ancestor_of(d.source) and d.loops[0] is first for d in ours)
        assert all(second.is_ancestor_of(d.sink) and d.loops[0] is second for d in theirs)

    def test_a_band_permuted_over_equal_bounds_is_another_problem(self, empty_table):
        band = _loops(gemm_module(8, 8, 8))
        before = NestAccesses(band[0]).problem
        assert loop_carries_dependence(band[2])
        permute_band(band, [2, 0, 1])  # same bounds at every level
        after = NestAccesses(band[0])
        assert after.problem != before
        assert not loop_carries_dependence(band[2], after)
        assert dependence.table_stats()["forms"] == 3  # band, band[2], permuted band

    def test_two_answers_to_one_question_share_no_dependence(self, empty_table):
        loop = _loops(gemm_module())[0]
        nest = NestAccesses(loop)
        first = nest_dependences(loop, accesses=nest)
        second = nest_dependences(loop, accesses=nest)
        assert first == second and first
        assert all(a is not b for a, b in zip(first, second))
        first[0].kind = "scribbled"
        del first[1:]
        assert nest_dependences(loop, accesses=nest) == second

    def test_nothing_in_the_table_is_ir(self, empty_table):
        Compiler.from_spec(DEFAULT_PIPELINE).run(workload="resnet18")
        assert dependence.table_stats()["forms"] > 20
        assert dataclasses.is_dataclass(DistanceElement)
        assert DistanceElement.__dataclass_params__.frozen
        leaves = 0
        pending = [dependence._TABLE]
        while pending:
            item = pending.pop()
            assert not isinstance(item, (Operation, Value, Block, Type)), item
            if isinstance(item, dict):
                pending.extend(item.keys())
                pending.extend(item.values())
            elif isinstance(item, tuple):
                pending.extend(item)
            else:
                leaves += 1
                assert item is None or type(item) in (int, str, bool, DistanceElement)
        assert leaves > 1000

    def test_a_table_of_one_form_still_answers_right(self, empty_table, monkeypatch):
        monkeypatch.setattr(dependence, "_MAX_FORMS", 1)
        golden = json.loads(_GOLDEN_PATH.read_text())
        assert _golden_of("3mm") == golden["3mm"]
        assert dependence.table_stats()["forms"] == 1
        assert dependence.table_stats()["solved"] > 100

    def test_questions_are_counted_on_the_telemetry_session(self, empty_table):
        loop = _loops(gemm_module())[0]
        session = obs.configure()
        try:
            nest_dependences(loop)
            nest_dependences(loop)
            nest_dependences(loop, include_loop_independent=False)
        finally:
            obs.shutdown()
        metrics = session.registry.to_dict()
        assert metrics["dependence.solved"]["value"] == 2
        assert metrics["dependence.reused"]["value"] == 1


# ---------------------------------------------------------------------------
# Golden answers on the zoo
# ---------------------------------------------------------------------------

_GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "dependence_golden.json"


def _access_index(root):
    """Position of every load/store of the nest in program order, by id."""
    accesses = (
        op for op in root.walk() if isinstance(op, (AffineLoadOp, AffineStoreOp))
    )
    return {id(op): position for position, op in enumerate(accesses)}


def _rows(dependences, index):
    """The positional form of an answer: no op, loop or value in it."""
    return [
        [index[id(d.source)], index[id(d.sink)], d.kind, len(d.loops), d.describe()]
        for d in dependences
    ]


class _AnswerRows(PipelineObserver):
    """Every answer at every stage boundary: per stage, one row list per
    question, in ``_nest_roots`` x ``_nest_loops`` x (True, False) order."""

    def __init__(self):
        self.stages = {}

    def on_stage_end(self, stage, state, seconds):
        answers = self.stages[stage.name] = []
        for root in _nest_roots(state.module):
            index = _access_index(root)
            for loop in _nest_loops(root):
                nest = NestAccesses(loop)
                for independent in (True, False):
                    answer = nest_dependences(loop, independent, nest)
                    # The driver reports an observer's exception as an error.
                    assert _signature(answer) == _solved_afresh(nest, loop, independent)
                    answers.append(_rows(answer, index))


def _compact(value):
    return json.dumps(value, separators=(",", ":"))


def _golden_of(workload):
    """``{stage: answers}`` for a kernel (a stage whose answers equal the
    previous stage's holds that stage's name instead), and
    ``{stage: [questions, rows, sha256]}`` for a model."""
    observer = _AnswerRows()
    compiler = Compiler.from_spec(
        DEFAULT_PIPELINE, platform="vu9p-slr", observers=[observer]
    )
    assert not compiler.run(workload=workload).observer_errors
    if get_workload(workload).kind == "kernel":
        golden, previous = {}, None
        for stage, answers in observer.stages.items():
            same = previous is not None and observer.stages[previous] == answers
            golden[stage] = previous if same else answers
            previous = previous if same else stage
        return golden
    return {
        stage: [
            len(answers),
            sum(len(rows) for rows in answers),
            hashlib.sha256(_compact(answers).encode()).hexdigest(),
        ]
        for stage, answers in observer.stages.items()
    }


def _regenerate_golden():
    lines = []
    for workload in list_workloads():
        stages = ",\n".join(
            f"  {json.dumps(stage)}: {_compact(value)}"
            for stage, value in _golden_of(workload).items()
        )
        lines.append(f" {json.dumps(workload)}: {{\n{stages}\n }}")
    _GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")


class TestGoldenAnswers:
    @pytest.mark.parametrize("workload", list_workloads())
    def test_answers_match_golden(self, workload):
        golden = json.loads(_GOLDEN_PATH.read_text())
        assert _golden_of(workload) == golden[workload]

    def test_golden_covers_the_zoo(self):
        golden = json.loads(_GOLDEN_PATH.read_text())
        assert list(golden) == list_workloads()
        questions = 0
        for workload, stages in golden.items():
            assert list(stages) == [s.strip() for s in DEFAULT_PIPELINE.split(",")]
            for stage, value in stages.items():
                while isinstance(value, str):
                    value = stages[value]
                kernel = get_workload(workload).kind == "kernel"
                questions += len(value) if kernel else value[0]
        assert questions == 18780


# ---------------------------------------------------------------------------
# Brute-force oracle: no dependence that happens goes unreported
# ---------------------------------------------------------------------------
#
# A generated nest is a chain of 1-3 loops with 2-4 accesses hung at any
# depth, before or after the next loop down.  It is described by plain
# data, built into IR for the engine, and *executed from the data* — the
# addresses below never pass through the engine's linearizer.  No loop is
# declared ``parallel``: the attribute is an assertion the engine trusts,
# not something it proves.


@st.composite
def _nests(draw):
    depth = draw(st.integers(1, 3))
    # (lower bound, step, trip count)
    loops = [
        (draw(st.integers(0, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 4)))
        for _ in range(depth)
    ]
    ranks = draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
    coefficient = st.integers(-2, 2)
    accesses = []
    for _ in range(draw(st.integers(2, 4))):
        buffer = draw(st.integers(0, len(ranks) - 1))
        level = draw(st.integers(1, depth))  # number of enclosing loops
        subscripts = [
            # (coefficient per enclosing IV, constant, through an affine.apply)
            (
                [draw(coefficient) for _ in range(level)],
                draw(coefficient),
                draw(st.booleans()),
            )
            for _ in range(ranks[buffer])
        ]
        # (buffer, is_store, level, after the next loop down, subscripts)
        accesses.append(
            (buffer, draw(st.booleans()), level, draw(st.booleans()), subscripts)
        )
    return loops, ranks, accesses


def _build_nest(nest):
    """``(loop ops outermost first, access ops in ``accesses`` order)``."""
    loops, ranks, accesses = nest
    func = FuncOp.create(
        "f", input_types=[MemRefType((64,) * rank, f32, "bram") for rank in ranks]
    )
    builder = Builder.at_end(func.entry_block)
    stored = builder.insert(ConstantOp.create(0.0, f32)).result()
    loop_ops = []
    for lower, step, trip in loops:
        loop_ops.append(
            builder.insert(AffineForOp.create(lower, lower + step * trip, step))
        )
        builder = Builder.at_end(loop_ops[-1].body)
    ops = []
    for buffer, is_store, level, after, subscripts in accesses:
        if level == len(loops) or after:
            builder = Builder.at_end(loop_ops[level - 1].body)
        else:
            builder = Builder(InsertionPoint.before(loop_ops[level]))
        ivs = [loop.induction_variable for loop in loop_ops[:level]]
        applied, results = [], []
        for coefficients, const, through_apply in subscripts:
            expr = constant(const)
            for position, coeff in enumerate(coefficients):
                expr = expr + dim(position) * coeff
            if through_apply:
                apply = AffineApplyOp.create(AffineMap(level, [expr]), ivs)
                expr = dim(level + len(applied))
                applied.append(builder.insert(apply).result())
            results.append(expr)
        access_map = AffineMap(level + len(applied), results)
        memref = func.arguments[buffer]
        if is_store:
            op = AffineStoreOp.create(stored, memref, ivs + applied, access_map)
        else:
            op = AffineLoadOp.create(memref, ivs + applied, access_map)
        ops.append(builder.insert(op))
    return func, loop_ops, ops


def _execute_nest(nest):
    """Dynamic accesses in execution order as ``(access, iteration numbers,
    (buffer, address...))``."""
    loops, _, accesses = nest
    trace = []

    def touch(level, iterations, after_inner):
        ivs = [
            lower + iteration * step
            for (lower, step, _), iteration in zip(loops, iterations)
        ]
        for position, (buffer, _, at, after, subscripts) in enumerate(accesses):
            if at == level and (level == len(loops) or after == after_inner):
                address = tuple(
                    const + sum(c * iv for c, iv in zip(coefficients, ivs))
                    for coefficients, const, _ in subscripts
                )
                trace.append((position, tuple(iterations), (buffer,) + address))

    def run(level, outer):
        for iteration in range(loops[level][2]):
            iterations = outer + [iteration]
            touch(level + 1, iterations, False)
            if level + 1 < len(loops):
                run(level + 1, iterations)
                touch(level + 1, iterations, True)

    run(0, [])
    return trace


def _admits(dependence, distance):
    if len(dependence.distance) != len(distance):
        return False
    for element, actual in zip(dependence.distance, distance):
        if element.kind == "exact" and element.value != actual:
            return False
        if element.kind == "atleast" and element.value > actual:
            return False
    return True  # "any" / "unknown" admit every distance


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_nests())
def test_no_executed_dependence_goes_unreported(nest):
    """Soundness only: every ordered pair of dynamic accesses to one address
    with a store on either side is covered by a reported ``Dependence`` with
    that source and sink whose vector admits the pair's per-level distance,
    and a loop that carries such a pair (equal outer iterations, positive
    distance at its level) is never called dependence-free.  Precision is
    the golden's business, not this test's."""
    _, _, accesses = nest
    _, loop_ops, ops = _build_nest(nest)
    by_address = {}
    for entry in _execute_nest(nest):
        by_address.setdefault(entry[2], []).append(entry)
    happened = set()  # (source access, sink access, distance over common loops)
    for entries in by_address.values():
        for (a, at_a, _), (b, at_b, _) in itertools.combinations(entries, 2):
            if accesses[a][1] or accesses[b][1]:
                common = min(accesses[a][2], accesses[b][2])
                distance = tuple(y - x for x, y in zip(at_a[:common], at_b[:common]))
                happened.add((a, b, distance))
    shared = NestAccesses(loop_ops[0])
    for reported in (
        nest_dependences(loop_ops[0]),
        nest_dependences(loop_ops[0], accesses=shared),
    ):
        for a, b, distance in happened:
            assert any(
                dep.source is ops[a] and dep.sink is ops[b] and _admits(dep, distance)
                for dep in reported
            ), (a, b, distance)
    for level, loop in enumerate(loop_ops):
        if any(
            len(distance) > level and not any(distance[:level]) and distance[level] > 0
            for _, _, distance in happened
        ):
            assert loop_carries_dependence(loop), level
            assert loop_carries_dependence(loop, shared), level


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_dependence.py --regen")
    _regenerate_golden()
    print(f"wrote {_GOLDEN_PATH}")
