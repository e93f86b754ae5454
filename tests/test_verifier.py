"""Error-path tests of the structural IR verifier (:mod:`repro.ir.verifier`).

The happy path is exercised implicitly all over the suite (``--verify-ir``,
the ``verify`` stage); these tests corrupt IR on purpose and check that each
invariant class — parent links, use lists, operand visibility, isolation —
produces its own diagnostic, that ``raise_on_error=False`` accumulates
instead of stopping at the first hit, and that clean IR stays silent.
"""

import collections
import json
import pathlib
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ir_strategies import _op_trees
from repro.compiler import DEFAULT_PIPELINE, Compiler
from repro.compiler.stages import CompilationState
from repro.dialects.affine import AffineForOp
from repro.dialects.arith import AddFOp
from repro.dialects.dataflow import BufferOp, NodeOp, ScheduleOp
from repro.estimation.platform import get_platform
from repro.ir import Block, Builder, ConstantOp, FuncOp, InsertionPoint, ModuleOp, f32, verify
from repro.ir.builtin import ReturnOp
from repro.ir.core import BlockArgument, OpResult, Operation
from repro.ir.verifier import VerificationError
from repro.workloads import get_workload, list_workloads


def clean_module():
    module = ModuleOp.create("m")
    func = FuncOp.create("f", input_types=[f32])
    module.append(func)
    builder = Builder.at_end(func.entry_block)
    one = builder.insert(ConstantOp.create(1.0, f32))
    two = builder.insert(ConstantOp.create(2.0, f32))
    add = builder.insert(AddFOp.create(one.result(), two.result()))
    builder.insert(ReturnOp.create([add.result()]))
    return module, func, one, two, add


def test_clean_module_verifies_silently():
    module, *_ = clean_module()
    assert verify(module) == []


def test_an_op_its_block_no_longer_lists_is_reported_at_its_uses():
    module, func, one, two, add = clean_module()
    func.entry_block._operations.remove(one)
    assert verify(module, raise_on_error=False) == [
        f"arith.addf: operand #0 ({one.result()!r}) is not visible at its use"
    ]


def test_an_op_listed_twice_is_reported_once():
    module, func, one, two, add = clean_module()
    func.entry_block._operations.insert(0, add)
    issues = verify(module, raise_on_error=False)
    assert issues == [
        f"arith.addf: operand #0 ({one.result()!r}) is not visible at its use",
        f"arith.addf: operand #1 ({two.result()!r}) is not visible at its use",
        "func.func: child op arith.addf is listed twice",
    ]


def test_parent_link_corruption_is_reported():
    module, func, one, *_ = clean_module()
    one.parent = None  # simulate a botched detach
    issues = verify(module, raise_on_error=False)
    # The broken link itself, plus the knock-on visibility failure of the
    # orphaned op's result at its downstream use.
    stale = [issue for issue in issues if "stale parent link" in issue]
    assert len(stale) == 1
    assert "arith.constant" in stale[0]


def test_missing_use_list_entry_is_reported():
    module, func, one, two, add = clean_module()
    one.result()._remove_use(add, 0)  # use-list out of sync with operands
    issues = verify(module, raise_on_error=False)
    assert any("use-list is missing this use" in issue for issue in issues)


def test_stale_use_entry_is_reported():
    module, func, one, two, add = clean_module()
    one.result()._add_use(add, 7)  # phantom use at a bogus operand slot
    issues = verify(module, raise_on_error=False)
    assert any("stale use recorded" in issue for issue in issues)


def test_use_before_def_in_same_block_is_reported():
    module, func, one, two, add = clean_module()
    late = ConstantOp.create(3.0, f32)
    Builder.at_end(func.entry_block).insert(late)
    user = AddFOp.create(late.result(), late.result())
    Builder.at_start(func.entry_block).insert(user)  # user precedes def
    issues = verify(module, raise_on_error=False)
    assert any("is not visible at its use" in issue for issue in issues)


def test_isolated_from_above_violation_is_reported():
    module, func, one, two, add = clean_module()
    node = NodeOp.create(label="iso")
    Builder.at_end(func.entry_block).insert(node)
    # An op inside the isolated node body capturing an outside SSA value.
    Builder.at_end(node.body).insert(
        AddFOp.create(one.result(), one.result())
    )
    issues = verify(module, raise_on_error=False)
    assert issues
    assert all("defined outside isolated op" in issue for issue in issues)


def test_op_specific_verify_hooks_feed_diagnostics():
    module, func, *_ = clean_module()
    module.append(FuncOp.create("f"))  # duplicate symbol trips ModuleOp.verify
    issues = verify(module, raise_on_error=False)
    assert any("duplicate function symbols" in issue for issue in issues)


def test_accumulation_and_raise_modes():
    module, func, one, two, add = clean_module()
    one.parent = None
    two.result()._remove_use(add, 1)
    issues = verify(module, raise_on_error=False)
    assert len(issues) >= 2  # keeps going past the first failure
    with pytest.raises(VerificationError) as excinfo:
        verify(module)
    # The raised message carries every accumulated diagnostic.
    for issue in issues:
        assert issue in str(excinfo.value)


# ---------------------------------------------------------------------------
# Golden diagnostics: full message list, in order, on corrupted modules
# ---------------------------------------------------------------------------
#
# ``tests/data/verifier_golden.json`` was recorded with the pre-PR-23 verifier
# (one ``list.index`` pair per same-block operand, one isolation climb per op)
# and is regenerated only on purpose, with
# ``PYTHONPATH=src python tests/test_verifier.py --regen``.

_GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "verifier_golden.json"


def _move_after(op, anchor):
    """Detach ``op`` and insert it right after ``anchor``."""
    op.detach()
    anchor.parent.insert(anchor.parent.index_of(anchor) + 1, op)


def _long_block():
    """clean_module with 200 chained adds, so positions in a long block matter."""
    module, func, one, two, add = clean_module()
    builder = Builder(InsertionPoint.before(func.entry_block.last_op))
    chain = [add]
    for _ in range(200):
        chain.append(builder.insert(AddFOp.create(chain[-1].result(), one.result())))
    return module, func, one, two, chain


def _compiled(workload):
    """A zoo module after the whole default pipeline, and its first schedule."""
    state = Compiler.from_spec(DEFAULT_PIPELINE, platform="zu3eg").run_stages(workload=workload)
    return state.module, next(iter(state.module.walk_ops(ScheduleOp)))


def _case_def_moved_after_use_in_long_block():
    module, func, one, two, chain = _long_block()
    _move_after(chain[40], chain[150])
    _move_after(one, chain[3])
    return module


def _case_use_across_isolated_node():
    module, func, one, two, add = clean_module()
    node = InsertionPoint.before(func.entry_block.last_op).insert(NodeOp.create(label="iso"))
    body = Builder.at_end(node.body)
    inner = body.insert(AddFOp.create(one.result(), two.result()))
    body.insert(AddFOp.create(inner.result(), add.result()))
    return module


def _case_block_argument_from_outside_isolated_op():
    module, func, *_ = clean_module()
    node = InsertionPoint.before(func.entry_block.last_op).insert(NodeOp.create(label="iso"))
    loop = Builder.at_end(node.body).insert(AffineForOp.create(0, 4))
    Builder.at_end(loop.body).insert(AddFOp.create(func.arguments[0], func.arguments[0]))
    return module


def _case_missing_use_entries():
    module, func, one, two, chain = _long_block()
    one.result()._remove_use(chain[0], 0)
    one.result()._remove_use(chain[17], 1)
    chain[99].result()._remove_use(chain[100], 0)
    return module


def _case_stale_use_entries():
    module, func, one, two, chain = _long_block()
    one.result()._add_use(chain[5], 7)
    two.result()._add_use(chain[9], 0)
    return module


def _case_nested_region_use_before_def():
    module, func, one, two, add = clean_module()
    outer = InsertionPoint.before(add).insert(AffineForOp.create(0, 4))
    inner = Builder.at_end(outer.body).insert(AffineForOp.create(0, 4))
    # ``add`` is defined after the loop nest in the enclosing block.
    Builder.at_end(inner.body).insert(AddFOp.create(add.result(), one.result()))
    return module


def _case_value_from_sibling_region():
    module, func, *_ = clean_module()
    builder = Builder(InsertionPoint.before(func.entry_block.last_op))
    first = builder.insert(AffineForOp.create(0, 4))
    second = builder.insert(AffineForOp.create(0, 4))
    inner = Builder.at_end(first.body).insert(ConstantOp.create(1.0, f32))
    Builder.at_end(second.body).insert(AddFOp.create(inner.result(), inner.result()))
    Builder.at_end(second.body).insert(
        AddFOp.create(first.induction_variable, first.induction_variable)
    )
    return module


def _case_orphaned_op_and_detached_def():
    module, func, one, two, add = clean_module()
    one.parent = None  # still listed in the block
    ghost = ConstantOp.create(9.0, f32)  # never inserted anywhere
    InsertionPoint.before(add).insert(AddFOp.create(ghost.result(), two.result()))
    return module


def _case_broken_region_and_block_links():
    module, func, *_ = clean_module()
    loop = InsertionPoint.before(func.entry_block.last_op).insert(AffineForOp.create(0, 4))
    Builder.at_end(loop.body).insert(ConstantOp.create(1.0, f32))
    loop.regions[0].parent = func
    loop.body.parent = func.regions[0]
    return module


def _case_verify_hooks():
    module, func, one, *_ = clean_module()
    module.append(FuncOp.create("f"))
    node = InsertionPoint.before(func.entry_block.last_op).insert(NodeOp.create(label="n"))
    node.append_operand(one.result())  # no effect entry, no block argument
    return module


def _case_everything_at_once():
    module, func, one, two, chain = _long_block()
    node = InsertionPoint.before(chain[60]).insert(NodeOp.create(label="iso"))
    Builder.at_end(node.body).insert(AddFOp.create(chain[10].result(), func.arguments[0]))
    _move_after(chain[20], chain[30])
    two.result()._remove_use(chain[0], 1)
    chain[70].result()._add_use(chain[71], 5)
    chain[80].parent = None
    return module


def _case_zoo_buffer_moved_after_its_nodes():
    module, schedule = _compiled("2mm")
    buffer = next(op for op in schedule.body.operations if isinstance(op, BufferOp))
    _move_after(buffer, schedule.nodes[-1])
    return module


def _case_zoo_node_captures_schedule_values():
    module, schedule = _compiled("lenet")
    buffer = next(op for op in schedule.body.operations if isinstance(op, BufferOp))
    for node in schedule.nodes[:3]:
        target = next(op for op in node.walk() if op.num_operands and op is not node)
        target.set_operand(0, buffer.result())
    last = schedule.nodes[-1]
    target = next(op for op in last.walk() if op.num_operands and op is not last)
    target.set_operand(0, schedule.body.arguments[0])
    return module


def _case_zoo_inner_loop_hoisted_out_of_its_band():
    module, schedule = _compiled("atax")
    inner = next(
        loop for loop in schedule.walk_ops(AffineForOp) if isinstance(loop.parent_op, AffineForOp)
    )
    InsertionPoint.before(inner.parent_op).insert(inner)  # its body still reads the outer iv
    return module


def _case_second_block_uses_first_blocks_values():
    module, func, one, two, add = clean_module()
    block = func.regions[0].append_block(Block(arg_types=[f32]))
    block.append(AddFOp.create(add.result(), block.arguments[0]))
    late = ConstantOp.create(4.0, f32)
    block.append(AddFOp.create(late.result(), late.result()))
    block.append(late)
    return module


_CASES = {
    name[len("_case_"):]: build
    for name, build in sorted(globals().items())
    if name.startswith("_case_")
}


def _diagnostics(build):
    # A value without a name hint prints as %v<process-wide counter>.
    return [re.sub(r"%v\d+", "%v_", issue) for issue in verify(build(), raise_on_error=False)]


def test_golden_covers_the_corruption_classes():
    golden = json.loads(_GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(_CASES) and len(golden) >= 12
    text = "\n".join(issue for issues in golden.values() for issue in issues)
    for fragment in (
        "stale parent link", "region parent link", "block parent link",
        "use-list is missing", "stale use recorded", "defined outside isolated op",
        "block argument from outside isolated op", "is not visible at its use",
        "duplicate function symbols", "effects list must match",
    ):
        assert fragment in text, fragment


@pytest.mark.parametrize("name", sorted(_CASES))
def test_verifier_golden(name):
    golden = json.loads(_GOLDEN_PATH.read_text())[name]
    assert golden, "a corrupted module must produce diagnostics"
    assert _diagnostics(_CASES[name]) == golden


# ---------------------------------------------------------------------------
# Reference: the ancestor-climbing rules the scoped walk is held to
# ---------------------------------------------------------------------------


def _reference_verify(top):
    """The verifier as it stood before the scoped walk, rules verbatim: a
    recursive post-order walk in which every operand climbs its user's
    ancestors and every op climbs to its enclosing isolated-from-above op."""

    def walk(op):
        for region in op.regions:
            for block in region.blocks:
                children = list(block._operations)
                for position, child in enumerate(children):
                    if child not in children[:position]:
                        yield from walk(child)
        yield op

    def enclosing_isolated_op(op):
        while op is not None and not op.ISOLATED_FROM_ABOVE:
            op = op.parent_op
        return op

    def is_visible(value, user):
        if isinstance(value, BlockArgument):
            block = user.parent
            while block is not None:
                if block is value.block:
                    return True
                parent_op = block.parent_op
                block = parent_op.parent if parent_op else None
            return False
        if isinstance(value, OpResult):
            def_op = value.op
            def_block = def_op.parent
            if def_block is None or def_op not in def_block._operations:
                return False
            node = user
            while node is not None:
                if node.parent is def_block:
                    return def_block.index_of(def_op) < def_block.index_of(node)
                node = node.parent_op
        return False

    errors = []
    for op in walk(top):
        for region in op.regions:
            if region.parent is not op:
                errors.append(f"{op.name}: region parent link is broken")
            for block in region.blocks:
                if block.parent is not region:
                    errors.append(f"{op.name}: block parent link is broken")
                children = block._operations
                for position, child in enumerate(children):
                    if child in children[:position]:
                        errors.append(f"{op.name}: child op {child.name} is listed twice")
                    elif child.parent is not block:
                        errors.append(f"{op.name}: child op {child.name} has a stale parent link")
        for index, operand in enumerate(op._operands):
            if (op, index) not in operand._uses:
                errors.append(f"{op.name}: operand #{index} use-list is missing this use")
        for result in op.results:
            for user, idx in result._uses:
                if idx >= user.num_operands or user.operand(idx) is not result:
                    errors.append(f"{op.name}: stale use recorded on result #{result.index}")
        isolated = enclosing_isolated_op(op)
        for index, operand in enumerate(op._operands if op is not top else ()):
            if isolated is not None and isolated is not op:
                def_op = operand.defining_op
                if def_op is not None:
                    if not isolated.is_ancestor_of(def_op):
                        errors.append(
                            f"{op.name}: operand #{index} defined outside isolated op "
                            f"{isolated.name}"
                        )
                        continue
                elif isinstance(operand, BlockArgument):
                    owner_op = operand.block.parent_op
                    if owner_op is not None and not isolated.is_ancestor_of(owner_op):
                        errors.append(
                            f"{op.name}: operand #{index} is a block argument from "
                            f"outside isolated op {isolated.name}"
                        )
                        continue
            if not is_visible(operand, op):
                errors.append(
                    f"{op.name}: operand #{index} ({operand!r}) is not visible at its use"
                )
        try:
            op.verify()
        except Exception as exc:
            errors.append(f"{op.name}: {exc}")
    return errors


#: The corruptions a generated tree gets one of, on top of the misplaced
#: operands it may already have (its operands are drawn from every value
#: printed before the op, sibling regions and the op's own owners included).
_CORRUPTIONS = (
    "move-before-def",
    "later-op",
    "sibling-region",
    "across-node",
    "break-link",
    "clear-def-parent",
    "unlist-def",
    "list-twice",
)


def _ancestor_blocks(op):
    blocks = []
    block = op.parent
    while block is not None:
        blocks.append(block)
        owner = block.parent_op
        block = owner.parent if owner else None
    return blocks


@st.composite
def _corrupted_trees(draw):
    """A generated op tree with one drawn corruption applied, and its kind."""
    top = draw(_op_trees())
    ops = list(top.walk(order="pre"))
    nested = ops[1:]
    kind = draw(st.sampled_from(_CORRUPTIONS))
    if kind == "move-before-def":
        pairs = [
            (user, operand.op)
            for user in nested
            for operand in user._operands
            if isinstance(operand, OpResult)
            and operand.op.parent is not None
            and not user.is_ancestor_of(operand.op)
        ]
        if pairs:
            user, def_op = draw(st.sampled_from(pairs))
            user.detach()
            InsertionPoint.before(def_op).insert(user)
    elif kind in ("later-op", "sibling-region"):
        slots = [(user, index) for user in nested for index in range(user.num_operands)]
        if slots:
            user, index = draw(st.sampled_from(slots))
            if kind == "later-op":
                values = [r for op in ops[ops.index(user) + 1:] for r in op.results]
            else:
                ancestors = _ancestor_blocks(user)
                values = [
                    value
                    for op in ops
                    for region in op.regions
                    for block in region.blocks
                    if block not in ancestors
                    for value in [*block.arguments, *(r for o in block for r in o.results)]
                ]
            if values:
                user.set_operand(index, draw(st.sampled_from(values)))
    elif kind == "across-node":
        if nested:
            user = draw(st.sampled_from(nested))
            node = InsertionPoint.before(user).insert(NodeOp.create(label="n"))
            Builder.at_end(node.body).insert(user)
    elif kind == "break-link":
        regions = [region for op in ops for region in op.regions]
        links = [*nested, *regions, *(block for region in regions for block in region.blocks)]
        if links:
            draw(st.sampled_from(links)).parent = None
    elif kind == "list-twice":
        if nested:
            op = draw(st.sampled_from(nested))
            siblings = op.parent._operations
            siblings.insert(draw(st.integers(0, len(siblings))), op)
    else:
        defs = [op for op in nested if any(result.has_uses for result in op.results)]
        if defs:
            op = draw(st.sampled_from(defs))
            if kind == "unlist-def":
                op.parent._operations.remove(op)
            else:
                op.parent = None
    return top, kind


class TestVerifyMatchesReference:
    @pytest.mark.parametrize(
        "workload", list_workloads(kind="kernel") + ["lenet", "mlp"]
    )
    def test_zoo_module_after_every_default_stage(self, workload):
        compiler = Compiler.from_spec(DEFAULT_PIPELINE, platform="zu3eg")
        state = CompilationState(
            module=get_workload(workload).build_module(), platform=get_platform("zu3eg")
        )
        assert verify(state.module, raise_on_error=False) == _reference_verify(state.module)
        for stage in compiler.stages:
            stage.run(state)
            issues = verify(state.module, raise_on_error=False)
            assert issues == _reference_verify(state.module), stage.name

    @pytest.mark.parametrize("name", sorted(_CASES))
    def test_golden_cases(self, name):
        module = _CASES[name]()
        assert verify(module, raise_on_error=False) == _reference_verify(module)

    @settings(max_examples=300, deadline=None)
    @given(case=_corrupted_trees())
    def test_generated_op_trees_with_one_corruption(self, case):
        top, _kind = case
        assert verify(top, raise_on_error=False) == _reference_verify(top)


# ---------------------------------------------------------------------------
# Work counts: a clean module is verified without climbing ancestors
# ---------------------------------------------------------------------------


class TestWorkCounts:
    @pytest.mark.parametrize("workload", ["lenet", "atax"])
    def test_a_clean_module_reads_each_parent_op_at_most_once(self, workload, monkeypatch):
        module, _ = _compiled(workload)
        reads = collections.Counter()
        parent_op = Operation.parent_op.fget

        def counted(op):
            reads[op] += 1
            return parent_op(op)

        monkeypatch.setattr(Operation, "parent_op", property(counted))
        assert verify(module) == []
        monkeypatch.undo()
        ops = sum(1 for _ in module.walk())
        assert max(reads.values(), default=0) <= 1, (sum(reads.values()), ops)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_verifier.py --regen")
    rows = {name: _diagnostics(build) for name, build in _CASES.items()}
    _GOLDEN_PATH.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"wrote {_GOLDEN_PATH}")
