"""Error-path tests of the structural IR verifier (:mod:`repro.ir.verifier`).

The happy path is exercised implicitly all over the suite (``--verify-ir``,
``verify_each``); these tests corrupt IR on purpose and check that each
invariant class — parent links, use lists, operand visibility, isolation —
produces its own diagnostic, that ``raise_on_error=False`` accumulates
instead of stopping at the first hit, and that clean IR stays silent.
"""

import json
import pathlib
import re
import sys

import pytest

from repro.compiler import DEFAULT_PIPELINE, Compiler
from repro.dialects.affine import AffineForOp
from repro.dialects.arith import AddFOp
from repro.dialects.dataflow import BufferOp, NodeOp, ScheduleOp
from repro.ir import Block, Builder, ConstantOp, FuncOp, ModuleOp, f32, verify
from repro.ir.builtin import ReturnOp
from repro.ir.verifier import VerificationError


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


def _long_block():
    """clean_module with 200 chained adds, so positions in a long block matter."""
    module, func, one, two, add = clean_module()
    builder = Builder.before(func.entry_block.last_op)
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
    chain[40].move_after(chain[150])
    one.move_after(chain[3])
    return module


def _case_use_across_isolated_node():
    module, func, one, two, add = clean_module()
    node = Builder.before(func.entry_block.last_op).insert(NodeOp.create(label="iso"))
    body = Builder.at_end(node.body)
    inner = body.insert(AddFOp.create(one.result(), two.result()))
    body.insert(AddFOp.create(inner.result(), add.result()))
    return module


def _case_block_argument_from_outside_isolated_op():
    module, func, *_ = clean_module()
    node = Builder.before(func.entry_block.last_op).insert(NodeOp.create(label="iso"))
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
    outer = Builder.before(add).insert(AffineForOp.create(0, 4))
    inner = Builder.at_end(outer.body).insert(AffineForOp.create(0, 4))
    # ``add`` is defined after the loop nest in the enclosing block.
    Builder.at_end(inner.body).insert(AddFOp.create(add.result(), one.result()))
    return module


def _case_value_from_sibling_region():
    module, func, *_ = clean_module()
    builder = Builder.before(func.entry_block.last_op)
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
    Builder.before(add).insert(AddFOp.create(ghost.result(), two.result()))
    return module


def _case_broken_region_and_block_links():
    module, func, *_ = clean_module()
    loop = Builder.before(func.entry_block.last_op).insert(AffineForOp.create(0, 4))
    Builder.at_end(loop.body).insert(ConstantOp.create(1.0, f32))
    loop.regions[0].parent = func
    loop.body.parent = func.regions[0]
    return module


def _case_verify_hooks():
    module, func, one, *_ = clean_module()
    module.append(FuncOp.create("f"))
    node = Builder.before(func.entry_block.last_op).insert(NodeOp.create(label="n"))
    node.append_operand(one.result())  # no effect entry, no block argument
    return module


def _case_everything_at_once():
    module, func, one, two, chain = _long_block()
    node = Builder.before(chain[60]).insert(NodeOp.create(label="iso"))
    Builder.at_end(node.body).insert(AddFOp.create(chain[10].result(), func.arguments[0]))
    chain[20].move_after(chain[30])
    two.result()._remove_use(chain[0], 1)
    chain[70].result()._add_use(chain[71], 5)
    chain[80].parent = None
    return module


def _case_zoo_buffer_moved_after_its_nodes():
    module, schedule = _compiled("2mm")
    buffer = next(op for op in schedule.body.operations if isinstance(op, BufferOp))
    buffer.move_after(schedule.nodes[-1])
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
    inner.move_before(inner.parent_op)  # its body still reads the outer iv
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


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_verifier.py --regen")
    rows = {name: _diagnostics(build) for name, build in _CASES.items()}
    _GOLDEN_PATH.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"wrote {_GOLDEN_PATH}")
