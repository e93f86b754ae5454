"""``Operation.clone`` over the whole zoo, at every stage boundary.

A design-space sweep starts points from clones of a shared compilation
state, so a clone must be indistinguishable from a fresh compile in
everything later stages read, and independent of the original in
everything they write.  For each of the 19 registered workloads on both
ledger targets, the frontend module and the module after every stage of
:data:`DEFAULT_PIPELINE` are cloned; the pipeline then continues on the
clone, so every later stage runs on a clone of the state it would have
had.  Each clone must:

* print the same text and carry the same name hints;
* hold the same op classes and create its values in the reference order
  (a verbatim copy of the pre-rewrite clone, :func:`_reference_clone`);
* share no attribute dict, list or set with its original;
* leave the original's printed text unchanged while the remaining stages
  run on it;
* for kernels within the interpreter budget, execute like its original.

The final estimate and module of the cloned run equal a direct compile's.
"""

from __future__ import annotations

import pytest

from repro.compiler.driver import DEFAULT_PIPELINE, Compiler
from repro.compiler.ircache import _EXEC_VERIFY_MAX_OPS
from repro.compiler.stages import collect_schedules
from repro.compiler.stages import CompilationState
from repro.estimation.platform import get_platform
from repro.ir import interp
from repro.ir.core import _OPERATION_REGISTRY, Block, Operation
from repro.ir.parser import collect_name_hints
from repro.ir.printer import print_op
from repro.workloads import get_workload, list_workloads

TARGETS = ("zu3eg", "vu9p-slr")


def _reference_clone(op, value_map=None):
    """The clone as it was before ops were built directly (verbatim logic)."""
    value_map = value_map if value_map is not None else {}
    cls = _OPERATION_REGISTRY.get(op.name, Operation)
    new_op = cls.__new__(cls)
    attributes = {}
    for key, value in op.attributes.items():
        if isinstance(value, (list, dict, set)):
            value = type(value)(value)
        attributes[key] = value
    Operation.__init__(
        new_op,
        name=op.name,
        operands=[value_map.get(v, v) for v in op._operands],
        result_types=[r.type for r in op.results],
        attributes=attributes,
        num_regions=0,
    )
    for old_res, new_res in zip(op.results, new_op.results):
        value_map[old_res] = new_res
        new_res.name_hint = old_res.name_hint
    for region in op.regions:
        new_region = new_op.add_region()
        for block in region.blocks:
            new_block = Block(arg_types=[a.type for a in block.arguments])
            for old_arg, new_arg in zip(block.arguments, new_block.arguments):
                value_map[old_arg] = new_arg
                new_arg.name_hint = old_arg.name_hint
            new_region.append_block(new_block)
            for nested in block.operations:
                new_block.append(_reference_clone(nested, value_map))
    return new_op


def _creation_ranks(module):
    """Rank of each nested value's creation id, in ``nested_values`` order."""
    ids = [value._id for value in module.nested_values()]
    order = sorted(range(len(ids)), key=ids.__getitem__)
    ranks = [0] * len(ids)
    for rank, index in enumerate(order):
        ranks[index] = rank
    return ranks


def _check_clone(original, clone, where):
    text = print_op(original)
    assert print_op(clone) == text, where
    assert collect_name_hints(clone) == collect_name_hints(original), where
    pairs = list(zip(original.walk(), clone.walk()))
    assert len(pairs) == len(list(original.walk())) == len(list(clone.walk()))
    for old, new in pairs:
        assert type(new) is type(old), where
        assert new is not old and new.attributes is not old.attributes, where
        for key, value in old.attributes.items():
            if isinstance(value, (list, dict, set)):
                assert new.attributes[key] is not value, (where, old.name, key)
        assert new._operands is not old._operands and new.results is not old.results
    assert _creation_ranks(clone) == _creation_ranks(_reference_clone(original)), where
    return text


def _executes_alike(original, clone, where):
    """True if the pair ran within budget (and then ran alike)."""
    try:
        live = interp.interpret_module(original, max_ops=_EXEC_VERIFY_MAX_OPS)
    except interp.InterpreterError:
        return False
    cloned = interp.interpret_module(clone, max_ops=_EXEC_VERIFY_MAX_OPS)
    assert interp.diff_results(live, cloned) == [], where
    return True


@pytest.mark.parametrize("platform", TARGETS)
@pytest.mark.parametrize("workload", list_workloads())
def test_clone_at_every_stage_boundary(workload, platform):
    handle = get_workload(workload)
    stages = Compiler.from_spec(DEFAULT_PIPELINE, platform=platform).stages
    state = CompilationState(module=handle.build_module(), platform=get_platform(platform))
    held = []
    executed = 0
    for index in range(len(stages) + 1):
        where = f"{workload}/{platform} after {index} stage(s)"
        original = state.module
        clone = original.clone()
        held.append((original, _check_clone(original, clone, where), where))
        if handle.kind == "kernel":
            executed += _executes_alike(original, clone, where)
        if index == len(stages):
            break
        # Continue on the clone, with the schedules re-collected from it.
        state.module = clone
        state.schedules = collect_schedules(clone)
        stages[index].run(state)
    for original, text, where in held:
        assert print_op(original) == text, f"{where}: a later stage wrote the original"
    direct = Compiler.from_spec(DEFAULT_PIPELINE, platform=platform).run(workload=workload)
    assert print_op(state.module) == print_op(direct.module)
    assert state.estimate.to_dict() == direct.estimate.to_dict()
    budget = _EXEC_VERIFY_MAX_OPS
    if handle.kind == "kernel" and interp.estimate_cost(handle.build_module()) <= budget:
        assert executed, f"{workload}: no boundary ran within the interpreter budget"
