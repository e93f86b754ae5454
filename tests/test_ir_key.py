"""Tests of the structural key, :meth:`repro.ir.printer.IRPrinter.key`.

Translation validation proves "this stage changed nothing" from equal keys,
so the load-bearing property is soundness: equal keys print equal text.
Pinned here on generated op trees (:mod:`ir_strategies`):

* a clone keys like its original;
* after one random mutation — an attribute swapped among ``1``, ``True``
  and ``1.0``, ``0.0`` against ``-0.0``, a ``nan``, a name hint, a block
  argument's type, an op moved into the next block, or a directive in
  :data:`~repro.analysis.tv.NON_SEMANTIC_ATTRS` set — the keys are equal
  exactly when the skip printer's texts are;

on a kernel: a module that differs only in its ``partitions`` tables keys
alike, and one that differs only in an access ``map`` keys apart; and on
the zoo: a key holds no IR object, only names, values and types.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from ir_strategies import _attr_values, _hints, _op_trees, _types
from repro.analysis.tv import NON_SEMANTIC_ATTRS
from repro.compiler.driver import DEFAULT_PIPELINE, Compiler
from repro.dialects.affine import AffineLoadOp
from repro.dialects.affine_map import AffineMap
from repro.dialects.hls import ArrayPartition, set_partition
from repro.ir.core import Block, Operation, Region, Value
from repro.ir.printer import IRPrinter
from repro.workloads import as_module, get_workload, iter_workloads


def _key(op):
    return IRPrinter(skip_attrs=NON_SEMANTIC_ATTRS).key(op)


def _text(op):
    return IRPrinter(skip_attrs=NON_SEMANTIC_ATTRS).print_op(op)


# ---------------------------------------------------------------------------
# Generated trees: a clone keys alike; one mutation keys as it prints
# ---------------------------------------------------------------------------


def _blocks(op):
    """Every block nested in ``op``, in the printer's order."""
    return [
        block
        for nested in op.walk(order="pre")
        for region in nested.regions
        for block in region.blocks
    ]


def _set_attribute(data, op, values):
    target = data.draw(st.sampled_from(list(op.walk(order="pre"))))
    names = sorted(name for name in target.attributes if not name.startswith("_"))
    name = data.draw(st.sampled_from(names + ["k"]))
    target.attributes[name] = data.draw(values)


def _mutate_scalar(data, op):
    _set_attribute(data, op, st.sampled_from([1, True, 1.0]))


def _mutate_zero(data, op):
    _set_attribute(data, op, st.sampled_from([0.0, -0.0]))


def _mutate_nan(data, op):
    _set_attribute(data, op, st.just(float("nan")))


def _mutate_name_hint(data, op):
    values = list(op.nested_values())
    if values:
        data.draw(st.sampled_from(values)).name_hint = data.draw(_hints)


def _mutate_argument_type(data, op):
    arguments = [argument for block in _blocks(op) for argument in block.arguments]
    if arguments:
        data.draw(st.sampled_from(arguments)).type = data.draw(_types)


def _contains(op, block):
    """Whether ``block`` is nested in ``op``."""
    while block is not None:
        owner = block.parent.parent
        if owner is op:
            return True
        block = owner.parent
    return False


def _mutate_move(data, op):
    blocks = _blocks(op)
    moves = [
        (moved, target)
        for block, target in zip(blocks, blocks[1:])
        for moved in block.operations
        if not _contains(moved, target)
    ]
    if moves:
        moved, target = data.draw(st.sampled_from(moves))
        target.insert(data.draw(st.integers(0, len(target))), moved)


def _mutate_directive(data, op):
    target = data.draw(st.sampled_from(list(op.walk(order="pre"))))
    name = data.draw(st.sampled_from(sorted(NON_SEMANTIC_ATTRS)))
    target.attributes[name] = data.draw(_attr_values)


_MUTATIONS = [
    _mutate_scalar,
    _mutate_zero,
    _mutate_nan,
    _mutate_name_hint,
    _mutate_argument_type,
    _mutate_move,
    _mutate_directive,
]


@settings(max_examples=200, deadline=None)
@given(op=_op_trees(), mutate=st.sampled_from(_MUTATIONS), data=st.data())
def test_a_clone_keys_alike_and_a_mutation_keys_as_it_prints(op, mutate, data):
    key, text = _key(op), _text(op)
    assert IRPrinter().key(op) == IRPrinter().key(op.clone())
    assert _key(op.clone()) == key
    mutate(data, op)
    assert (_key(op) == key) == (_text(op) == text)


def test_the_mutations_change_text_and_key_alike():
    """Each mutation kind above, by hand, on one op: scalars of equal value
    but another class, and floats that compare equal or unequal to
    themselves, key as they print."""
    op = Operation("test.op", attributes={"a": 1})
    for value, same in [(True, False), (1.0, False), (1, True)]:
        key, text = _key(op), _text(op)
        op.attributes["a"] = value
        assert (_key(op) == key) is same is (_text(op) == text)
        op.attributes["a"] = 1
    op.attributes["a"] = 0.0
    key = _key(op)
    op.attributes["a"] = -0.0
    assert _key(op) != key
    op.attributes["a"] = float("nan")
    key = _key(op)
    op.attributes["a"] = float("nan")  # another object, unequal to the first
    assert _key(op) == key
    op.attributes["unroll_factor"] = 4
    assert _key(op) == key
    assert IRPrinter().key(op) != IRPrinter(skip_attrs=frozenset({"unroll_factor"})).key(op)


def _owner(*region_blocks):
    """A ``test.x`` op whose regions hold the given numbers of empty blocks."""
    owner = Operation("test.x", num_regions=len(region_blocks))
    for region, count in zip(owner.regions, region_blocks):
        for _ in range(count):
            region.append_block(Block())
    return owner


def test_the_key_decodes_to_one_tree():
    """Block op counts and region block counts place every op: an op after
    a nested block, or a second block, keys apart from its other place."""
    root = _owner(1)
    inner = _owner(1)
    follower = Operation("test.y")
    root.regions[0].blocks[0].append(inner)
    root.regions[0].blocks[0].append(follower)
    key, text = _key(root), _text(root)
    inner.regions[0].blocks[0].append(follower)  # the "next block" move
    assert _key(root) != key and _text(root) != text
    one_region, two_regions = _owner(2), _owner(1, 1)
    assert _key(one_region) != _key(two_regions)
    assert _text(one_region) != _text(two_regions)


def test_a_mutable_attribute_is_keyed_by_what_it_held():
    """Lists and dicts are frozen into the key, and an object of any other
    class by its printed string, so mutating it never changes a key."""

    class Mutable:
        def __init__(self):
            self.value = 1

        def __str__(self):
            return f"mutable<{self.value}>"

    held = Mutable()
    op = Operation("test.op", attributes={"l": [1, [2]], "d": {"k": 1}, "m": held})
    key = _key(op)
    op.attributes["l"][1].append(3)
    op.attributes["d"]["k"] = 2
    held.value = 2
    assert _key(op) != key
    op.attributes["l"][1].pop()
    op.attributes["d"]["k"] = 1
    held.value = 1
    assert _key(op) == key


def _gesummv():
    return as_module(get_workload("gesummv").at(n=8))


def test_a_partition_table_alone_keys_alike():
    """``hls.set_partition``'s ``partitions`` table, on a function or an
    alloc, is a directive: a module that differs only there keys alike."""
    module = _gesummv()
    partitioned = module.clone()
    func = partitioned.functions[0]
    for value in [func.arguments[0]] + [
        op.result() for op in func.walk() if op.name == "memref.alloc"
    ]:
        rest = len(value.type.shape) - 1
        set_partition(value, ArrayPartition(["cyclic"] + ["none"] * rest, [2] + [1] * rest))
    assert any("partitions" in op.attributes for op in partitioned.walk())
    assert _key(partitioned) == _key(module)


def test_an_access_map_alone_keys_apart():
    """An access ``map`` shapes addressing: changing one load's map, and
    nothing else, changes the key."""
    module = _gesummv()
    changed = module.clone()
    load = next(
        op
        for op in changed.walk()
        if isinstance(op, AffineLoadOp) and len(set(op.get_attr("map").results)) > 1
    )
    old = load.get_attr("map")
    load.set_attr("map", AffineMap(old.num_dims, old.results[::-1]))
    assert _key(changed) != _key(module)


# ---------------------------------------------------------------------------
# Zoo keys hold no IR
# ---------------------------------------------------------------------------


def _ir_objects(key):
    """Every ``Operation``, ``Value``, ``Block`` or ``Region`` reachable from
    ``key`` through tuples and dataclass fields."""
    found, stack = [], [key]
    while stack:
        item = stack.pop()
        if isinstance(item, (Operation, Value, Block, Region)):
            found.append(item)
        elif isinstance(item, (tuple, list)):
            stack.extend(item)
        elif dataclasses.is_dataclass(item) and not isinstance(item, type):
            stack.extend(getattr(item, field.name) for field in dataclasses.fields(item))
    return found


def test_zoo_keys_hold_no_ir_objects():
    modules = [as_module(handle) for handle in iter_workloads()]
    lenet = get_workload("lenet")
    modules.append(Compiler.from_spec(DEFAULT_PIPELINE).run_stages(workload=lenet).module)
    for module in modules:
        key = _key(module)
        assert key and _ir_objects(key) == []
