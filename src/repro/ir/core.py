"""Core SSA IR data structures: values, operations, blocks and regions.

This module is a compact re-implementation of the MLIR object model that the
HIDA compiler is built on.  The essential concepts are preserved:

* :class:`Value` — an SSA value with a type and a use list; produced either as
  an operation result (:class:`OpResult`) or as a block argument
  (:class:`BlockArgument`).
* :class:`Operation` — the minimal unit of code.  It has a name
  (``dialect.opname``), typed operands and results, a dictionary of compile
  time attributes, and an ordered list of regions.
* :class:`Block` — a sequential list of operations plus block arguments.
* :class:`Region` — an ordered list of blocks, owned by an operation.

The model is deliberately Pythonic: attributes are plain Python objects
(ints, strings, tuples, dataclasses such as affine maps), and operations are
stored in Python lists.  Structural invariants (operand/result ownership,
region nesting, dominance of simple single-block regions) are checked by
:mod:`repro.ir.verifier`.

IR lifetime: IR is full of reference cycles (an op and its results, a block
and its parent, a value and its users), so dropped IR would wait for the
cycle collector.  :meth:`Operation.drop_all_references` unlinks an op and
everything nested in it in one pass, after which the subtree frees by
refcount.  Only the owner of IR that is being discarded may call it: the
dropped IR is dead (empty ops, blocks and regions) and must be unreachable
afterwards, except through handles its owner is about to release.  A design
space sweep calls it on each module it is done with.  :meth:`Operation.erase`
detaches the op and then drops it, so erased IR frees by refcount as well.
"""

from __future__ import annotations

import itertools
import operator
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type as PyType,
)

from .types import Type

__all__ = [
    "Value",
    "OpResult",
    "BlockArgument",
    "Operation",
    "Block",
    "Region",
    "WalkOrder",
    "register_operation",
    "create_operation",
    "IRError",
]


class IRError(Exception):
    """Raised for malformed IR manipulation (e.g. erasing a value with uses)."""


_value_ids = itertools.count()
_user_of = operator.itemgetter(0)


class Value:
    """An SSA value.  Carries a type and tracks the operations that use it."""

    __slots__ = ("type", "_id", "_uses", "name_hint")

    def __init__(self, type: Type, name_hint: Optional[str] = None) -> None:
        self.type = type
        self._id = next(_value_ids)
        # Uses are (operation, operand_index) pairs, kept as the keys of an
        # insertion-ordered dict: moving a use is O(1) and the order is the
        # order the uses were made in.
        self._uses: Dict[Tuple["Operation", int], None] = {}
        self.name_hint = name_hint

    # ------------------------------------------------------------------ uses
    @property
    def uses(self) -> List[Tuple["Operation", int]]:
        """Snapshot of (user operation, operand index) pairs."""
        return list(self._uses)

    @property
    def users(self) -> List["Operation"]:
        """Operations that use this value, in first-use order, de-duplicated."""
        # dicts keep insertion order; ops hash by identity.
        return list(dict.fromkeys(map(_user_of, self._uses)))

    @property
    def has_uses(self) -> bool:
        return bool(self._uses)

    def _add_use(self, op: "Operation", index: int) -> None:
        self._uses[op, index] = None

    def _remove_use(self, op: "Operation", index: int) -> None:
        self._uses.pop((op, index), None)

    def replace_all_uses_with(self, new_value: "Value") -> None:
        """Rewrite every use of this value to use ``new_value`` instead."""
        if new_value is self:
            return
        for op, idx in list(self._uses):
            op.set_operand(idx, new_value)

    def replace_uses_if(
        self, new_value: "Value", predicate: Callable[["Operation"], bool]
    ) -> None:
        """Replace uses whose owning operation satisfies ``predicate``."""
        if new_value is self:
            return
        for op, idx in list(self._uses):
            if predicate(op):
                op.set_operand(idx, new_value)

    # ------------------------------------------------------------------ info
    @property
    def defining_op(self) -> Optional["Operation"]:
        """The operation producing this value, or None for block arguments."""
        return None

    def __repr__(self) -> str:
        hint = self.name_hint or f"v{self._id}"
        return f"%{hint}: {self.type}"


class OpResult(Value):
    """A value produced as the ``index``-th result of an operation."""

    __slots__ = ("op", "index")

    def __init__(self, op: "Operation", index: int, type: Type) -> None:
        super().__init__(type)
        self.op = op
        self.index = index

    @property
    def owner(self) -> "Operation":
        return self.op

    @property
    def defining_op(self) -> "Operation":
        return self.op

    def __repr__(self) -> str:
        hint = self.name_hint or f"v{self._id}"
        return f"%{hint} = {self.op.name}#{self.index}: {self.type}"


class BlockArgument(Value):
    """A value supplied as the ``index``-th argument of a block."""

    __slots__ = ("block", "index")

    def __init__(self, block: "Block", index: int, type: Type) -> None:
        super().__init__(type)
        self.block = block
        self.index = index

    @property
    def owner(self) -> "Block":
        return self.block

    def __repr__(self) -> str:
        hint = self.name_hint or f"arg{self.index}"
        return f"%{hint}: {self.type}"


class WalkOrder:
    """Walk orders for :meth:`Operation.walk`."""

    PRE_ORDER = "pre"
    POST_ORDER = "post"


_IS_POST_ORDER = {WalkOrder.PRE_ORDER: False, WalkOrder.POST_ORDER: True}
_BAD_WALK_ORDER = "unknown walk order {!r}; expected 'pre' or 'post'"


def _walk_flat(
    roots: Iterable["Operation"], root_blocks: Iterable["Block"], post: bool
) -> Iterator["Operation"]:
    """Walk ``roots``, then the ops of ``root_blocks``, without recursion.

    One generator whatever the nesting depth: a leaf op costs one resume, an
    op with regions one push.  The current frame lives in three locals — the
    op being walked, an iterator over the snapshot of the block it is in, and
    a live iterator over the blocks still to enter; ``outer`` chains the
    suspended frames, innermost first.
    """
    owner: Optional[Operation] = None
    children, blocks = iter(roots), iter(root_blocks)
    outer: Optional[tuple] = None
    while True:
        for op in children:
            if not post:
                yield op
            regions = op.regions
            if regions:
                outer = (owner, children, blocks, outer)
                owner = op
                blocks = iter(regions[0].blocks)
                if len(regions) > 1:
                    blocks = (block for region in regions for block in region.blocks)
                break
            if post:
                yield op
        # Here either a descent just began or a block ran out: enter the
        # owner's next block, or leave the owner.
        for block in blocks:
            children = iter(block._operations[:])
            break
        else:
            if outer is None:
                return
            if post:
                yield owner
            owner, children, blocks, outer = outer


# --------------------------------------------------------------------------
# Operation registry: maps operation names to their Python classes so that
# cloning and generic creation produce correctly-typed op objects.
# --------------------------------------------------------------------------
_OPERATION_REGISTRY: Dict[str, PyType["Operation"]] = {}


def register_operation(cls: PyType["Operation"]) -> PyType["Operation"]:
    """Class decorator registering an operation class by its OPERATION_NAME."""
    name = getattr(cls, "OPERATION_NAME", None)
    if not name:
        raise ValueError(f"{cls.__name__} is missing OPERATION_NAME")
    _OPERATION_REGISTRY[name] = cls
    return cls


def create_operation(
    name: str,
    operands: Sequence[Value] = (),
    result_types: Sequence[Type] = (),
    attributes: Optional[Dict[str, Any]] = None,
    num_regions: int = 0,
) -> "Operation":
    """Create an operation, using the registered class for ``name`` if any."""
    cls = _OPERATION_REGISTRY.get(name, Operation)
    op = cls.__new__(cls)
    Operation.__init__(
        op,
        name=name,
        operands=operands,
        result_types=result_types,
        attributes=attributes,
        num_regions=num_regions,
    )
    return op


class Operation:
    """The minimal unit of IR code.

    Subclasses set :attr:`OPERATION_NAME` and typically provide a ``create``
    classmethod plus convenience accessors; the base class implements all
    structural behaviour (operands, results, attributes, regions, movement,
    cloning and traversal).
    """

    OPERATION_NAME = "builtin.unregistered"
    #: Whether this op's regions may use only values defined inside it
    #: (HIDA's structural ``node`` and ``schedule``); the verifier reads it.
    ISOLATED_FROM_ABOVE = False

    def __init__(
        self,
        name: Optional[str] = None,
        operands: Sequence[Value] = (),
        result_types: Sequence[Type] = (),
        attributes: Optional[Dict[str, Any]] = None,
        num_regions: int = 0,
    ) -> None:
        self.name = name or self.OPERATION_NAME
        self._operands: List[Value] = []
        self.results: List[OpResult] = [
            OpResult(self, i, ty) for i, ty in enumerate(result_types)
        ]
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.regions: List[Region] = [Region(self) for _ in range(num_regions)]
        self.parent: Optional[Block] = None
        for value in operands:
            self.append_operand(value)

    # -------------------------------------------------------------- operands
    @property
    def operands(self) -> List[Value]:
        return list(self._operands)

    @property
    def num_operands(self) -> int:
        return len(self._operands)

    def operand(self, index: int) -> Value:
        return self._operands[index]

    def append_operand(self, value: Value) -> None:
        if not isinstance(value, Value):
            raise IRError(f"operand of {self.name} must be a Value, got {value!r}")
        index = len(self._operands)
        self._operands.append(value)
        value._add_use(self, index)

    def set_operand(self, index: int, value: Value) -> None:
        old = self._operands[index]
        old._remove_use(self, index)
        self._operands[index] = value
        value._add_use(self, index)

    def set_operands(self, values: Sequence[Value]) -> None:
        self._drop_all_operand_uses()
        self._operands = []
        for value in values:
            self.append_operand(value)

    def _drop_all_operand_uses(self) -> None:
        for i, value in enumerate(self._operands):
            value._remove_use(self, i)

    # --------------------------------------------------------------- results
    @property
    def num_results(self) -> int:
        return len(self.results)

    def result(self, index: int = 0) -> OpResult:
        return self.results[index]

    # ------------------------------------------------------------ attributes
    def get_attr(self, name: str, default: Any = None) -> Any:
        return self.attributes.get(name, default)

    def set_attr(self, name: str, value: Any) -> None:
        self.attributes[name] = value

    def has_attr(self, name: str) -> bool:
        return name in self.attributes

    # --------------------------------------------------------------- regions
    @property
    def body(self) -> "Block":
        """The entry block of the first region (common single-region case)."""
        return self.regions[0].entry_block

    def add_region(self) -> "Region":
        region = Region(self)
        self.regions.append(region)
        return region

    # ------------------------------------------------------------- structure
    @property
    def parent_block(self) -> Optional["Block"]:
        return self.parent

    @property
    def parent_op(self) -> Optional["Operation"]:
        block = self.parent
        if block is None or block.parent is None:
            return None
        return block.parent.parent

    def is_ancestor_of(self, other: "Operation") -> bool:
        """True if ``other`` is nested (strictly or not) within this operation."""
        node: Optional[Operation] = other
        while node is not None:
            if node is self:
                return True
            node = node.parent_op
        return False

    # ------------------------------------------------------------- placement
    def detach(self) -> "Operation":
        """Remove this op from its parent block without touching its uses."""
        if self.parent is not None:
            self.parent._operations.remove(self)
            self.parent = None
        return self

    def erase(self) -> None:
        """Erase this operation.  Its results must have no remaining uses.

        The op is detached, then :meth:`drop_all_references` unlinks it and
        everything nested in it, so the erased IR frees by refcount.
        """
        for result in self.results:
            if result._uses:
                users = ", ".join(u.name for u in result.users)
                raise IRError(
                    f"cannot erase {self.name}: result still used by {users}"
                )
        self.detach()
        self.drop_all_references()

    def drop_all_references(self) -> None:
        """Unlink this op and everything nested in it; the IR is dead after.

        Every nested operand use is dropped from its value's use list, so a
        value defined outside the subtree loses exactly the subtree's uses.
        Every op, block and region of the subtree is emptied (operands,
        results, regions, blocks, ops, block arguments) and every nested
        ``parent`` is nulled; this op's own ``parent`` is left alone.  No
        reference cycle of the IR survives, so a discarded subtree frees by
        refcount even where an op memo holds one of its values.

        One flat walk over a list that grows as it goes, with no call per
        object: a sweep drops every module it compiles.
        """
        parent = self.parent
        ops = [self]
        for op in ops:
            index = 0
            for value in op._operands:
                uses = value._uses
                if (op, index) in uses:
                    del uses[op, index]
                index += 1
            op._operands = []
            op.results = []
            for region in op.regions:
                for block in region.blocks:
                    ops += block._operations
                    block._operations = []
                    block.arguments = []
                    block.parent = None
                region.blocks = []
                region.parent = None
            op.regions = []
            op.parent = None
        self.parent = parent

    # --------------------------------------------------------------- walking
    def walk(
        self,
        callback: Optional[Callable[["Operation"], Any]] = None,
        order: str = WalkOrder.POST_ORDER,
    ) -> Iterator["Operation"]:
        """Walk this op and all nested ops, in ``"pre"`` or ``"post"`` order.

        With a ``callback`` this behaves like MLIR's walk and returns nothing
        meaningful; without one it returns an iterator over operations.  The
        walk is flat: it costs O(ops) however deep the nesting.

        Mutation rule: a block's op list is snapshotted when the walk *enters*
        that block (after a pre-order walk has yielded the block's owner, and
        for a later block only once the blocks before it are done).  An op
        erased after that is still yielded, an op inserted after that is not;
        blocks the walk has not entered yet see every change.  An op's region
        list is read when the walk reaches the op, a region's block list live.
        """
        if order not in _IS_POST_ORDER:
            raise ValueError(_BAD_WALK_ORDER.format(order))
        iterator = _walk_flat((self,), (), _IS_POST_ORDER[order])
        if callback is None:
            return iterator
        for op in iterator:
            callback(op)
        return iter(())

    def walk_ops(self, op_class: PyType["Operation"]) -> List["Operation"]:
        """Collect all nested ops (including self) that are instances of a class."""
        return [op for op in self.walk() if isinstance(op, op_class)]

    def nested_values(self) -> Iterator[Value]:
        """Iterate over all values defined within this op (results, block args)."""
        for op in self.walk(order=WalkOrder.PRE_ORDER):
            yield from op.results
            for region in op.regions:
                for block in region.blocks:
                    yield from block.arguments

    # --------------------------------------------------------------- cloning
    def clone(
        self, value_map: Optional[Dict[Value, Value]] = None
    ) -> "Operation":
        """Deep-clone this op (and nested regions), remapping operands.

        ``value_map`` maps original values to replacement values; it is
        extended with the results and block arguments of the cloned IR so
        that internal def-use chains stay consistent.
        """
        value_map = value_map if value_map is not None else {}
        # One pre-order pass with no recursion that builds every object field
        # by field: the source is valid IR, so nothing needs checking.  Values
        # are created in the constructors' order (an op's results, then each
        # block's arguments before its ops).  Each new list starts as a copy
        # of its source, and its slots are overwritten as the source is read.
        # As in :func:`_walk_flat`, the current frame lives in four locals:
        # the source ops still to clone with their positions, the list their
        # clones go to, the block that list belongs to, and the (source,
        # clone) blocks of the current owner still to enter; ``outer`` chains
        # the suspended frames.
        registry = _OPERATION_REGISTRY
        copy_rule = _ATTRIBUTE_COPY
        ids = _value_ids
        make_result = OpResult.__new__
        make_argument = BlockArgument.__new__
        make_region = Region.__new__
        make_block = Block.__new__
        roots: List[Any] = [None]
        children: Iterator[Tuple[int, Operation]] = enumerate((self,))
        clones: List[Any] = roots
        into: Optional[Block] = None
        blocks: Iterator[Tuple[Block, Block]] = iter(())
        outer: Optional[tuple] = None
        while True:
            for position, op in children:
                name = op.name
                try:
                    cls = registry[name]
                except KeyError:
                    cls = Operation
                clone = cls.__new__(cls)
                clone.name = name
                operands = clone._operands = list(op._operands)
                for index, value in enumerate(op._operands):
                    if value in value_map:
                        value = operands[index] = value_map[value]
                    value._uses[clone, index] = None
                results = clone.results = list(op.results)
                for index, old_result in enumerate(op.results):
                    result = results[index] = value_map[old_result] = make_result(OpResult)
                    result.type = old_result.type
                    result._id = next(ids)
                    result._uses = {}
                    result.name_hint = old_result.name_hint
                    result.op = clone
                    result.index = index
                attributes = clone.attributes = dict(op.attributes)
                for key in op.attributes:
                    attribute = attributes[key]
                    copy = copy_rule[attribute.__class__]
                    if copy is not None:
                        attributes[key] = copy(attribute)
                clone.parent = into
                clones[position] = clone
                regions = clone.regions = list(op.regions)
                if not regions:
                    continue
                sources: List[Block] = []
                targets: List[Block] = []
                for index, region in enumerate(op.regions):
                    cloned_region = regions[index] = make_region(Region)
                    cloned_region.parent = clone
                    cloned_blocks = cloned_region.blocks = list(region.blocks)
                    for slot, _ in enumerate(region.blocks):
                        cloned_block = cloned_blocks[slot] = make_block(Block)
                        cloned_block.parent = cloned_region
                    sources += region.blocks
                    targets += cloned_blocks
                outer = (children, clones, into, blocks, outer)
                blocks = zip(sources, targets)
                break
            # Here either a descent just began or a block ran out: enter the
            # owner's next block, or go back up to the owner's block.
            for block, into in blocks:
                arguments = into.arguments = list(block.arguments)
                for index, old_argument in enumerate(block.arguments):
                    argument = arguments[index] = value_map[old_argument] = make_argument(
                        BlockArgument
                    )
                    argument.type = old_argument.type
                    argument._id = next(ids)
                    argument._uses = {}
                    argument.name_hint = old_argument.name_hint
                    argument.block = into
                    argument.index = index
                children = enumerate(block._operations)
                clones = into._operations = list(block._operations)
                break
            else:
                if outer is None:
                    return roots[0]
                children, clones, into, blocks, outer = outer

    # ------------------------------------------------------------------ misc
    def verify(self) -> None:
        """Hook for op-specific verification; overridden by dialect ops."""

    def __repr__(self) -> str:
        # Direct children only: a repr lands in tracebacks and diagnostics and
        # must not cost a walk of the whole module.
        n_ops = sum(len(block) for region in self.regions for block in region.blocks)
        return f"<{self.name} operands={self.num_operands} results={self.num_results} children={n_ops}>"


class _AttributeCopyRule(Dict[type, Optional[type]]):
    """``class -> the container a cloned attribute of that class is copied
    into``: lists, dicts and sets (subclasses too) are copied into a plain
    one, anything else is shared (None).  Filled on first sight of a class,
    so a clone decides each attribute with one lookup."""

    def __missing__(self, cls: type) -> Optional[type]:
        rule = next((c for c in (list, dict, set) if issubclass(cls, c)), None)
        self[cls] = rule
        return rule


_ATTRIBUTE_COPY = _AttributeCopyRule()


class Block:
    """A sequential list of operations with typed block arguments."""

    def __init__(self, arg_types: Sequence[Type] = ()) -> None:
        self.arguments: List[BlockArgument] = [
            BlockArgument(self, i, ty) for i, ty in enumerate(arg_types)
        ]
        self._operations: List[Operation] = []
        self.parent: Optional[Region] = None

    # -------------------------------------------------------------- contents
    @property
    def operations(self) -> List[Operation]:
        return list(self._operations)

    @property
    def last_op(self) -> Optional[Operation]:
        return self._operations[-1] if self._operations else None

    def __iter__(self) -> Iterator[Operation]:
        return iter(list(self._operations))

    def __len__(self) -> int:
        return len(self._operations)

    def index_of(self, op: Operation) -> int:
        return self._operations.index(op)

    # ------------------------------------------------------------- arguments
    def add_argument(self, type: Type, name_hint: Optional[str] = None) -> BlockArgument:
        arg = BlockArgument(self, len(self.arguments), type)
        arg.name_hint = name_hint
        self.arguments.append(arg)
        return arg

    # ------------------------------------------------------------- placement
    def append(self, op: Operation) -> Operation:
        op.detach()
        self._operations.append(op)
        op.parent = self
        return op

    def insert(self, index: int, op: Operation) -> Operation:
        op.detach()
        self._operations.insert(index, op)
        op.parent = self
        return op

    @property
    def parent_op(self) -> Optional[Operation]:
        return self.parent.parent if self.parent else None

    def __repr__(self) -> str:
        return f"<Block args={len(self.arguments)} ops={len(self._operations)}>"


class Region:
    """An ordered list of blocks owned by an operation."""

    def __init__(self, parent: Optional[Operation] = None) -> None:
        self.blocks: List[Block] = []
        self.parent: Optional[Operation] = parent

    @property
    def empty(self) -> bool:
        return not self.blocks

    @property
    def entry_block(self) -> Block:
        if not self.blocks:
            self.append_block(Block())
        return self.blocks[0]

    def append_block(self, block: Block) -> Block:
        self.blocks.append(block)
        block.parent = self
        return block

    def add_entry_block(self, arg_types: Sequence[Type] = ()) -> Block:
        block = Block(arg_types=arg_types)
        self.blocks.insert(0, block)
        block.parent = self
        return block

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks)

    def __repr__(self) -> str:
        return f"<Region blocks={len(self.blocks)}>"
