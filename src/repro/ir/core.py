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
"""

from __future__ import annotations

import contextlib
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
    Union,
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
    "registered_operations",
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
        # Uses are (operation, operand_index) pairs.
        self._uses: List[Tuple["Operation", int]] = []
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

    @property
    def num_uses(self) -> int:
        return len(self._uses)

    def _add_use(self, op: "Operation", index: int) -> None:
        self._uses.append((op, index))

    def _remove_use(self, op: "Operation", index: int) -> None:
        with contextlib.suppress(ValueError):
            self._uses.remove((op, index))

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
    def owner(self) -> Optional[Union["Operation", "Block"]]:
        return None

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


def registered_operations() -> Dict[str, PyType["Operation"]]:
    """Return a copy of the operation registry (name -> class)."""
    return dict(_OPERATION_REGISTRY)


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

    @property
    def result_types(self) -> List[Type]:
        return [r.type for r in self.results]

    def replace_all_uses_with(self, other: Union["Operation", Sequence[Value]]) -> None:
        """Replace all result uses with the results of ``other`` (op or values)."""
        if isinstance(other, Operation):
            new_values: Sequence[Value] = other.results
        else:
            new_values = list(other)
        if len(new_values) != len(self.results):
            raise IRError(
                f"cannot replace {len(self.results)} results with "
                f"{len(new_values)} values"
            )
        for old, new in zip(self.results, new_values):
            old.replace_all_uses_with(new)

    # ------------------------------------------------------------ attributes
    def get_attr(self, name: str, default: Any = None) -> Any:
        return self.attributes.get(name, default)

    def set_attr(self, name: str, value: Any) -> None:
        self.attributes[name] = value

    def has_attr(self, name: str) -> bool:
        return name in self.attributes

    def remove_attr(self, name: str) -> None:
        self.attributes.pop(name, None)

    # --------------------------------------------------------------- regions
    @property
    def num_regions(self) -> int:
        return len(self.regions)

    def region(self, index: int = 0) -> "Region":
        return self.regions[index]

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

    def is_proper_ancestor_of(self, other: "Operation") -> bool:
        return other is not self and self.is_ancestor_of(other)

    def is_before_in_block(self, other: "Operation") -> bool:
        """True if both ops are in the same block and self precedes other."""
        if self.parent is None or self.parent is not other.parent:
            raise IRError("operations are not in the same block")
        ops = self.parent._operations
        return ops.index(self) < ops.index(other)

    # ------------------------------------------------------------- placement
    def detach(self) -> "Operation":
        """Remove this op from its parent block without touching its uses."""
        if self.parent is not None:
            self.parent._operations.remove(self)
            self.parent = None
        return self

    def erase(self) -> None:
        """Erase this operation.  Its results must have no remaining uses."""
        for result in self.results:
            if result.has_uses:
                users = ", ".join(u.name for u in result.users)
                raise IRError(
                    f"cannot erase {self.name}: result still used by {users}"
                )
        self.drop_all_references()
        self.detach()

    def drop_all_references(self) -> None:
        """Drop operand uses of this op and of everything nested inside it."""
        self._drop_all_operand_uses()
        self._operands = []
        for region in self.regions:
            for block in region.blocks:
                for op in list(block.operations):
                    op.drop_all_references()

    def move_before(self, other: "Operation") -> None:
        self.detach()
        block = other.parent
        if block is None:
            raise IRError("target operation has no parent block")
        idx = block._operations.index(other)
        block._operations.insert(idx, self)
        self.parent = block

    def move_after(self, other: "Operation") -> None:
        self.detach()
        block = other.parent
        if block is None:
            raise IRError("target operation has no parent block")
        idx = block._operations.index(other)
        block._operations.insert(idx + 1, self)
        self.parent = block

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
        # Built field by field rather than through ``__init__``: the source
        # is valid IR, so nothing needs checking, and values are created in
        # the constructors' order (results, then each block's arguments
        # before its ops).
        cls = _OPERATION_REGISTRY.get(self.name, Operation)
        new_op = cls.__new__(cls)
        new_op.name = self.name
        operands = [value_map.get(v, v) for v in self._operands]
        for index, value in enumerate(operands):
            value._uses.append((new_op, index))
        new_op._operands = operands
        results = []
        for index, old_res in enumerate(self.results):
            new_res = OpResult(new_op, index, old_res.type)
            new_res.name_hint = old_res.name_hint
            value_map[old_res] = new_res
            results.append(new_res)
        new_op.results = results
        new_op.attributes = _clone_attribute_dict(self.attributes)
        new_op.regions = []
        new_op.parent = None
        for region in self.regions:
            new_region = Region(new_op)
            new_op.regions.append(new_region)
            for block in region.blocks:
                new_block = Block.__new__(Block)
                arguments = []
                for index, old_arg in enumerate(block.arguments):
                    new_arg = BlockArgument(new_block, index, old_arg.type)
                    new_arg.name_hint = old_arg.name_hint
                    value_map[old_arg] = new_arg
                    arguments.append(new_arg)
                new_block.arguments = arguments
                new_block.parent = new_region
                new_region.blocks.append(new_block)
                ops = [op.clone(value_map) for op in block._operations]
                for op in ops:
                    op.parent = new_block
                new_block._operations = ops
        return new_op

    # ------------------------------------------------------------------ misc
    def verify(self) -> None:
        """Hook for op-specific verification; overridden by dialect ops."""

    def __repr__(self) -> str:
        # Direct children only: a repr lands in tracebacks and diagnostics and
        # must not cost a walk of the whole module.
        n_ops = sum(len(block) for region in self.regions for block in region.blocks)
        return f"<{self.name} operands={self.num_operands} results={self.num_results} children={n_ops}>"


def _clone_attribute_dict(attrs: Dict[str, Any]) -> Dict[str, Any]:
    """Shallow-copy an attribute dict, copying mutable containers."""
    cloned: Dict[str, Any] = {}
    for key, value in attrs.items():
        if isinstance(value, list):
            cloned[key] = list(value)
        elif isinstance(value, dict):
            cloned[key] = dict(value)
        elif isinstance(value, set):
            cloned[key] = set(value)
        else:
            cloned[key] = value
    return cloned


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
    def empty(self) -> bool:
        return not self._operations

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

    def erase_argument(self, index: int) -> None:
        arg = self.arguments[index]
        if arg.has_uses:
            raise IRError("cannot erase a block argument that still has uses")
        del self.arguments[index]
        for i, remaining in enumerate(self.arguments):
            remaining.index = i

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

    def extend(self, ops: Iterable[Operation]) -> None:
        for op in ops:
            self.append(op)

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

    @property
    def operations(self) -> List[Operation]:
        """Operations of the entry block (single-block convenience accessor)."""
        if not self.blocks:
            return []
        return self.blocks[0].operations

    def walk(self, order: str = WalkOrder.POST_ORDER) -> Iterator[Operation]:
        """Walk every op of the region; the contract of :meth:`Operation.walk`."""
        if order not in _IS_POST_ORDER:
            raise ValueError(_BAD_WALK_ORDER.format(order))
        return _walk_flat((), self.blocks, _IS_POST_ORDER[order])

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks)

    def __repr__(self) -> str:
        return f"<Region blocks={len(self.blocks)}>"
