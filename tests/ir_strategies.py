"""Hypothesis strategies for generated IR: the zoo is not all the grammar
can say.

``_op_trees`` draws an op tree of any op name, attributes, types and nesting
the printer can render; the parser round-trip, the walk and the structural
key tests all draw from it.
"""

from hypothesis import strategies as st

from repro.dialects.affine_map import (
    AffineBinaryExpr,
    AffineConstantExpr,
    AffineDimExpr,
    AffineMap,
)
from repro.dialects.dataflow import BufferLayout
from repro.dialects.hls import ArrayPartition, PartitionKind
from repro.ir.core import _OPERATION_REGISTRY, Block, create_operation
from repro.ir.types import (
    FloatType,
    FunctionType,
    IndexType,
    IntegerType,
    MemRefType,
    NoneType,
    StreamType,
    TensorType,
    TokenType,
)

#: What the parser accepts in SSA names, op names and attribute keys.
_NAME_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.$-"

_names = st.text(_NAME_ALPHABET, min_size=1, max_size=6)
#: Registered classes rebuild through the registry, unregistered names as a
#: bare ``Operation``; both must print and parse alike.
_op_names = st.one_of(
    st.sampled_from(sorted(_OPERATION_REGISTRY)),
    st.sampled_from(["test.op", "x", "0.a-b$c", "true", "partition"]),
    _names,
)
_hints = st.one_of(st.none(), st.sampled_from(["a", "0", "1", "arg", "x.y-z"]), _names)
#: Top-level keys starting with "_" are private (the printer skips them).
_keys = st.one_of(
    st.sampled_from(["true", "false", "truefoo", "false_x", "true.1", "k", "map"]),
    _names.filter(lambda name: not name.startswith("_")),
)

_scalar_types = st.sampled_from(
    [IndexType(), NoneType(), TokenType(), IntegerType(1), IntegerType(8),
     IntegerType(32), IntegerType(64), IntegerType(8, signed=False),
     IntegerType(32, signed=False), FloatType(16), FloatType(32), FloatType(64)]
)
_shapes = st.lists(st.integers(0, 4096), max_size=4)  # rank 0 is tensor<f32>


def _compound_types(inner):
    sides = st.lists(inner, max_size=2)  # either side of "->" may be empty
    return st.one_of(
        st.builds(TensorType, _shapes, inner),
        st.builds(MemRefType, _shapes, inner, st.sampled_from(["bram", "dram", "uram", "a_b"])),
        st.builds(StreamType, inner, st.integers(1, 64)),
        st.builds(FunctionType, sides, sides),
    )


_types = st.recursive(_scalar_types, _compound_types, max_leaves=4)

_affine_atoms = st.one_of(
    st.builds(AffineDimExpr, st.integers(0, 3)),
    st.builds(AffineConstantExpr, st.integers(-130, 130)),
)
# Built directly, not through the folding operators, so every kind prints.
_affine_exprs = st.recursive(
    _affine_atoms,
    lambda inner: st.builds(
        AffineBinaryExpr,
        st.sampled_from(["add", "mul", "floordiv", "mod"]),
        inner,
        inner,
    ),
    max_leaves=5,
)
_affine_maps = st.builds(AffineMap, st.integers(0, 4), st.lists(_affine_exprs, max_size=3))
_partitions = st.lists(
    st.tuples(st.sampled_from(PartitionKind.ALL), st.integers(1, 64)), min_size=1, max_size=4
).map(lambda dims: ArrayPartition(*zip(*dims)))
_layouts = st.lists(
    st.tuples(st.integers(1, 16), st.integers(1, 16)), max_size=4
).map(lambda dims: BufferLayout([t for t, _ in dims], [v for _, v in dims]))

# Strings escape '"' and "\\" (see test_string_holding_a_quote_splits_in_two);
# everything the grammar itself uses as punctuation is in the alphabet.  A
# newline is not: the parser reads one op per line.
_strings = st.one_of(
    st.sampled_from(
        ["", ", ", "}", " : ", " -> ", "%0", "a, b = {c}", "[1, 2]", " {", "true", '"', "\\"]
    ),
    st.text(st.characters(min_codepoint=32, max_codepoint=0x24F), max_size=12),
)
_floats = st.one_of(
    st.sampled_from([1e-05, 1e22, -0.0, 0.0, 1.5, -2.5e-07, 1e16, 123456789.125]),
    st.sampled_from([float("inf"), float("-inf"), float("nan")]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_attr_leaves = st.one_of(
    st.integers(-(2**70), 2**70),
    st.booleans(),
    _floats,
    _strings,
    _affine_maps,
    _partitions,
    _layouts,
    st.builds(FunctionType, st.lists(_types, max_size=2), st.lists(_types, max_size=2)),
)
_attr_values = st.recursive(
    _attr_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(_names, inner, max_size=3)
    ),
    max_leaves=6,
)
_attr_dicts = st.dictionaries(_keys, _attr_values, max_size=4)


@st.composite
def _op_trees(draw):
    """A random op tree: any op name, 0-3 results, 0-3 regions of 0-3 blocks.

    Operands are drawn from the values printed *before* the op (the parser's
    symbol table is flat), so every tree is one the printer can render.
    """
    defined = []

    def define(value):
        value.name_hint = draw(_hints)
        defined.append(value)

    def build(depth):
        picks = draw(st.lists(st.integers(0, max(len(defined) - 1, 0)), max_size=3))
        op = create_operation(
            draw(_op_names),
            operands=[defined[pick] for pick in picks] if defined else [],
            result_types=draw(st.lists(_types, max_size=3)),
            attributes=draw(_attr_dicts),
        )
        for result in op.results:
            define(result)
        if depth < 2:
            # No block at all, one empty block, several blocks, several
            # regions ("} {") — each a distinct rendering.
            for _ in range(draw(st.integers(0, 3))):
                region = op.add_region()
                for _ in range(draw(st.integers(0, 3))):
                    block = Block()
                    region.append_block(block)
                    for argument_type in draw(st.lists(_types, max_size=2)):
                        define(block.add_argument(argument_type))
                    for _ in range(draw(st.integers(0, 2))):
                        block.append(build(depth + 1))
        return op

    return build(0)
