"""Tests for the printed-IR parser: the load-bearing half of the IR cache.

The incremental-compilation snapshot cache stores *printed IR text*, so the
print -> parse -> print round-trip must be byte-exact on everything the
pipeline can produce — frontend modules and every snapshot-safe stage
boundary alike.  These tests pin that property across the workload zoo and
the error behavior on malformed text.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings

from ir_strategies import _op_trees
from repro.compiler.driver import DEFAULT_PIPELINE, Compiler
from repro.compiler.stages import CompilationState
from repro.dialects.affine_map import AffineMap, dim
from repro.estimation.platform import get_platform
from repro.ir.core import create_operation
from repro.ir.parser import (
    IRParseError,
    assign_name_hints,
    collect_name_hints,
    parse_op,
)
from repro.ir.printer import fingerprint_op, print_op
from repro.ir.types import FloatType, MemRefType
from repro.workloads import get_workload, iter_workloads


def roundtrip(module):
    """parse(print(module)) with the name-hint sidecar applied."""
    text = print_op(module)
    clone = parse_op(text)
    assign_name_hints(clone, collect_name_hints(module))
    return text, clone


# ---------------------------------------------------------------------------
# Round-trip fidelity
# ---------------------------------------------------------------------------


def test_roundtrip_every_frontend_module():
    """Every registered workload's traced module survives a byte-exact trip."""
    checked = 0
    for handle in iter_workloads():
        module = handle.build_module()
        text, clone = roundtrip(module)
        assert print_op(clone) == text, handle.workload_id
        assert fingerprint_op(clone) == fingerprint_op(module)
        checked += 1
    assert checked >= 10  # the zoo holds kernels and models


@pytest.mark.parametrize("workload", ["2mm", "lenet"])
def test_roundtrip_every_stage_boundary(workload):
    """The IR after each pipeline stage round-trips byte-exactly.

    This sweeps the whole grammar the snapshot cache depends on: dataflow
    tasks and streams after construct-dataflow, schedules and affine maps
    after lower-structural, partition/layout attributes after parallelize.
    """
    compiler = Compiler.from_spec(DEFAULT_PIPELINE, platform="zu3eg")
    state = CompilationState(
        module=get_workload(workload).build_module(),
        platform=get_platform("zu3eg"),
    )
    for stage in compiler.stages:
        stage.run(state)
        text, clone = roundtrip(state.module)
        assert print_op(clone) == text, f"after {stage.name}"
        assert fingerprint_op(clone) == fingerprint_op(state.module)


def test_roundtrip_preserves_structure():
    module = get_workload("atax").build_module()
    _, clone = roundtrip(module)
    assert clone.name == module.name
    assert len(list(clone.walk())) == len(list(module.walk()))
    assert [op.name for op in clone.walk()] == [op.name for op in module.walk()]
    assert [f.sym_name for f in clone.functions] == [
        f.sym_name for f in module.functions
    ]


def test_name_hints_restore_value_names():
    """Without the sidecar names regenerate; with it they restore exactly."""
    module = get_workload("atax").build_module()
    text = print_op(module)
    hints = collect_name_hints(module)
    bare = parse_op(text)
    assign_name_hints(bare, hints)
    assert print_op(bare) == text
    # The hints walk nested_values() pre-order, so length matches exactly.
    assert len(collect_name_hints(bare)) == len(hints)


# ---------------------------------------------------------------------------
# Generated IR (ROADMAP 3(b)): the zoo is not all the grammar can say
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(op=_op_trees())
def test_generated_ir_roundtrips(op):
    text = print_op(op)
    hints = collect_name_hints(op)
    clone = parse_op(text)
    assert len(collect_name_hints(clone)) == len(hints)
    assign_name_hints(clone, hints)
    assert print_op(clone) == text
    assert fingerprint_op(clone) == fingerprint_op(op)


def test_string_holding_a_quote_splits_in_two():
    """``{s = 'a", t = "c'}`` used to print as two attributes that re-printed
    cleanly, so the byte compare in ``IRSnapshotCache.store`` could not see
    it.  Strings now escape ``"`` and ``\\`` (IR-cache schema 2)."""
    cases = {
        'a", t = "c': r'"a\", t = \"c"',
        "C:\\dir\\": r'"C:\\dir\\"',
        '\\"': r'"\\\""',
    }
    for value, printed in cases.items():
        op = create_operation("test.op", attributes={"s": value})
        text = print_op(op)
        assert text == f"test.op() {{s = {printed}}}"
        assert parse_op(text).attributes == op.attributes
    # A string with neither prints as before.
    assert print_op(create_operation("test.op", attributes={"s": "a, b"})) == (
        'test.op() {s = "a, b"}'
    )


def test_non_finite_floats_roundtrip():
    """``str(float)`` spells them inf, -inf and nan; a snapshot holding one
    used to be refused at every store."""
    op = create_operation(
        "test.op", attributes={"a": float("inf"), "b": float("-inf"), "c": float("nan")}
    )
    text = print_op(op)
    assert text == "test.op() {a = inf, b = -inf, c = nan}"
    clone = parse_op(text)
    assert [type(value) for value in clone.attributes.values()] == [float] * 3
    assert print_op(clone) == text


# ---------------------------------------------------------------------------
# The intern table shares nothing an op can change
# ---------------------------------------------------------------------------

_MUTABLE = "{a = [1, 2], d = {k = 1}, n = 3}"
_FROZEN = "{m = (d0) -> (d0), n = 3} : memref<4xf32, bram>"


def _two_ops(first, second):
    text = f"builtin.module() {{\n  %0 = test.op() {first}\n  %1 = test.op() {second}\n}}"
    return list(parse_op(text).regions[0].blocks[0].operations)


@pytest.mark.parametrize("same_text", [True, False], ids=["one-text", "two-texts"])
def test_equal_attribute_text_never_aliases_anything_mutable(same_text):
    suffix = f"{_MUTABLE} : i32"
    if same_text:
        op, other = _two_ops(suffix, suffix)
    else:
        op, other = _two_ops(suffix, suffix)[0], _two_ops(suffix, suffix)[1]
    op.attributes["n"] = 4
    op.attributes["extra"] = True
    op.attributes["a"].append(3)
    op.attributes["d"]["k"] = 2
    assert other.attributes == {"a": [1, 2], "d": {"k": 1}, "n": 3}
    assert parse_op(f"test.op() {_MUTABLE}").attributes == other.attributes


def test_interned_suffix_hands_out_a_fresh_dict_and_may_share_leaves():
    op, other = _two_ops(_FROZEN, _FROZEN)
    op.attributes["n"] = 4
    del op.attributes["m"]
    assert other.attributes["n"] == 3
    again = _two_ops(_FROZEN, _FROZEN)[0]
    assert again.attributes == other.attributes
    # Frozen, value-compared leaves may be one object; equality is the contract.
    assert again.attributes["m"] == other.attributes["m"] == AffineMap(1, [dim(0)])
    assert again.results[0].type == MemRefType([4], FloatType(32), "bram")
    assert again.results[0] is not other.results[0]


def test_a_leaf_whose_constructor_raises_is_not_cached():
    text = "builtin.module() {\n  ^bb0(%a: i0):\n}"
    messages = []
    for _ in range(2):
        with pytest.raises(IRParseError) as excinfo:
            parse_op(text)
        messages.append((str(excinfo.value), excinfo.value.line, excinfo.value.column))
    assert messages[0] == messages[1]
    assert messages[0][1:] == (2, 9)
    assert "integer width must be positive" in messages[0][0]


# ---------------------------------------------------------------------------
# Error behavior
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "",  # empty input
        "garbage!!",  # not an op header
        "%r = arith.addf(%a, %b) : f32",  # operands never defined
        'builtin.module() {sym_name = "m"',  # unterminated attr dict
        'builtin.module() {\n}\nbuiltin.module() {\n}',  # two top-level ops
        'builtin.module() {bad = @@} {\n}',  # unparseable attr value
    ],
)
def test_malformed_text_raises_parse_error(text):
    with pytest.raises(IRParseError):
        parse_op(text)


def test_parse_error_is_value_error():
    """Callers catching ValueError (the repo-wide idiom) still catch parses."""
    assert issubclass(IRParseError, ValueError)


def test_unbalanced_region_reports_opening_line():
    """A region that never closes points back at the op that opened it."""
    text = 'func.func() {name = "f"} {\n%0 = arith.constant() {value = 1} : i32'
    with pytest.raises(IRParseError) as excinfo:
        parse_op(text)
    error = excinfo.value
    assert "unterminated region" in str(error)
    assert error.line == 1


def test_unknown_op_header_reports_line_and_column():
    """A line that is not an op header diagnoses its position, not a crash."""
    text = 'builtin.module() {\n%0 = !!bogus() : i32\n}'
    with pytest.raises(IRParseError) as excinfo:
        parse_op(text)
    error = excinfo.value
    assert error.line == 2
    assert error.column == 5  # right after "%0 = "


def test_bad_attribute_literal_reports_offsets():
    """A malformed attribute value carries both line and column."""
    text = (
        'builtin.module() {\n'
        '%0 = arith.constant() {value = 1..2} : i32\n'
        '}'
    )
    with pytest.raises(IRParseError) as excinfo:
        parse_op(text)
    error = excinfo.value
    assert error.line == 2
    assert error.column is not None
    # The offset indexes into the stripped line, inside the attr dict.
    assert error.column > text.splitlines()[1].index("{")


def test_error_line_counts_blank_lines():
    """Line numbers index the original text, blank lines included."""
    text = '\n\nbuiltin.module() {\n\n%0 = !!bogus() : i32\n}'
    with pytest.raises(IRParseError) as excinfo:
        parse_op(text)
    assert excinfo.value.line == 5


def test_trailing_content_reports_line():
    text = 'builtin.module() {\n}\nbuiltin.module() {\n}'
    with pytest.raises(IRParseError) as excinfo:
        parse_op(text)
    error = excinfo.value
    assert "trailing content" in str(error)
    assert error.line == 3


# ---------------------------------------------------------------------------
# Golden error positions
# ---------------------------------------------------------------------------

#: One row per malformed text: every ``raise IRParseError`` site at least
#: once, each pinned to its message, line and column.  The first 90 rows were
#: recorded from the character-cursor parser; the construct parser kept
#: ``line`` and ``column`` on all of them and reworded five messages into the
#: one ``<what> at column <c> of <line>`` form (``trailing-*``,
#: ``type-list-dangling-comma``, ``attr-unterminated-string``,
#: ``map-unknown-operator``).  The ``leaf-*`` and ``number-*`` rows came with
#: it: texts that used to escape as a bare ``ValueError``.  A parser change
#: never re-records a row to make itself pass.
_ERROR_ROWS = json.loads(
    (Path(__file__).parent / "data" / "ir_parse_errors.json").read_text()
)


def test_error_golden_covers_every_kind_of_failure():
    assert len(_ERROR_ROWS) >= 30
    assert len({row["name"] for row in _ERROR_ROWS}) == len(_ERROR_ROWS)


@pytest.mark.parametrize("row", _ERROR_ROWS, ids=lambda row: row["name"])
def test_parse_error_golden(row):
    with pytest.raises(IRParseError) as excinfo:
        op = parse_op(row["text"])
        assign_name_hints(op, row["hints"])  # only sidecar rows get this far
    error = excinfo.value
    assert (error.line, error.column) == (row["line"], row["column"])
    assert str(error) == row["message"]
