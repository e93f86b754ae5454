"""The compile path leaves no reference cycles of its own closures.

A recursive closure refers to itself through its cell, so the function, its
cells and everything they hold (a band's access walk, an unroll search's
state) outlive the call until the cycle collector finds them.  Here the zoo
and one DSE prefix group compile with the collector off; one collection with
``DEBUG_SAVEALL`` then keeps everything that was only reachable from a cycle
in ``gc.garbage``, and none of it may be a function of ``repro`` or a cell
of one.  The IR's own cycles (an op and its results, a block and its
parent) are expected and not checked.
"""

import collections
import gc
import types

from repro.compiler import Compiler, default_stages
from repro.dse import build_space, explore
from repro.workloads import list_workloads


def _garbage_of(work):
    """Everything ``work()`` left for the cycle collector."""
    enabled, debug, kept = gc.isenabled(), gc.get_debug(), len(gc.garbage)
    gc.collect()
    gc.disable()
    try:
        work()
        gc.set_debug(debug | gc.DEBUG_SAVEALL)
        gc.collect()
        return gc.garbage[kept:]
    finally:
        gc.set_debug(debug)
        del gc.garbage[kept:]
        if enabled:
            gc.enable()


def _is_repro_function(obj):
    return isinstance(obj, types.FunctionType) and obj.__module__.startswith("repro.")


def _repro_closures(garbage):
    """``qualname -> count`` of the ``repro`` functions in ``garbage``, and
    how many of its cells belong to one or hold one."""
    functions = [obj for obj in garbage if _is_repro_function(obj)]
    owned = {id(cell) for function in functions for cell in function.__closure__ or ()}
    cells = sum(
        isinstance(obj, types.CellType)
        and (id(obj) in owned or _is_repro_function(getattr(obj, "cell_contents", None)))
        for obj in garbage
    )
    return collections.Counter(function.__qualname__ for function in functions), cells


def _compile_zoo():
    for name in list_workloads(kind="model"):
        Compiler(default_stages(parallelize={"factor": 64}), platform="vu9p-slr").run(
            workload=name
        )
    for name in list_workloads(kind="kernel"):
        Compiler(default_stages(), platform="zu3eg").run(workload=name)


def _explore_one_group():
    points = build_space("full", suite=("2mm",)).sample(8, 2024).points
    explore(points, workers=1, use_cache=False, fidelity="simulate", promote_top=0.25)


def test_the_zoo_compile_frees_its_closures_by_refcount():
    found, cells = _repro_closures(_garbage_of(_compile_zoo))
    assert (found, cells) == ({}, 0)


def test_a_dse_prefix_group_frees_its_closures_by_refcount():
    found, cells = _repro_closures(_garbage_of(_explore_one_group))
    assert (found, cells) == ({}, 0)
