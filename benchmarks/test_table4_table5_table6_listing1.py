"""Tables 4, 5 and 6: connection analysis, node parallelization and array
partitioning of the Listing-1 running example."""

from repro.compiler import Compiler, default_stages
from repro.evaluation import format_table
from repro.frontend.cpp import build_listing1
from repro.hida import collect_band_infos, collect_connections, connection_table


def _compile(intensity_aware=True, connection_aware=True):
    stages = default_stages(
        drop=["fuse-tasks", "tile"],
        parallelize={"ia": intensity_aware, "ca": connection_aware},
    )
    return Compiler(stages, platform="zu3eg").run(build_listing1())


def _run_all_modes():
    modes = {
        "IA+CA": (True, True),
        "IA": (True, False),
        "CA": (False, True),
        "Naive": (False, False),
    }
    outcomes = {}
    for name, (ia, ca) in modes.items():
        result = _compile(ia, ca)
        factors = {
            result.parallelization.intensities[key]: value
            for key, value in result.parallelization.unroll_factors.items()
        }
        banks = {
            b.result().name_hint: b.partition.banks
            for s in result.schedules
            for b in s.buffers
        }
        outcomes[name] = {
            "factors": factors,
            "banks": banks,
            "parallel_factors": {
                result.parallelization.intensities[key]: value
                for key, value in result.parallelization.parallel_factors.items()
            },
        }
    reference = _compile()
    schedule = reference.schedules[0]
    bands = collect_band_infos(schedule)
    connections = collect_connections(schedule, bands)
    outcomes["_connections"] = connection_table(connections)
    return outcomes


def test_table4_table5_table6():
    outcomes = _run_all_modes()

    print()
    rows = [
        [
            row["source"],
            row["target"],
            row["buffer"],
            str(row["s_to_t_permutation"]),
            str(row["t_to_s_permutation"]),
            str(row["s_to_t_scaling"]),
            str(row["t_to_s_scaling"]),
        ]
        for row in outcomes["_connections"]
    ]
    print(format_table(
        ["Source", "Target", "Buffer", "S-to-T perm", "T-to-S perm", "S-to-T scale", "T-to-S scale"],
        rows,
        title="Table 4: node connections of Listing 1",
    ))

    node_names = {4096: "Node2", 512: "Node0", 256: "Node1"}
    rows = []
    for intensity in (512, 256, 4096):
        row = [node_names[intensity], intensity]
        row.append(outcomes["IA+CA"]["parallel_factors"][intensity])
        for mode in ("IA+CA", "IA", "CA", "Naive"):
            row.append(str(outcomes[mode]["factors"][intensity]))
        rows.append(row)
    print(format_table(
        ["Node", "Intensity", "PF (IA)", "IA+CA", "IA", "CA", "Naive"],
        rows,
        title="Table 5: node parallelization results (max parallel factor 32)",
    ))

    rows = []
    for array in ("A", "B"):
        row = [array]
        for mode in ("IA+CA", "IA", "CA", "Naive"):
            row.append(outcomes[mode]["banks"].get(array, 1))
        rows.append(row)
    print(format_table(
        ["Array", "IA+CA banks", "IA banks", "CA banks", "Naive banks"],
        rows,
        title="Table 6: array partition bank counts",
    ))

    # Paper-matching assertions.
    iaca = outcomes["IA+CA"]
    assert iaca["factors"][4096] == [4, 8, 1]
    assert iaca["factors"][512] == [4, 1]
    assert iaca["factors"][256] == [1, 2]
    assert iaca["parallel_factors"] == {4096: 32, 512: 4, 256: 2}
    assert iaca["banks"]["A"] == 8 and iaca["banks"]["B"] == 8
    naive_banks = outcomes["Naive"]["banks"]
    assert naive_banks["A"] >= 8 * iaca["banks"]["A"]  # 8x margin on array A
    assert len(outcomes["_connections"]) == 2
