"""Figure 1 + Tables 1-2: the LeNet case study.

Regenerates the exhaustive design-space search of the LeNet accelerator
(dataflow and non-dataflow settings), the Pareto frontiers, and the
expert / exhaustive / HIDA comparison of Table 2.
"""

from repro.evaluation import (
    best_design,
    evaluate_design_point,
    exhaustive_search,
    expert_design_point,
    format_table,
    pareto_frontier,
)
from repro.evaluation.lenet_case_study import compile_hida_lenet


def _run_case_study():
    results = exhaustive_search()
    dataflow = [r for r in results if r.point.dataflow]
    non_dataflow = [r for r in results if not r.point.dataflow]
    expert = evaluate_design_point(expert_design_point())
    best_df = best_design(dataflow)
    best_ndf = best_design(non_dataflow)
    best_overall = best_design(results)
    hida_throughput, hida_utilization, hida_result = compile_hida_lenet()
    return {
        "results": results,
        "pareto_df": pareto_frontier(dataflow),
        "pareto_ndf": pareto_frontier(non_dataflow),
        "expert": expert,
        "best_df": best_df,
        "best_ndf": best_ndf,
        "best": best_overall,
        "hida": (hida_throughput, hida_utilization, hida_result),
    }


def test_fig1_table2_lenet_case_study():
    data = _run_case_study()

    results = data["results"]
    expert, best = data["expert"], data["best"]
    hida_throughput, hida_utilization, hida_result = data["hida"]

    print()
    print(f"Figure 1: evaluated {len(results)} design points "
          f"({len(data['pareto_df'])} on the dataflow Pareto frontier, "
          f"{len(data['pareto_ndf'])} on the non-dataflow frontier)")
    gap = data["best_df"].throughput / data["best_ndf"].throughput
    print(f"Best dataflow vs best non-dataflow throughput: {gap:.2f}x")

    rows = [
        ["Expert", f"{expert.utilization * 100:.1f}%", expert.throughput, "40 hours"],
        ["Exhaustive", f"{best.utilization * 100:.1f}%", best.throughput, "210 hours"],
        [
            "HIDA",
            f"{hida_utilization * 100:.1f}%",
            hida_throughput,
            f"{hida_result.compile_seconds:.1f} s",
        ],
    ]
    print(format_table(
        ["Design", "Resource Util.", "Throughput (Imgs/s)", "Develop Cycle"],
        rows,
        title="Table 2: LeNet evaluation",
    ))

    # Shape checks matching the paper's observations.
    assert gap > 1.0, "dataflow designs must Pareto-dominate non-dataflow designs"
    assert best.throughput >= expert.throughput
    assert hida_throughput >= expert.throughput
    assert hida_result.compile_seconds < 60.0
