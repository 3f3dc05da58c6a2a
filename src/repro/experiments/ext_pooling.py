"""Extension: resource pooling vs peak provisioning (sec. 1's 22% claim).

"Resource pooling has been shown to achieve 22% reduction in compute
resources [15]."  This extension quantifies that claim on our own
workload: per-basestation peak provisioning vs one statistical
reservation for the whole node, across fleet sizes and provisioning
quantiles.  Provisioning needs only each subframe's serial time, so the
study reads demand rows off the workload columns and never materializes
a scheduler job.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.report import Table
from repro.experiments.base import ExperimentOutput, register, scaled_subframes
from repro.placement import (
    peak_cores_required,
    place_basestations,
    pooled_cores_required,
    pooling_savings,
)
from repro.sched import CRanConfig
from repro.workload.traces import BasestationTraceConfig, CellularTraceGenerator

if TYPE_CHECKING:
    from repro.workload.soa import WorkloadArrays


def _fleet_arrays(num_bs: int, num_subframes: int, seed: int) -> WorkloadArrays:
    # Imported here, as in repro.sched.runner, to keep it off the
    # experiment-registration import path.
    from repro.workload.soa import build_workload_arrays

    base = [
        BasestationTraceConfig(mean=0.62, slow_std=0.18, fast_std=0.12),
        BasestationTraceConfig(mean=0.52, slow_std=0.16, fast_std=0.11),
        BasestationTraceConfig(mean=0.42, slow_std=0.15, fast_std=0.10),
        BasestationTraceConfig(mean=0.33, slow_std=0.13, fast_std=0.09),
    ]
    configs = [base[i % len(base)] for i in range(num_bs)]
    loads = CellularTraceGenerator(configs, seed=seed).generate(num_subframes)
    cfg = CRanConfig(num_basestations=num_bs, transport_latency_us=500.0)
    return build_workload_arrays(cfg, num_subframes, seed=seed, loads=loads)


@register("ext-pooling", "Resource pooling vs peak provisioning (extension)")
def run(scale: float, seed: int) -> ExperimentOutput:
    num_subframes = max(1000, scaled_subframes(scale) // 3)
    table = Table(
        ["basestations", "quantile", "peak cores", "pooled cores", "saving"],
        title=f"Pooling study ({num_subframes} subframes/BS)",
    )
    data = {"rows": []}
    for num_bs in (4, 8, 16):
        demand = _fleet_arrays(num_bs, num_subframes, seed).demand_rows()
        for quantile in (0.99, 0.999):
            peak = peak_cores_required(demand, quantile)
            pooled = pooled_cores_required(demand, quantile)
            saving = pooling_savings(demand, quantile)
            table.add_row([num_bs, quantile, peak, pooled, saving])
            data["rows"].append(
                {"bs": num_bs, "quantile": quantile, "peak": peak,
                 "pooled": pooled, "saving": saving}
            )

    # Placement demo: pack the 16-cell fleet (the loop's last) onto
    # 8-core nodes.
    placement = place_basestations(demand, cores_per_node=8, quantile=0.999)
    note = (
        f"16 cells pack onto {placement.node_count} statistically provisioned "
        f"8-core nodes (vs {-(-peak_cores_required(demand, 0.999) // 8)} "
        "peak-provisioned nodes)"
    )
    data["nodes_pooled"] = placement.node_count
    return ExperimentOutput(
        experiment_id="ext-pooling",
        title="Resource pooling",
        text=table.render() + "\n" + note,
        data=data,
    )
