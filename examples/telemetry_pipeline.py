#!/usr/bin/env python
"""End-to-end telemetry: one faulty production run, one unified trace.

Instruments every subsystem into a single :class:`TelemetryHub` — a
training burst (per-segment spans, MFU gauges), a ring reduce-scatter
over a Clos fabric slice, a congestion experiment, then a fault-injected
production week with the two-tier monitors attached live — and dumps one
Perfetto-loadable Chrome-trace document plus a JSONL metrics sidecar.

    python examples/telemetry_pipeline.py [trace.json] [weeks]

Load the JSON at https://ui.perfetto.dev: each subsystem is its own
process lane (training, collectives, network, fault, monitor), health
findings appear as instant markers at their simulated fire time, and
gauges render as counter tracks.
"""

import sys

import numpy as np

from repro.collectives.runtime import RingCollectiveRuntime
from repro.core.features import MEGASCALE_ISO_BATCH
from repro.fault import CheckpointPlanner, CorrelatedFaultInjector, ProductionRun
from repro.model import GPT_175B
from repro.network.congestion import simulate_bottleneck
from repro.network.topology import ClosFabric
from repro.observability import TelemetryHub, lane_summary
from repro.parallel import plan_for_gpus
from repro.training import TrainingRunner


def main() -> None:
    output = sys.argv[1] if len(sys.argv) > 1 else "telemetry.json"
    weeks = float(sys.argv[2]) if len(sys.argv) > 2 else 1.0
    seed = 1

    hub = TelemetryHub(job_name="175B production")
    plan = plan_for_gpus(1024, tp=8, pp=8, vpp=6)

    # 1. Compute side: two instrumented iterations land forward/backward/
    #    reduce-scatter/optimizer spans and MFU gauges on the training lane.
    runner = TrainingRunner(
        GPT_175B, plan, MEGASCALE_ISO_BATCH, global_batch=768, seed=seed
    )
    runner.run(2, hub=hub)

    # 2. One DP-shard's gradient reduce-scatter over a real fabric slice.
    fabric = ClosFabric(n_nodes=8, nodes_per_pod=8)
    runtime = RingCollectiveRuntime(fabric, node_of_rank=list(range(8)))
    runtime.run("reduce_scatter", 2 * GPT_175B.n_params / (plan.tp * plan.pp), hub=hub)

    # 3. Network posture: link-utilization and queue gauges from the
    #    congestion model on the network lane.
    simulate_bottleneck("megascale", n_flows=8, duration=0.01, hub=hub)

    # 4. The faulty production run itself.  Correlated faults (rack power,
    #    ToR, leaf links) hit the cluster; every incident emits a fault
    #    instant, detect/recover spans, and live monitor verdicts.
    n_nodes = 128
    run = ProductionRun(
        plan,
        CorrelatedFaultInjector(n_nodes=n_nodes, rng=np.random.default_rng(seed)),
        planner=CheckpointPlanner(model=GPT_175B, plan=plan),
        rng=np.random.default_rng(seed),
        spares=4,
        hub=hub,
    )
    result = run.run(duration=weeks * 7 * 86400.0)

    n_events, metrics_path = hub.save(output)
    print(f"production          : {result.restarts} restarts over {weeks:g} week(s)")
    print(f"health findings     : {len(run.monitors.findings)}")
    print(f"trace               : {output} ({n_events} events)")
    print(f"metrics             : {metrics_path}")
    print()
    print(f"{'pid':>4s} {'lane':<28s} {'spans':>6s} {'instants':>9s} {'counters':>9s}")
    for lane in lane_summary(hub.to_chrome_trace()):
        print(
            f"{lane['pid']:>4d} {lane['name']:<28s} {lane['spans']:>6d} "
            f"{lane['instants']:>9d} {lane['counters']:>9d}"
        )
    print("\nopen https://ui.perfetto.dev and load the trace file.")


if __name__ == "__main__":
    main()
