#!/usr/bin/env python
"""Export a pipeline execution trace to Chrome trace-event format.

Runs one iteration's pipeline phase with span recording into a telemetry
hub's training lane and saves a ``chrome://tracing`` / Perfetto-loadable
JSON file — the practical version of the paper's Figure 8 timeline UI.
The file opens in ``repro trace`` like every other saved trace:

    python examples/trace_export.py [output.json]
    python -m repro trace output.json --lane training
"""

import sys

from repro.core.features import MEGASCALE_ISO_BATCH
from repro.model import GPT_175B
from repro.observability import DistributedTimeline, TelemetryHub
from repro.parallel import plan_for_gpus
from repro.training import IterationEngine


def main() -> None:
    output = sys.argv[1] if len(sys.argv) > 1 else "pipeline_trace.json"
    plan = plan_for_gpus(256, tp=8, pp=8, vpp=2, micro_batch=1)
    engine = IterationEngine(GPT_175B, plan, MEGASCALE_ISO_BATCH)
    hub = TelemetryHub(job_name="gpt-175b-pipeline")
    trace = hub.recorder("training")
    makespan, busy = engine.pipeline_makespan(m=16, trace=trace)

    count, _ = hub.save(output)
    timeline = DistributedTimeline.from_trace(trace)
    print(f"pipeline makespan {makespan * 1e3:.0f} ms, busiest stage {busy * 1e3:.0f} ms")
    print(f"wrote {count} trace events to {output}")
    print("open chrome://tracing (or https://ui.perfetto.dev) and load the file,")
    print(f"or run: python -m repro trace {output} --lane training")
    print("\nASCII preview:")
    print(timeline.render_ascii(width=72))


if __name__ == "__main__":
    main()
