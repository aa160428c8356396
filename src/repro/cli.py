"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's experiments:

* ``compare`` — one Table 2 cell (both systems on one job)
* ``sweep`` — the full strong-scaling sweep
* ``ablation`` — the Table 3 ladder
* ``init`` — the §3.5 group-initialization sequence
* ``production`` — a fault-injected multi-week run (Figure 11)
* ``mc`` — a Monte Carlo resilience campaign: hundreds of seeded chaos
  or scheduler runs reduced to deterministic distributions
* ``tune`` — auto-tune the 3D parallelism for a model + GPU count
* ``trace`` — inspect/render a saved telemetry trace document
* ``diagnose`` — root-cause attribution over a saved trace or scenario
* ``validate`` — fabric-vs-analytic agreement report (§3.6)

``production`` and ``sweep`` accept ``--trace out.json``: everything the
run did is collected into one
:class:`~repro.observability.TelemetryHub` and exported as a unified
Perfetto-loadable document (one pid lane per subsystem) plus a
``.metrics.jsonl`` sidecar.

Invalid input — a bad flag value, a missing file, a configuration the
simulator rejects with ``ValueError`` — exits 2 with one
``repro: error: ...`` line on stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

import numpy as np


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one ``repro: error:`` line and
    that reads only whole flag names (``--seed`` is not ``--seeds``)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):
        self.exit(2, f"repro: error: {message}\n")


def int_at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


non_negative_int = int_at_least(0)
positive_int = int_at_least(1)


def positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def scenario_name(text: str) -> str:
    """An argparse type: a ``diagnose`` scenario name.

    The scenario table is imported only when the flag is given, so
    building the parser loads no observability module.
    """
    from .observability.diagnosis import SCENARIOS

    if text not in SCENARIOS:
        raise argparse.ArgumentTypeError(
            f"unknown scenario {text!r} (pick from {', '.join(SCENARIOS)})"
        )
    return text


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    from .model import MODEL_CATALOG

    parser.add_argument("--gpus", type=positive_int, default=1024)
    parser.add_argument("--batch", type=positive_int, default=768)
    parser.add_argument("--model", choices=sorted(MODEL_CATALOG), default="gpt-175b")


def _add_job_args(parser: argparse.ArgumentParser) -> None:
    _add_workload_args(parser)
    parser.add_argument("--tp", type=positive_int, default=8)
    parser.add_argument("--pp", type=positive_int, default=8)
    parser.add_argument("--vpp", type=positive_int, default=6)


def _add_backend_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend", choices=["analytic", "fabric"], default="analytic",
        help="collective cost model: closed-form alpha-beta (analytic, the "
             "default) or flow-level routing over the CLOS fabric (fabric)",
    )


def _job_from(args) -> "TrainingJob":
    from .core.config import TrainingJob

    return TrainingJob(
        model=args.model,
        n_gpus=args.gpus,
        global_batch=args.batch,
        tp=args.tp,
        pp=args.pp,
        vpp=args.vpp,
    )


def cmd_compare(args) -> int:
    from .core import compare, render_table

    result = compare(_job_from(args), backend=args.backend)
    print(render_table([result.baseline, result.megascale]))
    print(result.summary())
    return 0


def cmd_sweep(args) -> int:
    import functools

    from .core import compare, job_175b
    from .exec import run_tasks

    hub = _make_hub(args, "sweep")
    compare_fn = compare
    if args.backend != "analytic":
        compare_fn = functools.partial(compare, backend=args.backend)
    scales = [
        (256, 768), (512, 768), (768, 768), (1024, 768),
        (3072, 6144), (6144, 6144), (8192, 6144), (12288, 6144),
    ]
    jobs = [job_175b(n_gpus=gpus, global_batch=batch) for gpus, batch in scales]
    results, stats = run_tasks(compare_fn, jobs, workers=args.workers, hub=hub)
    print(f"{'GPUs':>6s} {'batch':>6s} {'Megatron':>9s} {'MegaScale':>10s} {'speedup':>8s}")
    for (gpus, batch), r in zip(scales, results):
        print(
            f"{gpus:>6d} {batch:>6d} {r.baseline.mfu:>8.1%} {r.megascale.mfu:>9.1%} "
            f"{r.speedup:>7.2f}x"
        )
    if args.stats:
        print(stats.describe())
    _save_hub(hub, args)
    return 0


def cmd_ablation(args) -> int:
    from .core import ablation_sequence, job_175b
    from .training import IterationEngine

    job = job_175b(n_gpus=256, global_batch=256)
    plan = job.plan()
    prev = None
    for label, features, scale in ablation_sequence():
        engine = IterationEngine(job.model_spec, plan, features, gpu=job.gpu_spec)
        mfu = engine.simulate(256 * scale).mfu
        delta = "" if prev is None else f"  (+{(mfu - prev) * 100:.1f})"
        print(f"{label:<32s} {mfu:.1%}{delta}")
        prev = mfu
    return 0


def cmd_init(args) -> int:
    from .collectives import paper_sequence
    from .parallel import plan_for_gpus

    plan = plan_for_gpus(args.gpus, tp=args.tp, pp=args.pp, vpp=args.vpp)
    for name, seconds in paper_sequence(plan).items():
        print(f"{name:<18s} {seconds:>9.1f} s")
    return 0


def _make_hub(args, job_name: str):
    """A TelemetryHub when ``--trace`` was given, else None."""
    if not getattr(args, "trace", None):
        return None
    from .observability import TelemetryHub

    return TelemetryHub(job_name=job_name)


def _save_hub(hub, args) -> None:
    if hub is None:
        return
    n_events, metrics_path = hub.save(args.trace)
    lanes = ", ".join(hub.subsystems())
    print(f"trace               : {args.trace} ({n_events} events; lanes: {lanes})")
    print(f"metrics             : {metrics_path}")


def _telemetry_prologue(hub, model, plan, global_batch: int, seed: int) -> None:
    """Instrumented samples of the compute-side subsystems.

    A production trace should show the whole system, not just the fault
    timeline: a short instrumented training burst (segment spans + MFU
    gauges), one ring collective over a real fabric slice (bytes and
    algorithm attrs), and a congestion-posture experiment (utilization
    and queue gauges) all land on their own lanes before the multi-week
    fault/monitor timeline plays out.
    """
    from .collectives.runtime import RingCollectiveRuntime
    from .core.features import MEGASCALE_ISO_BATCH
    from .network.congestion import simulate_bottleneck
    from .network.topology import ClosFabric
    from .training import TrainingRunner

    runner = TrainingRunner(
        model, plan, MEGASCALE_ISO_BATCH, global_batch=global_batch, seed=seed
    )
    runner.run(2, hub=hub)
    # One DP-ring reduce-scatter's worth of gradient traffic on a small
    # fabric slice (8 nodes, one rail).
    fabric = ClosFabric(n_nodes=8, nodes_per_pod=8)
    runtime = RingCollectiveRuntime(fabric, node_of_rank=list(range(8)))
    shard_bytes = 2 * model.n_params / max(1, plan.tp * plan.pp)
    runtime.run("reduce_scatter", shard_bytes, hub=hub)
    simulate_bottleneck("megascale", n_flows=8, duration=0.01, hub=hub)


def cmd_production(args) -> int:
    from .fault import CheckpointPlanner, FaultInjector, ProductionRun
    from .model import MODEL_CATALOG
    from .parallel import plan_for_gpus

    if args.spares is not None and not args.correlated:
        raise ValueError(
            "--spares needs --correlated (an uncorrelated run has unlimited spares)"
        )
    plan = plan_for_gpus(args.gpus, tp=args.tp, pp=args.pp, vpp=args.vpp)
    model = MODEL_CATALOG[args.model]
    n_nodes = max(1, args.gpus // 8)
    spares = None
    integrity = None
    if args.correlated:
        from .fault import FLAKY_HDFS, CorrelatedFaultInjector

        injector = CorrelatedFaultInjector(n_nodes=n_nodes, rng=np.random.default_rng(args.seed))
        spares = 16 if args.spares is None else args.spares
        integrity = FLAKY_HDFS
    else:
        injector = FaultInjector(n_nodes=n_nodes, rng=np.random.default_rng(args.seed))
    hub = _make_hub(args, "production")
    if hub is not None:
        _telemetry_prologue(hub, model, plan, args.batch, args.seed)
    run = ProductionRun(
        plan,
        injector,
        planner=CheckpointPlanner(model=model, plan=plan),
        rng=np.random.default_rng(args.seed),
        spares=spares,
        integrity=integrity,
        hub=hub,
    )
    result = run.run(duration=args.weeks * 7 * 86400.0)
    print(f"restarts            : {result.restarts}")
    print(f"auto-recovered      : {result.log.auto_fraction():.1%}")
    print(f"effective time rate : {result.effective_rate(run.config.iteration_time):.1%}")
    print(f"tokens trained      : {result.tokens_trained / 1e12:.2f}T")
    if args.correlated:
        print(f"degraded intervals  : {len(result.log.degraded)}")
        print(f"fallback loads      : {result.log.fallback_loads()}")
        print(f"final dp degree     : {result.final_dp} (healthy {plan.dp})")
    if hub is not None:
        findings = run.monitors.findings
        worst = max((f.severity for _, f in findings), default="none",
                    key=lambda s: ["none", "ok", "warning", "critical"].index(s))
        print(f"health findings     : {len(findings)} (worst: {worst})")
    _save_hub(hub, args)
    return 0


def cmd_schedule(args) -> int:
    from .scheduler import run_policy

    hub = _make_hub(args, "schedule")
    report, scheduler = run_policy(args.seed, args.policy, days=args.days, hub=hub)
    print(report.describe())
    if args.compare:
        other = "fifo" if args.policy == "priority" else "priority"
        baseline, _ = run_policy(args.seed, other, days=args.days)
        delta = report.mean_goodput - baseline.mean_goodput
        print(
            f"vs {other:<8s}        : {baseline.mean_goodput:.3f} goodput "
            f"({delta:+.3f} for {args.policy})"
        )
    _save_hub(hub, args)
    return 0


def cmd_trace(args) -> int:
    from .observability.export import (
        lane_recorder,
        lane_subsystems,
        lane_summary,
        load_trace_document,
    )
    from .observability.timeline import DistributedTimeline

    document = load_trace_document(args.path)
    if args.lane is not None:
        try:
            recorder = lane_recorder(document, args.lane)
        except KeyError:
            lanes = ", ".join(lane_subsystems(document).values()) or "none"
            raise ValueError(
                f"--lane {args.lane!r} is not a lane of {args.path} (lanes: {lanes})"
            ) from None
    print(f"{'pid':>4s} {'lane':<28s} {'spans':>7s} {'instants':>9s} {'counters':>9s}  extent")
    for lane in lane_summary(document):
        extent = (
            "-" if lane["start"] is None
            else f"{lane['start']:.2f}s .. {lane['end']:.2f}s"
        )
        print(
            f"{lane['pid']:>4d} {lane['name']:<28s} {lane['spans']:>7d} "
            f"{lane['instants']:>9d} {lane['counters']:>9d}  {extent}"
        )
    if args.lane is not None:
        if len(recorder):
            print(f"\n[{args.lane}]")
            print(DistributedTimeline.from_trace(recorder).render_ascii(width=args.width))
        else:
            print(f"\n[{args.lane}] has no spans to render")
    return 0


def cmd_diagnose(args) -> int:
    from .observability.diagnosis import diagnose_files, diagnose_hub, run_scenario

    if args.trace is not None:
        report = diagnose_files(args.trace, metrics_path=args.metrics)
    else:
        report = diagnose_hub(run_scenario(args.scenario, seed=args.seed))
    print(report.describe())
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report.to_json() + "\n")
        print(f"\nwrote {args.out}")
    return 0 if (report.clean or report.findings) else 1


def cmd_tune(args) -> int:
    from .model import MODEL_CATALOG
    from .parallel import search_plans

    hub = _make_hub(args, "tune")
    cache = None
    if args.cache_dir:
        import os

        from .exec import PersistentMemo

        cache = PersistentMemo(os.path.join(args.cache_dir, "plan-search.pkl"))
    result = search_plans(
        MODEL_CATALOG[args.model],
        n_gpus=args.gpus,
        global_batch=args.batch,
        top_k=args.top,
        max_micro_batch=args.max_micro_batch,
        hub=hub,
        cache=cache,
        exhaustive=args.exhaustive,
        backend=args.backend,
    )
    for i, tuned in enumerate(result.top, 1):
        print(f"#{i}  {tuned.describe()}")
    print()
    print(result.stats.describe())
    if cache is not None:
        print(f"persistent cache: {len(cache)} priced points at {cache.path}")
    _save_hub(hub, args)
    return 0


def cmd_mc(args) -> int:
    import time

    from .montecarlo import CampaignSpec, run_campaign

    cache = None
    if args.cache_dir:
        import os

        from .exec import PersistentMemo

        cache = PersistentMemo(os.path.join(args.cache_dir, "mc-campaign.pkl"))
    spec = CampaignSpec(n_nodes=args.nodes, policy=args.policy)
    started = time.perf_counter()
    result = run_campaign(
        scenario=args.scenario,
        seeds=range(args.seeds),
        weeks=args.weeks,
        workers=args.workers,
        spec=spec,
        cache=cache,
    )
    elapsed = time.perf_counter() - started
    print(result.describe())
    print()
    mode = "serial" if args.workers == 0 else f"{args.workers} workers"
    print(f"{args.seeds} seeds in {elapsed:.2f}s ({mode})")
    if result.stats is not None and result.stats.persistent_hits:
        print(f"{result.stats.persistent_hits} seeds served from the persistent cache")
    if cache is not None:
        cache.flush()
        print(f"persistent cache: {len(cache)} seed results at {cache.path}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(result.to_json())
        print(f"campaign JSON: {args.out}")
    return 0


def cmd_validate(args) -> int:
    from .network.validation import validation_report

    n_nodes = max(1, args.gpus // args.gpus_per_node) if args.nodes is None else args.nodes
    report = validation_report(
        n_nodes=n_nodes,
        nodes_per_pod=args.nodes_per_pod,
        group_size=args.group_size,
        seed=args.seed,
        trials=args.trials,
    )
    print(report.describe())
    if report.alpha_beta_max_rel_error >= args.max_rel_error:
        print(
            f"FAIL: alpha-beta max rel error {report.alpha_beta_max_rel_error:.2e} "
            f">= {args.max_rel_error:.2e}"
        )
        return 1
    return 0


def cmd_calibrate(args) -> int:
    import os

    from .calibration import (
        CalibratedProfile,
        calibration_report,
        check_drift,
        default_fixture_dir,
        fit_profile,
        load_anchors,
        load_baseline,
    )

    fixture_dir = args.fixtures or default_fixture_dir()
    profile_path = args.profile or os.path.join(fixture_dir, "profile.json")
    baseline_path = args.baseline or os.path.join(fixture_dir, "baseline_report.json")
    # Read and check every input file before pricing any anchor.  An
    # explicit --profile must exist unless --fit is about to write it.
    anchors = load_anchors(fixture_dir)
    profile = None
    if not args.fit and (args.profile or os.path.exists(profile_path)):
        profile = CalibratedProfile.load(profile_path)
    baseline = None
    if args.check and os.path.exists(baseline_path):
        baseline = load_baseline(baseline_path)

    if args.fit:
        result = fit_profile(anchors, max_evals=args.max_evals)
        profile = result.profile
        print(
            f"fit: objective {result.initial_objective:.4f} -> {result.objective:.4f} "
            f"in {result.n_evals} evaluations (max |residual| "
            f"{result.max_abs_residual:.1%} over {len(result.residuals)} fit anchors)"
        )
        if args.save_profile:
            profile.save(profile_path)
            print(f"profile saved to {profile_path}")
    elif profile is None:
        print("no committed profile; reporting at catalog constants")

    report = calibration_report(anchors, profile=profile, workers=args.workers)
    print(report.describe())
    if args.report:
        report.save(args.report)
        print(f"residual report saved to {args.report}")

    status = 0
    if args.check:
        if baseline is None:
            print(f"FAIL: no baseline report at {baseline_path}")
            return 1
        violations = check_drift(report, baseline, drift_tolerance=args.drift_tolerance)
        for violation in violations:
            print(f"FAIL: {violation.describe()}")
        if violations:
            status = 1
        else:
            print(
                f"drift gate passed: {len(report.rows)} anchors within "
                f"±{args.drift_tolerance:.1%} of baseline"
            )
    if args.save_baseline:
        report.save(baseline_path)
        print(f"baseline saved to {baseline_path}")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="MegaScale (NSDI 2024) reproduction: simulate LLM training at scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compare", help="MegaScale vs Megatron-LM on one job")
    _add_job_args(p)
    _add_backend_arg(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="Table 2 strong-scaling sweep")
    p.add_argument("--workers", type=non_negative_int, default=0,
                   help="worker processes (0 = serial, the default)")
    _add_backend_arg(p)
    p.add_argument("--stats", action="store_true",
                   help="print executor + cost-model cache statistics")
    p.add_argument("--trace", metavar="PATH",
                   help="write a unified telemetry trace (Chrome/Perfetto JSON "
                        "+ .metrics.jsonl sidecar)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ablation", help="Table 3 optimization ladder")
    p.set_defaults(func=cmd_ablation)

    p = sub.add_parser("init", help="group-initialization times (§3.5)")
    _add_job_args(p)
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("production", help="fault-injected long run (Figure 11)")
    p.add_argument("--correlated", action="store_true",
                   help="include rack/ToR/leaf-link fault domains, a finite "
                        "spare pool, and flaky checkpoint storage")
    p.add_argument("--spares", type=non_negative_int,
                   help="spare-pool size, with --correlated only (default 16; "
                        "0 forces the elastic path)")
    _add_job_args(p)
    p.add_argument("--weeks", type=positive_float, default=2.0)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--trace", metavar="PATH",
                   help="collect spans/metrics from every subsystem (training, "
                        "collectives, network, fault, monitors) into one "
                        "Perfetto-loadable trace + .metrics.jsonl sidecar")
    p.set_defaults(func=cmd_production)

    p = sub.add_parser(
        "schedule",
        help="multi-job scheduler under multi-tenant chaos (spare arbitration, "
             "preemption, DP-shrink degradation)",
    )
    p.add_argument("--policy", choices=["priority", "fifo"], default="priority",
                   help="spare arbitration policy: priority-weighted with "
                        "preemption/shrink (default) or the naive FIFO-stall "
                        "baseline")
    p.add_argument("--days", type=positive_float, default=3.0,
                   help="simulated horizon in days (default 3)")
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--compare", action="store_true",
                   help="also run the opposite policy on the same seed and "
                        "print the goodput delta")
    p.add_argument("--trace", metavar="PATH",
                   help="emit scheduler decisions + goodput gauge on the "
                        "'scheduler' telemetry lane as a unified trace")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser(
        "mc",
        help="Monte Carlo resilience campaign: many-seed chaos/scheduler "
             "distributions with bootstrap CIs",
    )
    p.add_argument("--scenario", choices=["chaos", "scheduler"], default="chaos",
                   help="what each seed simulates: a correlated-fault "
                        "production run (default) or a multi-tenant "
                        "arbitration run")
    p.add_argument("--seeds", type=positive_int, default=256,
                   help="number of seeds (0..N-1) to simulate (default 256)")
    p.add_argument("--weeks", type=positive_float, default=1.0,
                   help="simulated horizon per seed in weeks (default 1)")
    p.add_argument("--workers", type=non_negative_int, default=0,
                   help="worker processes fanning out seeds (0 = serial; "
                        "results are byte-identical either way)")
    p.add_argument("--nodes", type=positive_int, default=512,
                   help="chaos-campaign cluster size in nodes (default 512)")
    p.add_argument("--policy", choices=["priority", "fifo"], default="priority",
                   help="scheduler-campaign arbitration policy")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="persist per-seed results across runs in "
                        "DIR/mc-campaign.pkl (versioned, safe to delete)")
    p.add_argument("--out", metavar="PATH",
                   help="write the deterministic campaign JSON here")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("trace", help="inspect/render a saved telemetry trace")
    p.add_argument("path", help="trace JSON written by --trace")
    p.add_argument("--lane", help="render this subsystem lane as ASCII")
    p.add_argument("--width", type=int_at_least(10), default=72,
                   help="ASCII rendering width (default 72)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "validate",
        help="fabric-vs-analytic agreement report (alpha-beta degeneration, "
             "placement deltas, port-split benefit)",
    )
    p.add_argument("--gpus", type=positive_int, default=12288,
                   help="cluster size; nodes = gpus / gpus-per-node (default 12288, "
                        "the paper's scale)")
    p.add_argument("--gpus-per-node", type=positive_int, default=8)
    p.add_argument("--nodes", type=positive_int, default=None,
                   help="node count, overriding --gpus/--gpus-per-node")
    p.add_argument("--nodes-per-pod", type=positive_int, default=64)
    p.add_argument("--group-size", type=int_at_least(2), default=8,
                   help="ring size priced under each placement")
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--trials", type=positive_int, default=200,
                   help="Monte-Carlo trials for the ECMP conflict model")
    p.add_argument("--max-rel-error", type=positive_float, default=1e-9,
                   help="fail (exit 1) if the same-ToR fabric price deviates "
                        "from the alpha-beta closed form by this much or more")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "diagnose",
        help="root-cause attribution over a saved trace or an injected scenario",
    )
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--trace", help="saved trace document (from --trace/hub.save)")
    source.add_argument(
        "--scenario", type=scenario_name,
        help="run an injected-cause scenario inline "
             "(clean, straggler, tor-blast, ecmp-collision, preemption, data-stall)",
    )
    p.add_argument(
        "--metrics",
        help="metrics JSONL sidecar (default: derived from the trace path)",
    )
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--out", help="also write the machine-readable JSON report here")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("tune", help="auto-tune 3D parallelism (exact bound-and-prune search)")
    _add_workload_args(p)
    _add_backend_arg(p)
    p.add_argument("--top", type=positive_int, default=5)
    p.add_argument("--max-micro-batch", type=positive_int, default=2,
                   help="largest micro-batch size searched")
    p.add_argument("--exhaustive", action="store_true",
                   help="price every feasible candidate (disables pruning; "
                        "useful to verify the pruned search)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="persist priced plans across runs in DIR/plan-search.pkl "
                        "(versioned by cost-model fingerprint, safe to delete)")
    p.add_argument("--trace", metavar="PATH",
                   help="write search telemetry (spans/counters on the exec lane) "
                        "as a unified trace + .metrics.jsonl sidecar")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser(
        "calibrate",
        help="fit/check cost models against published profiles (SC21 + NSDI24)",
    )
    p.add_argument("--fixtures", metavar="DIR",
                   help="fixture directory (default: data/calibration/)")
    p.add_argument("--profile", metavar="PATH",
                   help="calibrated profile JSON to load or save "
                        "(default: <fixtures>/profile.json)")
    p.add_argument("--fit", action="store_true",
                   help="refit the profile against the fit=true anchors "
                        "(minutes; CI loads the committed profile instead)")
    p.add_argument("--max-evals", type=positive_int, default=120,
                   help="objective-evaluation budget for the fit")
    p.add_argument("--save-profile", action="store_true",
                   help="with --fit: write the fitted profile to --profile")
    p.add_argument("--report", metavar="PATH",
                   help="write the deterministic per-anchor residual report JSON")
    p.add_argument("--check", action="store_true",
                   help="gate on prediction drift vs the committed baseline "
                        "(exit 1 on violation)")
    p.add_argument("--baseline", metavar="PATH",
                   help="baseline report for --check/--save-baseline "
                        "(default: <fixtures>/baseline_report.json)")
    p.add_argument("--save-baseline", action="store_true",
                   help="overwrite the committed baseline with this report")
    p.add_argument("--drift-tolerance", type=positive_float, default=0.02,
                   help="relative prediction drift allowed vs baseline")
    p.add_argument("--workers", type=non_negative_int, default=0,
                   help="worker processes for anchor prediction (0 = serial)")
    p.set_defaults(func=cmd_calibrate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        parser.error(" ".join(str(exc).split()))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
