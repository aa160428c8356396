#!/usr/bin/env python3
"""The simulator's benchmark: one workload, one run, one JSON result.

Usage, from the repository root::

    python3 perfbench/run.py --workload plan-search --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py``): ``plan-search``, ``anchor-replay``,
``fabric-search`` and ``resilience-mc``.  Each runs as one closed-loop
client in this process (``workers=0``): the next op starts when the last
one returns.  A *pass* runs the workload's whole input universe once in
a seed-drawn order; a run repeats passes until ``--seconds`` is reached
(at least two passes), so every run measures the same mix of work.

Times are in *reference-host seconds*.  The host's speed drifts by tens
of percent within minutes, so a short fixed slice of pure-Python work
(``calibration_sample``) runs after every op and in every setup probe,
and each time is scaled by ``CALIBRATION_REF_S`` over the
median slice time of the samples nearest to it (``HostClock``).  The
unscaled throughput and the run's overall scale are kept in the
provenance.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:

* ``setup_s`` — fresh process to first op ready (import, input
  generation, fixtures and expected outputs), the median of
  several fresh child processes;
* ``ops_per_s`` — ops completed per (reference-host) second of op time;
* ``op_p50_ms`` and ``op_tail_ms`` — median op latency and the
  latency at the highest percentile that leaves at least ten ops beyond
  it in a two-pass run (the percentile is fixed per workload, so runs
  with more passes stay comparable), both Harrell-Davis estimates;
* ``peak_rss_mb`` — peak resident memory of this process.

``--trace 1`` runs one untraced pass, then the same pass again with
every layer entry point wrapped (``tracing.py``), and reports per-layer
self times, counts and cache ratios summed over the traced pass, plus
the tracing overhead (traced vs untraced ops/s).  It fails if an entry
point the workload must reach recorded no call.

Every op's output is checked; a wrong answer counts as a failed op.  The
last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the run's provenance (host, versions, git sha,
seed, op and pass counts, spread).  Full results, and the traced run's
spans, are written under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

MIN_PASSES = 2
TAIL_OPS_BEYOND = 10
SETUP_SAMPLES = 7
SETUP_CALIBRATION = 5  # calibration slices per setup probe
DEADLINE_S = 120.0  # start no new pass after this much measuring
# Nominal calibration_sample() time: times are reported as if every
# calibration slice had taken exactly this long.
CALIBRATION_REF_S = 2.0e-3
CALIBRATION_WINDOW = 2  # samples each side of an op whose median scales it

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def setup(workload: str, seed: int):
    """Import the simulator from this checkout and build the workload."""
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, not {SRC}")
    import workloads

    return workloads.build(workload, seed)


def calibration_sample() -> float:
    """Seconds for a fixed slice of pure-Python integer arithmetic.

    The host's speed drifts by tens of percent within minutes (other
    tenants share its cores), and the simulator's op times drift with
    it.  This slice runs after every op and in every setup probe (see
    :class:`HostClock` and :func:`time_setups`).  Measured against
    windows of plan-search and Monte Carlo ops, its time moves with
    theirs at a slope close to 1, where object- and dict-heavy slices
    moved about half as much.
    """
    start = time.perf_counter()
    acc = 0
    for k in range(30000):
        acc += k * k % 7
    return time.perf_counter() - start


class HostClock:
    """Calibration samples through one run, to scale its host times.

    An op's time is scaled by ``CALIBRATION_REF_S`` over the median of
    the ``CALIBRATION_WINDOW`` samples taken nearest to it on either
    side: the median follows the host's speed over the seconds around
    the op but ignores a single slice caught in a burst.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> int:
        """Take one sample; its index."""
        self.samples.append(calibration_sample())
        return len(self.samples) - 1

    def scaled(self, elapsed: float, after: int) -> float:
        """``elapsed`` host seconds, measured just before sample ``after``,
        in reference-host seconds."""
        low = max(0, after - CALIBRATION_WINDOW)
        window = self.samples[low:after + CALIBRATION_WINDOW]
        return elapsed * CALIBRATION_REF_S / statistics.median(window)

    @property
    def scale(self) -> float:
        """The run's overall reference-host seconds per host second."""
        return CALIBRATION_REF_S / statistics.median(self.samples)


def time_setups(workload: str, seed: int) -> List[float]:
    """Reference-host seconds from spawning a fresh process to its first
    op being ready.

    The child runs calibration slices right after it is ready, on the
    core it ran its setup on, and its own median slice time scales it.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            calibration = proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup child failed (exit {code})")
        samples.append((ready - start) * CALIBRATION_REF_S / float(calibration))
    return samples


@dataclass
class Measurement:
    """Op latencies (host seconds) and pass accounting of a run."""

    clock: HostClock
    latencies: List[float] = field(default_factory=list)
    after_sample: List[int] = field(default_factory=list)  # clock index per op
    pass_ops: List[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def run_pass(self, workload, tracer=None) -> None:
        self.clock.sample()
        for index, op in enumerate(workload.ops):
            if tracer is not None:
                tracer.op = index
            self.attempted += 1
            start = time.perf_counter()
            try:
                output = workload.run(op)
            except Exception:  # a crashing op is a failed op, not a dead run
                if not self.failed:
                    traceback.print_exc()
                self.failed += 1
                output = None
            self.latencies.append(time.perf_counter() - start)
            self.after_sample.append(self.clock.sample())
            if output is not None and not workload.check(op, output):
                if not self.failed:
                    print(f"wrong output for op {op!r}", file=sys.stderr)
                self.failed += 1
        self.pass_ops.append(len(workload.ops))

    def scaled_latencies(self) -> List[float]:
        """Op latencies in reference-host seconds."""
        return [self.clock.scaled(x, j) for x, j in zip(self.latencies, self.after_sample)]

    @property
    def raw_ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)

    @property
    def ops_per_s(self) -> float:
        """Ops per reference-host second."""
        return len(self.latencies) / sum(self.scaled_latencies())

    def pass_ops_per_s(self) -> List[float]:
        rates, latencies = [], self.scaled_latencies()
        for n in self.pass_ops:
            rates.append(n / sum(latencies[:n]))
            latencies = latencies[n:]
        return rates


def harrell_davis(values: List[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-quantile of ``values``.

    A Beta(q(n+1), (1-q)(n+1))-weighted mean of all order statistics.
    Op latencies cluster by input size, and a single order statistic
    jumps between clusters with small timing noise; this estimate moved
    half as much across runs as the plain median did on anchor-replay.
    The Beta CDF at i/n is integrated with the midpoint rule.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 32
    width = 1.0 / (n * steps)
    masses = []
    for i in range(n):
        mass = 0.0
        for k in range(steps):
            t = (i * steps + k + 0.5) * width
            mass += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        masses.append(mass)
    total = sum(masses)
    return sum(m * x for m, x in zip(masses, ordered)) / total


def tail_quantile(pass_ops: int) -> float:
    """Highest quantile with TAIL_OPS_BEYOND ops beyond it in a minimal run."""
    return 1.0 - TAIL_OPS_BEYOND / (MIN_PASSES * pass_ops)


def spread(values: List[float]) -> float:
    """(max - min) / median of per-pass throughputs."""
    return (max(values) - min(values)) / statistics.median(values)


def git_sha() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # an exported checkout
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(args, workload, measurement: Measurement) -> dict:
    import numpy

    pass_rates = measurement.pass_ops_per_s()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "ops": measurement.attempted,
        "ops_per_pass": len(workload.ops),
        "passes": len(pass_rates),
        "pass_ops_per_s": pass_rates,
        "pass_spread": spread(pass_rates),
        "raw_ops_per_s": measurement.raw_ops_per_s,
        "host_scale": measurement.clock.scale,
        "calibration_samples": len(measurement.clock.samples),
        "error_rate": measurement.failed / measurement.attempted,
    }


def end_to_end(args, workload) -> tuple:
    setups = time_setups(args.workload, args.seed)
    measurement = Measurement(HostClock())
    start = time.perf_counter()
    while True:
        measurement.run_pass(workload)
        elapsed = time.perf_counter() - start
        passes = len(measurement.pass_ops)
        # Stop at the pass boundary nearest the requested run length.
        if passes >= MIN_PASSES and (
            elapsed + elapsed / passes / 2 >= args.seconds or elapsed >= DEADLINE_S
        ):
            break
    q = tail_quantile(len(workload.ops))
    latencies = measurement.scaled_latencies()
    tail = harrell_davis(latencies, q)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": measurement.ops_per_s,
        "op_p50_ms": 1e3 * harrell_davis(latencies, 0.5),
        "op_tail_ms": 1e3 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "setup_samples_s": setups,
        "tail_percentile": 100 * q,
        "tail_ops_beyond": sum(1 for x in latencies if x > tail),
    }
    return measurement, {name: (values[name], unit) for name, unit in END_TO_END}, extra


def traced(args, workload) -> tuple:
    import tracing

    clock = HostClock()
    untraced = Measurement(clock)
    untraced.run_pass(workload)
    measurement = Measurement(clock)
    with tracing.Tracer() as tracer:
        measurement.run_pass(workload, tracer)
    missing = tracer.missing(args.workload)
    if missing:
        raise SystemExit(f"entry points recorded no call on {args.workload}: {missing}")
    values = tracer.layer_metrics()
    values["trace.untraced_ops_per_s"] = untraced.ops_per_s
    values["trace.traced_ops_per_s"] = measurement.ops_per_s
    values["trace.overhead"] = untraced.ops_per_s / measurement.ops_per_s
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-spans.json")
    tracer.write(spans_path)
    # Both passes' ops count as attempted; accounting covers the traced pass.
    measurement.attempted += untraced.attempted
    measurement.failed += untraced.failed
    metrics = {name: (values[name], unit) for name, unit in tracing.LAYER_METRICS}
    return measurement, metrics, {"spans": len(tracer.spans), "spans_path": spans_path,
                                  "layers": tracer.layer_totals()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (setup_s probe)")
    args = parser.parse_args(argv)

    workload = setup(args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        print(statistics.median(calibration_sample() for _ in range(SETUP_CALIBRATION)))
        return 0

    measure = traced if args.trace else end_to_end
    measurement, metrics, extra = measure(args, workload)
    record = provenance(args, workload, measurement)
    record.update({k: v for k, v in extra.items() if k != "layers"})
    result = {
        "correct": measurement.failed == 0,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"provenance": record, "result": result,
                   "layers": extra.get("layers")}, fh, indent=1)
    print(json.dumps({"provenance": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
